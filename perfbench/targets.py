"""Target modules for the benchmark, built with ``wasmwarden.ir``.

These constructors live here, not in the test suite, so that a change to the
tests cannot change a workload. ``victim_module`` must stay byte-identical
to the test suite's overflow victim (the self-test checks this).
"""

from __future__ import annotations

import random

from wasmwarden.ir import (
    ElemSegment,
    Export,
    FuncType,
    FunctionIR,
    Global,
    I,
    Import,
    Instr,
    ModuleIR,
)

WASI = "wasi_snapshot_preview1"
FD_IO_TYPE = FuncType(("i32", "i32", "i32", "i32"), ("i32",))

SP_INIT = 4096  # shadow stack top; grows down
HEAP_BASE = 8192
INPUT_ADDR = 1024
IOV_ADDR = 8
NREAD_ADDR = 16
M32 = 0xFFFFFFFF

# allocator size class: requests up to this many bytes get a recycled
# block of exactly this capacity
BLOCK = 64


def _s32(v: int) -> int:
    v &= M32
    return v - (1 << 32) if v & 0x80000000 else v


def _new_module(pages: int = 2) -> ModuleIR:
    """fd_read/fd_write imports, one memory, mutable i32 stack pointer at
    global 0, exported memory."""
    m = ModuleIR()
    for name in ("fd_read", "fd_write"):
        m.imports.append(Import(WASI, name, "func", m.add_type(FD_IO_TYPE)))
    m.memory = (pages, None)
    m.globals.append(Global("i32", True, [I("i32.const", SP_INIT)]))
    m.exports.append(Export("memory", "memory", 0))
    return m


def _add_func(m: ModuleIR, params, results, locals_, body,
              export: str | None = None) -> int:
    idx = m.num_funcs
    ti = m.add_type(FuncType(tuple(params), tuple(results)))
    m.functions.append(FunctionIR(ti, list(locals_), list(body)))
    if export:
        m.exports.append(Export(export, "func", idx))
    return idx


def _read_stdin(maxlen: int) -> list[Instr]:
    """fd_read(stdin) into INPUT_ADDR; the byte count lands at NREAD_ADDR."""
    return [
        I("i32.const", IOV_ADDR), I("i32.const", INPUT_ADDR),
        I("i32.store", 2, 0),
        I("i32.const", IOV_ADDR + 4), I("i32.const", maxlen),
        I("i32.store", 2, 0),
        I("i32.const", 0), I("i32.const", IOV_ADDR), I("i32.const", 1),
        I("i32.const", NREAD_ADDR), I("call", 0), I("drop"),
    ]


def _counted_loop(counter: int, limit: list[Instr],
                  body: list[Instr]) -> list[Instr]:
    """``for counter in range(limit): body`` (counter starts at 0)."""
    return [
        I("i32.const", 0), I("local.set", counter),
        I("block", None),
        I("loop", None),
        I("local.get", counter), *limit, I("i32.ge_u"), I("br_if", 1),
        *body,
        I("local.get", counter), I("i32.const", 1), I("i32.add"),
        I("local.set", counter),
        I("br", 0),
        I("end"),
        I("end"),
    ]


# ---------------------------------------------------------------------------
def victim_module() -> ModuleIR:
    """Inputs starting with "42" copy up to 23 bytes into an 8-byte stack
    buffer. The write stays inside the function's own frame, so only the
    stack-canary pass turns it into a trap."""
    m = _new_module()
    # process(ptr, n): locals i=2, buf=3
    process_body = [
        I("local.get", 0), I("i32.load8_u", 0, 0),
        I("i32.const", 0x34), I("i32.eq"),
        I("if", None),
        I("local.get", 0), I("i32.load8_u", 0, 1),
        I("i32.const", 0x32), I("i32.eq"),
        I("if", None),
        I("global.get", 0), I("i32.const", 32), I("i32.sub"),
        I("global.set", 0),
        I("global.get", 0), I("i32.const", 24), I("i32.add"),
        I("local.set", 3),
        I("local.get", 1), I("i32.const", 23), I("i32.gt_u"),
        I("if", None), I("i32.const", 23), I("local.set", 1), I("end"),
        I("i32.const", 0), I("local.set", 2),
        I("block", None),
        I("loop", None),
        I("local.get", 2), I("local.get", 1), I("i32.ge_u"), I("br_if", 1),
        I("local.get", 3), I("local.get", 2), I("i32.add"),
        I("local.get", 0), I("local.get", 2), I("i32.add"),
        I("i32.load8_u", 0, 0),
        I("i32.store8", 0, 0),
        I("local.get", 2), I("i32.const", 1), I("i32.add"),
        I("local.set", 2),
        I("br", 0),
        I("end"),
        I("end"),
        I("global.get", 0), I("i32.const", 32), I("i32.add"),
        I("global.set", 0),
        I("end"),
        I("end"),
        I("end"),
    ]
    process = _add_func(m, ("i32", "i32"), (), ("i32", "i32"), process_body)
    start_body = _read_stdin(256) + [
        I("i32.const", INPUT_ADDR),
        I("i32.const", NREAD_ADDR), I("i32.load", 2, 0),
        I("call", process),
        I("end"),
    ]
    _add_func(m, (), (), (), start_body, export="_start")
    return m


# ---------------------------------------------------------------------------
def _add_allocator(m: ModuleIR) -> tuple[int, int]:
    """Exported malloc/free: a bump allocator with one LIFO free list for
    BLOCK-sized blocks. A block carries its capacity 8 bytes below the
    pointer it hands out; a free block keeps the next pointer in its first
    word. Neither function uses ``return``, so the heap pass's postamble
    sees every result."""
    heap = m.num_globals
    m.globals.append(Global("i32", True, [I("i32.const", HEAP_BASE)]))
    head = heap + 1
    m.globals.append(Global("i32", True, [I("i32.const", 0)]))
    # malloc(n): local 1 = block
    malloc_body = [
        I("local.get", 0), I("i32.const", BLOCK), I("i32.le_u"),
        I("if", None), I("i32.const", BLOCK), I("local.set", 0), I("end"),
        I("local.get", 0), I("i32.const", BLOCK), I("i32.eq"),
        I("global.get", head), I("i32.const", 0), I("i32.ne"),
        I("i32.and"),
        I("if", "i32"),
        I("global.get", head), I("local.set", 1),
        I("local.get", 1), I("i32.load", 2, 0), I("global.set", head),
        I("local.get", 1),
        I("else"),
        I("global.get", heap), I("local.get", 0), I("i32.store", 2, 0),
        I("global.get", heap), I("i32.const", 8), I("i32.add"),
        I("local.set", 1),
        I("local.get", 1),
        I("local.get", 0), I("i32.const", 7), I("i32.add"),
        I("i32.const", -8), I("i32.and"),
        I("i32.add"), I("global.set", heap),
        I("local.get", 1),
        I("end"),
        I("end"),
    ]
    malloc = _add_func(m, ("i32",), ("i32",), ("i32",), malloc_body,
                       export="malloc")
    free_body = [
        I("local.get", 0),
        I("if", None),
        I("local.get", 0), I("i32.const", 8), I("i32.sub"),
        I("i32.load", 2, 0), I("i32.const", BLOCK), I("i32.eq"),
        I("if", None),
        I("local.get", 0), I("global.get", head), I("i32.store", 2, 0),
        I("local.get", 0), I("global.set", head),
        I("end"),
        I("end"),
        I("end"),
    ]
    free = _add_func(m, ("i32",), (), (), free_body, export="free")
    return malloc, free


# ---------------------------------------------------------------------------
# big module for the static pipeline: n_funcs generated functions
# f(a, budget) -> i32 built from random segments (arithmetic, if/else,
# bounded loops, br_table, heap and shadow-stack use, and calls to lower
# functions, direct or through the table). Calls only go to lower indices
# and only while ``budget`` is non-zero, passing budget - 1, so every run
# is short and finite.

# 250 functions keep one pipeline rep near 0.2 s, so a run holds enough
# reps for a steady best-of on a host whose speed drifts
BIG_FUNCS = 250
# _start enters through the top 16 functions only, which bounds the
# coverage a campaign on the module can reach
BIG_ENTRIES = 16
BIG_SEGMENTS = 3  # per function; kinds are drawn, so sizes vary little
BIG_CALL_BUDGET = 3


def _big_segment(rng: random.Random, kind: str, idx: int, first: int,
                 malloc: int, free: int, ftype: int) -> list[Instr]:
    a, budget, x, y, i, p = range(6)
    c = _s32(rng.getrandbits(32))
    if kind == "arith":
        return [
            I("local.get", a), I("i32.const", c | 1), I("i32.mul"),
            I("local.get", x), I("i32.xor"),
            I("i32.const", rng.randrange(1, 32)), I("i32.rotl"),
            I("local.set", x),
        ]
    if kind == "if":
        return [
            I("local.get", x), I("i32.const", _s32(1 << rng.randrange(32))),
            I("i32.and"),
            I("if", None),
            I("local.get", x), I("i32.const", c), I("i32.add"),
            I("local.set", x),
            I("else"),
            I("local.get", y), I("local.get", x), I("i32.sub"),
            I("local.set", y),
            I("end"),
        ]
    if kind == "loop":
        return _counted_loop(i, [I("i32.const", rng.randrange(2, 6))], [
            I("local.get", x), I("local.get", i), I("i32.add"),
            I("i32.const", c | 1), I("i32.mul"), I("local.set", x),
        ])
    if kind == "br_table":
        return [
            I("block", None), I("block", None), I("block", None),
            I("local.get", x), I("i32.const", 3), I("i32.and"),
            I("br_table", (0, 1), 2),
            I("end"),
            I("local.get", x), I("i32.const", c), I("i32.xor"),
            I("local.set", x), I("br", 1),
            I("end"),
            I("local.get", y), I("i32.const", c), I("i32.add"),
            I("local.set", y),
            I("end"),
        ]
    if kind == "heap":
        return [
            I("i32.const", rng.randrange(4, 40)), I("call", malloc),
            I("local.set", p),
            I("local.get", p), I("local.get", x), I("i32.store", 2, 0),
            I("local.get", p), I("i32.load", 2, 0), I("local.get", y),
            I("i32.add"), I("local.set", y),
            I("local.get", p), I("call", free),
        ]
    if kind == "stack":
        return [
            I("global.get", 0), I("i32.const", 16), I("i32.sub"),
            I("global.set", 0),
            I("global.get", 0), I("local.get", x), I("i32.store", 2, 0),
            I("global.get", 0), I("i32.load", 2, 0), I("local.get", y),
            I("i32.xor"), I("local.set", y),
            I("global.get", 0), I("i32.const", 16), I("i32.add"),
            I("global.set", 0),
        ]
    # call: a lower function, direct or through the table
    target = rng.randrange(max(0, idx - 16), idx)
    if rng.random() < 0.5:
        call = [I("call", first + target)]
    else:
        call = [I("i32.const", target), I("call_indirect", ftype)]
    return [
        I("local.get", budget),
        I("if", None),
        I("local.get", x),
        I("local.get", budget), I("i32.const", 1), I("i32.sub"),
        *call,
        I("local.get", y), I("i32.add"), I("local.set", y),
        I("end"),
    ]


_BIG_KINDS = ("arith", "if", "loop", "br_table", "heap", "stack", "call")


def big_module(seed: int, n_funcs: int = BIG_FUNCS) -> ModuleIR:
    """A generated module of ``n_funcs`` functions for the static pipeline.
    The same seed gives the same module."""
    rng = random.Random(seed)
    m = _new_module()
    malloc, free = _add_allocator(m)
    ftype = m.add_type(FuncType(("i32", "i32"), ("i32",)))
    first = m.num_funcs
    for idx in range(n_funcs):
        body = [
            I("local.get", 0), I("local.set", 2),
            I("local.get", 0), I("i32.const", _s32(rng.getrandbits(32))),
            I("i32.xor"), I("local.set", 3),
        ]
        for _ in range(BIG_SEGMENTS):
            kind = rng.choice(_BIG_KINDS)
            if kind == "call" and idx == 0:
                kind = "arith"
            body += _big_segment(rng, kind, idx, first, malloc, free, ftype)
        body += [I("local.get", 2), I("local.get", 3), I("i32.add"),
                 I("end")]
        m.functions.append(FunctionIR(ftype, ["i32"] * 4, body))
    m.table = (n_funcs, n_funcs)
    m.elems.append(
        ElemSegment([I("i32.const", 0)], list(range(first, first + n_funcs)))
    )
    # _start: four table calls, each into one of the top BIG_ENTRIES
    # functions, picked by an input word
    start_body = _read_stdin(16)
    for w in range(4):
        start_body += [
            I("i32.const", INPUT_ADDR + 4 * w), I("i32.load", 2, 0),
            I("local.set", 0),
            I("local.get", 0), I("i32.const", BIG_CALL_BUDGET),
            I("local.get", 0), I("i32.const", BIG_ENTRIES - 1), I("i32.and"),
            I("i32.const", n_funcs - BIG_ENTRIES), I("i32.add"),
            I("call_indirect", ftype),
            I("drop"),
        ]
    start_body.append(I("end"))
    _add_func(m, (), (), ("i32",), start_body, export="_start")
    return m
