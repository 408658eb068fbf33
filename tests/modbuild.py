"""Hand-built test modules: victims, an allocator, and a differential
corpus of small WASI programs that write their results to stdout."""

from __future__ import annotations

import struct

from wasmwarden.ir import (
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
PROC_EXIT_TYPE = FuncType(("i32",), ())

SP_INIT = 4096  # shadow stack top; grows down
INPUT_ADDR = 1024
OUT_ADDR = 64
IOV_ADDR = 8
NREAD_ADDR = 16


def new_module(imports=("fd_read", "fd_write"), pages=2) -> ModuleIR:
    """Scaffold: chosen WASI imports, linear memory, and a mutable i32
    stack-pointer global at index 0."""
    m = ModuleIR()
    for name in imports:
        sig = PROC_EXIT_TYPE if name == "proc_exit" else FD_IO_TYPE
        m.imports.append(Import(WASI, name, "func", m.add_type(sig)))
    m.memory = (pages, None)
    m.globals.append(Global("i32", True, [I("i32.const", SP_INIT)]))
    m.exports.append(Export("memory", "memory", 0))
    return m


def add_func(m: ModuleIR, params, results, locals_, body,
             export=None, name=None) -> int:
    idx = m.num_funcs
    ti = m.add_type(FuncType(tuple(params), tuple(results)))
    m.functions.append(FunctionIR(ti, list(locals_), list(body)))
    if export:
        m.exports.append(Export(export, "func", idx))
    if name:
        m.names[idx] = name
    return idx


def add_start(m: ModuleIR, body, locals_=()) -> int:
    return add_func(m, (), (), locals_, body, export="_start")


def read_stdin(maxlen=8, dst=INPUT_ADDR, fd_read_idx=0) -> list[Instr]:
    """fd_read(stdin) into ``dst``; bytes-read count lands at NREAD_ADDR."""
    return [
        I("i32.const", IOV_ADDR), I("i32.const", dst), I("i32.store", 2, 0),
        I("i32.const", IOV_ADDR + 4), I("i32.const", maxlen),
        I("i32.store", 2, 0),
        I("i32.const", 0), I("i32.const", IOV_ADDR), I("i32.const", 1),
        I("i32.const", NREAD_ADDR), I("call", fd_read_idx), I("drop"),
    ]


def write_stdout(n=4, src=OUT_ADDR, fd_write_idx=1) -> list[Instr]:
    return [
        I("i32.const", IOV_ADDR), I("i32.const", src), I("i32.store", 2, 0),
        I("i32.const", IOV_ADDR + 4), I("i32.const", n), I("i32.store", 2, 0),
        I("i32.const", 1), I("i32.const", IOV_ADDR), I("i32.const", 1),
        I("i32.const", NREAD_ADDR), I("call", fd_write_idx), I("drop"),
    ]


def load_x() -> list[Instr]:
    return [I("i32.const", INPUT_ADDR), I("i32.load", 2, 0)]


def load_y() -> list[Instr]:
    return [I("i32.const", INPUT_ADDR + 4), I("i32.load", 2, 0)]


# ---------------------------------------------------------------------------
def echo_module() -> ModuleIR:
    """Copy up to 64 bytes of stdin to stdout."""
    m = new_module()
    body = (
        read_stdin(maxlen=64)
        # reuse the read iovec, patching the length to the bytes read
        + [
            I("i32.const", IOV_ADDR + 4),
            I("i32.const", NREAD_ADDR), I("i32.load", 2, 0),
            I("i32.store", 2, 0),
            I("i32.const", 1), I("i32.const", IOV_ADDR), I("i32.const", 1),
            I("i32.const", NREAD_ADDR), I("call", 1), I("drop"),
            I("end"),
        ]
    )
    add_start(m, body)
    return m


def victim_module() -> ModuleIR:
    """Inputs starting with "42" trigger a forward overflow of a 8-byte
    stack buffer (copies up to 23 bytes); harmless without hardening since
    every write stays inside the function's own reserved region."""
    m = new_module()
    # process(ptr, n): locals i=2, buf=3
    process_body = [
        I("local.get", 0), I("i32.load8_u", 0, 0),
        I("i32.const", 0x34), I("i32.eq"),
        I("if", None),
        I("local.get", 0), I("i32.load8_u", 0, 1),
        I("i32.const", 0x32), I("i32.eq"),
        I("if", None),
        # open a 32-byte frame
        I("global.get", 0), I("i32.const", 32), I("i32.sub"),
        I("global.set", 0),
        I("global.get", 0), I("i32.const", 24), I("i32.add"),
        I("local.set", 3),
        # clamp n to 23 so the copy never leaves the frame
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
        # close the frame
        I("global.get", 0), I("i32.const", 32), I("i32.add"),
        I("global.set", 0),
        I("end"),
        I("end"),
        I("end"),
    ]
    process = add_func(m, ("i32", "i32"), (), ("i32", "i32"), process_body)
    start_body = read_stdin(maxlen=256) + [
        I("i32.const", INPUT_ADDR),
        I("i32.const", NREAD_ADDR), I("i32.load", 2, 0),
        I("call", process),
        I("end"),
    ]
    add_start(m, start_body)
    return m


def branchy_module() -> ModuleIR:
    """3-branch demo: first input byte picks one of 4 outputs."""
    m = new_module()
    body = read_stdin(maxlen=4) + [
        I("i32.const", OUT_ADDR),
        I("i32.const", INPUT_ADDR), I("i32.load8_u", 0, 0),
        I("local.set", 0),
        I("local.get", 0), I("i32.const", 0x61), I("i32.eq"),  # 'a'
        I("if", "i32"),
        I("i32.const", 111),
        I("else"),
        I("local.get", 0), I("i32.const", 0x62), I("i32.eq"),  # 'b'
        I("if", "i32"),
        I("i32.const", 222),
        I("else"),
        I("local.get", 0), I("i32.const", 0x63), I("i32.eq"),  # 'c'
        I("if", "i32"),
        I("i32.const", 333),
        I("else"),
        I("i32.const", 444),
        I("end"),
        I("end"),
        I("end"),
        I("i32.store", 2, 0),
    ] + write_stdout(4) + [I("end")]
    add_start(m, body, locals_=("i32",))
    return m


def bump_alloc_module(use_names=False) -> ModuleIR:
    """Bump allocator exposing the C allocator entry points. free is a
    no-op and memory starts zeroed, so calloc can skip clearing."""
    m = ModuleIR()
    m.memory = (4, None)
    m.globals.append(Global("i32", True, [I("i32.const", SP_INIT)]))
    m.globals.append(Global("i32", True, [I("i32.const", 8192)]))  # heap
    m.exports.append(Export("memory", "memory", 0))

    malloc_body = [
        I("global.get", 1), I("local.set", 1),
        I("global.get", 1),
        I("local.get", 0), I("i32.const", 7), I("i32.add"),
        I("i32.const", -8), I("i32.and"),
        I("i32.add"), I("global.set", 1),
        I("local.get", 1),
        I("end"),
    ]
    malloc = add_func(m, ("i32",), ("i32",), ("i32",), malloc_body)
    free = add_func(m, ("i32",), (), (), [I("end")])
    # inline bump rather than a call: a libc's calloc uses its own
    # internal allocation path, not the exported (instrumented) malloc
    calloc_body = [
        I("global.get", 1), I("local.set", 2),
        I("global.get", 1),
        I("local.get", 0), I("local.get", 1), I("i32.mul"),
        I("i32.const", 7), I("i32.add"),
        I("i32.const", -8), I("i32.and"),
        I("i32.add"), I("global.set", 1),
        I("local.get", 2),
        I("end"),
    ]
    calloc = add_func(m, ("i32", "i32"), ("i32",), ("i32",), calloc_body)
    # realloc(ptr, size): bump-allocate then copy size bytes; locals 2,3
    realloc_body = [
        I("global.get", 1), I("local.set", 2),
        I("global.get", 1),
        I("local.get", 1), I("i32.const", 7), I("i32.add"),
        I("i32.const", -8), I("i32.and"),
        I("i32.add"), I("global.set", 1),
        I("i32.const", 0), I("local.set", 3),
        I("block", None),
        I("loop", None),
        I("local.get", 3), I("local.get", 1), I("i32.ge_u"), I("br_if", 1),
        I("local.get", 2), I("local.get", 3), I("i32.add"),
        I("local.get", 0), I("local.get", 3), I("i32.add"),
        I("i32.load8_u", 0, 0),
        I("i32.store8", 0, 0),
        I("local.get", 3), I("i32.const", 1), I("i32.add"),
        I("local.set", 3),
        I("br", 0),
        I("end"),
        I("end"),
        I("local.get", 2),
        I("end"),
    ]
    realloc = add_func(m, ("i32", "i32"), ("i32",), ("i32", "i32"),
                       realloc_body)
    for name, idx in (("malloc", malloc), ("free", free),
                      ("calloc", calloc), ("realloc", realloc)):
        if use_names:
            m.names[idx] = name
        else:
            m.exports.append(Export(name, "func", idx))
    return m


# ---------------------------------------------------------------------------
# differential corpus: (name, module, benign inputs)

def _binop_program(expr: list[Instr]) -> ModuleIR:
    m = new_module()
    body = (
        read_stdin(maxlen=8)
        + [I("i32.const", OUT_ADDR)]
        + expr
        + [I("i32.store", 2, 0)]
        + write_stdout(4)
        + [I("end")]
    )
    add_start(m, body)
    return m


def _byte_sum_program() -> ModuleIR:
    m = new_module()
    body = read_stdin(maxlen=8) + [
        I("i32.const", 0), I("local.set", 0),  # sum
        I("i32.const", 0), I("local.set", 1),  # i
        I("block", None),
        I("loop", None),
        I("local.get", 1), I("i32.const", 8), I("i32.ge_u"), I("br_if", 1),
        I("local.get", 0),
        I("i32.const", INPUT_ADDR), I("local.get", 1), I("i32.add"),
        I("i32.load8_u", 0, 0),
        I("i32.add"), I("local.set", 0),
        I("local.get", 1), I("i32.const", 1), I("i32.add"),
        I("local.set", 1),
        I("br", 0),
        I("end"),
        I("end"),
        I("i32.const", OUT_ADDR), I("local.get", 0), I("i32.store", 2, 0),
    ] + write_stdout(4) + [I("end")]
    add_start(m, body, locals_=("i32", "i32"))
    return m


def _i64_program() -> ModuleIR:
    m = new_module()
    body = (
        read_stdin(maxlen=8)
        + [
            I("i32.const", OUT_ADDR),
            I("i32.const", INPUT_ADDR), I("i64.load", 3, 0),
            I("i64.const", 0x9E3779B97F4A7C15 - (1 << 64)),
            I("i64.mul"),
            I("i64.const", 17), I("i64.rotl"),
            I("i64.store", 3, 0),
        ]
        + write_stdout(8)
        + [I("end")]
    )
    add_start(m, body)
    return m


def _f64_program() -> ModuleIR:
    m = new_module()
    body = (
        read_stdin(maxlen=8)
        + [
            I("i32.const", OUT_ADDR),
        ]
        + load_x()
        + [I("f64.convert_i32_u")]
        + load_y()
        + [
            I("f64.convert_i32_u"),
            I("f64.const", struct.unpack(
                "<Q", struct.pack("<d", 1.5))[0]),
            I("f64.mul"),
            I("f64.add"),
            I("f64.sqrt"),
            I("f64.store", 3, 0),
        ]
        + write_stdout(8)
        + [I("end")]
    )
    add_start(m, body)
    return m


def _br_table_program() -> ModuleIR:
    m = new_module()
    body = read_stdin(maxlen=4) + [
        I("block", None),
        I("block", None),
        I("block", None),
        I("block", None),
    ] + load_x() + [
        I("i32.const", 3), I("i32.and"),
        I("br_table", (0, 1, 2), 3),
        I("end"),
        I("i32.const", OUT_ADDR), I("i32.const", 10), I("i32.store", 2, 0),
        I("br", 2),
        I("end"),
        I("i32.const", OUT_ADDR), I("i32.const", 20), I("i32.store", 2, 0),
        I("br", 1),
        I("end"),
        I("i32.const", OUT_ADDR), I("i32.const", 30), I("i32.store", 2, 0),
        I("br", 0),
        I("end"),
    ] + write_stdout(4) + [I("end")]
    add_start(m, body)
    return m


def _call_indirect_program() -> ModuleIR:
    m = new_module()
    ti = m.add_type(FuncType(("i32", "i32"), ("i32",)))
    f_add = add_func(m, ("i32", "i32"), ("i32",), (),
                     [I("local.get", 0), I("local.get", 1), I("i32.add"),
                      I("end")])
    f_xor = add_func(m, ("i32", "i32"), ("i32",), (),
                     [I("local.get", 0), I("local.get", 1), I("i32.xor"),
                      I("end")])
    from wasmwarden.ir import ElemSegment
    m.table = (2, 2)
    m.elems.append(ElemSegment([I("i32.const", 0)], [f_add, f_xor]))
    body = (
        read_stdin(maxlen=8)
        + [I("i32.const", OUT_ADDR)]
        + load_x() + load_y()
        + load_x()
        + [
            I("i32.const", 1), I("i32.and"),
            I("call_indirect", ti),
            I("i32.store", 2, 0),
        ]
        + write_stdout(4)
        + [I("end")]
    )
    add_start(m, body)
    return m


def _exit_code_program() -> ModuleIR:
    m = new_module(imports=("fd_read", "fd_write", "proc_exit"))
    body = (
        read_stdin(maxlen=4)
        + load_x()
        + [I("i32.const", 3), I("i32.and"), I("call", 2), I("end")]
    )
    add_start(m, body)
    return m


# The two programs below open linear-memory frames the way clang's output
# does: move the stack pointer down, keep the frame base in a local, and
# move it back up before returning.

def _open_frame(size: int, fp: int) -> list[Instr]:
    return [I("global.get", 0), I("i32.const", size), I("i32.sub"),
            I("local.tee", fp), I("global.set", 0)]


def _close_frame(size: int, fp: int) -> list[Instr]:
    return [I("local.get", fp), I("i32.const", size), I("i32.add"),
            I("global.set", 0)]


def _stack_buffer_program() -> ModuleIR:
    """Copy 8 input bytes reversed into a stack buffer, then print the
    index-weighted sum of the buffer."""
    m = new_module()
    # weigh(src): locals fp=1, i=2, acc=3
    weigh_body = _open_frame(16, 1) + [
        I("i32.const", 0), I("local.set", 2),
        I("block", None),
        I("loop", None),
        I("local.get", 2), I("i32.const", 8), I("i32.ge_u"), I("br_if", 1),
        I("local.get", 1), I("i32.const", 7), I("local.get", 2),
        I("i32.sub"), I("i32.add"),
        I("local.get", 0), I("local.get", 2), I("i32.add"),
        I("i32.load8_u", 0, 0),
        I("i32.store8", 0, 0),
        I("local.get", 2), I("i32.const", 1), I("i32.add"),
        I("local.set", 2),
        I("br", 0),
        I("end"),
        I("end"),
        I("i32.const", 0), I("local.set", 2),
        I("i32.const", 0), I("local.set", 3),
        I("block", None),
        I("loop", None),
        I("local.get", 2), I("i32.const", 8), I("i32.ge_u"), I("br_if", 1),
        I("local.get", 3),
        I("local.get", 1), I("local.get", 2), I("i32.add"),
        I("i32.load8_u", 0, 0),
        I("local.get", 2), I("i32.const", 1), I("i32.add"),
        I("i32.mul"), I("i32.add"), I("local.set", 3),
        I("local.get", 2), I("i32.const", 1), I("i32.add"),
        I("local.set", 2),
        I("br", 0),
        I("end"),
        I("end"),
    ] + _close_frame(16, 1) + [I("local.get", 3), I("end")]
    weigh = add_func(m, ("i32",), ("i32",), ("i32", "i32", "i32"),
                     weigh_body)
    body = read_stdin(maxlen=8) + [
        I("i32.const", OUT_ADDR),
        I("i32.const", INPUT_ADDR), I("call", weigh),
        I("i32.store", 2, 0),
    ] + write_stdout(4) + [I("end")]
    add_start(m, body)
    return m


def _frame_callee_program() -> ModuleIR:
    """Fold x through a callee eight times; the callee spills its
    arguments to its frame and reloads them, as unoptimised code does."""
    m = new_module()
    # mix(x, k): local fp=2
    mix_body = _open_frame(16, 2) + [
        I("local.get", 2), I("local.get", 0), I("i32.store", 2, 12),
        I("local.get", 2), I("local.get", 1), I("i32.store", 2, 8),
        I("local.get", 2), I("i32.load", 2, 12),
        I("i32.const", 31), I("i32.mul"),
        I("local.get", 2), I("i32.load", 2, 8), I("i32.xor"),
        I("local.set", 0),
    ] + _close_frame(16, 2) + [I("local.get", 0), I("end")]
    mix = add_func(m, ("i32", "i32"), ("i32",), ("i32",), mix_body)
    # locals acc=0, i=1
    body = read_stdin(maxlen=8) + load_x() + [
        I("local.set", 0),
        I("i32.const", 0), I("local.set", 1),
        I("block", None),
        I("loop", None),
        I("local.get", 1), I("i32.const", 8), I("i32.ge_u"), I("br_if", 1),
        I("local.get", 0), I("local.get", 1), I("call", mix),
        I("local.set", 0),
        I("local.get", 1), I("i32.const", 1), I("i32.add"),
        I("local.set", 1),
        I("br", 0),
        I("end"),
        I("end"),
        I("i32.const", OUT_ADDR), I("local.get", 0), I("i32.store", 2, 0),
    ] + write_stdout(4) + [I("end")]
    add_start(m, body, locals_=("i32", "i32"))
    return m


def corpus() -> list[tuple[str, ModuleIR, list[bytes]]]:
    """Differential programs with benign inputs for each."""
    u32 = lambda *vals: struct.pack("<%dI" % len(vals), *vals)
    pairs = [
        u32(7, 3), u32(0, 0), u32(0xDEADBEEF, 0x1337), u32(1, 0xFFFFFFFE),
    ]

    def bin_expr(op, rhs_mod=None):
        rhs = load_y() + (rhs_mod or [])
        return load_x() + rhs + [I(op)]

    entries: list[tuple[str, ModuleIR, list[bytes]]] = []
    binops = {
        "add": bin_expr("i32.add"),
        "sub": bin_expr("i32.sub"),
        "mul": bin_expr("i32.mul"),
        "and": bin_expr("i32.and"),
        "or": bin_expr("i32.or"),
        "xor": bin_expr("i32.xor"),
        "shl": bin_expr("i32.shl"),
        "shr_u": bin_expr("i32.shr_u"),
        "shr_s": bin_expr("i32.shr_s"),
        "rotl": bin_expr("i32.rotl"),
        "rotr": bin_expr("i32.rotr"),
        # force odd divisors so benign inputs can't divide by zero
        "div_u": bin_expr("i32.div_u", [I("i32.const", 1), I("i32.or")]),
        "rem_u": bin_expr("i32.rem_u", [I("i32.const", 1), I("i32.or")]),
        "lt_u": bin_expr("i32.lt_u"),
        "ge_s": bin_expr("i32.ge_s"),
        "eq": bin_expr("i32.eq"),
    }
    for name, expr in binops.items():
        entries.append((name, _binop_program(expr), list(pairs)))
    entries.append(
        ("clz", _binop_program(load_x() + [I("i32.clz")]), list(pairs))
    )
    entries.append(
        ("popcnt", _binop_program(load_x() + [I("i32.popcnt")]), list(pairs))
    )
    entries.append(
        ("select", _binop_program(
            load_x() + load_y() + load_x() + load_y()
            + [I("i32.lt_u"), I("select")]
        ), list(pairs))
    )
    entries.append(("byte_sum", _byte_sum_program(), list(pairs)))
    entries.append(("i64_mix", _i64_program(), list(pairs)))
    entries.append(("f64_mix", _f64_program(), list(pairs)))
    entries.append(("br_table", _br_table_program(), list(pairs)))
    entries.append(("call_indirect", _call_indirect_program(), list(pairs)))
    entries.append(("exit_code", _exit_code_program(), list(pairs)))
    entries.append(
        ("echo", echo_module(), [b"hello", b"", b"x" * 64])
    )
    entries.append(
        ("branchy", branchy_module(), [b"a", b"b", b"c", b"zz"])
    )
    entries.append(
        ("victim_benign", victim_module(), [b"hello", b"42", b"42ABCDE"])
    )
    entries.append(("stack_buffer", _stack_buffer_program(), list(pairs)))
    entries.append(("frame_callee", _frame_callee_program(), list(pairs)))
    return entries
