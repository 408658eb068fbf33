"""Coverage pass: AFL-compatible edge shims at every branch site, a 64 KiB
trace-bits region appended to linear memory, and an exported accessor.

Each shim hashes the current branch-site id with the previous one,
increments a one-byte counter at that index, and shifts the current id
into the previous-location global so edge direction is preserved. The
map's base, a multiple of ``MAP_SIZE``, is folded into each site's
constant (``(base | cur) ^ prev == base + (cur ^ prev)``) and is what the
accessor returns, as an ``i32.const`` the engine reads once.

The module does not clear the map: a fresh instance starts with zeroed
memory and a zero previous location, and every run gets one, as AFL's
host clears ``trace_bits`` before each run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..ir import (
    PAGE,
    Export,
    FuncType,
    FunctionIR,
    I,
    Instr,
    ModuleIR,
    SiteInfo,
    WasmError,
    add_fresh_local,
    add_global,
    signed,
)
from .sites import SiteTable, collect_sites

MAP_SIZE = PAGE  # one-byte counters, AFL-compatible, in the page added
ACCESSOR_NAME = "__fuzzm_trace_bits"

# counter value -> its one-hot hit-count bucket bit, AFL's classes: 0, 1,
# 2, 3, 4-7, 8-15, 16-31, 32-127, 128-255. The fuzzer's bitmap builds its
# array from this tuple, which needs no numpy.
COUNT_BUCKET = ((0, 1, 2, 4) + (8,) * 4 + (16,) * 8 + (32,) * 16
                + (64,) * 96 + (128,) * 128)


class NoMemory(WasmError):
    pass


@dataclass(frozen=True)
class CoverageSite:
    position: int  # instruction offset in the uninstrumented body
    site_kind: str  # entry | if | else | loop | br_if | end


# the ops ``mark_branch_sites`` looks at
_CONTROL = frozenset(("block", "if", "loop", "else", "br_if", "br_table",
                      "end"))


def mark_branch_sites(f: FunctionIR) -> list[CoverageSite]:
    """Mark every branching point: if/else/loop openers, br_if, the ends
    that are branch targets, plus the function entry (indirect calls make
    every function a potential branch target). A branch to a loop goes to
    its head, which has a site already, so it marks no end."""
    sites = [CoverageSite(0, "entry")]
    # the op that opened each open label, the function's own label first
    openers = ["block"]
    targets: set[int] = set()  # depths of the labels a branch goes to
    last = len(f.body) - 1

    def branch_to(labels):
        for t in labels:
            depth = len(openers) - 1 - t
            if openers[depth] != "loop":
                targets.add(depth)

    for pos, instr in enumerate(f.body):
        op = instr.op
        if op not in _CONTROL:
            continue
        if op in ("block", "if", "loop"):
            openers.append(op)
            if op in ("if", "loop"):
                sites.append(CoverageSite(pos, op))
        elif op == "else":
            sites.append(CoverageSite(pos, "else"))
        elif op == "br_if":
            branch_to(instr.args)
            sites.append(CoverageSite(pos, "br_if"))
        elif op == "br_table":
            labels, default = instr.args
            branch_to((*labels, default))
        elif op == "end":
            # the terminal end closes the function itself; a branch there
            # is a return and is covered by the caller's next site
            depth = len(openers) - 1
            if depth in targets and pos != last:
                sites.append(CoverageSite(pos, "end"))
                targets.discard(depth)
            openers.pop()
    return sites


def _shim_emitter(prev_global: int, trace_base: int, scratch_local: int):
    """``emit(cur_location, site_kind="")``, which returns the shim of one
    site: trace[cur ^ prev]++ then prev = cur >> 1, with the map at
    ``trace_base``. Nine of a shim's 11 instructions depend only on the
    function; they are built here once and shared by every shim ``emit``
    returns."""
    assert trace_base % MAP_SIZE == 0
    count_edge = [
        I("global.get", prev_global),
        I("i32.xor"),
        I("local.tee", scratch_local),
        I("local.get", scratch_local),
        I("i32.load8_u", 0, 0),
        I("i32.const", 1),
        I("i32.add"),
        I("i32.store8", 0, 0),
    ]
    set_prev = I("global.set", prev_global)

    def emit(cur_location: int, site_kind: str = "") -> list[Instr]:
        assert 0 <= cur_location < MAP_SIZE
        return [
            Instr(
                "i32.const",
                (signed(trace_base | cur_location, 32),),
                site=SiteInfo(f"cov-{site_kind}" if site_kind else "cov",
                              id=cur_location),
            ),
            *count_edge,
            I("i32.const", cur_location >> 1),
            set_prev,
        ]

    return emit


def emit_coverage_shim(
    cur_location: int,
    prev_global: int,
    trace_base: int,
    scratch_local: int,
    site_kind: str = "",
) -> list[Instr]:
    """11-instruction counter update: trace[cur ^ prev]++ then
    prev = cur >> 1, with the map at ``trace_base``. The pass builds its
    shims the same way, with one ``_shim_emitter`` per function."""
    emit = _shim_emitter(prev_global, trace_base, scratch_local)
    return emit(cur_location, site_kind)


def _instrument_function(
    m: ModuleIR,
    f: FunctionIR,
    rng: random.Random,
    prev_global: int,
    trace_base: int,
) -> None:
    """Give ``f``, a copy the pass owns, a scratch local and a shim at each
    branch site: the entry shim before the first instruction, every other
    one after its site's instruction."""
    sites = mark_branch_sites(f)
    emit = _shim_emitter(prev_global, trace_base,
                         add_fresh_local(m, f, "i32"))
    old = f.body
    body: list[Instr] = []
    done = 0  # instructions of ``old`` already in ``body``
    for site in sites:  # in body order, the entry site first
        shim = emit(rng.randrange(MAP_SIZE), site.site_kind)
        if site.site_kind != "entry":
            body += old[done:site.position + 1]
            done = site.position + 1
        body += shim
    body += old[done:]
    f.body = body


def apply_coverage_pass(
    m: ModuleIR, rng_seed: Optional[int] = None
) -> tuple[ModuleIR, SiteTable]:
    """Instrument every defined function, grow memory by one page for the
    trace bits and export the accessor."""
    if m.memory is None:
        if m.imported("memory"):
            raise NoMemory("imported memories cannot be instrumented")
        raise NoMemory("module has no memory")

    out = m.copy()
    rng = random.Random(rng_seed)

    orig_min, orig_max = out.memory
    trace_base = orig_min * PAGE
    out.memory = (orig_min + 1, None if orig_max is None else orig_max + 1)

    prev_global = add_global(out, "i32", True, [I("i32.const", 0)])

    for f in out.functions:
        _instrument_function(out, f, rng, prev_global, trace_base)

    # accessor: () -> i32 returning the trace-bits base
    accessor_type = out.add_type(FuncType((), ("i32",)))
    accessor_idx = out.num_funcs
    out.functions.append(FunctionIR(
        accessor_type, [], [I("i32.const", signed(trace_base, 32)), I("end")]
    ))
    out.exports.append(Export(ACCESSOR_NAME, "func", accessor_idx))

    return out, collect_sites(out)

