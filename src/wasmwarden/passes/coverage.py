"""Coverage pass: AFL-compatible edge shims at every branch site, a 64 KiB
trace-bits region appended to linear memory, and an exported accessor.

Each shim hashes the current branch-site id with the previous one,
increments a one-byte counter at that index, and shifts the current id
into the previous-location global so edge direction is preserved. The
map's base, a multiple of ``MAP_SIZE``, is folded into each site's
constant (``(base | cur) ^ prev == base + (cur ^ prev)``) and is what the
accessor returns, as an ``i32.const`` the engine reads once.

Where the walk of ``mark_branch_sites`` knows the previous location, on
every path to a site, the shim counts the edge at a constant address and
reads no global; where no reader sees a shim's update of the previous
location, the update is left out. Every run that exits or traps bumps
the same counters as with the full shim at every site; only the count of
instructions it executes changes.

The module does not clear the map: a fresh instance starts with zeroed
memory and a zero previous location, and every run gets one, as AFL's
host clears ``trace_bits`` before each run.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

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


class CoverageSite(NamedTuple):
    position: int  # instruction offset in the uninstrumented body
    site_kind: str  # entry | if | else | loop | br_if | end
    # the site whose shim set the previous location on every path that
    # reaches this one (an index into the function's sites), or None
    prev_site: Optional[int] = None
    # whether some reader sees this shim's update of the previous location
    update_seen: bool = True


# the ops ``mark_branch_sites`` looks at
_CONTROL = frozenset(("block", "if", "loop", "else", "br", "br_if",
                      "br_table", "end", "return", "unreachable", "call",
                      "call_indirect"))
# the walk's sets of shims are bit sets: site i is bit i + 1, and bit 0
# is what set the previous location where a path enters from outside the
# function's own shims: the caller, at entry, or a callee, after a call
_OUTSIDE = 1
_UNREACHED = 0


def mark_branch_sites(f: FunctionIR,
                      num_imported_funcs: int = 0) -> list[CoverageSite]:
    """Mark every branching point: if/else/loop openers, br_if, the ends
    that are branch targets, plus the function entry (indirect calls make
    every function a potential branch target). A branch to a loop goes to
    its head, which has a site already, so it marks no end.

    The same forward walk finds, for each site, the shim that set the
    previous location on every path to it, if there is one, and whether a
    reader sees its own update. Its state is the set of shims (or
    ``_OUTSIDE``) whose update may be the previous location at that
    point, empty where no path reaches. A reader is a full shim, a call
    to a defined function or through the table, a branch to a loop head
    (whose shim is full), and the function's exit. Host calls
    (``num_imported_funcs`` of them) do not touch the previous location.
    """
    sites: list[tuple[int, str, Optional[int]]] = []
    seen = 0  # the shims whose update a reader sees

    def shim(pos: int, kind: str, state: int) -> int:
        nonlocal seen
        prev = None
        if state > _OUTSIDE and state & (state - 1) == 0:  # one shim
            prev = state.bit_length() - 2
        else:  # a full shim reads the previous location
            seen |= state
        sites.append((pos, kind, prev))
        return 1 << len(sites) if state else state

    # per open label: [opener, what branches bring to its end, what the
    # false edge of an if without an else brings there, whether a br_if
    # or br_table goes to it]; the function's own label first
    labels = [["func", _UNREACHED, _UNREACHED, False]]

    def branch(depths, state: int, marks: bool) -> None:
        nonlocal seen
        for t in depths:
            label = labels[-1 - t]
            if label[0] in ("func", "loop"):  # a return or a loop head
                seen |= state
            else:
                label[1] |= state
                label[3] |= marks

    state = shim(0, "entry", _OUTSIDE)
    last = len(f.body) - 1
    for pos, instr in enumerate(f.body):
        op = instr.op
        if op not in _CONTROL:
            continue
        if op == "block":
            labels.append([op, _UNREACHED, _UNREACHED, False])
        elif op == "loop":
            # branches back to the head bring other values: its shim is
            # full wherever the loop is reached
            labels.append([op, _UNREACHED, _UNREACHED, False])
            state = shim(pos, op, state | _OUTSIDE if state else state)
        elif op == "if":
            labels.append([op, _UNREACHED, state, False])
            state = shim(pos, op, state)
        elif op == "else":
            label = labels[-1]
            label[1] |= state
            state, label[2] = label[2], _UNREACHED
            state = shim(pos, op, state)
        elif op == "br_if":
            branch(instr.args, state, True)
            state = shim(pos, op, state)
        elif op == "end":
            # the terminal end closes the function itself; a branch there
            # is a return and is covered by the caller's next site
            label = labels.pop()
            state = state | label[1] | label[2]
            if pos == last:
                seen |= state
            elif label[3]:
                state = shim(pos, op, state)
        elif op in ("call", "call_indirect"):
            if op == "call_indirect" or instr.args[0] >= num_imported_funcs:
                seen |= state
                state = state and _OUTSIDE  # unreached stays unreached
        else:  # nothing falls through
            if op == "br":
                branch(instr.args, state, False)
            elif op == "br_table":
                targets, default = instr.args
                branch((*targets, default), state, True)
            elif op == "return":
                seen |= state
            state = _UNREACHED
    return [CoverageSite(pos, kind, prev, bool(seen >> (i + 1) & 1))
            for i, (pos, kind, prev) in enumerate(sites)]


def _shim_emitter(prev_global: int, trace_base: int, scratch_local: int):
    """``emit(cur_location, site_kind="", prev=None, update=True)``, which
    returns the shim of one site: trace[cur ^ prev]++ then
    prev = cur >> 1, with the map at ``trace_base``. With ``prev`` None
    the shim reads the previous-location global (11 instructions); with a
    known ``prev`` the counter's address is a constant (8). Without
    ``update`` the last two, which set the global, are left out. The
    instructions that depend only on the function are built here once
    and shared by every shim ``emit`` returns."""
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
    bump = count_edge[4:]  # load the counter, add 1, store it back
    set_prev = I("global.set", prev_global)

    def emit(cur_location: int, site_kind: str = "",
             prev: Optional[int] = None, update: bool = True) -> list[Instr]:
        assert 0 <= cur_location < MAP_SIZE
        site = SiteInfo(f"cov-{site_kind}" if site_kind else "cov",
                        id=cur_location)
        if prev is None:
            shim = [Instr("i32.const", (signed(trace_base | cur_location,
                                               32),), site=site),
                    *count_edge]
        else:
            assert 0 <= prev < MAP_SIZE
            addr = (signed(trace_base | (cur_location ^ prev), 32),)
            shim = [Instr("i32.const", addr, site=site),
                    Instr("i32.const", addr), *bump]
        if update:
            shim += [Instr("i32.const", (cur_location >> 1,)), set_prev]
        return shim

    return emit


def emit_coverage_shim(
    cur_location: int,
    prev_global: int,
    trace_base: int,
    scratch_local: int,
    site_kind: str = "",
    prev: Optional[int] = None,
) -> list[Instr]:
    """Counter update: trace[cur ^ prev]++ then prev = cur >> 1, with the
    map at ``trace_base``. The full form (11 instructions) reads the
    previous location from ``prev_global``; given a known ``prev``, the
    short form (8) counts the same edge at a constant address. The pass
    builds its shims the same way, with one ``_shim_emitter`` per
    function."""
    emit = _shim_emitter(prev_global, trace_base, scratch_local)
    return emit(cur_location, site_kind, prev)


def _instrument_function(
    m: ModuleIR,
    f: FunctionIR,
    rng: random.Random,
    prev_global: int,
    trace_base: int,
    num_imported_funcs: int,
) -> None:
    """Give ``f``, a copy the pass owns, a scratch local and a shim at each
    branch site: the entry shim before the first instruction, every other
    one after its site's instruction."""
    sites = mark_branch_sites(f, num_imported_funcs)
    ids = [rng.randrange(MAP_SIZE) for _ in sites]
    emit = _shim_emitter(prev_global, trace_base,
                         add_fresh_local(m, f, "i32"))
    old = f.body
    body: list[Instr] = []
    done = 0  # instructions of ``old`` already in ``body``
    for site, cur in zip(sites, ids):  # in body order, the entry site first
        prev = None if site.prev_site is None else ids[site.prev_site] >> 1
        shim = emit(cur, site.site_kind, prev, site.update_seen)
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

    num_imported_funcs = out.num_imported_funcs
    for f in out.functions:
        _instrument_function(out, f, rng, prev_global, trace_base,
                             num_imported_funcs)

    # accessor: () -> i32 returning the trace-bits base
    accessor_type = out.add_type(FuncType((), ("i32",)))
    accessor_idx = out.num_funcs
    out.functions.append(FunctionIR(
        accessor_type, [], [I("i32.const", signed(trace_base, 32)), I("end")]
    ))
    out.exports.append(Export(ACCESSOR_NAME, "func", accessor_idx))

    return out, collect_sites(out)

