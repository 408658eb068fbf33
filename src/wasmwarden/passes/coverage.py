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


class NoMemory(WasmError):
    pass


@dataclass(frozen=True)
class CoverageSite:
    position: int  # instruction offset in the uninstrumented body
    site_kind: str  # entry | if | else | loop | br_if | end


def mark_branch_sites(f: FunctionIR) -> list[CoverageSite]:
    """Mark every branching point: if/else/loop openers, br_if, the ends
    that are branch targets, plus the function entry (indirect calls make
    every function a potential branch target)."""
    sites = [CoverageSite(0, "entry")]
    depth = 0
    targets: set[int] = set()
    last = len(f.body) - 1
    for pos, instr in enumerate(f.body):
        op = instr.op
        if op in ("block", "if", "loop"):
            depth += 1
            if op in ("if", "loop"):
                sites.append(CoverageSite(pos, op))
        elif op == "else":
            sites.append(CoverageSite(pos, "else"))
        elif op == "br_if":
            targets.add(depth - instr.args[0])
            sites.append(CoverageSite(pos, "br_if"))
        elif op == "br_table":
            labels, default = instr.args
            for t in (*labels, default):
                targets.add(depth - t)
        elif op == "end":
            # the terminal end closes the function itself; a branch there
            # is a return and is covered by the caller's next site
            if depth in targets and pos != last:
                sites.append(CoverageSite(pos, "end"))
                targets.discard(depth)
            depth -= 1
    return sites


def emit_coverage_shim(
    cur_location: int,
    prev_global: int,
    trace_base: int,
    scratch_local: int,
    site_kind: str = "",
) -> list[Instr]:
    """11-instruction counter update: trace[cur ^ prev]++ then
    prev = cur >> 1, with the map at ``trace_base``."""
    assert 0 <= cur_location < MAP_SIZE
    assert trace_base % MAP_SIZE == 0
    return [
        Instr(
            "i32.const",
            (signed(trace_base | cur_location, 32),),
            site=SiteInfo(f"cov-{site_kind}" if site_kind else "cov",
                          id=cur_location),
        ),
        I("global.get", prev_global),
        I("i32.xor"),
        I("local.tee", scratch_local),
        I("local.get", scratch_local),
        I("i32.load8_u", 0, 0),
        I("i32.const", 1),
        I("i32.add"),
        I("i32.store8", 0, 0),
        I("i32.const", cur_location >> 1),
        I("global.set", prev_global),
    ]


def _instrument_function(
    m: ModuleIR,
    f: FunctionIR,
    rng: random.Random,
    prev_global: int,
    trace_base: int,
) -> FunctionIR:
    out = FunctionIR(f.type_idx, list(f.locals), list(f.body))
    sites = mark_branch_sites(out)
    scratch = add_fresh_local(m, out, "i32")

    insert_before: dict[int, list[Instr]] = {}
    insert_after: dict[int, list[Instr]] = {}
    for site in sites:
        shim = emit_coverage_shim(
            rng.randrange(MAP_SIZE), prev_global, trace_base, scratch,
            site.site_kind,
        )
        if site.site_kind == "entry":
            insert_before.setdefault(site.position, []).extend(shim)
        else:
            insert_after.setdefault(site.position, []).extend(shim)

    body: list[Instr] = []
    for pos, instr in enumerate(out.body):
        if pos in insert_before:
            body.extend(insert_before[pos])
        body.append(instr)
        if pos in insert_after:
            body.extend(insert_after[pos])
    out.body = body
    return out


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

    out.functions = [
        _instrument_function(out, f, rng, prev_global, trace_base)
        for f in out.functions
    ]

    # accessor: () -> i32 returning the trace-bits base
    accessor_type = out.add_type(FuncType((), ("i32",)))
    accessor_idx = out.num_funcs
    out.functions.append(FunctionIR(
        accessor_type, [], [I("i32.const", signed(trace_base, 32)), I("end")]
    ))
    out.exports.append(Export(ACCESSOR_NAME, "func", accessor_idx))

    return out, collect_sites(out)

