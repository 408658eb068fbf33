"""Stack-canary pass: plant an 8-byte random canary at the base of each
function's linear-memory frame, verify it at a single rewritten exit.

A function opens a frame in linear memory by writing the shadow stack
pointer; one that never does has nothing to overflow and is left as it
is. Every other defined function is rewritten to
``preamble ++ block ++ body-with-returns-redirected ++ end ++ postamble``:
the preamble reserves 16 bytes below the shadow stack pointer and stores
the canary there; original returns become branches to the wrapper end; the
postamble compares the stored value and traps on mismatch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..ir import (
    FunctionIR,
    I,
    Instr,
    ModuleIR,
    SiteInfo,
    WasmError,
    returns_to_branches,
    signed,
)
from .sites import SiteTable, collect_sites

FRAME_RESERVE = 16  # WASI keeps the stack 16-byte aligned


class SpGlobalMissing(WasmError):
    pass


@dataclass
class CanaryConfig:
    sp_global: int = 0  # global index of the shadow stack pointer
    rng_seed: Optional[int] = None


def emit_inject_canary(cfg: CanaryConfig, canary: int) -> list[Instr]:
    """Reserve frame space and store the canary at the new stack base."""
    sp = cfg.sp_global
    return [
        I("global.get", sp),
        I("i32.const", FRAME_RESERVE),
        I("i32.sub"),
        I("global.set", sp),
        I("global.get", sp),
        I("i64.const", signed(canary, 64)),
        I("i64.store", 3, 0),
    ]


def emit_validate_canary(cfg: CanaryConfig, canary: int) -> list[Instr]:
    """Compare the stored canary against the expected value; trap on
    mismatch, otherwise release the reserved space and return.

    The function's return value (if any) stays untouched on the operand
    stack underneath the check.
    """
    sp = cfg.sp_global
    return [
        I("block", None),
        I("global.get", sp),
        I("i64.load", 3, 0),
        I("i64.const", signed(canary, 64)),
        I("i64.eq"),
        I("br_if", 0),
        Instr("unreachable", site=SiteInfo("stack-canary", id=canary)),
        I("end"),
        I("global.get", sp),
        I("i32.const", FRAME_RESERVE),
        I("i32.add"),
        I("global.set", sp),
        I("return"),
    ]


def instrument_function_stack(
    f: FunctionIR,
    result_type: Optional[str],
    cfg: CanaryConfig,
    canary: int,
) -> FunctionIR:
    """Rewrite one function body; ``result_type`` is the function's single
    result valtype or None."""
    # the wrapper block supplies the terminal end
    body = (
        emit_inject_canary(cfg, canary)
        + [I("block", result_type)]
        + returns_to_branches(f.body[:-1])
        + [I("end")]
        + emit_validate_canary(cfg, canary)
        + [I("end")]
    )
    return FunctionIR(f.type_idx, list(f.locals), body)


def apply_stack_pass(
    m: ModuleIR, cfg: CanaryConfig | None = None
) -> tuple[ModuleIR, SiteTable]:
    """Instrument every defined function that opens a frame; returns the
    new module and the table of inserted trap sites (one per such
    function, id = canary value).

    One canary is drawn per defined function in index order, framed or
    not, so a function's canary depends only on the seed and its index.
    """
    cfg = cfg or CanaryConfig()
    n_glob = m.num_globals
    if cfg.sp_global >= n_glob:
        raise SpGlobalMissing(
            f"stack-pointer global {cfg.sp_global} does not exist"
        )
    vt, mutable = m.global_type(cfg.sp_global)
    if vt != "i32" or not mutable:
        raise SpGlobalMissing(
            f"global {cfg.sp_global} is {vt}/"
            f"{'mut' if mutable else 'const'}, need mutable i32"
        )

    rng = random.Random(cfg.rng_seed)
    out = m.copy()
    new_funcs = []
    for f in out.functions:
        canary = rng.getrandbits(64)
        if I("global.set", cfg.sp_global) not in f.body:  # no frame
            new_funcs.append(f)
            continue
        ftype = out.types[f.type_idx]
        result_type = ftype.results[0] if ftype.results else None
        new_funcs.append(
            instrument_function_stack(f, result_type, cfg, canary)
        )
    out.functions = new_funcs
    return out, collect_sites(out).by_kind("stack-canary")
