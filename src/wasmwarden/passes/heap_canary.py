"""Heap-canary pass: wrap allocator entry points so every chunk carries a
size field and under/overflow canaries, verified when the chunk is freed.

Chunk layout after instrumentation (user pointer = allocator pointer + 12):

    +0   requested size (4 bytes)
    +4   underflow canary (8 bytes)
    +12  payload (requested size bytes)
    +12+size  overflow canary (8 bytes)

Total inflation is 20 bytes per allocation.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Optional

from ..ir import (
    FuncType,
    FunctionIR,
    I,
    Instr,
    ModuleIR,
    SiteInfo,
    WasmError,
    add_fresh_local,
    returns_to_branches,
    signed,
)
from .sites import SiteTable, collect_sites

log = logging.getLogger(__name__)

INFLATION = 20  # 4-byte size field + two 8-byte canaries
USER_OFFSET = 12  # payload starts after size field + underflow canary

ALLOC_NAMES = ("malloc", "calloc", "realloc")
DEALLOC_NAMES = ("free", "realloc")

_SIGS = {
    "malloc": FuncType(("i32",), ("i32",)),
    "calloc": FuncType(("i32", "i32"), ("i32",)),
    "realloc": FuncType(("i32", "i32"), ("i32",)),
    "free": FuncType(("i32",), ()),
}


class SignatureMismatch(WasmError):
    pass


@dataclass
class HeapConfig:
    rng_seed: Optional[int] = None


@dataclass
class HeapFnMap:
    # (module function index, allocator kind)
    allocs: list[tuple[int, str]] = field(default_factory=list)
    deallocs: list[tuple[int, str]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.allocs or self.deallocs)


def identify_heap_functions(
    m: ModuleIR, overrides: dict[str, int] | None = None
) -> HeapFnMap:
    """Resolve allocator entry points by override, export name, then name
    section, matching the C standard library names. An override must name
    one of them, and each must resolve to a defined function: an imported
    allocator cannot be wrapped, and wrapping only its partners would hand
    the host pointers it did not make."""
    known = dict.fromkeys(ALLOC_NAMES + DEALLOC_NAMES)  # a set, in order
    found = {}  # name -> (function index, where it was found)
    for name, idx in (overrides or {}).items():
        if name not in known:
            raise WasmError(f"unknown allocator {name!r}")
        found[name] = (idx, "override")
    exports = m.export_map()
    by_name = {v: k for k, v in m.names.items()}
    for name in known:
        if name in found:
            continue
        e = exports.get(name)
        if e is not None and e.kind == "func":
            found[name] = (e.index, "export")
        elif name in by_name:
            found[name] = (by_name[name], "name section entry")
    n_imp = m.num_imported_funcs
    for name, (idx, where) in found.items():
        if not n_imp <= idx < m.num_funcs:
            why = f": function {idx} is imported" if 0 <= idx < n_imp else ""
            raise WasmError(f"{name} {where} {idx} names no defined "
                            f"function{why}")
    return HeapFnMap(
        [(found[n][0], n) for n in ALLOC_NAMES if n in found],
        [(found[n][0], n) for n in DEALLOC_NAMES if n in found])


def _alloc_preamble(
    m: ModuleIR, f: FunctionIR, kind: str, req_local: int
) -> list[Instr]:
    if kind in ("malloc", "realloc"):
        size_arg = 0 if kind == "malloc" else 1
        return [
            I("local.get", size_arg),
            I("local.set", req_local),
            I("local.get", size_arg),
            I("i32.const", INFLATION),
            I("i32.add"),
            I("local.set", size_arg),
        ]
    # calloc(nitems, item_size): becomes calloc(1, nitems*item_size + 20),
    # bailing out with null when the product + inflation overflows u32
    total = add_fresh_local(m, f, "i64")
    return [
        I("local.get", 0),
        I("i64.extend_i32_u"),
        I("local.get", 1),
        I("i64.extend_i32_u"),
        I("i64.mul"),
        I("i64.const", INFLATION),
        I("i64.add"),
        I("local.set", total),
        I("local.get", total),
        I("i64.const", 0xFFFFFFFF),
        I("i64.gt_u"),
        I("if", None),
        I("i32.const", 0),
        I("return"),
        I("end"),
        I("local.get", total),
        I("i64.const", INFLATION),
        I("i64.sub"),
        I("i32.wrap_i64"),
        I("local.set", req_local),
        I("i32.const", 1),
        I("local.set", 0),
        I("local.get", total),
        I("i32.wrap_i64"),
        I("local.set", 1),
    ]


def _alloc_postamble(
    req_local: int, ptr_local: int, canary: int
) -> list[Instr]:
    can = signed(canary, 64)
    return [
        I("local.set", ptr_local),
        # pass a failed allocation through untouched
        I("local.get", ptr_local),
        I("i32.eqz"),
        I("if", None),
        I("i32.const", 0),
        I("return"),
        I("end"),
        # requested size at +0
        I("local.get", ptr_local),
        I("local.get", req_local),
        I("i32.store", 2, 0),
        # underflow canary at +4
        I("local.get", ptr_local),
        I("i64.const", can),
        I("i64.store", 2, 4),
        # overflow canary at +12+size
        I("local.get", ptr_local),
        I("local.get", req_local),
        I("i32.add"),
        I("i64.const", can),
        I("i64.store", 2, 12),
        # user pointer is past our metadata
        I("local.get", ptr_local),
        I("i32.const", USER_OFFSET),
        I("i32.add"),
    ]


def instrument_alloc_function(
    m: ModuleIR, f: FunctionIR, kind: str, canary: int
) -> FunctionIR:
    """Inflate the request, then write size + canaries around the payload
    the allocator hands back."""
    if m.types[f.type_idx] != _SIGS[kind]:
        raise SignatureMismatch(
            f"{kind} has signature {m.types[f.type_idx]}"
        )
    out = FunctionIR(f.type_idx, list(f.locals), list(f.body))
    req_local = add_fresh_local(m, out, "i32")
    preamble = _alloc_preamble(m, out, kind, req_local)
    ptr_local = add_fresh_local(m, out, "i32")
    body = out.body[:-1]
    if any(instr.op == "return" for instr in body):
        # an early return must reach the postamble too
        body = [I("block", "i32"), *returns_to_branches(body), I("end")]
    out.body = (
        preamble
        + body
        + _alloc_postamble(req_local, ptr_local, canary)
        + [I("end")]
    )
    return out


def dealloc_preamble(canary: int) -> list[Instr]:
    """Validate both canaries and rewind the pointer, argument 0, before
    the allocator sees it. free(0) is legal, so a null argument skips
    everything."""
    can = signed(canary, 64)
    return [
        I("local.get", 0),
        I("if", None),
        I("local.get", 0),
        I("i32.const", USER_OFFSET),
        I("i32.sub"),
        I("local.set", 0),
        I("block", None),
        I("local.get", 0),
        I("i64.load", 2, 4),
        I("i64.const", can),
        I("i64.eq"),
        I("br_if", 0),
        Instr("unreachable", site=SiteInfo("heap-underflow", id=canary)),
        I("end"),
        I("block", None),
        I("local.get", 0),
        I("i32.load", 2, 0),
        I("local.get", 0),
        I("i32.add"),
        I("i64.load", 2, 12),
        I("i64.const", can),
        I("i64.eq"),
        I("br_if", 0),
        Instr("unreachable", site=SiteInfo("heap-overflow", id=canary)),
        I("end"),
        I("end"),
    ]


def instrument_dealloc_function(
    m: ModuleIR, f: FunctionIR, kind: str, canary: int
) -> FunctionIR:
    if m.types[f.type_idx] != _SIGS[kind]:
        raise SignatureMismatch(
            f"{kind} has signature {m.types[f.type_idx]}"
        )
    return FunctionIR(f.type_idx, list(f.locals),
                      dealloc_preamble(canary) + f.body)


def apply_heap_pass(
    m: ModuleIR,
    cfg: HeapConfig | None = None,
    overrides: dict[str, int] | None = None,
) -> tuple[ModuleIR, SiteTable]:
    """Instrument all resolved allocator entry points.

    For realloc the deallocation checks run before the allocation
    inflation, so the old chunk is audited with its old canaries before
    the size argument is rewritten.
    """
    cfg = cfg or HeapConfig()
    fn_map = identify_heap_functions(m, overrides)
    if not fn_map:
        log.warning("heap pass: no allocator functions found; no-op")
        return m, SiteTable()

    canary = random.Random(cfg.rng_seed).getrandbits(64)
    out = m.copy()
    n_imp = out.num_imported_funcs
    for idx, kind in fn_map.allocs:
        out.functions[idx - n_imp] = instrument_alloc_function(
            out, out.defined_func(idx), kind, canary
        )
    # second so the realloc check precedes its inflation preamble
    for idx, kind in fn_map.deallocs:
        out.functions[idx - n_imp] = instrument_dealloc_function(
            out, out.defined_func(idx), kind, canary
        )
    return out, collect_sites(out).by_kind("heap-underflow", "heap-overflow")
