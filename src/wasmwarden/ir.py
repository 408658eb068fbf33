"""Structured, pass-friendly IR for WebAssembly (MVP) modules.

Function bodies are flat instruction sequences with explicit ``end``
markers; nesting is implicit and recovered with a depth counter, which is
what the rewriting passes iterate with.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

PAGE = 65536  # bytes in a linear-memory page

VALTYPE_BYTE = {"i32": 0x7F, "i64": 0x7E, "f32": 0x7D, "f64": 0x7C}
BYTE_VALTYPE = {v: k for k, v in VALTYPE_BYTE.items()}

FUNCREF = 0x70

# import and export kinds; each one's byte in the binary is its index
EXTERNAL_KINDS = ("func", "table", "memory", "global")


class WasmError(Exception):
    """Base class for all toolkit errors."""


class MalformedBinary(WasmError):
    def __init__(self, offset: int, reason: str):
        super().__init__(f"malformed binary at offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class UnsupportedFeature(WasmError):
    def __init__(self, name: str):
        super().__init__(f"unsupported WebAssembly feature: {name}")
        self.feature = name


class EncodingOverflow(WasmError):
    pass


class MultiValueUnsupported(UnsupportedFeature):
    def __init__(self):
        super().__init__("multi-value")


@dataclass(frozen=True)
class SiteInfo:
    """Metadata attached to an inserted instruction by a pass.

    ``id`` holds the canary value for oracle sites and the branch-site id
    for coverage sites.
    """

    kind: str
    id: int = 0


@dataclass(slots=True, unsafe_hash=True)
class Instr:
    """One instruction: its op name, its immediates and, for one a pass
    inserted, its ``site``. Equality and hashing ignore ``site``.

    Instances are immutable by contract, and that is load-bearing: the
    parser decodes every occurrence of one encoding in a module to one
    shared instance (an op without immediates to one instance for every
    module), and ``ModuleIR.copy()`` and the passes share instances between
    their input and output modules. Assigning to a field would change every
    place that shares it, so code builds a new ``Instr`` instead. The class
    is not frozen only because a frozen ``__init__`` sets each field
    through ``object.__setattr__``, which triples the cost of building one.
    """

    op: str
    args: tuple = ()
    site: Optional[SiteInfo] = field(default=None, compare=False, repr=False)

    def __repr__(self) -> str:  # keeps assertion diffs readable
        if not self.args:
            return self.op
        return f"{self.op} {' '.join(str(a) for a in self.args)}"


def I(op: str, *args) -> Instr:
    """Shorthand instruction constructor used by passes and tests."""
    return Instr(op, tuple(args))


@dataclass(frozen=True)
class FuncType:
    params: tuple[str, ...]
    results: tuple[str, ...]

    def __post_init__(self):
        if len(self.results) > 1:
            raise MultiValueUnsupported()


@dataclass(frozen=True)
class Import:
    module: str
    name: str
    kind: str  # "func" | "table" | "memory" | "global"
    # func: type index; global: (valtype, mutable); memory: (min, max);
    # table: (min, max)
    desc: tuple | int


@dataclass
class FunctionIR:
    type_idx: int
    locals: list[str] = field(default_factory=list)
    body: list[Instr] = field(default_factory=list)

    def copy(self) -> "FunctionIR":
        return FunctionIR(self.type_idx, list(self.locals), list(self.body))


@dataclass
class Global:
    valtype: str
    mutable: bool
    init: list[Instr]


@dataclass(frozen=True)
class Export:
    name: str
    kind: str  # "func" | "table" | "memory" | "global"
    index: int


@dataclass
class DataSegment:
    offset: list[Instr]
    data: bytes


@dataclass
class ElemSegment:
    offset: list[Instr]
    func_indices: list[int]


@dataclass
class CustomSection:
    name: str
    data: bytes
    # id of the last standard section seen before this one; keeps the
    # custom section in roughly its original position on re-encode
    after_section: int = field(default=0, compare=False)


@dataclass
class ModuleIR:
    types: list[FuncType] = field(default_factory=list)
    imports: list[Import] = field(default_factory=list)
    functions: list[FunctionIR] = field(default_factory=list)
    table: Optional[tuple[int, Optional[int]]] = None
    memory: Optional[tuple[int, Optional[int]]] = None
    globals: list[Global] = field(default_factory=list)
    exports: list[Export] = field(default_factory=list)
    start: Optional[int] = None
    elems: list[ElemSegment] = field(default_factory=list)
    data_segments: list[DataSegment] = field(default_factory=list)
    names: dict[int, str] = field(default_factory=dict)
    custom_sections: list[CustomSection] = field(default_factory=list)
    # SHA-256 hex digest of the binary ``parse_module`` read this module
    # from; None for a module built in Python. ``copy()`` drops it, so a
    # pass's output has none. Code that changes a parsed module in place
    # must set it to None.
    source_sha256: Optional[str] = field(default=None, compare=False,
                                         repr=False)

    # ---- index-space helpers -------------------------------------------

    def imported(self, kind: str) -> list[Import]:
        return [im for im in self.imports if im.kind == kind]

    @property
    def num_imported_funcs(self) -> int:
        return len(self.imported("func"))

    @property
    def num_imported_globals(self) -> int:
        return len(self.imported("global"))

    @property
    def num_funcs(self) -> int:
        return self.num_imported_funcs + len(self.functions)

    @property
    def num_globals(self) -> int:
        return self.num_imported_globals + len(self.globals)

    def defined_func(self, func_idx: int) -> FunctionIR:
        n = self.num_imported_funcs
        if func_idx < n:
            raise IndexError(f"function {func_idx} is imported")
        return self.functions[func_idx - n]

    def global_type(self, global_idx: int) -> tuple[str, bool]:
        imported = self.imported("global")
        if global_idx < len(imported):
            return imported[global_idx].desc
        g = self.globals[global_idx - len(imported)]
        return (g.valtype, g.mutable)

    def export_map(self) -> dict[str, Export]:
        return {e.name: e for e in self.exports}

    def add_type(self, ft: FuncType) -> int:
        """Index of ``ft``, appending it if not already present."""
        for i, t in enumerate(self.types):
            if t == ft:
                return i
        self.types.append(ft)
        return len(self.types) - 1

    def copy(self) -> "ModuleIR":
        return ModuleIR(
            types=list(self.types),
            imports=list(self.imports),
            functions=[f.copy() for f in self.functions],
            table=self.table,
            memory=self.memory,
            globals=[replace(g, init=list(g.init)) for g in self.globals],
            exports=list(self.exports),
            start=self.start,
            elems=[
                ElemSegment(list(e.offset), list(e.func_indices))
                for e in self.elems
            ],
            data_segments=[
                DataSegment(list(d.offset), d.data) for d in self.data_segments
            ],
            names=dict(self.names),
            custom_sections=list(self.custom_sections),
        )


def signed(value: int, bits: int) -> int:
    """The two's-complement reading of a ``bits``-wide bit pattern, the
    form ``i32.const`` and ``i64.const`` immediates are encoded in."""
    return value - (1 << bits) if value & (1 << (bits - 1)) else value


def add_global(m: ModuleIR, valtype: str, mutable: bool, init: list[Instr]) -> int:
    """Append a defined global; returns its module-wide global index.

    Existing indices are untouched (defined globals always come after all
    imported globals in the index space).
    """
    m.globals.append(Global(valtype, mutable, init))
    return m.num_imported_globals + len(m.globals) - 1


def add_fresh_local(m: ModuleIR, f: FunctionIR, valtype: str) -> int:
    """Append a local of ``valtype``; returns its local index."""
    n_params = len(m.types[f.type_idx].params)
    f.locals.append(valtype)
    return n_params + len(f.locals) - 1


def returns_to_branches(body: list[Instr]) -> list[Instr]:
    """``body``, a function body without its terminal ``end``, with each
    ``return`` turned into a branch to the end of a block wrapping it."""
    out = []
    depth = 0  # blocks open inside ``body``
    for instr in body:
        if instr.op in ("block", "loop", "if"):
            depth += 1
        elif instr.op == "end":
            depth -= 1
        out.append(I("br", depth) if instr.op == "return" else instr)
    return out
