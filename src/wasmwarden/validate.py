"""Module validation: operand-stack typing, label typing, index bounds.

Findings are collected into a report rather than raised, so a caller can
see every broken function at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import VALTYPE_BYTE, FuncType, FunctionIR, Instr, ModuleIR
from .opcodes import MEM_ACCESS, SIGS

UNKNOWN = "?"  # bottom type used below unreachable code


@dataclass
class ValidationReport:
    entries: list[str] = field(default_factory=list)
    # per defined function: the pc of each block, loop and if -> (operand
    # stack height at its entry, the pc of its else or None, the pc of its
    # end); the height counts from the frame's base and, for an if, comes
    # after its condition is popped
    blocks: list[dict[int, tuple]] = field(default_factory=list)
    # the signature of every function index, imported ones first; None
    # where the type index is out of range
    func_types: list[FuncType | None] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.entries

    def add(self, msg: str):
        self.entries.append(msg)

    def __str__(self) -> str:
        return "valid" if self.ok else "; ".join(self.entries)


class _Invalid(Exception):
    pass


# op -> (params, results, natural width of its memory access or 0); the
# width rides in the one lookup each instruction makes. Params are a list,
# which a slice of the operand stack compares equal to.
_SIGS = {op: (list(ins), outs, MEM_ACCESS[op][1] if op in MEM_ACCESS else 0)
         for op, (ins, outs) in SIGS.items()}

# op -> the type of the variable it names -> (params, results)
_LOCAL_SIGS = {op: {t: ([t] * pops, (t,) * pushes) for t in VALTYPE_BYTE}
               for op, pops, pushes in (("local.get", 0, 1),
                                        ("local.set", 1, 0),
                                        ("local.tee", 1, 1))}
_GLOBAL_SIGS = {"global.get": _LOCAL_SIGS["local.get"],
                "global.set": _LOCAL_SIGS["local.set"]}


class _Frame:
    __slots__ = ("op", "end_types", "height", "unreachable", "pc", "else_pc")

    def __init__(self, op: str, end_types: tuple[str, ...], height: int,
                 pc: int):
        self.op = op
        self.end_types = end_types
        self.height = height
        self.unreachable = False
        self.pc = pc  # of the block, loop or if that opened it
        self.else_pc = None

    def label_types(self) -> tuple[str, ...]:
        # loop labels branch to the header, which takes no values in MVP
        return () if self.op == "loop" else self.end_types


class _ModuleIndex:
    """What a module's index spaces hold, resolved once."""

    def __init__(self, m: ModuleIR):
        self.types = m.types
        imported = {"func": [], "table": [], "memory": [], "global": []}
        for im in m.imports:
            imported[im.kind].append(im.desc)
        self.num_imported_funcs = len(imported["func"])
        self.num_imported_globals = len(imported["global"])
        type_idxs = imported["func"] + [f.type_idx for f in m.functions]
        # signature of every function index; None if its type index is bad
        self.func_types = [m.types[i] if i < len(m.types) else None
                           for i in type_idxs]
        self.global_types = imported["global"] + [
            (g.valtype, g.mutable) for g in m.globals]
        # the size of each index space an export can name
        self.sizes = {
            "func": len(self.func_types),
            "global": len(self.global_types),
            "memory": len(imported["memory"]) + (m.memory is not None),
            "table": len(imported["table"]) + (m.table is not None),
        }
        self.has_memory = self.sizes["memory"] > 0
        self.has_table = self.sizes["table"] > 0


class _FuncChecker:
    def __init__(self, m: _ModuleIndex, f: FunctionIR, ftype: FuncType):
        self.m = m
        self.f = f
        self.locals = list(ftype.params) + list(f.locals)
        self.results = ftype.results
        self.vals: list[str] = []
        self.ctrls: list[_Frame] = [_Frame("func", ftype.results, 0, -1)]
        self.blocks: dict[int, tuple] = {}

    def fail(self, msg: str):
        raise _Invalid(msg)

    def push(self, t: str):
        self.vals.append(t)

    def pop(self, expect: str | None = None) -> str:
        frame = self.ctrls[-1]
        if len(self.vals) == frame.height:
            if frame.unreachable:
                return expect or UNKNOWN
            self.fail("operand stack underflow")
        actual = self.vals.pop()
        if expect is not None and actual != expect and actual != UNKNOWN:
            self.fail(f"type mismatch: expected {expect}, got {actual}")
        return actual

    def push_ctrl(self, op: str, end_types: tuple[str, ...], pc: int):
        self.ctrls.append(_Frame(op, end_types, len(self.vals), pc))

    def pop_ctrl(self) -> _Frame:
        frame = self.ctrls[-1]
        for t in reversed(frame.end_types):
            self.pop(t)
        if len(self.vals) != frame.height:
            self.fail("operand stack not empty at end of block")
        self.ctrls.pop()
        return frame

    def mark_unreachable(self):
        frame = self.ctrls[-1]
        del self.vals[frame.height:]
        frame.unreachable = True

    def label(self, depth: int) -> _Frame:
        if depth >= len(self.ctrls):
            self.fail(f"branch label {depth} out of range")
        return self.ctrls[-1 - depth]

    def check_memarg(self, instr: Instr, natural: int):
        align, _offset = instr.args
        if (1 << align) > natural:
            self.fail(f"{instr.op}: alignment 2^{align} exceeds natural")
        if not self.m.has_memory:
            self.fail(f"{instr.op}: module has no memory")

    def run(self):
        """Type the body. An op of fixed signature (every ``SIGS`` op and
        every ``local.*`` and ``global.*``) is typed here: if the top values
        above the innermost frame are its params, one slice cuts them off;
        otherwise ``pop`` takes them one by one and reports what is wrong,
        or lets the unreachable stack below them stand in. Then its results
        are pushed. ``step`` types the rest."""
        body = self.f.body
        vals, ctrls = self.vals, self.ctrls
        locals_, global_types = self.locals, self.m.global_types
        height = 0  # of the innermost frame
        for pc, instr in enumerate(body):
            op = instr.op
            sig = _SIGS.get(op)
            if sig is not None:
                ins, outs, natural = sig
                if natural:
                    self.check_memarg(instr, natural)
            elif op in _LOCAL_SIGS:
                idx = instr.args[0]
                if idx >= len(locals_):
                    self.fail(f"{op}: local index {idx} out of range")
                try:
                    ins, outs = _LOCAL_SIGS[op][locals_[idx]]
                except KeyError:  # a hand-built FunctionIR's local
                    self.fail(f"{op}: local {idx} has type "
                              f"{locals_[idx]!r}, not a value type")
            elif op in _GLOBAL_SIGS:
                idx = instr.args[0]
                if idx >= len(global_types):
                    self.fail(f"{op}: global index {idx} out of range")
                t, mut = global_types[idx]
                if op == "global.set" and not mut:
                    self.fail(f"global.set on immutable global {idx}")
                try:
                    ins, outs = _GLOBAL_SIGS[op][t]
                except KeyError:  # a hand-built Global or Import
                    self.fail(f"{op}: global {idx} has type {t!r}, "
                              "not a value type")
            else:
                self.step(pc, instr)
                if ctrls:
                    height = ctrls[-1].height
                elif pc + 1 < len(body):
                    self.fail(f"instruction {pc + 1} ({body[pc + 1].op}) "
                              "follows the function's end")
                continue
            if ins:
                h = len(vals) - len(ins)
                if h >= height and vals[h:] == ins:
                    del vals[h:]
                else:
                    for t in reversed(ins):
                        self.pop(t)
            vals += outs
        if ctrls:
            self.fail("function body not terminated by end")

    def step(self, pc: int, instr: Instr):
        """Type a control, parametric, call or memory-size op."""
        op = instr.op
        if op == "nop":
            return
        if op == "unreachable":
            self.mark_unreachable()
            return
        if op == "drop":
            self.pop()
            return
        if op == "select":
            self.pop("i32")
            t1 = self.pop()
            t2 = self.pop()
            if t1 != t2 and UNKNOWN not in (t1, t2):
                self.fail(f"select operands differ: {t1} vs {t2}")
            self.push(t2 if t1 == UNKNOWN else t1)
            return
        if op in ("block", "loop", "if"):
            # only a hand-built Instr can lack its block type or name
            # another
            if len(instr.args) != 1:
                self.fail(f"{op}: no block type")
            bt = instr.args[0]
            if bt is not None and bt not in VALTYPE_BYTE:
                self.fail(f"{op}: block type {bt!r} is not a value type")
            if op == "if":
                self.pop("i32")
            self.push_ctrl(op, () if bt is None else (bt,), pc)
            return
        if op == "else":
            frame = self.ctrls[-1]
            if frame.op != "if":
                self.fail("else without matching if")
            self.pop_ctrl()
            self.push_ctrl("else", frame.end_types, frame.pc)
            self.ctrls[-1].else_pc = pc
            return
        if op == "end":
            frame = self.pop_ctrl()
            if frame.op == "if" and frame.end_types:
                self.fail("if without else cannot produce a value")
            if self.ctrls:  # not the function's own end
                self.blocks[frame.pc] = (frame.height, frame.else_pc, pc)
            for t in frame.end_types:
                self.push(t)
            return
        if op == "br":
            frame = self.label(instr.args[0])
            for t in reversed(frame.label_types()):
                self.pop(t)
            self.mark_unreachable()
            return
        if op == "br_if":
            self.pop("i32")
            frame = self.label(instr.args[0])
            lt = frame.label_types()
            for t in reversed(lt):
                self.pop(t)
            for t in lt:
                self.push(t)
            return
        if op == "br_table":
            targets, default = instr.args
            self.pop("i32")
            dframe = self.label(default)
            dt = dframe.label_types()
            for tgt in targets:
                if self.label(tgt).label_types() != dt:
                    self.fail("br_table target label types differ")
            for t in reversed(dt):
                self.pop(t)
            self.mark_unreachable()
            return
        if op == "return":
            for t in reversed(self.results):
                self.pop(t)
            self.mark_unreachable()
            return
        if op == "call":
            idx = instr.args[0]
            if idx >= len(self.m.func_types):
                self.fail(f"call: function index {idx} out of range")
            ft = self.m.func_types[idx]
            if ft is None:
                self.fail(f"call: function {idx} has an invalid type")
            for t in reversed(ft.params):
                self.pop(t)
            for t in ft.results:
                self.push(t)
            return
        if op == "call_indirect":
            if not self.m.has_table:
                self.fail("call_indirect: module has no table")
            ti = instr.args[0]
            if ti >= len(self.m.types):
                self.fail(f"call_indirect: type index {ti} out of range")
            ft = self.m.types[ti]
            self.pop("i32")
            for t in reversed(ft.params):
                self.pop(t)
            for t in ft.results:
                self.push(t)
            return
        if op in ("memory.size", "memory.grow"):
            if not self.m.has_memory:
                self.fail(f"{op}: module has no memory")
            if op == "memory.grow":
                self.pop("i32")
            self.push("i32")
            return
        self.fail(f"unknown instruction {op}")


def _check_const_expr(
    index: _ModuleIndex, expr: list[Instr], expect: str,
    report: ValidationReport, ctx: str,
):
    if len(expr) != 1:
        report.add(f"{ctx}: constant expression must be a single instruction")
        return
    instr = expr[0]
    if instr.op.endswith(".const") and instr.op in SIGS:
        (t,) = SIGS[instr.op][1]
        if t != expect:
            report.add(f"{ctx}: init type {t}, expected {expect}")
        return
    if instr.op == "global.get":
        idx = instr.args[0]
        if idx >= index.num_imported_globals:
            report.add(f"{ctx}: init refers to non-imported global {idx}")
            return
        t, mut = index.global_types[idx]
        if mut:
            report.add(f"{ctx}: init refers to mutable global {idx}")
        if t != expect:
            report.add(f"{ctx}: init type {t}, expected {expect}")
        return
    report.add(f"{ctx}: non-constant init expression ({instr.op})")


MAX_MEMORY_PAGES = 65536  # 4 GiB: the most a memory's limits may name


def _check_memory_limits(limits: tuple, report: ValidationReport, ctx: str):
    if any(n is not None and n > MAX_MEMORY_PAGES for n in limits):
        report.add(f"{ctx}: memory size must be at most {MAX_MEMORY_PAGES} "
                   "pages (4 GiB)")


def validate_module(m: ModuleIR) -> ValidationReport:
    """Type-check a module; returns an empty report iff it is valid."""
    index = _ModuleIndex(m)
    report = ValidationReport(func_types=index.func_types)
    n_funcs = len(index.func_types)

    for i, im in enumerate(m.imports):
        if im.kind == "func" and im.desc >= len(m.types):
            report.add(f"import {i}: type index {im.desc} out of range")
        if im.kind == "memory":
            _check_memory_limits(im.desc, report, f"import {i}")
    if m.memory is not None:
        _check_memory_limits(m.memory, report, "memory")

    for i, g in enumerate(m.globals):
        _check_const_expr(index, g.init, g.valtype, report, f"global {i}")

    n_imp_func = index.num_imported_funcs
    for i, f in enumerate(m.functions):
        ftype = index.func_types[n_imp_func + i]
        if ftype is None:
            report.add(f"func {i}: type index {f.type_idx} out of range")
            report.blocks.append({})
            continue
        checker = _FuncChecker(index, f, ftype)
        try:
            checker.run()
        except _Invalid as e:
            report.add(f"func {n_imp_func + i}: {e}")
        report.blocks.append(checker.blocks)

    seen_names = set()
    for e in m.exports:
        if e.name in seen_names:
            report.add(f"duplicate export name {e.name!r}")
        seen_names.add(e.name)
        if e.index >= index.sizes[e.kind]:
            report.add(f"export {e.name!r}: {e.kind} index {e.index} "
                       "out of range")

    if m.start is not None:
        if m.start >= n_funcs:
            report.add(f"start: function index {m.start} out of range")
        elif index.func_types[m.start] != FuncType((), ()):
            report.add("start: function signature must be () -> ()")

    for i, e in enumerate(m.elems):
        if not index.has_table:
            report.add(f"elem {i}: module has no table")
        _check_const_expr(index, e.offset, "i32", report, f"elem {i}")
        for fi in e.func_indices:
            if fi >= n_funcs:
                report.add(f"elem {i}: function index {fi} out of range")

    for i, d in enumerate(m.data_segments):
        if not index.has_memory:
            report.add(f"data {i}: module has no memory")
        _check_const_expr(index, d.offset, "i32", report, f"data {i}")

    return report
