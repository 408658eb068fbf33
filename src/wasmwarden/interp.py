"""Deterministic in-process interpreter for MVP Wasm with a WASI subset.

The engine validates a module once; instances are cheap and isolated,
each run is fuel metered, and traps are classified for crash triage.

``Engine()`` validates every body but compiles none: a body is compiled
the first time its function is entered, since a campaign calls few of a
module's functions. Compiling makes the body one generated Python
function (``_function_source``), written straight from its ``Instr``
list and the validator's record of its blocks, as wasm2c makes each Wasm
function one C function: Wasm locals and operand stack slots become
Python locals, basic blocks become the cases of a dispatch inside the
function, and host calls and the checks of ``call_indirect`` run inline.
A body's source depends on the module alone, so compiling adds nothing
to the namespace that ``Engine()`` makes. For a parsed module, which
carries the hash of its bytes, the compiled code object is shared by
every engine of the process: ``_CODE`` maps the module hash to each
body's code, and its memory is bounded by ``CODE_CACHE_MODULES``, the
number of module hashes it keeps. What runs the code is not shared: each
engine makes its own function from it, in its own namespace, over its
own table and host functions, and each instance has its own memory and
globals. Nothing changes a compiled function. A module built in Python
or returned by a pass has no hash and compiles per engine.

A call to a defined function returns to ``Engine._run``, which keeps the
caller on an explicit frame stack, as ``MAX_CALL_DEPTH`` is above Python's
recursion limit, and re-enters it at the call's resume point when the
callee returns.

Function-level code is exact. Fuel is charged once per segment, the ops
from a block's head to the branch, call or branch target that ends it,
when that fits the budget; otherwise the function hands its pc, operand
stack and locals back to ``Engine._run``, which generates and runs the
segment's first ``fuel - executed`` ops the same way, so fuel runs out on
the same instruction with the same memory. Each op is written once: the
integer ops as expressions (``_INT_FMT``), the other numeric ops as the
``_NUMERIC`` functions that the generated code calls, and everything else
as a template in ``_function_source``.

A trap is raised where it happens (a numeric helper, a memory check, a
WASI host function or function-level code) as ``_Trap(kind)``. The
handler around the code that ran the op attributes it to the function,
pc and instruction count at hand; in function-level code, each line that
may trap names its op's pc in a ``# @pc`` comment, which the handler
finds from the traceback.
"""

from __future__ import annotations

import math
import operator
import random
import re
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from types import CodeType
from typing import Optional

from .ir import PAGE, FuncType, ModuleIR, WasmError
from .opcodes import MEM_ACCESS, SIGS, VALTYPE_WIDTH
from .passes.coverage import ACCESSOR_NAME, MAP_SIZE
from .passes.sites import ORACLE_KINDS, SiteTable
from .validate import validate_module

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF

# trap kinds
UNREACHABLE = "Unreachable"
MEM_OOB = "MemoryOutOfBounds"
DIV_ZERO = "DivByZero"
INT_OVERFLOW = "IntegerOverflow"
INDIRECT_MISMATCH = "IndirectCallMismatch"
STACK_EXHAUSTED = "CallStackExhausted"
UNINIT_TABLE = "UninitializedTableEntry"


class UnsupportedImport(WasmError):
    def __init__(self, name: str):
        super().__init__(f"unsupported import: {name}")
        self.name = name


class InstantiationTrap(WasmError):
    pass


class AccessorMissing(WasmError):
    pass


class AccessorOutOfBounds(WasmError):
    pass


class InvalidModule(WasmError):
    pass


class NoEntryPoint(WasmError):
    pass


class SeedCrashes(WasmError):
    """A campaign's inputs crash the target before fuzzing starts. The
    fuzzer raises it; it lives here so that the CLI maps it to an exit
    code without importing the fuzzer, which imports numpy."""

    def __init__(self, crashing: list[int], what: str = "seed input(s)"):
        super().__init__(
            f"{what} {crashing} crash the target before fuzzing starts"
        )
        self.crashing = crashing


MAX_PAGES = 1024  # memory.grow fails past this many pages
MAX_CALL_DEPTH = 10_000  # calls nested below the entry; one more traps


@dataclass
class RunLimits:
    fuel: int = 50_000_000


@dataclass
class WasiConfig:
    """What a run sees of its host: its argv, its stdin and the seed of
    ``random_get``. The environment is always empty."""
    argv: list[str] = field(default_factory=lambda: ["prog"])
    stdin: bytes = b""
    rng_seed: int = 0


# what `@@` in an argv template stands for: the input is always on stdin,
# and no input file is written, as the WASI subset has no `path_open`
INPUT_PATH = "/dev/stdin"


def exec_argv(template: list[str]) -> list[str]:
    """The argv that ``fuzz``, ``run`` and ``cov`` all pass the target for
    ``template``: each ``@@`` (AFL's name for the input file) becomes
    ``INPUT_PATH``."""
    return [INPUT_PATH if a == "@@" else a for a in template]


@dataclass
class ExecOutcome:
    status: str  # "exit" | "trap" | "fuel-exhausted"
    exit_code: int = 0
    trap_kind: str = ""
    trap_function: int = -1
    trap_offset: int = -1
    stdout: bytes = b""
    stderr: bytes = b""
    instructions_executed: int = 0


@dataclass(frozen=True)
class CrashClass:
    kind: str  # a kind in ORACLE_KINDS, "builtin" or "none"

    @property
    def is_crash(self) -> bool:
        return self.kind != "none"


def classify_crash(outcome: ExecOutcome, sites: SiteTable | None) -> CrashClass:
    """Attribute a run outcome to an oracle, a built-in trap, or nothing.

    Normal exits (any code) and fuel exhaustion are not crashes.
    """
    if outcome.status != "trap":
        return CrashClass("none")
    if outcome.trap_kind == UNREACHABLE and sites is not None:
        site = sites.lookup(outcome.trap_function, outcome.trap_offset)
        if site is not None and site.kind in ORACLE_KINDS:
            return CrashClass(site.kind)
    return CrashClass("builtin")


# ---------------------------------------------------------------------------
# internal signals

class _Trap(Exception):
    """A trap of ``kind``; the code that ran the trapping op sets ``func``,
    ``offset`` and ``executed``."""

    def __init__(self, kind: str):
        self.kind = kind


class _ProcExit(Exception):
    def __init__(self, code: int):
        self.code = code
        self.executed = 0  # set by the run that made the call


class _Fuel(Exception):
    pass


# ---------------------------------------------------------------------------
# numeric helpers
#
# Every value is an unsigned int of its type's width; an f32 or f64 value is
# its IEEE bit pattern. Floats exist only inside float arithmetic,
# comparison and conversion, so const, load, store, local, global, select,
# reinterpret, neg, abs and copysign keep NaN payloads bit for bit.

def _s32(v):
    return v - 0x1_0000_0000 if v & 0x8000_0000 else v


def _s64(v):
    return v - 0x1_0000_0000_0000_0000 if v & 0x8000_0000_0000_0000 else v


_U32, _U64, _F32, _F64 = map(struct.Struct, ("<I", "<Q", "<f", "<d"))


def _f32(bits: int) -> float:
    """The f32 value with bit pattern ``bits``, widened exactly to a double."""
    return _F32.unpack(_U32.pack(bits))[0]


def _f32_bits(x: float) -> int:
    """Bit pattern of ``x`` rounded once to f32 (overflow gives infinity)."""
    try:
        return _U32.unpack(_F32.pack(x))[0]
    except OverflowError:
        return 0x7F80_0000 if x > 0 else 0xFF80_0000


def _f64(bits: int) -> float:
    return _F64.unpack(_U64.pack(bits))[0]


def _f64_bits(x: float) -> int:
    return _U64.unpack(_F64.pack(x))[0]


def _to_bits(valtype: str, v):
    """A ``call_export`` argument as the engine holds it."""
    if valtype == "f32":
        return _f32_bits(v)
    if valtype == "f64":
        return _f64_bits(v)
    return v


def _from_bits(valtype: str, v):
    """A result as ``call_export`` returns it."""
    if valtype == "f32":
        return _f32(v)
    if valtype == "f64":
        return _f64(v)
    return v


def _int_f32_bits(n: int) -> int:
    """Bit pattern of the integer ``n`` rounded once to f32.

    Bits below a double's 53 are folded into a sticky bit first, so the
    exact int -> double conversion leaves the one rounding to f32.
    """
    drop = n.bit_length() - 53
    if drop > 0:
        m = abs(n)
        sticky = 1 if m & ((1 << drop) - 1) else 0
        m = (m >> drop | sticky) << drop
        n = -m if n < 0 else m
    return _f32_bits(float(n))


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _div_s(a, b, bits):
    sa, sb = (_s32(a), _s32(b)) if bits == 32 else (_s64(a), _s64(b))
    if sb == 0:
        raise _Trap(DIV_ZERO)
    q = _trunc_div(sa, sb)
    if q == 1 << (bits - 1):
        raise _Trap(INT_OVERFLOW)
    return q & (M32 if bits == 32 else M64)


def _rem_s(a, b, bits):
    sa, sb = (_s32(a), _s32(b)) if bits == 32 else (_s64(a), _s64(b))
    if sb == 0:
        raise _Trap(DIV_ZERO)
    r = sa - sb * _trunc_div(sa, sb)
    return r & (M32 if bits == 32 else M64)


def _div_u(a, b):
    if b == 0:
        raise _Trap(DIV_ZERO)
    return a // b


def _rem_u(a, b):
    if b == 0:
        raise _Trap(DIV_ZERO)
    return a % b


def _fmin(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b == 0.0:  # -0 < +0 per IEEE minimum
        return -0.0 if math.copysign(1, a) < 0 or math.copysign(1, b) < 0 else 0.0
    return a if a < b else b


def _fmax(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b == 0.0:
        return 0.0 if math.copysign(1, a) > 0 or math.copysign(1, b) > 0 else -0.0
    return a if a > b else b


def _fdiv(a, b):
    if b == 0.0:
        if math.isnan(a) or a == 0.0:
            return math.nan
        sign = math.copysign(1, a) * math.copysign(1, b)
        return math.inf if sign > 0 else -math.inf
    return a / b


def _fround(x, to_int):
    """ceil, floor, trunc or nearest; the result keeps the sign of ``x``,
    so ceil(-0.5) is -0.0."""
    if math.isnan(x) or math.isinf(x):
        return x
    return math.copysign(float(to_int(x)), x)


def _fsqrt(x):
    return math.nan if x < 0 else math.sqrt(x)  # sqrt(-0.0) is -0.0


def _trunc_to_int(x: float, lo: int, hi: int) -> int:
    if math.isnan(x) or math.isinf(x):
        raise _Trap(INT_OVERFLOW)
    t = math.trunc(x)
    if not lo <= t <= hi:
        raise _Trap(INT_OVERFLOW)
    return t


def _int_exprs() -> dict[str, str]:
    """Integer ops that are one Python expression over their operands
    ``a`` and ``b``, which function-level code splices in.

    A signed comparison flips the sign bits, which maps signed order onto
    unsigned order; ``(a ^ S) - S`` is ``a`` read as signed.
    """
    ex: dict[str, str] = {}
    for bits in (32, 64):
        p = f"i{bits}"
        m = f"0x{(1 << bits) - 1:X}"
        s = f"0x{1 << (bits - 1):X}"
        n = bits - 1  # shift counts are taken modulo the width
        ex[f"{p}.eqz"] = "1 if a == 0 else 0"
        ex[f"{p}.eq"] = "1 if a == b else 0"
        ex[f"{p}.ne"] = "1 if a != b else 0"
        for name, rel in (("lt", "<"), ("gt", ">"), ("le", "<="),
                          ("ge", ">=")):
            ex[f"{p}.{name}_u"] = f"1 if a {rel} b else 0"
            ex[f"{p}.{name}_s"] = f"1 if (a ^ {s}) {rel} (b ^ {s}) else 0"
        ex[f"{p}.clz"] = f"{bits} - a.bit_length()"
        ex[f"{p}.ctz"] = f"(a & -a).bit_length() - 1 if a else {bits}"
        ex[f"{p}.popcnt"] = "a.bit_count()"
        for name, sym in (("add", "+"), ("sub", "-"), ("mul", "*")):
            ex[f"{p}.{name}"] = f"(a {sym} b) & {m}"
        for name, sym in (("and", "&"), ("or", "|"), ("xor", "^")):
            ex[f"{p}.{name}"] = f"a {sym} b"
        ex[f"{p}.shl"] = f"(a << (b & {n})) & {m}"
        ex[f"{p}.shr_u"] = f"a >> (b & {n})"
        ex[f"{p}.shr_s"] = f"(((a ^ {s}) - {s}) >> (b & {n})) & {m}"
        ex[f"{p}.rotl"] = (f"((a << (b & {n})) | (a >> ({bits} - (b & {n}))))"
                           f" & {m}")
        ex[f"{p}.rotr"] = (f"((a >> (b & {n})) | (a << ({bits} - (b & {n}))))"
                           f" & {m}")
    ex["i32.wrap_i64"] = "a & 0xFFFFFFFF"
    ex["i64.extend_i32_s"] = ("((a ^ 0x80000000) - 0x80000000)"
                              " & 0xFFFFFFFFFFFFFFFF")
    ex["i64.extend_i32_u"] = "a"
    return ex


# the integer expressions with their operands as format fields; an
# operand may be a literal, which needs parentheses before an attribute
_INT_FMT = {op: re.sub(r"\b([ab])\b", r"{\1}", ex).replace("{a}.", "({a}).")
            for op, ex in _int_exprs().items()}


def _build_numeric() -> dict[str, object]:
    """opname -> fn on bit patterns, for the numeric ops that are not one
    expression (``_INT_FMT``); its arity is in ``opcodes.SIGS``."""
    ops: dict[str, object] = {}
    put = ops.__setitem__
    for bits in (32, 64):
        p = f"i{bits}"
        put(f"{p}.div_s", lambda a, c, n=bits: _div_s(a, c, n))
        put(f"{p}.div_u", _div_u)
        put(f"{p}.rem_s", lambda a, c, n=bits: _rem_s(a, c, n))
        put(f"{p}.rem_u", _rem_u)

    for p, val, to_bits, sign in (("f32", _f32, _f32_bits, 1 << 31),
                                  ("f64", _f64, _f64_bits, 1 << 63)):
        for name, fn in (("eq", operator.eq), ("ne", operator.ne),
                         ("lt", operator.lt), ("gt", operator.gt),
                         ("le", operator.le), ("ge", operator.ge)):
            put(f"{p}.{name}",
                lambda a, c, f=fn, v=val: 1 if f(v(a), v(c)) else 0)
        for name, fn in (("ceil", math.ceil), ("floor", math.floor),
                         ("trunc", math.trunc), ("nearest", round)):
            put(f"{p}.{name}",
                lambda a, f=fn, v=val, w=to_bits: w(_fround(v(a), f)))
        put(f"{p}.sqrt", lambda a, v=val, w=to_bits: w(_fsqrt(v(a))))
        for name, fn in (("add", operator.add), ("sub", operator.sub),
                         ("mul", operator.mul), ("div", _fdiv),
                         ("min", _fmin), ("max", _fmax)):
            put(f"{p}.{name}",
                lambda a, c, f=fn, v=val, w=to_bits: w(f(v(a), v(c))))
        # sign-bit operations: bit-exact, NaN payloads included
        put(f"{p}.abs", lambda a, m=sign - 1: a & m)
        put(f"{p}.neg", lambda a, s=sign: a ^ s)
        put(f"{p}.copysign", lambda a, c, s=sign: (a & (s - 1)) | (c & s))

    for p, sx, mask in (("i32", _s32, M32), ("i64", _s64, M64)):
        half = 1 << (mask.bit_length() - 1)
        for fp, val in (("f32", _f32), ("f64", _f64)):
            put(f"{p}.trunc_{fp}_s", lambda a, v=val, lo=-half, hi=half - 1,
                m=mask: _trunc_to_int(v(a), lo, hi) & m)
            put(f"{p}.trunc_{fp}_u",
                lambda a, v=val, hi=mask: _trunc_to_int(v(a), 0, hi))
        put(f"f32.convert_{p}_s", lambda a, s=sx: _int_f32_bits(s(a)))
        put(f"f32.convert_{p}_u", _int_f32_bits)
        put(f"f64.convert_{p}_s", lambda a, s=sx: _f64_bits(s(a)))
        put(f"f64.convert_{p}_u", _f64_bits)
    put("f32.demote_f64", lambda a: _f32_bits(_f64(a)))
    put("f64.promote_f32", lambda a: _f64_bits(_f32(a)))
    return ops


_NUMERIC = _build_numeric()

_MASK = {t: (1 << 8 * width) - 1 for t, width in VALTYPE_WIDTH.items()}
_CONST_MASK = {f"{t}.const": mask for t, mask in _MASK.items()}


# --------------------------------------------------------------------------
# function-level code
#
# A body's function-level code is one generated Python function,
#
#     f(inst, mem, G, fuel, executed, at, L, S) -> request
#
# generated straight from the body's ``Instr`` list and the validator's
# record of its blocks (``ValidationReport.blocks``),
# whose Wasm locals are the Python locals ``l0, l1, ...`` and whose operand
# stack slot i is the Python local ``s{i}``. Its basic blocks are the
# cases of a dispatch on ``at``, a branch target's pc; straight-line code
# between them runs inline, constants and ``local.get`` values unwritten
# until something needs them in their slot. ``at`` is 0 on entry, where
# ``L`` holds the arguments, or the resume key of a call the function
# made, where ``L`` holds its locals and ``S`` its operand stack with the
# callee's result on top. It returns one of three requests to
# ``Engine._run``:
_RETURNS = 0  # (_RETURNS, executed, result or None)
_CALLS = 1  # (_CALLS, executed, callee's index, args, resume key, L, S)
_HANDS_OFF = 2  # (_HANDS_OFF, executed, pc, operand stack, locals)
#
# A segment is the code from a block's head up to and including the op
# that ends it: a branch, ``if``, ``return``, ``unreachable``, a call that
# may leave the function, or the op before the next branch target. Its
# head charges its length in fuel when that fits the budget, and hands its
# pc, stack and locals back when it does not. ``Engine._run`` then runs
# the cut of that segment, its first ``fuel - executed`` ops, generated
# the same way, which raises ``_Fuel`` at its end: fuel runs out on the
# same instruction with the same memory.
#
# A branch goes to (target pc, arity, height): it keeps its top ``arity``
# values, cuts the operand stack to ``height`` values above the frame's
# base and jumps to the ``end`` of a block or ``if``, to a ``loop``, or to
# the function's final ``end``, which returns. ``else`` ends the then-arm
# with a branch to its ``if``'s end. ``block``, ``loop``, the other ends,
# ``nop`` and the reinterprets cost one fuel and do nothing else.
#
# Each line that may trap or call the host ends in ``# @pc``, its op's pc.
# The handler around the body finds that line from the traceback and
# reports the op and the count stepping would have reached, so the hot
# path keeps no record of where it is.

_TEST = re.compile(r"1 if (.*) else 0")  # a comparison, as _INT_FMT has it
_MARK = re.compile(r"  # @(\d+)$")


def _helper_name(op: str) -> str:
    """The name function-level code calls a ``_NUMERIC`` helper by."""
    return op.replace(".", "_")


def _memory_grow(inst, delta: int) -> int:
    """``memory.grow``: the old size in pages, or -1 past the limit."""
    mem = inst.memory
    cur = len(mem) // PAGE
    cap = MAX_PAGES if inst.mem_max is None else min(MAX_PAGES, inst.mem_max)
    if cur + delta > cap:
        return M32
    mem.extend(bytes(delta * PAGE))
    return cur


def _attribute(e, func_idx: int, marks: dict, executed: int):
    """The trap or ``proc_exit`` that ``e``, caught in a body's
    function-level code, stands for, with where it happened set.
    ``marks`` maps each marked line to its op's pc and the ops after it in
    its segment, which ``executed`` already counts. An ``IndexError`` is a
    one-byte access past the end of memory, which ``bytearray`` checks."""
    pc, after = marks[e.__traceback__.tb_lineno]
    if isinstance(e, IndexError):
        e = _Trap(MEM_OOB)
    if isinstance(e, _Trap):
        e.func, e.offset = func_idx, pc
    e.executed = executed - after
    return e


# what function-level code refers to besides its engine's names
_NAMES = {
    "_Trap": _Trap, "_ProcExit": _ProcExit, "MEM_OOB": MEM_OOB,
    "UNREACHABLE": UNREACHABLE, "from_bytes": int.from_bytes,
    "_Fuel": _Fuel, "grow": _memory_grow, "attribute": _attribute,
    **{_helper_name(op): fn for op, fn in _NUMERIC.items()},
}


def _indirect_callee(table: list, func_type_ids: list, elem: int,
                     type_id: int) -> int:
    """The function index that a ``call_indirect`` of type ``type_id``
    reaches through slot ``elem`` of ``table``; a type's number is the
    first index of an equal type, ``func_type_ids`` each function's."""
    if elem >= len(table) or table[elem] is None:
        raise _Trap(UNINIT_TABLE)
    target = table[elem]
    if func_type_ids[target] != type_id:
        raise _Trap(INDIRECT_MISMATCH)
    return target


def _function_source(name: str, body: list, blocks: dict, meta,
                     types: list, func_types: list, n_host: int,
                     cut=None) -> str:
    """Python source of ``name``, the function-level code of ``meta``'s
    body, the ``Instr`` list of a validated function whose blocks the
    validator recorded in ``blocks``. ``types`` are the module's types,
    which ``call_indirect`` names, and ``func_types`` the type of each
    function index. The source depends on these arguments alone.

    With ``cut``, ``(pc, k, height)``, it is the code of the ``k`` ops
    from the segment head ``pc`` on, entered with ``height`` values on the
    operand stack, that raises ``_Fuel`` after them; ``k`` is less than
    the segment's length, so none of those ops branches or leaves."""
    local_list = "[" + ", ".join(f"l{i}" for i in range(meta.nlocals)) + "]"

    # where each op that branches goes: a br, br_if or ``else`` to its
    # label's (target, arity, height), a br_table to one per label, default
    # last, and an ``if`` to the pc its false condition jumps to
    goes: dict = {}
    # per open label, where a branch to it goes; the outermost is the
    # function's own label
    open_labels = [(len(body) - 1, meta.nresults, 0)]
    # branch targets; a call_indirect's next pc too, where a host
    # callee's result and the resumed caller meet
    labels = set()
    # whether control may not simply go on to the next pc after each op
    leaves = [False] * len(body)
    for pc, instr in enumerate(body):
        op, a = instr.op, instr.args
        if op == "br" or op == "br_if" or op == "else":
            # ``else``: the then-arm is done, so it branches to the end
            goes[pc] = open_labels[-1 if op == "else" else -1 - a[0]]
            labels.add(goes[pc][0])
        elif op == "br_table":
            goes[pc] = tuple(open_labels[-1 - t] for t in (*a[0], a[1]))
            labels.update(target for target, _, _ in goes[pc])
        elif op == "block" or op == "loop" or op == "if":
            height, else_pc, end = blocks[pc]
            # a branch to a loop restarts it and, in MVP, carries no value
            open_labels.append((pc, 0, height) if op == "loop" else
                               (end, 0 if a[0] is None else 1, height))
            if op != "if":
                continue
            goes[pc] = end if else_pc is None else else_pc + 1
            labels.add(goes[pc])
        elif op == "end":
            open_labels.pop()
            if open_labels:
                continue
        elif op == "call_indirect":
            labels.add(pc + 1)
        elif op == "call":
            if a[0] < n_host:  # a host call runs inline
                continue
        elif op != "return" and op != "unreachable":
            continue
        leaves[pc] = True
    # the last pc of each pc's segment; a valid body ends in a return
    ends = [0] * len(body)
    for pc in range(len(body) - 1, -1, -1):
        ends[pc] = pc if leaves[pc] or pc + 1 in labels else ends[pc + 1]
    head, height, pcs = 0, 0, range(len(body))
    if cut:  # the cut's ops are one segment, which ends at its last op
        head, k, height = cut
        pcs = range(head, head + k)
        ends[head: head + k] = [head + k - 1] * k

    cases: dict[int, list[str]] = {}  # dispatch key -> its lines
    cur: Optional[list[str]] = None  # the live case's lines, None if dead
    st: list[str] = []  # the operand stack: slot names, literals, locals
    pending: dict[int, int] = {}  # forward target -> its stack height
    jumps = False

    def take() -> str:
        """Pop the top value's expression, moved out of the line just
        written when that line computed it, cannot trap and wrote it to
        its slot, as the op taking it is the next thing to run. Moved
        expressions nest only so deep, as Python's parser limits that."""
        value = st.pop()
        if (value[0] == "s" and cur and cur[-1].startswith(value + " = ")
                and "#" not in cur[-1] and cur[-1].count("(") < 8):
            return cur.pop()[len(value) + 3:]
        return value

    def operand(once: bool = True) -> str:
        """Pop the top value to use as an operand: ``take``'s expression,
        in parentheses, when the operand is evaluated ``once``."""
        if not once:
            return st.pop()
        value = st[-1]
        expr = take()
        return expr if expr == value else f"({expr})"

    def push(expr: str):
        slot = f"s{len(st)}"
        cur.append(f"{slot} = {expr}")
        st.append(slot)

    def marked(line: str) -> str:
        return f"{line}  # @{pc}"

    def settle(n: int, out: list[str]):
        """Write the bottom ``n`` stack entries to their slots."""
        out.extend(f"s{i} = {e}" for i, e in enumerate(st[:n])
                   if e != f"s{i}")

    def jump(target: int, arity: int, height: int) -> list[str]:
        """Lines that keep the top ``arity`` values at ``height`` and go
        to ``target``."""
        nonlocal jumps
        jumps = True
        out: list[str] = []
        settle(height, out)
        if arity and st[-1] != f"s{height}":
            out.append(f"s{height} = {st[-1]}")
        if target > pc:
            pending[target] = height + arity
        return out + [f"at = {target}", "continue"]

    def start(key: int, height: int):
        nonlocal cur, st
        cur = cases[key] = []
        st = [f"s{i}" for i in range(height)]

    def args_of(n: int) -> list[str]:
        out = st[len(st) - n:]
        del st[len(st) - n:]
        return out

    def call(fn: str, args: list[str]) -> str:
        return f"{fn}(inst{''.join(', ' + a for a in args)})"

    def test(cond: str) -> str:
        """``cond`` as a condition: a comparison unwrapped, and any
        expression in parentheses."""
        m = _TEST.fullmatch(cond)
        return f"({m[1] if m else cond})" if " " in cond else cond

    pc = head
    start(0, height)
    for pc in pcs:
        op, imm = body[pc].op, body[pc].args
        if pc in labels and pc != head:  # the entry is the label of the head
            if cur is not None:  # falls into the label
                cur += jump(pc, 0, len(st))
                start(pc, len(st))
            elif pc in pending:
                start(pc, pending[pc])
        if cur is None:  # no live code reaches this pc
            continue
        if pc == head or pc in labels or leaves[pc - 1]:
            n = ends[pc] - pc + 1
            if not cut:
                cur.append(f"if executed + {n} > fuel: return ({_HANDS_OFF}, "
                           f"executed, {pc}, [{', '.join(st)}], {local_list})")
            cur.append(f"executed += {n}")

        if op in _CONST_MASK:
            st.append(str(imm[0] & _CONST_MASK[op]))
        elif op == "local.get":
            st.append(f"l{imm[0]}")
        elif op == "local.set" or op == "local.tee":
            local = f"l{imm[0]}"
            value = take()
            # entries that read the local read it before this write
            for i, e in enumerate(st):
                if e == local:
                    cur.append(f"s{i} = {local}")
                    st[i] = f"s{i}"
            cur.append(f"{local} = {value}")
            if op == "local.tee":
                st.append(local)
        elif op == "global.get":
            push(f"G[{imm[0]}]")
        elif op == "global.set":
            cur.append(f"G[{imm[0]}] = {take()}")
        elif op == "drop":
            st.pop()
        elif op == "select":
            cond, b, a = st.pop(), st.pop(), st.pop()
            push(f"{a} if {cond} else {b}")
        elif op in _INT_FMT or op in _NUMERIC:
            fmt = _INT_FMT.get(op, "{a}{b}")
            b = (operand(fmt.count("{b}") == 1) if len(SIGS[op][0]) == 2
                 else "")
            a = operand(fmt.count("{a}") == 1)
            if op in _INT_FMT:
                push(fmt.format(a=a, b=b))
            else:  # div, rem, trunc and the float ops
                push(f"{_helper_name(op)}({a}{', ' + b if b else ''})")
                cur[-1] = marked(cur[-1])
        elif op in MEM_ACCESS:
            t, width, signed = MEM_ACCESS[op]
            store = not SIGS[op][1]
            offset = imm[1]
            value = operand() if store else ""
            addr = st.pop()
            # the effective address and the end of the access, written
            # out where they are used, so no expression reads a temporary
            if addr[0].isdigit():  # a constant address
                a = str(int(addr) + offset)
                stop = str(int(a) + width)
            else:
                a = f"{addr} + {offset}" if offset else addr
                stop = f"{addr} + {offset + width}"
            if width == 1 and not signed:
                # indexing checks the bounds, raising IndexError
                if store:
                    cur.append(f"mem[{a}] = {value} & 0xFF")
                else:
                    push(f"mem[{a}]")
                cur[-1] = marked(cur[-1])
                continue
            cur.append(marked(f"if {stop} > size: raise _Trap(MEM_OOB)"))
            span = f"mem[{a}:{stop}]"
            if store:
                cur.append(f"{span} = ({value} & {(1 << 8 * width) - 1:#x})"
                           f".to_bytes({width}, 'little')")
            elif signed:  # sign-extends
                push(f"from_bytes({span}, 'little', signed=True)"
                     f" & {_MASK[t]:#x}")
            else:  # zero-extends: the mask cannot clear a bit
                push(f"from_bytes({span}, 'little')")
        elif op == "memory.size":
            push(f"size // {PAGE}")
        elif op == "memory.grow":
            push(f"grow(inst, {st.pop()})")
            cur.append("size = len(mem)")
        elif op == "if":
            cur.append(f"if not {test(take())}:")
            cur += ["    " + line for line in jump(goes[pc], 0, len(st))]
        elif op == "br_if":
            cur.append(f"if {test(take())}:")
            cur += ["    " + line for line in jump(*goes[pc])]
        elif op == "br" or op == "else":
            cur += jump(*goes[pc])
            cur = None
        elif op == "br_table":
            cur.append(f"t = {take()}")
            *brs, default = goes[pc]
            if len({br[1:] for br in goes[pc]}) == 1:  # one arity and height
                keys = tuple(br[0] for br in brs)  # () for none
                cur.append(f"at = {keys}[t] if t < {len(keys)} "
                           f"else {default[0]}")
                for br in goes[pc]:
                    if br[0] > pc:
                        pending[br[0]] = br[2] + br[1]
                # where each goes is set; the rest of a jump is shared
                cur += jump(*default)[:-2] + ["continue"]
            else:
                for i, br in enumerate(brs):
                    cur.append(f"if t == {i}:")
                    cur += ["    " + line for line in jump(*br)]
                cur += jump(*default)
            cur = None
        elif op == "return" or op == "end" and leaves[pc]:  # the final end
            result = take() if meta.nresults else "None"
            cur.append(f"return ({_RETURNS}, executed, {result})")
            cur = None
        elif op == "unreachable":
            cur.append(marked("raise _Trap(UNREACHABLE)"))
            cur = None
        elif op == "call" and imm[0] < n_host:  # a host call runs inline
            sig = func_types[imm[0]]
            host = call(f"HOSTS[{imm[0]}]", args_of(len(sig.params)))
            if sig.results:
                push(f"{host} & 0xFFFFFFFF")
            else:
                cur.append(host)
            cur[-1] = marked(cur[-1])
        elif op == "call" or op == "call_indirect":
            if op == "call":
                sig, callee = func_types[imm[0]], str(imm[0])
            else:
                sig, callee = types[imm[0]], "t"
                cur.append(marked(f"t = callee({st.pop()}, "
                                  f"{types.index(sig)})"))
            args = args_of(len(sig.params))
            height = len(st) + len(sig.results)
            if op == "call_indirect":  # a host callee runs inline
                host = call("HOSTS[t]", args)
                host = [marked(f"s{len(st)} = {host} & 0xFFFFFFFF"
                               if sig.results else host)]
                settle(len(st), host)
                cur.append("if t < NHOST:")
                cur += ["    " + line for line in
                        host + [f"at = {pc + 1}", "continue"]]
                pending[pc + 1] = height
            cur.append(f"return ({_CALLS}, executed, {callee}, "
                       f"({''.join(a + ', ' for a in args)}), {~pc}, "
                       f"{local_list}, [{', '.join(st)}])")
            start(~pc, height)
            if height:
                cur.append(f"{', '.join(st)}, = S")
        # otherwise block, loop, the other ends, nop or a reinterpret: a
        # value is its bit pattern, so reinterpreting it changes nothing
    if cut:
        cur.append("raise _Fuel()")

    def dispatch(keys: list[int]) -> list[str]:
        if len(keys) == 1:
            return cases[keys[0]]
        mid = len(keys) // 2
        return ([f"if at < {keys[mid]}:"]
                + ["    " + line for line in dispatch(keys[:mid])]
                + ["else:"]
                + ["    " + line for line in dispatch(keys[mid:])])

    keys = sorted(cases)
    body = dispatch(keys)
    if jumps or len(keys) > 1:
        body = ["while True:"] + ["    " + line for line in body]
    params = [f"l{i}" for i in range(meta.nparams)]
    zeros = [f"l{i}" for i in range(meta.nparams, meta.nlocals)]
    entry = ([f"{', '.join(params)}, = L"] if params else []) + (
        [f"{' = '.join(zeros)} = 0"] if zeros else [])
    if any(key < 0 for key in keys) and meta.nlocals:  # resumes after a call
        entry = (["if at:", f"    {', '.join(params + zeros)}, = L", "else:"]
                 + ["    " + line for line in entry or ["pass"]])
    if cut:  # entered with its locals and stack
        stack = ", ".join(f"s{i}" for i in range(height))
        entry = ([f"{local_list[1:-1]}, = L"] if meta.nlocals else []) + (
            [f"{stack}, = S"] if height else [])
    lines = ([f"def {name}(inst, mem, G, fuel, executed, at, L, S):"]
             + ["    " + line for line in entry + ["size = len(mem)"]])
    # the lines before the body's are the def, the entry and ``try:``
    first = len(lines) + 2
    marks = {first + i: (int(m[1]), ends[int(m[1])] - int(m[1]))
             for i, line in enumerate(body)
             if (m := _MARK.search(line))}
    if marks:
        lines += (["    try:"] + ["        " + line for line in body]
                  + ["    except (_Trap, _ProcExit, IndexError) as e:",
                     f"        raise attribute(e, {meta.func_idx}, "
                     f"{marks}, executed)"])
    else:
        lines += ["    " + line for line in body]
    return "\n".join(lines + [""])


class _FuncMeta:
    __slots__ = ("func_idx", "ftype", "nparams", "nresults", "nlocals", "fn")

    def __init__(self, func_idx, ftype: FuncType, ndeclared: int):
        self.func_idx = func_idx
        self.ftype = ftype
        self.nparams = len(ftype.params)
        self.nresults = len(ftype.results)
        self.nlocals = self.nparams + ndeclared  # params included
        self.fn = None  # built by ``Engine.compiled`` on the first call


_WASI_MODULE = "wasi_snapshot_preview1"

ERRNO_SUCCESS = 0
ERRNO_BADF = 8
ERRNO_SPIPE = 29


class Instance:
    """One isolated instantiation: memory, globals, WASI state."""

    def __init__(self, engine: "Engine", wasi: WasiConfig):
        self.engine = engine
        self.wasi = wasi
        self.memory = bytearray(engine.mem_size)
        self.mem_max = engine.mem_max
        self.globals = engine.globals_init.copy()
        self.stdin_pos = 0
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.rng: Optional[random.Random] = None  # made by random_get
        self.clock = 0
        self.start_ran = False
        for off, data in engine.data_init:
            if off + len(data) > len(self.memory):
                raise InstantiationTrap(
                    f"data segment [{off}, {off + len(data)}) out of "
                    f"bounds for {len(self.memory)}-byte memory"
                )
            self.memory[off: off + len(data)] = data

    # memory helpers used by host calls
    def mem_read(self, addr: int, n: int) -> bytes:
        if addr + n > len(self.memory) or addr < 0:
            raise _Trap(MEM_OOB)
        return bytes(self.memory[addr: addr + n])

    def mem_write(self, addr: int, data: bytes):
        if addr + len(data) > len(self.memory) or addr < 0:
            raise _Trap(MEM_OOB)
        self.memory[addr: addr + len(data)] = data

    def write_u32(self, addr: int, value: int):
        self.mem_write(addr, (value & M32).to_bytes(4, "little"))

    def write_u64(self, addr: int, value: int):
        self.mem_write(addr, (value & M64).to_bytes(8, "little"))


def _iovec(mem: bytearray, at: int) -> tuple[int, int]:
    """The (buf, len) pair of the iovec at ``at``."""
    if at + 8 > len(mem):
        raise _Trap(MEM_OOB)
    return (int.from_bytes(mem[at: at + 4], "little"),
            int.from_bytes(mem[at + 4: at + 8], "little"))


def _wasi_args_sizes_get(inst, argc_ptr, size_ptr):
    argv = inst.wasi.argv
    inst.write_u32(argc_ptr, len(argv))
    inst.write_u32(size_ptr, sum(len(a.encode()) + 1 for a in argv))
    return ERRNO_SUCCESS


def _wasi_args_get(inst, argv_ptr, buf_ptr):
    for i, arg in enumerate(inst.wasi.argv):
        raw = arg.encode() + b"\x00"
        inst.write_u32(argv_ptr + 4 * i, buf_ptr)
        inst.mem_write(buf_ptr, raw)
        buf_ptr += len(raw)
    return ERRNO_SUCCESS


def _wasi_environ_sizes_get(inst, count_ptr, size_ptr):
    inst.write_u32(count_ptr, 0)
    inst.write_u32(size_ptr, 0)
    return ERRNO_SUCCESS


def _wasi_environ_get(inst, env_ptr, buf_ptr):
    return ERRNO_SUCCESS


def _wasi_fd_read(inst, fd, iovs_ptr, iovs_len, nread_ptr):
    if fd != 0:
        return ERRNO_BADF
    mem, stdin = inst.memory, inst.wasi.stdin
    total = 0
    for at in range(iovs_ptr, iovs_ptr + 8 * iovs_len, 8):
        buf, blen = _iovec(mem, at)
        chunk = stdin[inst.stdin_pos: inst.stdin_pos + blen]
        if chunk:
            inst.mem_write(buf, chunk)
            inst.stdin_pos += len(chunk)
            total += len(chunk)
        if len(chunk) < blen:
            break
    inst.write_u32(nread_ptr, total)
    return ERRNO_SUCCESS


def _wasi_fd_write(inst, fd, iovs_ptr, iovs_len, nwritten_ptr):
    if fd == 1:
        sink = inst.stdout
    elif fd == 2:
        sink = inst.stderr
    else:
        return ERRNO_BADF
    total = 0
    for at in range(iovs_ptr, iovs_ptr + 8 * iovs_len, 8):
        buf, blen = _iovec(inst.memory, at)
        sink.extend(inst.mem_read(buf, blen))
        total += blen
    inst.write_u32(nwritten_ptr, total)
    return ERRNO_SUCCESS


def _wasi_fd_close(inst, fd):
    return ERRNO_SUCCESS if fd in (0, 1, 2) else ERRNO_BADF


def _wasi_fd_seek(inst, fd, offset, whence, new_ptr):
    return ERRNO_SPIPE if fd in (0, 1, 2) else ERRNO_BADF


def _wasi_fd_fdstat_get(inst, fd, buf_ptr):
    if fd not in (0, 1, 2):
        return ERRNO_BADF
    stat = bytearray(24)
    stat[0] = 2  # character device
    inst.mem_write(buf_ptr, bytes(stat))
    return ERRNO_SUCCESS


def _wasi_proc_exit(inst, code):
    raise _ProcExit(_s32(code))


# bytes ``random_get`` draws at a time, so a draw's integer stays 256 KiB
RANDOM_CHUNK = 1 << 16


def _wasi_random_get(inst, buf, n):
    if buf + n > len(inst.memory):  # before the n draws fuel does not meter
        raise _Trap(MEM_OOB)
    if inst.rng is None:  # seeding costs ~7 us, so only modules that ask pay
        inst.rng = random.Random(inst.wasi.rng_seed)
    # n calls of getrandbits(8), each the top byte of one 32-bit Mersenne
    # Twister word: the same bytes and the same RNG state afterwards
    for at in range(0, n, RANDOM_CHUNK):
        k = min(RANDOM_CHUNK, n - at)
        words = inst.rng.getrandbits(32 * k).to_bytes(4 * k, "little")
        inst.mem_write(buf + at, words[3::4])
    return ERRNO_SUCCESS


def _wasi_clock_time_get(inst, clock_id, precision, time_ptr):
    # deterministic: a fixed epoch advanced by host-call count
    inst.clock += 1000
    inst.write_u64(time_ptr, 1_600_000_000_000_000_000 + inst.clock)
    return ERRNO_SUCCESS


_I32 = ("i32",)

# WASI function name -> (its signature, its implementation)
_WASI = {
    "args_get": (FuncType(("i32", "i32"), _I32), _wasi_args_get),
    "args_sizes_get": (FuncType(("i32", "i32"), _I32), _wasi_args_sizes_get),
    "environ_get": (FuncType(("i32", "i32"), _I32), _wasi_environ_get),
    "environ_sizes_get": (FuncType(("i32", "i32"), _I32),
                          _wasi_environ_sizes_get),
    "fd_read": (FuncType(("i32", "i32", "i32", "i32"), _I32), _wasi_fd_read),
    "fd_write": (FuncType(("i32", "i32", "i32", "i32"), _I32),
                 _wasi_fd_write),
    "fd_close": (FuncType(("i32",), _I32), _wasi_fd_close),
    "fd_seek": (FuncType(("i32", "i64", "i32", "i32"), _I32), _wasi_fd_seek),
    "fd_fdstat_get": (FuncType(("i32", "i32"), _I32), _wasi_fd_fdstat_get),
    "proc_exit": (FuncType(("i32",), ()), _wasi_proc_exit),
    "random_get": (FuncType(("i32", "i32"), _I32), _wasi_random_get),
    "clock_time_get": (FuncType(("i32", "i64", "i32"), _I32),
                       _wasi_clock_time_get),
}


# the compiled bodies of parsed modules, shared by the engines of the
# process: module hash -> function index -> the code object that defines
# the body's function. It keeps the last ``CODE_CACHE_MODULES`` hashes
# that an ``Engine()`` was made for, the least recently made dropped first
CODE_CACHE_MODULES = 8
_CODE: "OrderedDict[str, dict[int, CodeType]]" = OrderedDict()


def _module_code(sha256: str) -> dict[int, CodeType]:
    """The compiled bodies of the parsed module whose bytes hash to
    ``sha256``, now the most recently used entry of ``_CODE``."""
    bodies = _CODE.get(sha256)
    if bodies is None:
        bodies = _CODE[sha256] = {}
        if len(_CODE) > CODE_CACHE_MODULES:
            _CODE.popitem(last=False)
    else:
        _CODE.move_to_end(sha256)
    return bodies


class Engine:
    """A validated module with its imports resolved; instances are then
    cheap to create. Every body is validated here, so an invalid module
    is refused even where nothing calls the invalid function, and each is
    compiled on its function's first call. The module must not change
    while the engine lives.

    The code objects of a parsed module's bodies are shared with the other
    engines of the process through ``_CODE``, which keeps those of the last
    ``CODE_CACHE_MODULES`` module hashes; an engine keeps its own module's
    while it lives. Its functions, namespace, table and host functions are
    its own, as are each instance's memory and globals."""

    def __init__(self, module: ModuleIR):
        self.module = module
        # compiling a body relies on it being valid
        report = validate_module(module)
        if not report.ok:
            raise InvalidModule(str(report))

        hosts = []
        for im in module.imports:
            if im.kind != "func":
                raise UnsupportedImport(
                    f"{im.module}.{im.name} ({im.kind} import)"
                )
            row = _WASI.get(im.name) if im.module == _WASI_MODULE else None
            if row is None:
                raise UnsupportedImport(f"{im.module}.{im.name}")
            expected, impl = row
            if module.types[im.desc] != expected:
                raise UnsupportedImport(
                    f"{im.module}.{im.name}: signature mismatch"
                )
            hosts.append(impl)

        # signature of every function index, for call_indirect
        self.func_types = report.func_types
        n_host = len(hosts)
        self.metas = [_FuncMeta(n_host + i, self.func_types[n_host + i],
                                len(f.locals))
                      for i, f in enumerate(module.functions)]
        self._blocks = report.blocks

        # up to the last slot a segment fills, as the minimum may be 2^32 - 1;
        # ``_indirect_callee`` traps past the list as on an empty slot
        self.table: list[Optional[int]] = []
        if module.table is not None:
            filled = []
            for elem in module.elems:
                off = self.eval_const(elem.offset)
                if off + len(elem.func_indices) > module.table[0]:
                    raise InstantiationTrap("element segment out of bounds")
                filled.append((off, elem.func_indices))
            self.table = [None] * max((off + len(funcs)
                                       for off, funcs in filled), default=0)
            for off, funcs in filled:
                self.table[off: off + len(funcs)] = funcs

        # what every instance starts from; a data segment out of bounds
        # still traps at instantiate(). Each instance zeroes its whole
        # memory, so no more than memory.grow could reach is allowed.
        if module.memory and module.memory[0] > MAX_PAGES:
            raise InstantiationTrap(
                f"initial memory of {module.memory[0]} pages is past the "
                f"{MAX_PAGES}-page limit"
            )
        self.mem_size = module.memory[0] * PAGE if module.memory else 0
        self.mem_max = module.memory[1] if module.memory else 0
        self.globals_init = [self.eval_const(g.init) for g in module.globals]
        self.data_init = [(self.eval_const(seg.offset), seg.data)
                          for seg in module.data_segments]

        self.exports = module.export_map()
        self.n_host = n_host
        # what function-level code refers to, fixed here: compiling adds
        # nothing, and nothing in it refers back to the engine. It numbers
        # a type by the first index of an equal type (``_indirect_callee``)
        number = {t: module.types.index(t) for t in set(self.func_types)}
        self._names = dict(
            _NAMES, HOSTS=hosts, NHOST=n_host,
            callee=partial(_indirect_callee, self.table,
                           [number[t] for t in self.func_types]))
        # the map base the coverage pass wrote into its accessor; None when
        # the accessor is missing or not a constant
        exp = self.exports.get(ACCESSOR_NAME)
        body = (module.defined_func(exp.index).body
                if exp and exp.kind == "func" and exp.index >= n_host else [])
        is_const = [i.op for i in body] == ["i32.const", "end"]
        self.trace_base = body[0].args[0] & M32 if is_const else None
        # where compiled bodies are kept beyond the engine; None when they
        # are not, as a module without the hash of its bytes may be changed
        sha256 = module.source_sha256
        self._code = None if sha256 is None else _module_code(sha256)

    def eval_const(self, expr) -> int:
        """Bit pattern of a constant expression."""
        instr = expr[0]
        if instr.op not in _CONST_MASK:
            raise InstantiationTrap(f"unsupported constant init {instr.op}")
        return instr.args[0] & _CONST_MASK[instr.op]

    def instantiate(self, wasi: WasiConfig | None = None) -> Instance:
        return Instance(self, wasi or WasiConfig())

    # ------------------------------------------------------------------
    def run_start(self, inst: Instance,
                  limits: RunLimits | None = None) -> ExecOutcome:
        """Run the entry point: module start function (if any) then the
        exported ``_start``."""
        exp = self.exports.get("_start")
        if exp is None or exp.kind != "func":
            raise NoEntryPoint("module does not export a _start function")
        calls = [self._callee(exp.index, 0)]
        if self.module.start is not None and not inst.start_ran:
            calls.insert(0, self._callee(self.module.start, 0))
            inst.start_ran = True
        return self._execute(inst, calls, [], limits or RunLimits())[0]

    def call_export(self, inst: Instance, name: str, args: list,
                    limits: RunLimits | None = None
                    ) -> tuple[ExecOutcome, list]:
        """Invoke an exported function directly; used by tests and tools.

        i32 and i64 arguments and results are unsigned ints; f32 and f64
        ones are Python floats. This is the only place that converts
        between Python floats and the engine's bit patterns.
        """
        exp = self.exports.get(name)
        if exp is None or exp.kind != "func":
            raise NoEntryPoint(f"no exported function {name!r}")
        meta = self._callee(exp.index, len(args))
        params, results = meta.ftype.params, meta.ftype.results
        outcome, vals = self._execute(
            inst, [meta], [_to_bits(t, v) for t, v in zip(params, args)],
            limits or RunLimits(),
        )
        return outcome, [_from_bits(t, v) for t, v in zip(results, vals)]

    def read_trace_bits(self, inst: Instance) -> memoryview:
        """The trace map inside ``inst.memory``: a read-only view, no copy.
        While the view lives, the memory cannot grow."""
        base = self.trace_base
        if base is None or base + MAP_SIZE > len(inst.memory):
            raise self.trace_map_error(len(inst.memory))
        return memoryview(inst.memory)[base: base + MAP_SIZE].toreadonly()

    def trace_map_error(self, mem_len: int) -> Optional[WasmError]:
        """Why no trace map can be read from a ``mem_len``-byte memory, or
        None when one can."""
        base = self.trace_base
        if base is None:
            return AccessorMissing(
                f"module does not export {ACCESSOR_NAME} as a function "
                "returning an i32.const"
            )
        if base + MAP_SIZE > mem_len:
            return AccessorOutOfBounds(
                f"trace map at {base} ends past the {mem_len}-byte memory"
            )
        return None

    # ------------------------------------------------------------------
    def _callee(self, func_idx: int, nargs: int) -> _FuncMeta:
        if func_idx < self.n_host:
            raise NoEntryPoint("cannot invoke an imported function directly")
        meta = self.metas[func_idx - self.n_host]
        if nargs != meta.nparams:
            raise NoEntryPoint(
                f"function expects {meta.nparams} args, got {nargs}"
            )
        return meta

    def compiled(self, meta: _FuncMeta):
        """The function-level code of ``meta``'s body, defined the first
        time it is asked for, from the code that an engine of the same
        parsed module compiled when there is one."""
        if meta.fn is None:
            meta.fn = self._define(meta)
        return meta.fn

    def _define(self, meta: _FuncMeta, cut=None):
        """Generate and compile the function-level code of ``meta``'s body,
        or of a ``cut`` of it (see ``_function_source``), and run the
        definition in the engine's namespace. The source depends on the
        module alone and names nothing per engine, so the namespace does
        not change, and a whole body's code is shared through ``_CODE``
        when the module has a hash; a cut, which depends on the fuel left,
        is not. The function is kept by its caller only: in its own
        globals it would be a cycle that only the cycle collector frees."""
        name = f"f{meta.func_idx}"
        shared = self._code if cut is None else None
        code = None if shared is None else shared.get(meta.func_idx)
        if code is None:
            i = meta.func_idx - self.n_host
            src = _function_source(name, self.module.functions[i].body,
                                   self._blocks[i], meta, self.module.types,
                                   self.func_types, self.n_host, cut)
            code = compile(src, f"<wasm function {meta.func_idx}>", "exec")
            if shared is not None:
                shared[meta.func_idx] = code
        made: dict = {}
        exec(code, self._names, made)
        return made[name]

    def _execute(self, inst: Instance, calls: list[_FuncMeta], args: list,
                 limits: RunLimits) -> tuple[ExecOutcome, list]:
        """Run ``calls`` in order under one fuel budget; return how the run
        ended and the last call's results."""
        executed = 0
        results: list = []
        try:
            for meta in calls:
                vals, executed = self._run(inst, meta, args, limits, executed)
            outcome, results = ExecOutcome("exit"), vals
        except _ProcExit as e:
            outcome = ExecOutcome("exit", exit_code=e.code)
            executed = e.executed
        except _Trap as t:
            outcome = ExecOutcome(
                "trap", trap_kind=t.kind, trap_function=t.func,
                trap_offset=t.offset,
            )
            executed = t.executed
        except _Fuel:
            outcome = ExecOutcome("fuel-exhausted")
            executed = limits.fuel
        outcome.stdout = bytes(inst.stdout)
        outcome.stderr = bytes(inst.stderr)
        outcome.instructions_executed = executed
        return outcome, results

    def _run(self, inst: Instance, meta: _FuncMeta, args: list,
             limits: RunLimits, executed: int):
        """Call ``meta``'s function with ``args``; return its results and
        the count. Each body's function-level code runs until it returns,
        calls a defined function or runs short of fuel; calls keep their
        caller on ``frames``, not on Python's stack, which could not hold
        ``MAX_CALL_DEPTH`` of them."""
        fuel = limits.fuel
        mem = inst.memory
        glb = inst.globals
        metas = self.metas
        n_host = self.n_host
        frames: list = []  # (meta, resume key, locals, operand stack)
        fn = meta.fn or self.compiled(meta)
        at, L, S = 0, args, None
        while True:
            r = fn(inst, mem, glb, fuel, executed, at, L, S)
            executed = r[1]
            if r[0] == _CALLS:
                if len(frames) >= MAX_CALL_DEPTH:
                    t = _Trap(STACK_EXHAUSTED)  # the call's own pc and count
                    t.func, t.offset, t.executed = meta.func_idx, ~r[4], executed
                    raise t
                frames.append((meta, r[4], r[5], r[6]))
                meta = metas[r[2] - n_host]
                fn = meta.fn or self.compiled(meta)
                at, L, S = 0, r[3], None
                continue
            if r[0] == _HANDS_OFF:  # raises _Fuel, _Trap or _ProcExit
                cut = (r[2], fuel - executed, len(r[3]))
                self._define(meta, cut)(inst, mem, glb, fuel, executed, 0,
                                        r[4], r[3])
            result = r[2]
            if not frames:
                return ([result] if meta.nresults else []), executed
            nresults = meta.nresults
            meta, at, L, S = frames.pop()
            fn = meta.fn
            if nresults:
                S.append(result)
