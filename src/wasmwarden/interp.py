"""Deterministic in-process interpreter for MVP Wasm with a WASI subset.

The engine preprocesses a module once (validation, body compilation);
instances are cheap and isolated, each run is fuel metered, and traps are
classified for crash triage.
"""

from __future__ import annotations

import math
import operator
import random
import struct
from dataclasses import dataclass, field
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


@dataclass
class RunLimits:
    fuel: int = 50_000_000
    max_pages: int = 1024
    max_call_depth: int = 10_000


@dataclass
class WasiConfig:
    argv: list[str] = field(default_factory=lambda: ["prog"])
    env: dict[str, str] = field(default_factory=dict)
    stdin: bytes = b""
    rng_seed: int = 0


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

    @property
    def is_trap(self) -> bool:
        return self.status == "trap"


@dataclass(frozen=True)
class CrashClass:
    kind: str  # "stack-canary" | "heap-underflow" | "heap-overflow" |
    #            "builtin" | "none"
    detail: str = ""

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
            return CrashClass(site.kind, detail=UNREACHABLE)
    return CrashClass("builtin", detail=outcome.trap_kind)


# ---------------------------------------------------------------------------
# internal signals

class _Trap(Exception):
    def __init__(self, kind: str, func: int = -1, offset: int = -1,
                 executed: int = 0):
        self.kind = kind
        self.func = func
        self.offset = offset
        self.executed = executed


class _ProcExit(Exception):
    def __init__(self, code: int):
        self.code = code
        self.executed = 0  # set by the run that made the call


class _Fuel(Exception):
    pass


class _NumTrap(Exception):
    def __init__(self, kind: str):
        self.kind = kind


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
        raise _NumTrap(DIV_ZERO)
    q = _trunc_div(sa, sb)
    if q == 1 << (bits - 1):
        raise _NumTrap(INT_OVERFLOW)
    return q & (M32 if bits == 32 else M64)


def _rem_s(a, b, bits):
    sa, sb = (_s32(a), _s32(b)) if bits == 32 else (_s64(a), _s64(b))
    if sb == 0:
        raise _NumTrap(DIV_ZERO)
    r = sa - sb * _trunc_div(sa, sb)
    return r & (M32 if bits == 32 else M64)


def _div_u(a, b):
    if b == 0:
        raise _NumTrap(DIV_ZERO)
    return a // b


def _rem_u(a, b):
    if b == 0:
        raise _NumTrap(DIV_ZERO)
    return a % b


def _clz(v, bits):
    return bits - v.bit_length()


def _ctz(v, bits):
    return (v & -v).bit_length() - 1 if v else bits


def _rotl(a, n, bits, mask):
    n %= bits
    return ((a << n) | (a >> (bits - n))) & mask


def _rotr(a, n, bits, mask):
    n %= bits
    return ((a >> n) | (a << (bits - n))) & mask


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
        raise _NumTrap(INT_OVERFLOW)
    t = math.trunc(x)
    if not lo <= t <= hi:
        raise _NumTrap(INT_OVERFLOW)
    return t


def _build_numeric() -> dict[str, object]:
    """opname -> fn on bit patterns; its arity is in ``opcodes.SIGS``."""
    ops: dict[str, object] = {}
    put = ops.__setitem__
    for bits, mask, sx in ((32, M32, _s32), (64, M64, _s64)):
        p = f"i{bits}"
        put(f"{p}.eqz", lambda a: 1 if a == 0 else 0)
        put(f"{p}.eq", lambda a, c: 1 if a == c else 0)
        put(f"{p}.ne", lambda a, c: 1 if a != c else 0)
        put(f"{p}.lt_s", lambda a, c, s=sx: 1 if s(a) < s(c) else 0)
        put(f"{p}.lt_u", lambda a, c: 1 if a < c else 0)
        put(f"{p}.gt_s", lambda a, c, s=sx: 1 if s(a) > s(c) else 0)
        put(f"{p}.gt_u", lambda a, c: 1 if a > c else 0)
        put(f"{p}.le_s", lambda a, c, s=sx: 1 if s(a) <= s(c) else 0)
        put(f"{p}.le_u", lambda a, c: 1 if a <= c else 0)
        put(f"{p}.ge_s", lambda a, c, s=sx: 1 if s(a) >= s(c) else 0)
        put(f"{p}.ge_u", lambda a, c: 1 if a >= c else 0)
        put(f"{p}.clz", lambda a, n=bits: _clz(a, n))
        put(f"{p}.ctz", lambda a, n=bits: _ctz(a, n))
        put(f"{p}.popcnt", lambda a: a.bit_count())
        put(f"{p}.add", lambda a, c, m=mask: (a + c) & m)
        put(f"{p}.sub", lambda a, c, m=mask: (a - c) & m)
        put(f"{p}.mul", lambda a, c, m=mask: (a * c) & m)
        put(f"{p}.div_s", lambda a, c, n=bits: _div_s(a, c, n))
        put(f"{p}.div_u", lambda a, c: _div_u(a, c))
        put(f"{p}.rem_s", lambda a, c, n=bits: _rem_s(a, c, n))
        put(f"{p}.rem_u", lambda a, c: _rem_u(a, c))
        put(f"{p}.and", lambda a, c: a & c)
        put(f"{p}.or", lambda a, c: a | c)
        put(f"{p}.xor", lambda a, c: a ^ c)
        put(f"{p}.shl", lambda a, c, n=bits, m=mask: (a << (c % n)) & m)
        put(f"{p}.shr_u", lambda a, c, n=bits: a >> (c % n))
        put(f"{p}.shr_s",
            lambda a, c, n=bits, m=mask, s=sx: (s(a) >> (c % n)) & m)
        put(f"{p}.rotl", lambda a, c, n=bits, m=mask: _rotl(a, c, n, m))
        put(f"{p}.rotr", lambda a, c, n=bits, m=mask: _rotr(a, c, n, m))

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
    put("i32.wrap_i64", lambda a: a & M32)
    put("i64.extend_i32_s", lambda a: _s32(a) & M64)
    put("i64.extend_i32_u", lambda a: a)
    put("f32.demote_f64", lambda a: _f32_bits(_f64(a)))
    put("f64.promote_f32", lambda a: _f64_bits(_f32(a)))
    return ops


# compiled instruction codes
C_UNREACHABLE = 0
C_NOP = 1
C_IF = 2
C_BR = 3
C_BR_IF = 4
C_BR_TABLE = 5
C_RETURN = 6
C_CALL = 7
C_CALL_INDIRECT = 8
C_DROP = 9
C_SELECT = 10
C_LOCAL_GET = 11
C_LOCAL_SET = 12
C_LOCAL_TEE = 13
C_GLOBAL_GET = 14
C_GLOBAL_SET = 15
C_LOAD = 16
C_STORE = 17
C_MEMSIZE = 18
C_MEMGROW = 19
C_CONST = 20
C_NUM1 = 21
C_NUM2 = 22

_NOP = (C_NOP,)

# ops whose compiled form does not depend on their position or arguments
_PLAIN = {
    "unreachable": (C_UNREACHABLE,), "nop": _NOP, "return": (C_RETURN,),
    "drop": (C_DROP,), "select": (C_SELECT,), "memory.size": (C_MEMSIZE,),
    "memory.grow": (C_MEMGROW,),
    # a value is its bit pattern, so reinterpreting it changes nothing
    "i32.reinterpret_f32": _NOP, "i64.reinterpret_f64": _NOP,
    "f32.reinterpret_i32": _NOP, "f64.reinterpret_i64": _NOP,
}

# ops compiled to (code, *args)
_WITH_ARGS = {
    "local.get": C_LOCAL_GET, "local.set": C_LOCAL_SET,
    "local.tee": C_LOCAL_TEE, "global.get": C_GLOBAL_GET,
    "global.set": C_GLOBAL_SET,
}

# numeric ops compile to (C_NUM1 or C_NUM2, fn), by arity
_PLAIN.update(
    (op, (C_NUM1 if len(SIGS[op][0]) == 1 else C_NUM2, fn))
    for op, fn in _build_numeric().items()
)

_MASK = {t: (1 << 8 * width) - 1 for t, width in VALTYPE_WIDTH.items()}
_CONST_MASK = {f"{t}.const": mask for t, mask in _MASK.items()}

# loads and stores compiled to (code, memarg offset, *access)
_MEMORY = {
    op: ((C_LOAD, (width, signed, _MASK[t])) if SIGS[op][1]  # pushes: a load
         else (C_STORE, (width, (1 << 8 * width) - 1)))
    for op, (t, width, signed) in MEM_ACCESS.items()
}


# operand-stack effect of each op, calls aside; control ops need none but
# br_if's and if's pop, since the height is set at else and end and the
# code after br, br_table, return or unreachable never runs
_EFFECT = {op: len(outs) - len(ins) for op, (ins, outs) in SIGS.items()}
_EFFECT.update({
    "drop": -1, "select": -2, "local.get": 1, "local.set": -1,
    "global.get": 1, "global.set": -1, "memory.size": 1, "br_if": -1,
    "if": -1, "call_indirect": -1,
})


class _FuncMeta:
    __slots__ = ("func_idx", "ftype", "nparams", "nresults", "local_zeros",
                 "code")

    def __init__(self, func_idx, ftype: FuncType, nlocals, code):
        self.func_idx = func_idx
        self.ftype = ftype
        self.nparams = len(ftype.params)
        self.nresults = len(ftype.results)
        self.local_zeros = [0] * nlocals
        self.code = code


def _compile_body(body, nresults: int, func_types: list[FuncType],
                  types: list[FuncType]) -> list[tuple]:
    """Flat body of a validated function -> compiled tuples.

    A branch compiles to (code, target pc, arity, height): it keeps its top
    ``arity`` values, cuts the operand stack to ``height`` values above
    the frame's base and jumps to the ``end`` of a block or ``if``, to a
    ``loop``, or to the function's final ``end``, which returns.
    ``block``, ``loop`` and the other ends are no-ops costing one fuel.
    """
    end_of = {}  # block, loop or if -> its end
    false_to = {}  # an if with an else -> where a false condition goes
    stack = []
    for pc, instr in enumerate(body):
        op = instr.op
        if op in ("block", "loop", "if"):
            stack.append(pc)
        elif op == "else":
            false_to[stack[-1]] = pc + 1
        elif op == "end" and stack:
            end_of[stack.pop()] = pc

    # per open label: (target pc, arity, height), and the height after its
    # end; the outermost is the function's own label
    labels = [((len(body) - 1, nresults, 0), nresults)]
    height = 0  # operand-stack height above the frame's base
    code: list[tuple] = []
    for pc, instr in enumerate(body):
        op = instr.op
        a = instr.args
        height += _EFFECT.get(op, 0)
        if op in _PLAIN:
            code.append(_PLAIN[op])
        elif op in _WITH_ARGS:
            code.append((_WITH_ARGS[op], *a))
        elif op in _CONST_MASK:
            code.append((C_CONST, a[0] & _CONST_MASK[op]))
        elif op in _MEMORY:
            c, access = _MEMORY[op]
            code.append((c, a[1], *access))
        elif op == "br" or op == "br_if":
            code.append((C_BR if op == "br" else C_BR_IF,
                         *labels[-1 - a[0]][0]))
        elif op == "br_table":
            targets, default = a
            code.append((C_BR_TABLE,
                         tuple((C_BR, *labels[-1 - t][0]) for t in targets),
                         (C_BR, *labels[-1 - default][0])))
        elif op == "call":
            ft = func_types[a[0]]
            height += len(ft.results) - len(ft.params)
            code.append((C_CALL, a[0]))
        elif op == "call_indirect":
            ft = types[a[0]]
            height += len(ft.results) - len(ft.params)
            code.append((C_CALL_INDIRECT, ft))
        elif op == "else":  # the then-arm is done: jump to the end
            (end, arity, height), _ = labels[-1]
            code.append((C_BR, end, arity, height))
        elif op == "end":
            height = labels.pop()[1]
            code.append(_NOP if labels else (C_RETURN,))
        else:  # block, loop or if
            arity = 0 if a[0] is None else 1
            # a branch to a loop restarts it and, in MVP, carries no value
            label = ((pc, 0, height) if op == "loop"
                     else (end_of[pc], arity, height))
            labels.append((label, height + arity))
            code.append((C_IF, false_to.get(pc, end_of[pc])) if op == "if"
                        else _NOP)

    return code


_WASI_MODULE = "wasi_snapshot_preview1"

_WASI_SIGS = {
    "args_get": FuncType(("i32", "i32"), ("i32",)),
    "args_sizes_get": FuncType(("i32", "i32"), ("i32",)),
    "environ_get": FuncType(("i32", "i32"), ("i32",)),
    "environ_sizes_get": FuncType(("i32", "i32"), ("i32",)),
    "fd_read": FuncType(("i32", "i32", "i32", "i32"), ("i32",)),
    "fd_write": FuncType(("i32", "i32", "i32", "i32"), ("i32",)),
    "fd_close": FuncType(("i32",), ("i32",)),
    "fd_seek": FuncType(("i32", "i64", "i32", "i32"), ("i32",)),
    "fd_fdstat_get": FuncType(("i32", "i32"), ("i32",)),
    "proc_exit": FuncType(("i32",), ()),
    "random_get": FuncType(("i32", "i32"), ("i32",)),
    "clock_time_get": FuncType(("i32", "i64", "i32"), ("i32",)),
}

ERRNO_SUCCESS = 0
ERRNO_BADF = 8
ERRNO_SPIPE = 29


class Instance:
    """One isolated instantiation: memory, globals, WASI state."""

    def __init__(self, engine: "Engine", wasi: WasiConfig):
        self.engine = engine
        self.wasi = wasi
        m = engine.module
        min_pages = m.memory[0] if m.memory else 0
        self.memory = bytearray(min_pages * PAGE)
        self.mem_max = m.memory[1] if m.memory else 0
        self.globals = [engine.eval_const(g.init) for g in m.globals]
        self.stdin_pos = 0
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.rng = random.Random(wasi.rng_seed)
        self.clock = 0
        self.start_ran = False
        for seg in m.data_segments:
            off = engine.eval_const(seg.offset)
            if off + len(seg.data) > len(self.memory):
                raise InstantiationTrap(
                    f"data segment [{off}, {off + len(seg.data)}) out of "
                    f"bounds for {len(self.memory)}-byte memory"
                )
            self.memory[off: off + len(seg.data)] = seg.data

    # memory helpers used by host calls
    def mem_read(self, addr: int, n: int) -> bytes:
        if addr + n > len(self.memory) or addr < 0:
            raise _Trap(MEM_OOB)
        return bytes(self.memory[addr: addr + n])

    def mem_write(self, addr: int, data: bytes):
        if addr + len(data) > len(self.memory) or addr < 0:
            raise _Trap(MEM_OOB)
        self.memory[addr: addr + len(data)] = data

    def read_u32(self, addr: int) -> int:
        return int.from_bytes(self.mem_read(addr, 4), "little")

    def write_u32(self, addr: int, value: int):
        self.mem_write(addr, (value & M32).to_bytes(4, "little"))

    def write_u64(self, addr: int, value: int):
        self.mem_write(addr, (value & M64).to_bytes(8, "little"))


def _iovs(inst: Instance, ptr: int, count: int):
    for k in range(count):
        base = ptr + 8 * k
        yield inst.read_u32(base), inst.read_u32(base + 4)


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
    entries = [f"{k}={v}" for k, v in inst.wasi.env.items()]
    inst.write_u32(count_ptr, len(entries))
    inst.write_u32(size_ptr, sum(len(e.encode()) + 1 for e in entries))
    return ERRNO_SUCCESS


def _wasi_environ_get(inst, env_ptr, buf_ptr):
    for i, (k, v) in enumerate(inst.wasi.env.items()):
        raw = f"{k}={v}".encode() + b"\x00"
        inst.write_u32(env_ptr + 4 * i, buf_ptr)
        inst.mem_write(buf_ptr, raw)
        buf_ptr += len(raw)
    return ERRNO_SUCCESS


def _wasi_fd_read(inst, fd, iovs_ptr, iovs_len, nread_ptr):
    if fd != 0:
        return ERRNO_BADF
    total = 0
    for buf, blen in _iovs(inst, iovs_ptr, iovs_len):
        chunk = inst.wasi.stdin[inst.stdin_pos: inst.stdin_pos + blen]
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
    for buf, blen in _iovs(inst, iovs_ptr, iovs_len):
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


def _wasi_random_get(inst, buf, n):
    inst.mem_write(buf, bytes(inst.rng.getrandbits(8) for _ in range(n)))
    return ERRNO_SUCCESS


def _wasi_clock_time_get(inst, clock_id, precision, time_ptr):
    # deterministic: a fixed epoch advanced by host-call count
    inst.clock += 1000
    inst.write_u64(time_ptr, 1_600_000_000_000_000_000 + inst.clock)
    return ERRNO_SUCCESS


_WASI_IMPL = {
    "args_get": _wasi_args_get,
    "args_sizes_get": _wasi_args_sizes_get,
    "environ_get": _wasi_environ_get,
    "environ_sizes_get": _wasi_environ_sizes_get,
    "fd_read": _wasi_fd_read,
    "fd_write": _wasi_fd_write,
    "fd_close": _wasi_fd_close,
    "fd_seek": _wasi_fd_seek,
    "fd_fdstat_get": _wasi_fd_fdstat_get,
    "proc_exit": _wasi_proc_exit,
    "random_get": _wasi_random_get,
    "clock_time_get": _wasi_clock_time_get,
}


class Engine:
    """Compile-once wrapper around a module: validate, preprocess bodies,
    resolve imports; instances are then cheap to create."""

    def __init__(self, module: ModuleIR):
        self.module = module
        # compiling a body relies on it being valid
        report = validate_module(module)
        if not report.ok:
            raise InvalidModule(str(report))

        self.host_funcs = []
        for im in module.imports:
            if im.kind != "func":
                raise UnsupportedImport(
                    f"{im.module}.{im.name} ({im.kind} import)"
                )
            if im.module != _WASI_MODULE or im.name not in _WASI_IMPL:
                raise UnsupportedImport(f"{im.module}.{im.name}")
            expected = _WASI_SIGS[im.name]
            if module.types[im.desc] != expected:
                raise UnsupportedImport(
                    f"{im.module}.{im.name}: signature mismatch"
                )
            self.host_funcs.append(
                (_WASI_IMPL[im.name], len(expected.params),
                 len(expected.results))
            )

        # signature of every function index, for calls and call_indirect
        self.func_types = [module.types[im.desc] for im in module.imports]
        self.func_types += [module.types[f.type_idx]
                            for f in module.functions]
        n_host = len(self.host_funcs)
        self.metas: list[_FuncMeta] = []
        for i, f in enumerate(module.functions):
            ftype = self.func_types[n_host + i]
            code = _compile_body(f.body, len(ftype.results),
                                 self.func_types, module.types)
            self.metas.append(_FuncMeta(n_host + i, ftype, len(f.locals),
                                        code))

        self.table: list[Optional[int]] = []
        if module.table is not None:
            self.table = [None] * module.table[0]
            for elem in module.elems:
                off = self.eval_const(elem.offset)
                if off + len(elem.func_indices) > len(self.table):
                    raise InstantiationTrap("element segment out of bounds")
                for k, fi in enumerate(elem.func_indices):
                    self.table[off + k] = fi

        self.exports = module.export_map()
        self.n_host = n_host
        # the map base the coverage pass wrote into its accessor; None when
        # the accessor is missing or not a constant
        exp = self.exports.get(ACCESSOR_NAME)
        body = (module.defined_func(exp.index).body
                if exp and exp.kind == "func" and exp.index >= n_host else [])
        is_const = [i.op for i in body] == ["i32.const", "end"]
        self.trace_base = body[0].args[0] & M32 if is_const else None

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

    def read_trace_bits(self, inst: Instance) -> bytes:
        base = self.trace_base
        if base is None:
            raise AccessorMissing(
                f"module does not export {ACCESSOR_NAME} as a function "
                "returning an i32.const"
            )
        if base + MAP_SIZE > len(inst.memory):
            raise AccessorOutOfBounds(
                f"trace map at {base} ends past the "
                f"{len(inst.memory)}-byte memory"
            )
        return bytes(inst.memory[base: base + MAP_SIZE])

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
        fuel = limits.fuel
        max_depth = limits.max_call_depth
        max_pages = limits.max_pages
        mem = inst.memory
        glb = inst.globals
        metas = self.metas
        n_host = self.n_host
        host_funcs = self.host_funcs
        table = self.table
        func_types = self.func_types

        vals: list = []
        frames: list = []
        code = meta.code
        pc = 0
        locals_ = args + meta.local_zeros
        base = 0
        nresults = meta.nresults
        func_idx = meta.func_idx

        while True:
            if executed >= fuel:
                raise _Fuel()
            executed += 1
            ins = code[pc]
            c = ins[0]

            if c == C_LOCAL_GET:
                vals.append(locals_[ins[1]])
            elif c == C_CONST:
                vals.append(ins[1])
            elif c == C_NUM2:
                b = vals.pop()
                a = vals[-1]
                try:
                    vals[-1] = ins[1](a, b)
                except _NumTrap as t:
                    raise _Trap(t.kind, func_idx, pc, executed)
            elif c == C_NUM1:
                try:
                    vals[-1] = ins[1](vals[-1])
                except _NumTrap as t:
                    raise _Trap(t.kind, func_idx, pc, executed)
            elif c == C_LOCAL_SET:
                locals_[ins[1]] = vals.pop()
            elif c == C_LOCAL_TEE:
                locals_[ins[1]] = vals[-1]
            elif c == C_LOAD:
                addr = vals[-1] + ins[1]
                width = ins[2]
                if addr + width > len(mem):
                    raise _Trap(MEM_OOB, func_idx, pc, executed)
                vals[-1] = int.from_bytes(
                    mem[addr: addr + width], "little", signed=ins[3]
                ) & ins[4]
            elif c == C_STORE:
                v = vals.pop()
                addr = vals.pop() + ins[1]
                width = ins[2]
                if addr + width > len(mem):
                    raise _Trap(MEM_OOB, func_idx, pc, executed)
                mem[addr: addr + width] = (v & ins[3]).to_bytes(
                    width, "little"
                )
            elif c == C_NOP:
                pass
            elif c == C_IF:
                if not vals.pop():
                    pc = ins[1]
                    continue
            elif c == C_BR or c == C_BR_IF or c == C_BR_TABLE:
                if c == C_BR_IF:
                    if not vals.pop():
                        pc += 1
                        continue
                elif c == C_BR_TABLE:
                    idx = vals.pop()
                    ins = ins[1][idx] if idx < len(ins[1]) else ins[2]
                _, pc, arity, height = ins
                height += base
                if arity:
                    vals[height:] = vals[-arity:]
                else:
                    del vals[height:]
                continue
            elif c == C_RETURN:
                if nresults:
                    res = vals[-nresults:]
                    del vals[base:]
                    vals.extend(res)
                else:
                    del vals[base:]
                if not frames:
                    return vals, executed
                code, pc, locals_, base, nresults, func_idx = frames.pop()
                continue
            elif c == C_CALL or c == C_CALL_INDIRECT:
                if c == C_CALL:
                    target = ins[1]
                else:
                    elem = vals.pop()
                    if elem >= len(table) or table[elem] is None:
                        raise _Trap(UNINIT_TABLE, func_idx, pc, executed)
                    target = table[elem]
                    if func_types[target] != ins[1]:
                        raise _Trap(INDIRECT_MISMATCH, func_idx, pc, executed)
                if target < n_host:
                    fn, nargs, nres = host_funcs[target]
                    if nargs:
                        hargs = vals[-nargs:]
                        del vals[-nargs:]
                    else:
                        hargs = []
                    try:
                        r = fn(inst, *hargs)
                    except _Trap as t:
                        raise _Trap(t.kind, func_idx, pc, executed)
                    except _ProcExit as e:
                        e.executed = executed
                        raise
                    if nres:
                        vals.append(r & M32)
                else:
                    if len(frames) >= max_depth:
                        raise _Trap(STACK_EXHAUSTED, func_idx, pc, executed)
                    tmeta = metas[target - n_host]
                    frames.append(
                        (code, pc + 1, locals_, base, nresults, func_idx)
                    )
                    nargs = tmeta.nparams
                    if nargs:
                        newlocals = vals[-nargs:]
                        del vals[-nargs:]
                    else:
                        newlocals = []
                    newlocals.extend(tmeta.local_zeros)
                    code = tmeta.code
                    pc = 0
                    locals_ = newlocals
                    base = len(vals)
                    nresults = tmeta.nresults
                    func_idx = tmeta.func_idx
                    continue
            elif c == C_GLOBAL_GET:
                vals.append(glb[ins[1]])
            elif c == C_GLOBAL_SET:
                glb[ins[1]] = vals.pop()
            elif c == C_DROP:
                vals.pop()
            elif c == C_SELECT:
                cond = vals.pop()
                b = vals.pop()
                if not cond:
                    vals[-1] = b
            elif c == C_MEMSIZE:
                vals.append(len(mem) // PAGE)
            elif c == C_MEMGROW:
                delta = vals.pop()
                cur = len(mem) // PAGE
                new = cur + delta
                cap = max_pages
                if inst.mem_max is not None:
                    cap = min(cap, inst.mem_max)
                if new > cap:
                    vals.append(M32)  # -1
                else:
                    mem.extend(bytes(delta * PAGE))
                    vals.append(cur)
            elif c == C_UNREACHABLE:
                raise _Trap(UNREACHABLE, func_idx, pc, executed)
            else:
                raise AssertionError(f"bad compiled op {c}")
            pc += 1
