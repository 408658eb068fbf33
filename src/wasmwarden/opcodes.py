"""WebAssembly MVP opcode table: byte, name and immediate kind per op.

The immediate kinds, and the binary form of each, are the keys of
``IMMEDIATES``: the parser and the encoder both take an op's immediates
from there.
"""

from .ir import BYTE_VALTYPE, VALTYPE_BYTE, UnsupportedFeature
from .leb import write_sleb, write_uleb

_TABLE = [
    # control
    (0x00, "unreachable", ""),
    (0x01, "nop", ""),
    (0x02, "block", "block"),
    (0x03, "loop", "block"),
    (0x04, "if", "block"),
    (0x05, "else", ""),
    (0x0B, "end", ""),
    (0x0C, "br", "u32"),
    (0x0D, "br_if", "u32"),
    (0x0E, "br_table", "brtable"),
    (0x0F, "return", ""),
    (0x10, "call", "u32"),
    (0x11, "call_indirect", "callind"),
    # parametric
    (0x1A, "drop", ""),
    (0x1B, "select", ""),
    # variable
    (0x20, "local.get", "u32"),
    (0x21, "local.set", "u32"),
    (0x22, "local.tee", "u32"),
    (0x23, "global.get", "u32"),
    (0x24, "global.set", "u32"),
    # memory
    (0x28, "i32.load", "mem"),
    (0x29, "i64.load", "mem"),
    (0x2A, "f32.load", "mem"),
    (0x2B, "f64.load", "mem"),
    (0x2C, "i32.load8_s", "mem"),
    (0x2D, "i32.load8_u", "mem"),
    (0x2E, "i32.load16_s", "mem"),
    (0x2F, "i32.load16_u", "mem"),
    (0x30, "i64.load8_s", "mem"),
    (0x31, "i64.load8_u", "mem"),
    (0x32, "i64.load16_s", "mem"),
    (0x33, "i64.load16_u", "mem"),
    (0x34, "i64.load32_s", "mem"),
    (0x35, "i64.load32_u", "mem"),
    (0x36, "i32.store", "mem"),
    (0x37, "i64.store", "mem"),
    (0x38, "f32.store", "mem"),
    (0x39, "f64.store", "mem"),
    (0x3A, "i32.store8", "mem"),
    (0x3B, "i32.store16", "mem"),
    (0x3C, "i64.store8", "mem"),
    (0x3D, "i64.store16", "mem"),
    (0x3E, "i64.store32", "mem"),
    (0x3F, "memory.size", "memidx"),
    (0x40, "memory.grow", "memidx"),
    # constants
    (0x41, "i32.const", "i32"),
    (0x42, "i64.const", "i64"),
    (0x43, "f32.const", "f32"),
    (0x44, "f64.const", "f64"),
    # i32 comparison
    (0x45, "i32.eqz", ""),
    (0x46, "i32.eq", ""),
    (0x47, "i32.ne", ""),
    (0x48, "i32.lt_s", ""),
    (0x49, "i32.lt_u", ""),
    (0x4A, "i32.gt_s", ""),
    (0x4B, "i32.gt_u", ""),
    (0x4C, "i32.le_s", ""),
    (0x4D, "i32.le_u", ""),
    (0x4E, "i32.ge_s", ""),
    (0x4F, "i32.ge_u", ""),
    # i64 comparison
    (0x50, "i64.eqz", ""),
    (0x51, "i64.eq", ""),
    (0x52, "i64.ne", ""),
    (0x53, "i64.lt_s", ""),
    (0x54, "i64.lt_u", ""),
    (0x55, "i64.gt_s", ""),
    (0x56, "i64.gt_u", ""),
    (0x57, "i64.le_s", ""),
    (0x58, "i64.le_u", ""),
    (0x59, "i64.ge_s", ""),
    (0x5A, "i64.ge_u", ""),
    # f32 comparison
    (0x5B, "f32.eq", ""),
    (0x5C, "f32.ne", ""),
    (0x5D, "f32.lt", ""),
    (0x5E, "f32.gt", ""),
    (0x5F, "f32.le", ""),
    (0x60, "f32.ge", ""),
    # f64 comparison
    (0x61, "f64.eq", ""),
    (0x62, "f64.ne", ""),
    (0x63, "f64.lt", ""),
    (0x64, "f64.gt", ""),
    (0x65, "f64.le", ""),
    (0x66, "f64.ge", ""),
    # i32 arithmetic
    (0x67, "i32.clz", ""),
    (0x68, "i32.ctz", ""),
    (0x69, "i32.popcnt", ""),
    (0x6A, "i32.add", ""),
    (0x6B, "i32.sub", ""),
    (0x6C, "i32.mul", ""),
    (0x6D, "i32.div_s", ""),
    (0x6E, "i32.div_u", ""),
    (0x6F, "i32.rem_s", ""),
    (0x70, "i32.rem_u", ""),
    (0x71, "i32.and", ""),
    (0x72, "i32.or", ""),
    (0x73, "i32.xor", ""),
    (0x74, "i32.shl", ""),
    (0x75, "i32.shr_s", ""),
    (0x76, "i32.shr_u", ""),
    (0x77, "i32.rotl", ""),
    (0x78, "i32.rotr", ""),
    # i64 arithmetic
    (0x79, "i64.clz", ""),
    (0x7A, "i64.ctz", ""),
    (0x7B, "i64.popcnt", ""),
    (0x7C, "i64.add", ""),
    (0x7D, "i64.sub", ""),
    (0x7E, "i64.mul", ""),
    (0x7F, "i64.div_s", ""),
    (0x80, "i64.div_u", ""),
    (0x81, "i64.rem_s", ""),
    (0x82, "i64.rem_u", ""),
    (0x83, "i64.and", ""),
    (0x84, "i64.or", ""),
    (0x85, "i64.xor", ""),
    (0x86, "i64.shl", ""),
    (0x87, "i64.shr_s", ""),
    (0x88, "i64.shr_u", ""),
    (0x89, "i64.rotl", ""),
    (0x8A, "i64.rotr", ""),
    # f32 arithmetic
    (0x8B, "f32.abs", ""),
    (0x8C, "f32.neg", ""),
    (0x8D, "f32.ceil", ""),
    (0x8E, "f32.floor", ""),
    (0x8F, "f32.trunc", ""),
    (0x90, "f32.nearest", ""),
    (0x91, "f32.sqrt", ""),
    (0x92, "f32.add", ""),
    (0x93, "f32.sub", ""),
    (0x94, "f32.mul", ""),
    (0x95, "f32.div", ""),
    (0x96, "f32.min", ""),
    (0x97, "f32.max", ""),
    (0x98, "f32.copysign", ""),
    # f64 arithmetic
    (0x99, "f64.abs", ""),
    (0x9A, "f64.neg", ""),
    (0x9B, "f64.ceil", ""),
    (0x9C, "f64.floor", ""),
    (0x9D, "f64.trunc", ""),
    (0x9E, "f64.nearest", ""),
    (0x9F, "f64.sqrt", ""),
    (0xA0, "f64.add", ""),
    (0xA1, "f64.sub", ""),
    (0xA2, "f64.mul", ""),
    (0xA3, "f64.div", ""),
    (0xA4, "f64.min", ""),
    (0xA5, "f64.max", ""),
    (0xA6, "f64.copysign", ""),
    # conversions
    (0xA7, "i32.wrap_i64", ""),
    (0xA8, "i32.trunc_f32_s", ""),
    (0xA9, "i32.trunc_f32_u", ""),
    (0xAA, "i32.trunc_f64_s", ""),
    (0xAB, "i32.trunc_f64_u", ""),
    (0xAC, "i64.extend_i32_s", ""),
    (0xAD, "i64.extend_i32_u", ""),
    (0xAE, "i64.trunc_f32_s", ""),
    (0xAF, "i64.trunc_f32_u", ""),
    (0xB0, "i64.trunc_f64_s", ""),
    (0xB1, "i64.trunc_f64_u", ""),
    (0xB2, "f32.convert_i32_s", ""),
    (0xB3, "f32.convert_i32_u", ""),
    (0xB4, "f32.convert_i64_s", ""),
    (0xB5, "f32.convert_i64_u", ""),
    (0xB6, "f32.demote_f64", ""),
    (0xB7, "f64.convert_i32_s", ""),
    (0xB8, "f64.convert_i32_u", ""),
    (0xB9, "f64.convert_i64_s", ""),
    (0xBA, "f64.convert_i64_u", ""),
    (0xBB, "f64.promote_f32", ""),
    (0xBC, "i32.reinterpret_f32", ""),
    (0xBD, "i64.reinterpret_f64", ""),
    (0xBE, "f32.reinterpret_i32", ""),
    (0xBF, "f64.reinterpret_i64", ""),
]

IMM_KIND = {name: kind for _, name, kind in _TABLE}


def _read_blocktype(r):
    b = r.byte()
    if b == 0x40:
        return (None,)
    vt = BYTE_VALTYPE.get(b)
    if vt is None:
        raise UnsupportedFeature("multi-value (block type)")
    return (vt,)


def _read_brtable(r):
    targets = tuple(r.u32() for _ in range(r.u32()))
    return targets, r.u32()


def _write_brtable(args):
    targets, default = args
    return (write_uleb(len(targets)) + b"".join(map(write_uleb, targets))
            + write_uleb(default))


def _read_callind(r):
    type_idx = r.u32()
    if r.byte():
        raise UnsupportedFeature("multiple tables")
    return (type_idx,)


def _read_memidx(r):
    if r.byte():
        raise UnsupportedFeature("multiple memories")
    return ()


# immediate kind -> (read, write). ``read(r)`` takes the parser's reader
# and returns the op's ``Instr.args``; ``write(args)`` gives their bytes.
# An op without immediates has no ``read``: the parser decodes it to one
# shared ``Instr``.
IMMEDIATES = {
    "": (None, lambda a: b""),
    # 0x40 (no result) or the result's value type
    "block": (_read_blocktype, lambda a: b"\x40" if a[0] is None
              else bytes((VALTYPE_BYTE[a[0]],))),
    # a label, or a function, local or global index
    "u32": (lambda r: (r.u32(),), lambda a: write_uleb(a[0])),
    # a vector of labels, then the default label
    "brtable": (_read_brtable, _write_brtable),
    # a type index, then a table index that MVP fixes at 0
    "callind": (_read_callind, lambda a: write_uleb(a[0]) + b"\x00"),
    # memarg: alignment exponent, then offset
    "mem": (lambda r: (r.u32(), r.u32()),
            lambda a: write_uleb(a[0]) + write_uleb(a[1])),
    # memory.size and memory.grow: a memory index that MVP fixes at 0
    "memidx": (_read_memidx, lambda a: b"\x00"),
    # signed LEB128 constants, in the two's-complement range of the type
    "i32": (lambda r: (r.s32(),), lambda a: write_sleb(a[0], 32)),
    "i64": (lambda r: (r.s64(),), lambda a: write_sleb(a[0], 64)),
    # raw little-endian bytes, held as their bit pattern
    "f32": (lambda r: (int.from_bytes(r.raw(4), "little"),),
            lambda a: a[0].to_bytes(4, "little")),
    "f64": (lambda r: (int.from_bytes(r.raw(8), "little"),),
            lambda a: a[0].to_bytes(8, "little")),
}

VALTYPE_WIDTH = {"i32": 4, "i64": 8, "f32": 4, "f64": 8}  # bytes

_UNARY = {"clz", "ctz", "popcnt", "abs", "neg", "ceil", "floor", "trunc",
          "nearest", "sqrt"}
_COMPARE = {"eqz", "eq", "ne", "lt", "gt", "le", "ge"}


def _derive_types():
    """Stack effects and memory accesses of the typed ops, read off their
    names: ``t.op`` works on ``t``, ``t.op_s`` converts from ``s``,
    comparisons give i32, and a load or store's width is the digits in its
    name or else the width of ``t``."""
    sigs, mem = {}, {}
    for _, name, _ in _TABLE:
        t, _, op = name.partition(".")
        if t not in VALTYPE_WIDTH:
            continue
        base, *suffix = op.split("_")
        kind = base.rstrip("0123456789")
        if kind in ("load", "store"):
            bits = base[len(kind):]
            width = int(bits) // 8 if bits else VALTYPE_WIDTH[t]
            mem[name] = (t, width, suffix == ["s"])
            sigs[name] = ((("i32",), (t,)) if kind == "load"
                          else (("i32", t), ()))
        elif op == "const":
            sigs[name] = ((), (t,))
        elif suffix and suffix[0] in VALTYPE_WIDTH:
            sigs[name] = ((suffix[0],), (t,))
        elif base in _COMPARE:
            sigs[name] = ((t,) if base == "eqz" else (t, t), ("i32",))
        else:
            sigs[name] = ((t,) if base in _UNARY else (t, t), (t,))
    return sigs, mem


# op -> (param types, result types), for every op named after a value type
# op -> (value type, width in bytes, sign-extends), for loads and stores
SIGS, MEM_ACCESS = _derive_types()

# Post-MVP opcode prefixes we reject explicitly with a feature name.
POST_MVP_PREFIXES = {
    0xC0: "sign-extension",
    0xC1: "sign-extension",
    0xC2: "sign-extension",
    0xC3: "sign-extension",
    0xC4: "sign-extension",
    0xD0: "reference-types",
    0xD1: "reference-types",
    0xD2: "reference-types",
    0xFC: "bulk-memory/saturating-trunc",
    0xFD: "simd",
    0xFE: "threads",
}
