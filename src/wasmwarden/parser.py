"""WebAssembly binary format (version 1) decoder."""

from __future__ import annotations

from . import opcodes
from .ir import (
    BYTE_VALTYPE,
    FUNCREF,
    CustomSection,
    DataSegment,
    ElemSegment,
    Export,
    FuncType,
    FunctionIR,
    Global,
    Import,
    Instr,
    MalformedBinary,
    ModuleIR,
    UnsupportedFeature,
)
from .leb import read_sleb, read_uleb

MAGIC = b"\x00asm"
VERSION = b"\x01\x00\x00\x00"

_SECTION_IDS = {
    1: "type",
    2: "import",
    3: "function",
    4: "table",
    5: "memory",
    6: "global",
    7: "export",
    8: "start",
    9: "element",
    10: "code",
    11: "data",
}


class _Reader:
    __slots__ = ("buf", "pos", "base")

    def __init__(self, buf: bytes, base: int = 0):
        self.buf = buf
        self.pos = 0
        self.base = base  # offset of buf inside the whole binary

    def off(self) -> int:
        return self.base + self.pos

    def eof(self) -> bool:
        return self.pos >= len(self.buf)

    def byte(self) -> int:
        if self.pos >= len(self.buf):
            raise MalformedBinary(self.off(), "unexpected end of section")
        b = self.buf[self.pos]
        self.pos += 1
        return b

    def raw(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise MalformedBinary(self.off(), "unexpected end of section")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        v, self.pos = read_uleb(self.buf, self.pos, 32)
        return v

    def s32(self) -> int:
        v, self.pos = read_sleb(self.buf, self.pos, 32)
        return v

    def s64(self) -> int:
        v, self.pos = read_sleb(self.buf, self.pos, 64)
        return v

    def name(self) -> str:
        n = self.u32()
        raw = self.raw(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedBinary(self.off(), "invalid UTF-8 name") from None

    def valtype(self) -> str:
        b = self.byte()
        vt = BYTE_VALTYPE.get(b)
        if vt is None:
            if b in (FUNCREF, 0x6F):
                raise UnsupportedFeature("reference-typed values")
            raise MalformedBinary(self.off() - 1, f"bad value type 0x{b:02x}")
        return vt

    def limits(self) -> tuple[int, int | None]:
        flag = self.byte()
        if flag == 0:
            return self.u32(), None
        if flag == 1:
            lo = self.u32()
            hi = self.u32()
            if hi < lo:
                raise MalformedBinary(self.off(), "limits: max < min")
            return lo, hi
        if flag in (2, 3):
            raise UnsupportedFeature("shared memory")
        raise MalformedBinary(self.off() - 1, f"bad limits flag 0x{flag:02x}")


def _read_blocktype(r: _Reader):
    b = r.byte()
    if b == 0x40:
        return None
    vt = BYTE_VALTYPE.get(b)
    if vt is not None:
        return vt
    raise UnsupportedFeature("multi-value (block type)")


def _read_instr(r: _Reader) -> Instr:
    op_byte = r.byte()
    name = opcodes.BYTE_TO_NAME.get(op_byte)
    if name is None:
        feature = opcodes.POST_MVP_PREFIXES.get(op_byte)
        if feature:
            raise UnsupportedFeature(feature)
        raise MalformedBinary(r.off() - 1, f"unknown opcode 0x{op_byte:02x}")
    kind = opcodes.IMM_KIND[name]
    if kind == "":
        return Instr(name)
    if kind == "u32":
        return Instr(name, (r.u32(),))
    if kind == "block":
        return Instr(name, (_read_blocktype(r),))
    if kind == "mem":
        return Instr(name, (r.u32(), r.u32()))
    if kind == "i32":
        return Instr(name, (r.s32(),))
    if kind == "i64":
        return Instr(name, (r.s64(),))
    if kind == "f32":
        return Instr(name, (int.from_bytes(r.raw(4), "little"),))
    if kind == "f64":
        return Instr(name, (int.from_bytes(r.raw(8), "little"),))
    if kind == "brtable":
        n = r.u32()
        targets = tuple(r.u32() for _ in range(n))
        default = r.u32()
        return Instr(name, (targets, default))
    if kind == "callind":
        type_idx = r.u32()
        table = r.byte()
        if table != 0:
            raise UnsupportedFeature("multiple tables")
        return Instr(name, (type_idx,))
    if kind == "memidx":
        mem = r.byte()
        if mem != 0:
            raise UnsupportedFeature("multiple memories")
        return Instr(name)
    raise AssertionError(kind)


def _read_expr(r: _Reader) -> list[Instr]:
    """Constant expression: instructions up to (excluding) the final end."""
    out = []
    depth = 0
    while True:
        instr = _read_instr(r)
        if instr.op == "end":
            if depth == 0:
                return out
            depth -= 1
        elif instr.op in ("block", "loop", "if"):
            depth += 1
        out.append(instr)


def _read_body(r: _Reader) -> list[Instr]:
    """Function body: instructions including the terminal end."""
    out = []
    depth = 1
    while depth:
        instr = _read_instr(r)
        if instr.op in ("block", "loop", "if"):
            depth += 1
        elif instr.op == "end":
            depth -= 1
        out.append(instr)
    return out


def _parse_name_section(payload: bytes, base: int) -> dict[int, str]:
    r = _Reader(payload, base)
    names: dict[int, str] = {}
    while not r.eof():
        sub_id = r.byte()
        size = r.u32()
        sub = _Reader(r.raw(size), r.off() - size)
        if sub_id == 1:  # function names
            count = sub.u32()
            for _ in range(count):
                idx = sub.u32()
                names[idx] = sub.name()
    return names


def parse_module(data: bytes) -> ModuleIR:
    """Decode a Wasm MVP binary into a :class:`ModuleIR`.

    Raises :class:`MalformedBinary` on structural errors and
    :class:`UnsupportedFeature` for post-MVP constructs.
    """
    if len(data) < 8:
        raise MalformedBinary(0, "shorter than the 8-byte header")
    if data[:4] != MAGIC:
        raise MalformedBinary(0, "bad magic number")
    if data[4:8] != VERSION:
        raise MalformedBinary(4, "unsupported binary version")

    m = ModuleIR()
    func_type_indices: list[int] = []
    saw_code = False
    pos = 8
    last_standard = 0
    while pos < len(data):
        sec_id = data[pos]
        pos += 1
        size, pos = read_uleb(data, pos, 32)
        if pos + size > len(data):
            raise MalformedBinary(pos, "section extends past end of binary")
        payload = data[pos : pos + size]
        base = pos
        pos += size

        if sec_id == 0:
            r = _Reader(payload, base)
            name = r.name()
            rest = payload[r.pos :]
            if name == "name":
                m.names = _parse_name_section(rest, base + r.pos)
            else:
                m.custom_sections.append(
                    CustomSection(name, rest, after_section=last_standard)
                )
            continue
        if sec_id == 12:
            raise UnsupportedFeature("bulk-memory (data count section)")
        if sec_id not in _SECTION_IDS:
            raise MalformedBinary(base - 1, f"unknown section id {sec_id}")
        if sec_id <= last_standard:
            raise MalformedBinary(base - 1, "out-of-order section")
        last_standard = sec_id

        r = _Reader(payload, base)
        if sec_id == 1:
            for _ in range(r.u32()):
                form = r.byte()
                if form != 0x60:
                    raise MalformedBinary(r.off() - 1, "bad functype form")
                params = tuple(r.valtype() for _ in range(r.u32()))
                results = tuple(r.valtype() for _ in range(r.u32()))
                m.types.append(FuncType(params, results))
        elif sec_id == 2:
            for _ in range(r.u32()):
                mod = r.name()
                nm = r.name()
                kind = r.byte()
                if kind == 0:
                    m.imports.append(Import(mod, nm, "func", r.u32()))
                elif kind == 1:
                    et = r.byte()
                    if et != FUNCREF:
                        raise UnsupportedFeature("non-funcref tables")
                    m.imports.append(Import(mod, nm, "table", r.limits()))
                elif kind == 2:
                    m.imports.append(Import(mod, nm, "memory", r.limits()))
                elif kind == 3:
                    vt = r.valtype()
                    mut = r.byte()
                    if mut > 1:
                        raise MalformedBinary(r.off() - 1, "bad mutability")
                    m.imports.append(
                        Import(mod, nm, "global", (vt, bool(mut)))
                    )
                else:
                    raise MalformedBinary(r.off() - 1, "bad import kind")
        elif sec_id == 3:
            func_type_indices = [r.u32() for _ in range(r.u32())]
        elif sec_id == 4:
            count = r.u32()
            if count > 1:
                raise UnsupportedFeature("multiple tables")
            if count:
                et = r.byte()
                if et != FUNCREF:
                    raise UnsupportedFeature("non-funcref tables")
                m.table = r.limits()
        elif sec_id == 5:
            count = r.u32()
            if count > 1:
                raise UnsupportedFeature("multiple memories")
            if count:
                m.memory = r.limits()
        elif sec_id == 6:
            for _ in range(r.u32()):
                vt = r.valtype()
                mut = r.byte()
                if mut > 1:
                    raise MalformedBinary(r.off() - 1, "bad mutability")
                m.globals.append(Global(vt, bool(mut), _read_expr(r)))
        elif sec_id == 7:
            kinds = {0: "func", 1: "table", 2: "memory", 3: "global"}
            for _ in range(r.u32()):
                nm = r.name()
                kind = r.byte()
                if kind not in kinds:
                    raise MalformedBinary(r.off() - 1, "bad export kind")
                m.exports.append(Export(nm, kinds[kind], r.u32()))
        elif sec_id == 8:
            m.start = r.u32()
        elif sec_id == 9:
            for _ in range(r.u32()):
                table_idx = r.u32()
                if table_idx != 0:
                    raise UnsupportedFeature("multiple tables")
                offset = _read_expr(r)
                funcs = [r.u32() for _ in range(r.u32())]
                m.elems.append(ElemSegment(offset, funcs))
        elif sec_id == 10:
            saw_code = True
            count = r.u32()
            if count != len(func_type_indices):
                raise MalformedBinary(
                    base, "code entry count != function section count"
                )
            for i in range(count):
                body_size = r.u32()
                br = _Reader(r.raw(body_size), r.off() - body_size)
                local_vec: list[str] = []
                for _ in range(br.u32()):
                    n = br.u32()
                    vt = br.valtype()
                    if len(local_vec) + n > 1_000_000:
                        raise MalformedBinary(br.off(), "too many locals")
                    local_vec.extend([vt] * n)
                body = _read_body(br)
                if not br.eof():
                    raise MalformedBinary(
                        br.off(), "trailing bytes after function body"
                    )
                m.functions.append(
                    FunctionIR(func_type_indices[i], local_vec, body)
                )
        elif sec_id == 11:
            for _ in range(r.u32()):
                mem_idx = r.u32()
                if mem_idx != 0:
                    raise UnsupportedFeature("multiple memories")
                offset = _read_expr(r)
                n = r.u32()
                m.data_segments.append(DataSegment(offset, r.raw(n)))
        if not r.eof():
            raise MalformedBinary(r.off(), "trailing bytes in section")

    if func_type_indices and not saw_code:
        raise MalformedBinary(len(data), "function section without code section")
    for ti in func_type_indices:
        if ti >= len(m.types):
            raise MalformedBinary(0, f"function type index {ti} out of range")
    return m
