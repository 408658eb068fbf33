"""WebAssembly binary format (version 1) decoder."""

from __future__ import annotations

import hashlib

from . import opcodes
from .ir import (
    BYTE_VALTYPE,
    EXTERNAL_KINDS,
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
        v, self.pos = read_uleb(self.buf, self.pos, 32, self.base)
        return v

    def s32(self) -> int:
        v, self.pos = read_sleb(self.buf, self.pos, 32, self.base)
        return v

    def s64(self) -> int:
        v, self.pos = read_sleb(self.buf, self.pos, 64, self.base)
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

    def globaltype(self) -> tuple[str, bool]:
        vt = self.valtype()
        mut = self.byte()
        if mut > 1:
            raise MalformedBinary(self.off() - 1, "bad mutability")
        return vt, bool(mut)

    def external_kind(self, what: str) -> str:
        b = self.byte()
        if b >= len(EXTERNAL_KINDS):
            raise MalformedBinary(self.off() - 1, f"bad {what} kind")
        return EXTERNAL_KINDS[b]

    def tabletype(self) -> tuple[int, int | None]:
        if self.byte() != FUNCREF:
            raise UnsupportedFeature("non-funcref tables")
        return self.limits()

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


# opcode byte -> (op name, reader of its immediates or None if it has
# none, change in block depth, the one shared ``Instr`` of an op without
# immediates)
_NESTING = {"block": 1, "loop": 1, "if": 1, "end": -1}
_DECODE = {byte: (name, opcodes.IMMEDIATES[kind][0], _NESTING.get(name, 0),
                  None if kind else Instr(name))
           for byte, name, kind in opcodes._TABLE}


def _read_instrs(r: _Reader, shared: dict[bytes, Instr]) -> list[Instr]:
    """A function body or constant expression: its instructions up to and
    including the ``end`` that closes it.

    Equal encodings decode to one ``Instr``. An op without immediates takes
    its constant from ``_DECODE``; an encoding of 2 or 3 bytes is looked up
    in ``shared``, keyed by its exact bytes, which one ``parse_module`` call
    passes to every body. The encoding of an instruction is a prefix code,
    so a key that the bytes at ``pos`` start with is the whole instruction
    there. Every other encoding, and every error, goes through ``r``.
    """
    out = []
    buf = r.buf
    depth = 1
    pos = r.pos
    while depth:
        # the opcode byte is read here, not through ``r.byte()``: this loop
        # runs once per instruction of the module
        if pos >= len(buf):
            raise MalformedBinary(r.base + pos, "unexpected end of section")
        entry = _DECODE.get(buf[pos])
        if entry is None:
            op_byte = buf[pos]
            feature = opcodes.POST_MVP_PREFIXES.get(op_byte)
            if feature:
                raise UnsupportedFeature(feature)
            raise MalformedBinary(r.base + pos,
                                  f"unknown opcode 0x{op_byte:02x}")
        name, read, delta, instr = entry
        depth += delta
        if read is None:
            pos += 1
        else:
            key = buf[pos:pos + 2]
            instr = shared.get(key)
            if instr is None:
                key = buf[pos:pos + 3]
                instr = shared.get(key)
            if instr is None:
                r.pos = pos + 1
                instr = Instr(name, read(r))
                if r.pos - pos <= 3:
                    shared[buf[pos:r.pos]] = instr
                pos = r.pos
            else:
                pos += len(key)
        out.append(instr)
    r.pos = pos
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
    shared: dict[bytes, Instr] = {}  # see _read_instrs
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
                kind = r.external_kind("import")
                if kind == "func":
                    desc = r.u32()
                elif kind == "table":
                    desc = r.tabletype()
                elif kind == "memory":
                    desc = r.limits()
                else:
                    desc = r.globaltype()
                m.imports.append(Import(mod, nm, kind, desc))
        elif sec_id == 3:
            func_type_indices = [r.u32() for _ in range(r.u32())]
        elif sec_id == 4:
            count = r.u32()
            if count > 1:
                raise UnsupportedFeature("multiple tables")
            if count:
                m.table = r.tabletype()
        elif sec_id == 5:
            count = r.u32()
            if count > 1:
                raise UnsupportedFeature("multiple memories")
            if count:
                m.memory = r.limits()
        elif sec_id == 6:
            for _ in range(r.u32()):
                vt, mut = r.globaltype()
                m.globals.append(Global(vt, mut, _read_instrs(r, shared)[:-1]))
        elif sec_id == 7:
            for _ in range(r.u32()):
                nm = r.name()
                kind = r.external_kind("export")
                m.exports.append(Export(nm, kind, r.u32()))
        elif sec_id == 8:
            m.start = r.u32()
        elif sec_id == 9:
            for _ in range(r.u32()):
                table_idx = r.u32()
                if table_idx != 0:
                    raise UnsupportedFeature("multiple tables")
                offset = _read_instrs(r, shared)[:-1]
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
                body = _read_instrs(br, shared)
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
                offset = _read_instrs(r, shared)[:-1]
                n = r.u32()
                m.data_segments.append(DataSegment(offset, r.raw(n)))
        if not r.eof():
            raise MalformedBinary(r.off(), "trailing bytes in section")

    if func_type_indices and not saw_code:
        raise MalformedBinary(len(data), "function section without code section")
    for ti in func_type_indices:
        if ti >= len(m.types):
            raise MalformedBinary(0, f"function type index {ti} out of range")
    m.source_sha256 = hashlib.sha256(data).hexdigest()
    return m
