"""WebAssembly binary format (version 1) encoder."""

from __future__ import annotations

from . import opcodes
from .ir import EXTERNAL_KINDS, FUNCREF, VALTYPE_BYTE, Instr, ModuleIR
from .leb import write_uleb
from .parser import MAGIC, VERSION


def _name(s: str) -> bytes:
    raw = s.encode("utf-8")
    return write_uleb(len(raw)) + raw


def _limits(lim: tuple[int, int | None]) -> bytes:
    lo, hi = lim
    if hi is None:
        return b"\x00" + write_uleb(lo)
    return b"\x01" + write_uleb(lo) + write_uleb(hi)


# op name -> (its opcode byte, writer of its immediates)
_ENCODE = {name: (bytes((byte,)), opcodes.IMMEDIATES[kind][1])
           for byte, name, kind in opcodes._TABLE}

_KIND_BYTE = {kind: bytes((b,)) for b, kind in enumerate(EXTERNAL_KINDS)}


def encode_instr(instr: Instr) -> bytes:
    op, write = _ENCODE[instr.op]
    return op + write(instr.args)


def _memo_encoder():
    """``encode(instrs)``: the bytes of ``instrs``, with ``encode_instr``
    called once per distinct instruction.

    The memo is looked up by ``id(instr)`` first, which is sound only
    while every instruction it has seen stays alive: ids are reused after
    garbage collection, so one memo serves one ``encode_module`` call, whose
    module holds all of them. On a miss it falls back to ``(op, args)``,
    so equal instructions built apart share one encoding; ``site`` is not
    encoded and is not part of the key.
    """
    by_id: dict[int, bytes] = {}
    by_value: dict[tuple, bytes] = {}

    def encode(instrs: list[Instr]) -> bytes:
        out = []
        for instr in instrs:
            b = by_id.get(id(instr))
            if b is None:
                key = (instr.op, instr.args)
                b = by_value.get(key)
                if b is None:
                    b = by_value[key] = encode_instr(instr)
                by_id[id(instr)] = b
            out.append(b)
        return b"".join(out)

    return encode


def _section(sec_id: int, payload: bytes) -> bytes:
    return bytes([sec_id]) + write_uleb(len(payload)) + payload


def _vec(items: list[bytes]) -> bytes:
    return write_uleb(len(items)) + b"".join(items)


def encode_module(m: ModuleIR) -> bytes:
    """Encode a :class:`ModuleIR` back into a spec-conformant binary.

    ``parse_module(encode_module(m))`` is structurally equal to ``m`` for
    any module that validates.
    """
    out = bytearray(MAGIC + VERSION)
    code = _memo_encoder()

    def _expr(instrs: list[Instr]) -> bytes:
        return code(instrs) + b"\x0b"

    customs_after: dict[int, list[bytes]] = {}
    for cs in m.custom_sections:
        payload = _name(cs.name) + cs.data
        customs_after.setdefault(cs.after_section, []).append(
            _section(0, payload)
        )

    emitted_anchors = set()

    def emit_customs(after: int):
        emitted_anchors.add(after)
        for blob in customs_after.get(after, ()):
            out.extend(blob)

    emit_customs(0)

    if m.types:
        items = []
        for ft in m.types:
            b = b"\x60" + _vec([bytes([VALTYPE_BYTE[p]]) for p in ft.params])
            b += _vec([bytes([VALTYPE_BYTE[r]]) for r in ft.results])
            items.append(b)
        out.extend(_section(1, _vec(items)))
        emit_customs(1)

    if m.imports:
        items = []
        for im in m.imports:
            b = _name(im.module) + _name(im.name) + _KIND_BYTE[im.kind]
            if im.kind == "func":
                b += write_uleb(im.desc)
            elif im.kind == "table":
                b += bytes([FUNCREF]) + _limits(im.desc)
            elif im.kind == "memory":
                b += _limits(im.desc)
            else:
                vt, mut = im.desc
                b += bytes([VALTYPE_BYTE[vt], int(mut)])
            items.append(b)
        out.extend(_section(2, _vec(items)))
        emit_customs(2)

    if m.functions:
        out.extend(
            _section(
                3, _vec([write_uleb(f.type_idx) for f in m.functions])
            )
        )
        emit_customs(3)

    if m.table is not None:
        out.extend(_section(4, _vec([bytes([FUNCREF]) + _limits(m.table)])))
        emit_customs(4)

    if m.memory is not None:
        out.extend(_section(5, _vec([_limits(m.memory)])))
        emit_customs(5)

    if m.globals:
        items = [
            bytes([VALTYPE_BYTE[g.valtype], int(g.mutable)]) + _expr(g.init)
            for g in m.globals
        ]
        out.extend(_section(6, _vec(items)))
        emit_customs(6)

    if m.exports:
        items = [
            _name(e.name) + _KIND_BYTE[e.kind] + write_uleb(e.index)
            for e in m.exports
        ]
        out.extend(_section(7, _vec(items)))
        emit_customs(7)

    if m.start is not None:
        out.extend(_section(8, write_uleb(m.start)))
        emit_customs(8)

    if m.elems:
        items = []
        for e in m.elems:
            b = write_uleb(0) + _expr(e.offset)
            b += _vec([write_uleb(fi) for fi in e.func_indices])
            items.append(b)
        out.extend(_section(9, _vec(items)))
        emit_customs(9)

    if m.functions:
        items = []
        for f in m.functions:
            locals_runs: list[tuple[int, str]] = []
            for vt in f.locals:
                if locals_runs and locals_runs[-1][1] == vt:
                    locals_runs[-1] = (locals_runs[-1][0] + 1, vt)
                else:
                    locals_runs.append((1, vt))
            body = _vec(
                [
                    write_uleb(n) + bytes([VALTYPE_BYTE[vt]])
                    for n, vt in locals_runs
                ]
            )
            body += code(f.body)
            items.append(write_uleb(len(body)) + body)
        out.extend(_section(10, _vec(items)))
        emit_customs(10)

    if m.data_segments:
        items = [
            write_uleb(0) + _expr(d.offset) + write_uleb(len(d.data)) + d.data
            for d in m.data_segments
        ]
        out.extend(_section(11, _vec(items)))
        emit_customs(11)

    # customs anchored after a section that happens to be absent
    for anchor in sorted(set(customs_after) - emitted_anchors):
        for blob in customs_after[anchor]:
            out.extend(blob)

    if m.names:
        entries = _vec(
            [
                write_uleb(idx) + _name(nm)
                for idx, nm in sorted(m.names.items())
            ]
        )
        sub = b"\x01" + write_uleb(len(entries)) + entries
        out.extend(_section(0, _name("name") + sub))

    return bytes(out)
