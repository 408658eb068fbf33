"""Every immediate kind in ``opcodes.IMMEDIATES`` through the encoder and
back through the parser, with edge values, and the reserved bytes and
block types the parser rejects."""

import pytest

from wasmwarden import UnsupportedFeature, encode_module, parse_module
from wasmwarden.ir import FuncType, FunctionIR, I, Instr, ModuleIR
from wasmwarden.opcodes import _TABLE, IMM_KIND, IMMEDIATES

U32 = (1 << 32) - 1

# immediate kind -> edge values of an op's args
EDGES = {
    "": [()],
    "block": [(None,), ("i32",), ("i64",), ("f32",), ("f64",)],
    "u32": [(0,), (127,), (128,), (U32,)],
    "brtable": [((), 0), (tuple(range(130)), U32), ((0, 127, 128, U32), 128)],
    "callind": [(0,), (127,), (128,), (U32,)],
    "mem": [(0, 0), (127, 128), (U32, U32)],
    "memidx": [()],
    # the extremes, and where a signed LEB128 needs one more byte
    "i32": [(-(1 << 31),), ((1 << 31) - 1,), (-1,), (0,), (63,), (64,),
            (-64,), (-65,)],
    "i64": [(-(1 << 63),), ((1 << 63) - 1,), (-1,), (0,), (63,), (64,)],
    # signalling NaNs of either sign, and negative zero
    "f32": [(0x7FA0_0000,), (0xFFA0_0001,), (0x7F80_0001,), (0x8000_0000,)],
    "f64": [(0x7FF4_0000_0000_0000,), (0xFFF0_0000_0000_0001,),
            (0x8000_0000_0000_0000,)],
}


def _module(body):
    m = ModuleIR()
    m.types.append(FuncType((), ()))
    m.functions.append(FunctionIR(0, [], body + [I("end")]))
    return m


def test_edges_cover_every_kind():
    assert set(EDGES) == set(IMMEDIATES) == set(IMM_KIND.values())


@pytest.mark.parametrize("op", [name for _, name, _ in _TABLE
                                if name != "end"])  # end closes every body
def test_every_immediate_survives_encode_then_parse(op):
    body = []
    for args in EDGES[IMM_KIND[op]]:
        body.append(Instr(op, args))
        if op in ("block", "loop", "if"):
            body.append(I("end"))
    m = _module(body)
    raw = encode_module(m)
    back = parse_module(raw)
    assert back.functions[0].body == m.functions[0].body
    assert encode_module(back) == raw


@pytest.mark.parametrize("body,old,new,feature", [
    ([I("i32.const", 0), I("call_indirect", 5)],
     b"\x11\x05\x00", b"\x11\x05\x01", "multiple tables"),
    ([I("memory.size"), I("drop")],
     b"\x3f\x00\x1a", b"\x3f\x01\x1a", "multiple memories"),
    ([I("i32.const", 0), I("memory.grow"), I("drop")],
     b"\x41\x00\x40\x00\x1a", b"\x41\x00\x40\x01\x1a", "multiple memories"),
    # a type index (here 0) in place of a block type is multi-value
    ([I("block", None), I("end")],
     b"\x02\x40\x0b", b"\x02\x00\x0b", "multi-value (block type)"),
])
def test_reserved_bytes_and_type_index_block_types_are_rejected(
        body, old, new, feature):
    raw = encode_module(_module(body))
    assert raw.count(old) == 1
    with pytest.raises(UnsupportedFeature) as e:
        parse_module(raw.replace(old, new))
    assert e.value.feature == feature
