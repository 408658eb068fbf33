import itertools
import math
import struct

import pytest

from reference import Reference
from wasmwarden import Engine, RunLimits, validate_module
from wasmwarden.ir import (
    DataSegment,
    Export,
    FuncType,
    FunctionIR,
    I,
    ModuleIR,
)
from wasmwarden.opcodes import _TABLE, IMM_KIND, MEM_ACCESS, SIGS

# the immediates each typed op is run with: a constant's value, a memory
# access's (align, offset)
_IMMEDIATES = {"mem": [(0, 0), (0, 3)], "i32": [(0,), (-5,)],
               "i64": [(0,), (-(1 << 40),)], "f32": [(0,), (0xFFC00001,)],
               "f64": [(0,), (0x7FF0000000000001,)]}

# argument values per type; each op is run on every combination of them,
# so both operands are zero, then one of them, as a div/rem trap needs
_VALUES = {
    "i32": [0, 1, 0x80000000, 0xFFFFFFFF, 0xFFF9],
    "i64": [0, 1, 1 << 63, (1 << 64) - 1, 0x123456789ABCDEF0],
    "f32": [0.0, -0.0, -2.5, 3e9, math.inf, math.nan],
    "f64": [0.0, -0.0, -2.5, 1e19, -math.inf, math.nan],
}


def test_types_derived_from_op_names():
    assert SIGS["i64.eqz"] == (("i64",), ("i32",))
    assert SIGS["f32.convert_i64_u"] == (("i64",), ("f32",))
    assert SIGS["i64.load32_s"] == (("i32",), ("i64",))
    assert MEM_ACCESS["i64.load32_s"] == ("i64", 4, True)
    assert SIGS["i32.reinterpret_f32"] == (("f32",), ("i32",))
    assert SIGS["f64.copysign"] == (("f64", "f64"), ("f64",))
    assert SIGS["f32.trunc"] == (("f32",), ("f32",))
    assert SIGS["i32.trunc_f64_u"] == (("f64",), ("i32",))
    assert SIGS["i64.store16"] == (("i32", "i64"), ())
    assert MEM_ACCESS["i64.store16"] == ("i64", 2, False)
    assert MEM_ACCESS["f64.load"] == ("f64", 8, False)
    assert SIGS["f32.const"] == ((), ("f32",))

    typed = [name for _, name, _ in _TABLE
             if name.split(".")[0] in ("i32", "i64", "f32", "f64")]
    assert sorted(SIGS) == sorted(typed) and len(SIGS) == 150
    assert sorted(MEM_ACCESS) == sorted(
        name for name in typed if IMM_KIND[name] == "mem")
    assert len(MEM_ACCESS) == 23


def _as_bits(values: list) -> list:
    """Results as comparable values: a float by its bit pattern, as NaN is
    not equal to itself."""
    return [struct.pack("<d", v) if isinstance(v, float) else v
            for v in values]


@pytest.mark.parametrize("op", sorted(SIGS))
def test_every_typed_op_runs_as_on_the_reference(op):
    """Each typed op, with the signature and effect derived for it, runs
    compiled as it does on the reference: same outcome, results, memory
    and globals. The reference shares the float helpers, so for float ops
    this checks how they are wired in, not their arithmetic."""
    params, results = SIGS[op]
    runs = 0
    for imm in _IMMEDIATES.get(IMM_KIND[op], [()]):
        m = ModuleIR(memory=(1, None))
        ti = m.add_type(FuncType(params, results))
        body = [I("local.get", k) for k in range(len(params))]
        body += [I(op, *imm), I("end")]
        m.functions.append(FunctionIR(ti, [], body))
        m.exports.append(Export("f", "func", 0))
        # loads read bytes that are not all zero, at both ends of memory
        m.data_segments += [
            DataSegment([I("i32.const", 0)], bytes(range(0x80, 0x90))),
            DataSegment([I("i32.const", 0xFFF0)], bytes(range(0xF0, 0x100))),
        ]
        assert validate_module(m).ok, op
        engines = (Engine(m), Reference(m))
        for args in itertools.product(*(_VALUES[t] for t in params)):
            seen = []
            for eng in engines:
                inst = eng.instantiate()
                out, res = eng.call_export(inst, "f", list(args),
                                           RunLimits(fuel=100))
                seen.append((out, _as_bits(res), bytes(inst.memory),
                             inst.globals))
            assert seen[0] == seen[1], (op, imm, args)
            runs += 1
        assert all(fn is None for fn in engines[1].funcs)
    assert runs >= 2
