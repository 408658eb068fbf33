from wasmwarden import Engine, validate_module
from wasmwarden.interp import (
    C_CONST,
    C_LOAD,
    C_NOP,
    C_NUM1,
    C_NUM2,
    C_STORE,
)
from wasmwarden.ir import FuncType, FunctionIR, I, ModuleIR
from wasmwarden.opcodes import _TABLE, IMM_KIND, MEM_ACCESS, SIGS

_IMMEDIATE = {"mem": (0, 0), "i32": (0,), "i64": (0,), "f32": (0,),
              "f64": (0,)}


def _expected_code(op, params):
    if "reinterpret" in op:
        return C_NOP
    if op in MEM_ACCESS:
        return C_LOAD if ".load" in op else C_STORE
    if op.endswith(".const"):
        return C_CONST
    return C_NUM1 if len(params) == 1 else C_NUM2


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

    # every typed op validates and compiles with the effect derived for it,
    # to a body tuple and into function-level code
    for op, (params, results) in SIGS.items():
        m = ModuleIR(memory=(1, None))
        ti = m.add_type(FuncType(params, results))
        body = [I("local.get", k) for k in range(len(params))]
        body += [I(op, *_IMMEDIATE.get(IMM_KIND[op], ())), I("end")]
        m.functions.append(FunctionIR(ti, [], body))
        assert validate_module(m).ok, op
        eng = Engine(m)
        code = eng.body_code(eng.metas[0])
        assert code[len(params)][0] == _expected_code(op, params), op
        assert callable(eng.compiled(eng.metas[0])), op
