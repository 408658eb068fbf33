import functools
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modbuild
from wasmwarden import Engine, RunLimits, WasiConfig
from wasmwarden.interp import (
    DIV_ZERO,
    INDIRECT_MISMATCH,
    INT_OVERFLOW,
    MEM_OOB,
    STACK_EXHAUSTED,
    UNINIT_TABLE,
    UNREACHABLE,
)
from wasmwarden.ir import (
    DataSegment,
    ElemSegment,
    Export,
    FuncType,
    FunctionIR,
    Global,
    I,
    Import,
    ModuleIR,
)


def make_func_module(params, results, body, locals_=(), pages=1):
    m = ModuleIR()
    if pages:
        m.memory = (pages, None)
    ti = m.add_type(FuncType(tuple(params), tuple(results)))
    m.functions.append(FunctionIR(ti, list(locals_), list(body)))
    m.exports.append(Export("f", "func", 0))
    return m


def call(m, args, fuel=100_000):
    eng = Engine(m)
    inst = eng.instantiate()
    return eng.call_export(inst, "f", list(args), RunLimits(fuel=fuel))


def binop(op, a, b, tys=("i32", "i32"), res="i32"):
    m = make_func_module(
        tys, (res,),
        [I("local.get", 0), I("local.get", 1), I(op), I("end")],
    )
    outcome, results = call(m, [a, b])
    return outcome, (results[0] if results else None)


M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF


def s32(v):
    return v - (1 << 32) if v & (1 << 31) else v


def test_i32_arith_against_python_oracle():
    rng = random.Random(1234)
    for _ in range(200):
        a, b = rng.getrandbits(32), rng.getrandbits(32)
        assert binop("i32.add", a, b)[1] == (a + b) & M32
        assert binop("i32.sub", a, b)[1] == (a - b) & M32
        assert binop("i32.mul", a, b)[1] == (a * b) & M32
        assert binop("i32.xor", a, b)[1] == a ^ b
        assert binop("i32.shl", a, b)[1] == (a << (b % 32)) & M32
        assert binop("i32.shr_u", a, b)[1] == a >> (b % 32)
        assert binop("i32.lt_s", a, b)[1] == int(s32(a) < s32(b))


def test_signed_division_semantics():
    # Wasm signed division truncates toward zero
    assert binop("i32.div_s", (-7) & M32, 2)[1] == (-3) & M32
    assert binop("i32.rem_s", (-7) & M32, 2)[1] == (-1) & M32
    assert binop("i32.div_s", 7, (-2) & M32)[1] == (-3) & M32
    assert binop("i32.rem_s", 7, (-2) & M32)[1] == 1


def test_division_traps():
    out, _ = binop("i32.div_u", 1, 0)
    assert out.status == "trap" and out.trap_kind == DIV_ZERO
    out, _ = binop("i32.div_s", 0x80000000, M32)  # INT_MIN / -1
    assert out.status == "trap" and out.trap_kind == INT_OVERFLOW
    out, _ = binop("i32.rem_s", 0x80000000, M32)
    assert out.status == "exit"  # rem of INT_MIN by -1 is 0, not a trap


def test_i64_ops():
    a, b = 0x0123456789ABCDEF, 0xFEDCBA9876543210
    assert binop("i64.add", a, b, ("i64", "i64"), "i64")[1] == (a + b) & M64
    assert binop("i64.rotl", a, 8, ("i64", "i64"), "i64")[1] == (
        ((a << 8) | (a >> 56)) & M64
    )


def test_clz_ctz_popcnt():
    m = make_func_module(("i32",), ("i32",),
                         [I("local.get", 0), I("i32.clz"), I("end")])
    assert call(m, [1])[1][0] == 31
    assert call(m, [0])[1][0] == 32
    m = make_func_module(("i32",), ("i32",),
                         [I("local.get", 0), I("i32.ctz"), I("end")])
    assert call(m, [0x80000000])[1][0] == 31
    assert call(m, [0])[1][0] == 32


def test_f32_demotion():
    m = make_func_module(
        ("f64",), ("f32",),
        [I("local.get", 0), I("f32.demote_f64"), I("end")],
    )
    _, res = call(m, [1.1])
    assert res[0] == struct.unpack("<f", struct.pack("<f", 1.1))[0]


def test_float_trunc_traps_on_nan():
    m = make_func_module(
        ("f64",), ("i32",),
        [I("local.get", 0), I("i32.trunc_f64_s"), I("end")],
    )
    out, _ = call(m, [float("nan")])
    assert out.status == "trap" and out.trap_kind == INT_OVERFLOW
    out, _ = call(m, [1e300])
    assert out.status == "trap" and out.trap_kind == INT_OVERFLOW
    _, res = call(m, [-3.99])
    assert res[0] == (-3) & M32


def test_memory_out_of_bounds():
    m = make_func_module(
        ("i32",), ("i32",),
        [I("local.get", 0), I("i32.load", 2, 0), I("end")],
    )
    out, res = call(m, [0])
    assert out.status == "exit"
    out, _ = call(m, [65536 - 3])  # 4-byte read past the single page
    assert out.status == "trap" and out.trap_kind == MEM_OOB


def test_store_then_load_roundtrip():
    body = [
        I("i32.const", 100), I("local.get", 0), I("i64.store", 3, 0),
        I("i32.const", 100), I("i64.load32_u", 2, 0),
        I("end"),
    ]
    m = make_func_module(("i64",), ("i64",), body)
    _, res = call(m, [0x1122334455667788])
    assert res[0] == 0x55667788


def test_signed_narrow_load():
    body = [
        I("i32.const", 0), I("i32.const", 0x80), I("i32.store8", 0, 0),
        I("i32.const", 0), I("i32.load8_s", 0, 0),
        I("end"),
    ]
    m = make_func_module((), ("i32",), body)
    _, res = call(m, [])
    assert res[0] == (-128) & M32


def test_unreachable_records_location():
    m = make_func_module((), (), [I("nop"), I("unreachable"), I("end")])
    out, _ = call(m, [])
    assert out.status == "trap"
    assert out.trap_kind == UNREACHABLE
    assert out.trap_function == 0
    assert out.trap_offset == 1


def test_call_stack_exhaustion():
    m = make_func_module((), (), [I("call", 0), I("end")])
    out, _ = call(m, [], fuel=10_000_000)
    assert out.status == "trap" and out.trap_kind == STACK_EXHAUSTED


def test_call_indirect_traps():
    m = ModuleIR()
    m.memory = (1, None)
    t_void = m.add_type(FuncType((), ()))
    t_i32 = m.add_type(FuncType((), ("i32",)))
    m.functions.append(FunctionIR(t_void, [], [I("end")]))
    m.functions.append(
        FunctionIR(
            m.add_type(FuncType(("i32",), ())), [],
            [I("local.get", 0), I("call_indirect", t_i32), I("drop"),
             I("end")],
        )
    )
    m.table = (3, 3)
    m.elems.append(ElemSegment([I("i32.const", 0)], [0]))
    m.exports.append(Export("f", "func", 1))
    eng = Engine(m)
    inst = eng.instantiate()
    out, _ = eng.call_export(inst, "f", [0])  # wrong signature
    assert out.trap_kind == INDIRECT_MISMATCH
    out, _ = eng.call_export(inst, "f", [1])  # never initialized
    assert out.trap_kind == UNINIT_TABLE
    out, _ = eng.call_export(inst, "f", [7])  # out of table bounds
    assert out.trap_kind == UNINIT_TABLE


def test_call_indirect_checks_signatures_past_imported_functions():
    # the import takes index 0, so defined functions start at 1
    m = ModuleIR()
    m.memory = (1, None)
    t_close = m.add_type(FuncType(("i32",), ("i32",)))
    m.imports.append(
        Import("wasi_snapshot_preview1", "fd_close", "func", t_close))
    t_i32 = m.add_type(FuncType((), ("i32",)))
    m.functions.append(FunctionIR(t_i32, [], [I("i32.const", 42), I("end")]))
    m.functions.append(FunctionIR(
        t_close, [], [I("local.get", 0), I("call_indirect", t_i32), I("end")]
    ))
    m.table = (2, 2)
    m.elems.append(ElemSegment([I("i32.const", 0)], [1, 2]))
    m.exports.append(Export("f", "func", 2))
    eng = Engine(m)
    inst = eng.instantiate()
    out, res = eng.call_export(inst, "f", [0])  # () -> i32: matches
    assert out.status == "exit" and res == [42]
    out, _ = eng.call_export(inst, "f", [1])  # (i32) -> i32: does not
    assert out.trap_kind == INDIRECT_MISMATCH


@pytest.mark.parametrize("body,want,executed", [
    # br 0 at the top level returns
    ([I("i32.const", 7), I("br", 0), I("i32.const", 1), I("end")], [7], 3),
    # a taken br_if 0 at the top level returns
    ([I("i32.const", 7), I("i32.const", 1), I("br_if", 0), I("drop"),
      I("i32.const", 1), I("end")], [7], 4),
    # br_table whose default is the function's label
    ([I("i32.const", 7), I("i32.const", 5), I("br_table", (0, 0), 0),
      I("end")], [7], 4),
    # a branch out of a block to the function's label carries its value
    ([I("block", None), I("i32.const", 9), I("br", 1), I("end"),
      I("i32.const", 1), I("end")], [9], 4),
])
def test_branch_to_the_function_label_returns(body, want, executed):
    m = make_func_module((), ("i32",), body)
    out, res = call(m, [])
    assert out.status == "exit" and res == want
    assert out.instructions_executed == executed


def test_branch_to_the_function_label_in_start():
    m = ModuleIR()
    modbuild.add_start(m, [I("br", 0), I("unreachable"), I("end")])
    eng = Engine(m)
    out = eng.run_start(eng.instantiate())
    assert out.status == "exit" and out.instructions_executed == 2


def test_fuel_accounting_is_exact():
    # two instructions: i32.const, end
    m = make_func_module((), ("i32",), [I("i32.const", 5), I("end")])
    out, res = call(m, [], fuel=2)
    assert out.status == "exit" and res == [5]
    assert out.instructions_executed == 2
    out, _ = call(m, [], fuel=1)
    assert out.status == "fuel-exhausted"
    assert out.instructions_executed == 1


def test_fuel_spans_calls():
    m = ModuleIR()
    m.memory = (1, None)
    ti = m.add_type(FuncType((), ("i32",)))
    m.functions.append(FunctionIR(ti, [], [I("i32.const", 7), I("end")]))
    # call(1) + const(1) + end(1) + end(1) = 4 instructions
    m.functions.append(FunctionIR(ti, [], [I("call", 0), I("end")]))
    m.exports.append(Export("f", "func", 1))
    eng = Engine(m)
    out, res = eng.call_export(eng.instantiate(), "f", [],
                               RunLimits(fuel=4))
    assert out.status == "exit" and res == [7]
    assert out.instructions_executed == 4
    out, _ = eng.call_export(eng.instantiate(), "f", [], RunLimits(fuel=3))
    assert out.status == "fuel-exhausted"


def test_memory_grow_and_size():
    body = [
        I("memory.size"),
        I("i32.const", 2), I("memory.grow"), I("drop"),
        I("memory.size"),
        I("i32.add"),
        I("end"),
    ]
    m = make_func_module((), ("i32",), body)
    _, res = call(m, [])
    assert res[0] == 1 + 3
    # growth refused past the limit reports -1
    body = [I("i32.const", 5000), I("memory.grow"), I("end")]
    m = make_func_module((), ("i32",), body)
    _, res = call(m, [])
    assert res[0] == M32


def test_br_table_dispatch():
    body = [
        I("block", None), I("block", None), I("block", None),
        I("local.get", 0),
        I("br_table", (0, 1), 2),
        I("end"), I("i32.const", 10), I("return"),
        I("end"), I("i32.const", 20), I("return"),
        I("end"), I("i32.const", 30),
        I("end"),
    ]
    m = make_func_module(("i32",), ("i32",), body)
    assert call(m, [0])[1] == [10]
    assert call(m, [1])[1] == [20]
    assert call(m, [2])[1] == [30]  # default
    assert call(m, [99])[1] == [30]


def test_loop_counts_down():
    body = [
        I("loop", None),
        I("local.get", 0), I("i32.const", 1), I("i32.sub"),
        I("local.set", 0),
        I("local.get", 0),
        I("br_if", 0),
        I("end"),
        I("local.get", 0),
        I("end"),
    ]
    m = make_func_module(("i32",), ("i32",), body)
    out, res = call(m, [1000])
    assert res == [0]
    # the loop opener re-executes on every back edge: 7 per iteration,
    # then end + local.get + terminal end
    assert out.instructions_executed == 1000 * 7 + 3


# -------------------------------------------------------------- WASI


def test_wasi_echo_roundtrip():
    eng = Engine(modbuild.echo_module())
    inst = eng.instantiate(WasiConfig(stdin=b"hi there"))
    out = eng.run_start(inst)
    assert out.status == "exit" and out.exit_code == 0
    assert out.stdout == b"hi there"


def test_wasi_exit_code_is_not_a_crash():
    from modbuild import _exit_code_program

    eng = Engine(_exit_code_program())
    inst = eng.instantiate(WasiConfig(stdin=struct.pack("<I", 7)))
    out = eng.run_start(inst)
    assert out.status == "exit"
    assert out.exit_code == 3


def test_wasi_random_get_is_seeded():
    m = modbuild.new_module(imports=("fd_write",))
    body = [
        # random_get(64, 8) then write those 8 bytes
        I("i32.const", 64), I("i32.const", 8), I("call", 1), I("drop"),
    ] + modbuild.write_stdout(8, fd_write_idx=0) + [I("end")]
    ti = m.add_type(FuncType(("i32", "i32"), ("i32",)))
    from wasmwarden.ir import Import

    m.imports.append(
        Import("wasi_snapshot_preview1", "random_get", "func", ti)
    )
    modbuild.add_start(m, body)
    eng = Engine(m)
    outs = []
    for _ in range(2):
        inst = eng.instantiate(WasiConfig(rng_seed=42))
        outs.append(eng.run_start(inst).stdout)
    assert outs[0] == outs[1] and len(outs[0]) == 8
    inst = eng.instantiate(WasiConfig(rng_seed=43))
    assert eng.run_start(inst).stdout != outs[0]


def test_wasi_args_get():
    m = modbuild.new_module(imports=("fd_write",))
    from wasmwarden.ir import Import

    t2 = m.add_type(FuncType(("i32", "i32"), ("i32",)))
    m.imports.insert(
        0, Import("wasi_snapshot_preview1", "args_sizes_get", "func", t2)
    )
    body = [
        I("i32.const", 200), I("i32.const", 204), I("call", 0), I("drop"),
        # write the two u32 answers (argc, total bytes)
        I("i32.const", 64),
        I("i32.const", 200), I("i32.load", 2, 0), I("i32.store", 2, 0),
        I("i32.const", 68),
        I("i32.const", 204), I("i32.load", 2, 0), I("i32.store", 2, 0),
    ] + modbuild.write_stdout(8, fd_write_idx=1) + [I("end")]
    modbuild.add_start(m, body)
    eng = Engine(m)
    inst = eng.instantiate(WasiConfig(argv=["prog", "abc"]))
    out = eng.run_start(inst)
    argc, total = struct.unpack("<II", out.stdout)
    assert argc == 2
    assert total == len(b"prog\x00abc\x00")


def test_engine_rejects_unknown_imports():
    from wasmwarden.interp import UnsupportedImport
    from wasmwarden.ir import Import

    m = modbuild.new_module(imports=())
    ti = m.add_type(FuncType((), ()))
    m.imports.append(Import("env", "mystery", "func", ti))
    modbuild.add_start(m, [I("end")])
    with pytest.raises(UnsupportedImport):
        Engine(m)


# ------------------------------------------------- bit-exact float values

INT_OF = {"f32": "i32", "f64": "i64"}
SIGN = {"f32": 1 << 31, "f64": 1 << 63}
NAN_BITS = {
    # a signalling NaN and a negative signalling NaN with a payload
    "f32": (0x7F80_0001, 0xFFA5_A5A5),
    "f64": (0x7FF0_0000_0000_0001, 0xFFF4_A5A5_A5A5_A5A5),
}


def _bits_module(ty, body, locals_=(), globals_=()):
    """(i) -> i function: param 0 holds the bits of a ``ty`` value."""
    it = INT_OF[ty]
    m = make_func_module((it,), (it,), body + [I("end")], locals_)
    m.globals.extend(globals_)
    return m


def _moves(ty, bits):
    """Ways to move a value without computing on it, each leaving the
    value's bits as the function's result."""
    it = INT_OF[ty]
    arg = [I("local.get", 0), I(f"{ty}.reinterpret_{it}")]
    out = [I(f"{it}.reinterpret_{ty}")]
    align = 2 if ty == "f32" else 3
    return {
        "reinterpret": (arg + out, (), ()),
        "const": ([I(f"{ty}.const", bits)] + out, (), ()),
        "global init": ([I("global.get", 0)] + out, (),
                        (Global(ty, False, [I(f"{ty}.const", bits)]),)),
        "local": (arg + [I("local.set", 1), I("local.get", 1)] + out,
                  (ty,), ()),
        "select first": (arg + [I(f"{ty}.const", 0), I("i32.const", 1),
                                I("select")] + out, (), ()),
        "select second": ([I(f"{ty}.const", 0)] + arg
                          + [I("i32.const", 0), I("select")] + out, (), ()),
        # store the bits, copy them with a float load and store, reload
        "load/store": ([I("i32.const", 0), I("local.get", 0),
                        I(f"{it}.store", align, 0),
                        I("i32.const", 16), I("i32.const", 0),
                        I(f"{ty}.load", align, 0),
                        I(f"{ty}.store", align, 0),
                        I("i32.const", 16), I(f"{it}.load", align, 0)],
                       (), ()),
    }


@pytest.mark.parametrize("how", list(_moves("f32", 0)))
@pytest.mark.parametrize("ty,bits", [
    (ty, bits) for ty, vs in NAN_BITS.items() for bits in vs
])
def test_nan_bits_survive_moves(ty, bits, how):
    body, locals_, globals_ = _moves(ty, bits)[how]
    _, res = call(_bits_module(ty, body, locals_, globals_), [bits])
    assert res == [bits], f"{res[0]:#x}"


@pytest.mark.parametrize("ty,bits", [
    (ty, bits) for ty, vs in NAN_BITS.items() for bits in vs
])
def test_sign_ops_keep_nan_payloads(ty, bits):
    it, sign = INT_OF[ty], SIGN[ty]
    arg = [I("local.get", 0), I(f"{ty}.reinterpret_{it}")]
    out = [I(f"{it}.reinterpret_{ty}")]

    def run(body):
        return call(_bits_module(ty, body), [bits])[1][0]

    assert run(arg + [I(f"{ty}.neg")] + out) == bits ^ sign
    assert run(arg + [I(f"{ty}.abs")] + out) == bits & ~sign
    neg_zero = [I(f"{ty}.const", sign)]
    assert run(arg + neg_zero + [I(f"{ty}.copysign")] + out) == bits | sign
    one = [I(f"{ty}.const", 0x3F80_0000 if ty == "f32" else 0x3FF << 52)]
    assert run(arg + one + [I(f"{ty}.copysign")] + out) == bits & ~sign


@pytest.mark.parametrize("op,n,want", [
    # 2**60 + 2**36 is a tie between two f32 values; the + 1 breaks it
    # upwards, and rounding through f64 first would lose it
    ("f32.convert_i64_s", 2**60 + 2**36 + 1, 0x5D80_0001),
    ("f32.convert_i64_u", 2**60 + 2**36 + 1, 0x5D80_0001),
    ("f32.convert_i64_s", -(2**60 + 2**36 + 1) & M64, 0xDD80_0001),
])
def test_i64_to_f32_rounds_once(op, n, want):
    m = make_func_module(("i64",), ("i32",), [
        I("local.get", 0), I(op), I("i32.reinterpret_f32"), I("end"),
    ])
    assert call(m, [n])[1] == [want]


@pytest.mark.parametrize("ty", ["f32", "f64"])
@pytest.mark.parametrize("op", ["ceil", "trunc", "nearest"])
def test_rounding_to_zero_keeps_the_sign(ty, op):
    m = make_func_module((ty,), (ty,), [
        I("local.get", 0), I(f"{ty}.{op}"), I("end"),
    ])
    (res,) = call(m, [-0.25])[1]
    assert res == 0.0 and math.copysign(1.0, res) == -1.0


# Differential test against numpy on random bit patterns. numpy's
# float32 and float64 arithmetic is IEEE single and double precision with
# round-to-nearest-even, which is what Wasm specifies.
_NP_FLOAT = {"f32": np.float32, "f64": np.float64}
_NP_UINT = {"i32": np.uint32, "i64": np.uint64,
            "f32": np.uint32, "f64": np.uint64}


def _wasm_min(a, b):
    if a == b == 0:  # Wasm orders -0 below +0
        return a if np.signbit(a) else b
    return np.minimum(a, b)


def _wasm_max(a, b):
    if a == b == 0:
        return b if np.signbit(a) else a
    return np.maximum(a, b)


def _float_cases():
    """export name -> (param types, result type, numpy reference)."""
    binary = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
              "div": np.divide, "min": _wasm_min, "max": _wasm_max,
              "copysign": np.copysign}
    unary = {"ceil": np.ceil, "floor": np.floor, "trunc": np.trunc,
             "nearest": np.rint, "sqrt": np.sqrt, "neg": np.negative,
             "abs": np.abs}
    compare = {"eq": np.equal, "ne": np.not_equal, "lt": np.less,
               "gt": np.greater, "le": np.less_equal,
               "ge": np.greater_equal}
    cases = {}
    for ty, np_t in _NP_FLOAT.items():
        for name, ref in binary.items():
            cases[f"{ty}.{name}"] = ((ty, ty), ty, ref)
        for name, ref in unary.items():
            cases[f"{ty}.{name}"] = ((ty,), ty, ref)
        for name, ref in compare.items():
            cases[f"{ty}.{name}"] = ((ty, ty), "i32", ref)
        for it, np_s in (("i32", np.int32), ("i64", np.int64)):
            cases[f"{ty}.convert_{it}_s"] = (
                (it,), ty, lambda a, s=np_s, t=np_t: t(a.view(s)))
            cases[f"{ty}.convert_{it}_u"] = ((it,), ty, np_t)
    cases["f32.demote_f64"] = (("f64",), "f32", np.float32)
    cases["f64.promote_f32"] = (("f32",), "f64", np.float64)
    return cases


FLOAT_CASES = _float_cases()


@functools.cache
def _float_ops_instance():
    """One module exporting every case of FLOAT_CASES; floats cross the
    boundary as bits, through reinterpret."""
    m = ModuleIR()
    for name, (params, res, _) in FLOAT_CASES.items():
        body = []
        for k, p in enumerate(params):
            body.append(I("local.get", k))
            if p in INT_OF:
                body.append(I(f"{p}.reinterpret_{INT_OF[p]}"))
        body.append(I(name))
        if res in INT_OF:
            body.append(I(f"{INT_OF[res]}.reinterpret_{res}"))
        ti = m.add_type(FuncType(
            tuple(INT_OF.get(p, p) for p in params), (INT_OF.get(res, res),)
        ))
        m.exports.append(Export(name, "func", len(m.functions)))
        m.functions.append(FunctionIR(ti, [], body + [I("end")]))
    eng = Engine(m)
    return eng, eng.instantiate()


def _bits_strategy(ty):
    if ty in INT_OF:
        width = 32 if ty == "f32" else 64
        return st.one_of(
            st.integers(0, (1 << width) - 1),
            st.floats(width=width).map(
                lambda x: int(_NP_FLOAT[ty](x).view(_NP_UINT[ty]))),
        )
    return st.integers(0, M32 if ty == "i32" else M64)


@pytest.mark.parametrize("name", sorted(FLOAT_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_float_ops_match_numpy(name, data):
    params, res, ref = FLOAT_CASES[name]
    args = [data.draw(_bits_strategy(p), label=p) for p in params]
    eng, inst = _float_ops_instance()
    out, got = eng.call_export(inst, name, args)
    assert out.status == "exit"
    with np.errstate(all="ignore"):
        want = ref(*(
            _NP_UINT[p](a).view(_NP_FLOAT.get(p, _NP_UINT[p]))
            for p, a in zip(params, args)
        ))
    if res == "i32":
        assert got == [int(want)]
    elif np.isnan(want):
        assert np.isnan(_NP_UINT[res](got[0]).view(_NP_FLOAT[res]))
    else:
        assert got == [int(_NP_FLOAT[res](want).view(_NP_UINT[res]))]


# ------------------------------------------------------ zero-fill loops
#
# A loop that zeroes memory eight bytes at a time is the shape a bulk-fill
# fast path would match. From a constant start it must run exactly as the
# same loop from a parameter start, one step at a time.

def _fill_module(start, end, pages, const_start):
    """A zero-fill loop over [start, end), cursor in local 1; returns the
    cursor. With ``const_start`` the loop starts from ``i32.const start``,
    otherwise from param 0 (holding ``start``)."""
    first = I("i32.const", start) if const_start else I("local.get", 0)
    body = [
        first, I("local.set", 1),
        I("loop", None),
        I("local.get", 1), I("i64.const", 0), I("i64.store", 3, 0),
        I("local.get", 1), I("i32.const", 8), I("i32.add"),
        I("local.tee", 1), I("i32.const", end), I("i32.lt_u"),
        I("br_if", 0),
        I("end"),
        I("local.get", 1),
        I("end"),
    ]
    m = make_func_module(("i32",), ("i32",), body, ("i32",), pages)
    lo = max(start - 8, 0)
    m.data_segments.append(
        DataSegment([I("i32.const", lo)], b"\xff" * (pages * 65536 - lo))
    )
    return m


@pytest.mark.parametrize("start,end,fuel", [
    (1024, 2048, 100_000),   # in bounds
    (1024, 2048, 1413),      # exactly enough fuel for the whole loop
    (1024, 2048, 1412),      # one instruction short
    (1024, 2048, 500),       # fuel runs out part way
    (65000, 65600, 100_000), # the loop runs off the end of memory
])
def test_fill_peephole_matches_the_step_path(start, end, fuel):
    runs = []
    for const_start in (True, False):
        eng = Engine(_fill_module(start, end, 1, const_start))
        inst = eng.instantiate()
        out, res = eng.call_export(inst, "f", [start], RunLimits(fuel=fuel))
        runs.append((out, res, bytes(inst.memory)))
    assert runs[0] == runs[1]
    out, res, mem = runs[0]
    if end > 65536:
        assert out.trap_kind == MEM_OOB and out.instructions_executed == 743
        assert mem[start:] == bytes(65536 - start)
    elif fuel >= 1413:
        assert out.status == "exit" and res == [end]
        assert out.instructions_executed == 1413
        assert mem[start:end] == bytes(end - start)
    else:
        assert out.status == "fuel-exhausted"
        assert out.instructions_executed == fuel


# ------------------------------------------ branch targets and heights
#
# Each case leaves values below the branch that the branch must cut away,
# or keep, at the height fixed when the body was compiled.

def _caller_and_callee():
    """``f`` leaves 100 and 200 on its stack while it calls a function
    whose block branches with its own values on top."""
    m = ModuleIR()
    callee = m.add_type(FuncType(("i32",), ("i32",)))
    caller = m.add_type(FuncType(("i32",), ("i32",)))
    m.functions.append(FunctionIR(callee, [], [
        I("block", "i32"), I("local.get", 0), I("i32.const", 6), I("br", 0),
        I("end"), I("local.get", 0), I("i32.add"), I("end"),
    ]))
    m.functions.append(FunctionIR(caller, [], [
        I("i32.const", 100), I("i32.const", 200), I("local.get", 0),
        I("call", 0), I("i32.add"), I("i32.add"), I("end"),
    ]))
    m.exports.append(Export("f", "func", 1))
    return m


_OUTER_7_LOOP_AND_BLOCK = [
    I("i32.const", 7),
    I("block", None),
    I("loop", None),
    I("i32.const", 9),  # left below the br_table on every pass
    I("local.get", 0), I("i32.const", 1), I("i32.sub"), I("local.tee", 0),
    I("br_table", (1,), 0),  # 0 leaves the block, anything else loops
    I("end"),
    I("end"),
    I("i32.const", 5), I("i32.add"),
    I("end"),
]

_THEN_ARM_LEAVES_THE_BLOCK = [
    I("block", "i32"),
    I("i32.const", 11),
    I("local.get", 0),
    I("if", "i32"),
    I("i32.const", 22), I("i32.const", 33), I("br", 1),
    I("else"),
    I("i32.const", 44),
    I("end"),
    I("i32.add"),
    I("end"),
    I("i32.const", 1), I("i32.add"),
    I("end"),
]


@pytest.mark.parametrize("body,arg,want,executed", [
    # br keeps its one value, drops 2 and 3 below it, and keeps the outer 1
    ([I("i32.const", 1), I("block", "i32"), I("i32.const", 2),
      I("i32.const", 3), I("i32.const", 4), I("br", 0), I("end"),
      I("i32.add"), I("end")], 0, 1 + 4, 9),
    # br_table to a loop and to a block: each pass drops its 9
    (_OUTER_7_LOOP_AND_BLOCK, 3, 7 + 5, 27),
    # a br_if back edge cuts to the loop's height, above the 40
    ([I("i32.const", 40), I("loop", "i32"), I("local.get", 0),
      I("i32.const", 1), I("i32.sub"), I("local.tee", 0), I("local.get", 0),
      I("br_if", 0), I("end"), I("i32.add"), I("end")], 3, 40, 25),
    # the then-arm branches out of the enclosing block, dropping 11 and 22
    (_THEN_ARM_LEAVES_THE_BLOCK, 1, 33 + 1, 11),
    (_THEN_ARM_LEAVES_THE_BLOCK, 0, 11 + 44 + 1, 11),
])
def test_branch_cuts_the_stack_to_its_static_height(body, arg, want,
                                                    executed):
    m = make_func_module(("i32",), ("i32",), body)
    out, res = call(m, [arg])
    assert out.status == "exit" and res == [want]
    assert out.instructions_executed == executed


def test_branch_height_counts_from_the_callee_frame():
    m = _caller_and_callee()
    out, res = call(m, [7])
    assert out.status == "exit" and res == [100 + 200 + 6 + 7]
    assert out.instructions_executed == 15


def _effect_module(prefix):
    """``f`` runs ``prefix`` above a 1, then a block whose branch keeps 5
    and must drop 1000, then sums what is left: 1 + x + 5, where x is
    what ``prefix`` leaves. A wrong static height after ``prefix`` keeps
    the 1000 or drops x."""
    m = ModuleIR()
    m.memory = (1, None)
    m.table = (1, 1)
    m.types = [FuncType(("i32",), ("i32",)),
               FuncType(("i32", "i32"), ("i32",))]  # type 1: func 1, add
    m.functions.append(FunctionIR(0, [], [
        I("i32.const", 1), *prefix,
        I("block", "i32"), I("i32.const", 1000), I("i32.const", 5),
        I("br", 0), I("end"),
        I("i32.add"), I("i32.add"), I("end"),
    ]))
    m.functions.append(FunctionIR(1, [], [
        I("local.get", 0), I("local.get", 1), I("i32.add"), I("end"),
    ]))
    m.globals.append(Global("i32", True, [I("i32.const", 2)]))
    m.elems.append(ElemSegment([I("i32.const", 0)], [1]))
    m.exports.append(Export("f", "func", 0))
    return m


@pytest.mark.parametrize("prefix,x", [
    ([I("i32.const", 2), I("i32.const", 3), I("drop")], 2),
    ([I("i32.const", 2), I("i32.const", 3), I("i32.const", 1),
      I("select")], 2),
    ([I("local.get", 0)], 2),
    ([I("i32.const", 2), I("i32.const", 3), I("local.set", 0)], 2),
    ([I("i32.const", 2), I("local.tee", 0)], 2),
    ([I("global.get", 0)], 2),
    ([I("i32.const", 2), I("i32.const", 3), I("global.set", 0)], 2),
    ([I("memory.size")], 1),
    ([I("i32.const", 0), I("memory.grow")], 1),
    ([I("i32.const", 2), I("i32.const", 3), I("i32.add")], 5),
    ([I("i32.const", 2), I("i32.const", 0), I("i32.const", 3),
      I("i32.store", 2, 0)], 2),
    ([I("i32.const", 2), I("i32.const", 0), I("br_if", 0)], 2),
    ([I("i32.const", 2), I("i32.const", 3), I("call", 1)], 5),
    ([I("i32.const", 2), I("i32.const", 3), I("i32.const", 0),
      I("call_indirect", 1)], 5),
    ([I("i32.const", 1), I("if", "i32"), I("i32.const", 2), I("else"),
      I("i32.const", 4), I("end")], 2),
    # the else arm starts at the if's height, not the then-arm's
    ([I("i32.const", 0), I("if", "i32"), I("i32.const", 9), I("else"),
      I("i32.const", 7), I("block", "i32"), I("i32.const", 1000),
      I("i32.const", 2), I("br", 0), I("end"), I("i32.add"), I("end")], 9),
])
def test_every_stack_effect_reaches_the_branch_heights(prefix, x):
    out, res = call(_effect_module(prefix), [2])
    assert out.status == "exit" and res == [1 + x + 5]


def test_fill_peephole_reads_the_store_offset():
    # the same loop storing at offset 8 zeroes [start + 8, end + 8)
    m = _fill_module(1024, 2048, 1, True)
    m.functions[0].body[5] = I("i64.store", 3, 8)
    eng = Engine(m)
    inst = eng.instantiate()
    out, res = eng.call_export(inst, "f", [1024])
    assert out.status == "exit" and res == [2048]
    assert out.instructions_executed == 1413
    mem = bytes(inst.memory)
    assert mem[1016:1032] == b"\xff" * 16
    assert mem[1032:2056] == bytes(1024)
    assert mem[2056:2064] == b"\xff" * 8
