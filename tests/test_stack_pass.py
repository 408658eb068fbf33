import random

import pytest

import modbuild
from wasmwarden import (
    Engine,
    WasiConfig,
    classify_crash,
    encode_module,
    validate_module,
)
from wasmwarden.ir import FuncType, FunctionIR, Global, I, ModuleIR
from wasmwarden.passes.stack_canary import (
    FRAME_RESERVE,
    CanaryConfig,
    SpGlobalMissing,
    apply_stack_pass,
    emit_inject_canary,
    emit_validate_canary,
    instrument_function_stack,
)

CFG = CanaryConfig(sp_global=0, rng_seed=1)


# a write of the stack pointer marks a function as opening a frame
FRAME = [I("global.get", 0), I("global.set", 0)]


def _mod_with_body(body, results=(), locals_=()):
    m = ModuleIR()
    m.memory = (1, None)
    m.globals.append(Global("i32", True, [I("i32.const", 4096)]))
    ti = m.add_type(FuncType((), tuple(results)))
    m.functions.append(FunctionIR(ti, list(locals_), list(body)))
    return m


def test_inject_sequence_exact():
    got = emit_inject_canary(CFG, 0xDEAD)
    assert got == [
        I("global.get", 0),
        I("i32.const", FRAME_RESERVE),
        I("i32.sub"),
        I("global.set", 0),
        I("global.get", 0),
        I("i64.const", 0xDEAD),
        I("i64.store", 3, 0),
    ]


def test_validate_sequence_exact():
    got = emit_validate_canary(CFG, 0xDEAD)
    assert got == [
        I("block", None),
        I("global.get", 0),
        I("i64.load", 3, 0),
        I("i64.const", 0xDEAD),
        I("i64.eq"),
        I("br_if", 0),
        I("unreachable"),
        I("end"),
        I("global.get", 0),
        I("i32.const", FRAME_RESERVE),
        I("i32.add"),
        I("global.set", 0),
        I("return"),
    ]


def test_canary_stored_as_signed_leb_compatible_value():
    big = 0xFFFFFFFFFFFFFFFF
    got = emit_inject_canary(CFG, big)
    assert got[5] == I("i64.const", -1)


def test_return_rewritten_to_branch_at_top_level():
    f = FunctionIR(0, [], [I("return"), I("end")])
    out = instrument_function_stack(f, None, CFG, 0xAA)
    inner = out.body[7:-15]  # between preamble+block and end+postamble
    assert inner[0] == I("block", None)
    assert inner[1] == I("br", 0)


def test_return_rewritten_inside_nested_block():
    f = FunctionIR(0, [], [I("block", None), I("return"), I("end"),
                           I("end")])
    out = instrument_function_stack(f, None, CFG, 0xAA)
    body = out.body
    idx = body.index(I("block", None), 8)  # the original inner block
    assert body[idx + 1] == I("br", 1)


def test_exactly_one_exit_check_per_function():
    m = _mod_with_body(FRAME + [I("return"), I("nop"), I("return"),
                                I("end")])
    out, sites = apply_stack_pass(m, CFG)
    body = out.functions[0].body
    assert sum(1 for i in body if i.op == "unreachable") == 1
    assert sum(1 for i in body if i.op == "i64.load") == 1
    assert len(sites) == 1


def test_instrumented_functions_validate():
    for results in ((), ("i32",), ("f64",)):
        body = ([I("i32.const", 3), I("return"), I("end")]
                if results == ("i32",) else
                [I("f64.const", 0), I("return"), I("end")]
                if results else [I("return"), I("end")])
        m = _mod_with_body(body, results)
        out, _ = apply_stack_pass(m, CFG)
        rep = validate_module(out)
        assert rep.ok, rep


def test_sp_global_must_exist_and_be_mutable_i32():
    m = _mod_with_body([I("end")])
    with pytest.raises(SpGlobalMissing):
        apply_stack_pass(m, CanaryConfig(sp_global=5))
    m.globals[0] = Global("i32", False, [I("i32.const", 0)])
    with pytest.raises(SpGlobalMissing):
        apply_stack_pass(m, CFG)
    m.globals[0] = Global("i64", True, [I("i64.const", 0)])
    with pytest.raises(SpGlobalMissing):
        apply_stack_pass(m, CFG)


def test_seeded_canaries_are_reproducible():
    m = _mod_with_body(FRAME + [I("end")])
    a, _ = apply_stack_pass(m, CanaryConfig(rng_seed=9))
    b, _ = apply_stack_pass(m, CanaryConfig(rng_seed=9))
    c, _ = apply_stack_pass(m, CanaryConfig(rng_seed=10))
    assert a == b
    assert a != c


def test_per_function_canaries_differ():
    m = _mod_with_body(FRAME + [I("end")])
    m.functions.append(FunctionIR(m.functions[0].type_idx, [],
                                  FRAME + [I("end")]))
    out, sites = apply_stack_pass(m, CanaryConfig(rng_seed=1))
    ids = [s.id for s in sites]
    assert len(ids) == 2 and ids[0] != ids[1]


def test_function_without_a_frame_is_left_unchanged():
    body = [I("global.get", 0), I("drop"), I("i32.const", 7), I("return"),
            I("end")]
    m = _mod_with_body(body, ("i32",), ("i32",))
    out, sites = apply_stack_pass(m, CanaryConfig(rng_seed=3))
    assert out == m and len(sites) == 0
    assert encode_module(out) == encode_module(m)


@pytest.mark.parametrize("sp,written,framed", [
    (0, 0, True), (0, 1, False), (1, 1, True), (1, 0, False),
])
def test_only_a_write_of_the_stack_pointer_opens_a_frame(sp, written,
                                                         framed):
    m = _mod_with_body([I("global.get", written), I("global.set", written),
                        I("end")])
    m.globals.append(Global("i32", True, [I("i32.const", 0)]))
    out, sites = apply_stack_pass(m, CanaryConfig(sp_global=sp, rng_seed=1))
    assert len(sites) == int(framed)
    assert (out.functions[0] == m.functions[0]) == (not framed)


def test_frame_function_keeps_its_draw_after_one_without_a_frame():
    m = _mod_with_body([I("end")])
    m.functions.append(FunctionIR(m.functions[0].type_idx, [],
                                  FRAME + [I("end")]))
    out, sites = apply_stack_pass(m, CanaryConfig(rng_seed=21))
    rng = random.Random(21)
    rng.getrandbits(64)  # the frameless function's draw goes unused
    assert [s.id for s in sites] == [rng.getrandbits(64)]
    assert out.functions[0] == m.functions[0]
    assert out.functions[1] != m.functions[1]


def test_overflow_victim_traps_only_when_hardened():
    plain = Engine(modbuild.victim_module())
    inst = plain.instantiate(WasiConfig(stdin=b"42" + b"A" * 21))
    out = plain.run_start(inst)
    assert out.status == "exit"

    m, sites = apply_stack_pass(modbuild.victim_module(),
                                CanaryConfig(rng_seed=1))
    hard = Engine(m)
    inst = hard.instantiate(WasiConfig(stdin=b"42" + b"A" * 21))
    out = hard.run_start(inst)
    assert out.status == "trap"
    crash = classify_crash(out, sites)
    assert crash.kind == "stack-canary"


def test_minimum_clobber_length_is_nine_bytes():
    m, sites = apply_stack_pass(modbuild.victim_module(),
                                CanaryConfig(rng_seed=1))
    eng = Engine(m)
    for n, expect_trap in ((8, False), (9, True)):
        inst = eng.instantiate(WasiConfig(stdin=b"42" + b"A" * (n - 2)))
        out = eng.run_start(inst)
        assert (out.status == "trap") == expect_trap, n


def test_benign_inputs_unaffected():
    m, _ = apply_stack_pass(modbuild.victim_module(), CanaryConfig(rng_seed=1))
    eng = Engine(m)
    for data in (b"", b"zz", b"4x", b"42", b"hello world"):
        inst = eng.instantiate(WasiConfig(stdin=data))
        assert eng.run_start(inst).status == "exit"
