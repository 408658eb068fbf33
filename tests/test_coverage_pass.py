import pytest

import modbuild
from wasmwarden import (
    Engine,
    WasiConfig,
    encode_module,
    parse_module,
    validate_module,
)
from wasmwarden.interp import AccessorMissing, AccessorOutOfBounds
from wasmwarden.ir import Export, FuncType, FunctionIR, Global, I, ModuleIR
from wasmwarden.passes.coverage import (
    ACCESSOR_NAME,
    MAP_SIZE,
    NoMemory,
    apply_coverage_pass,
    emit_coverage_shim,
    mark_branch_sites,
)


def kinds(f):
    return [s.site_kind for s in mark_branch_sites(f)]


def test_straight_line_body_gets_only_the_entry_site():
    f = FunctionIR(0, [], [I("nop"), I("end")])
    assert kinds(f) == ["entry"]


def test_terminal_end_is_never_a_site():
    f = FunctionIR(0, [], [I("br", 0), I("end")])
    assert kinds(f) == ["entry"]


def test_br_if_marks_site_and_target_end():
    f = FunctionIR(0, [], [
        I("block", None), I("block", None),
        I("i32.const", 1), I("br_if", 1),
        I("end"), I("end"), I("end"),
    ])
    sites = mark_branch_sites(f)
    assert [s.site_kind for s in sites] == ["entry", "br_if", "end"]
    # the marked end is the *outer* block's (branch depth 1)
    assert sites[2].position == 5


def test_if_else_loop_openers_marked():
    f = FunctionIR(0, [], [
        I("i32.const", 1),
        I("if", None), I("nop"), I("else"), I("nop"), I("end"),
        I("loop", None), I("end"),
        I("end"),
    ])
    assert kinds(f) == ["entry", "if", "else", "loop"]


def test_br_table_targets_marked_via_their_ends():
    f = FunctionIR(0, [], [
        I("block", None), I("block", None),
        I("i32.const", 0),
        I("br_table", (0,), 1),
        I("end"), I("end"), I("end"),
    ])
    sites = mark_branch_sites(f)
    assert [s.site_kind for s in sites] == ["entry", "end", "end"]
    assert [s.position for s in sites[1:]] == [4, 5]


def test_shim_is_eleven_instructions_updating_the_edge_counter():
    base = 3 * MAP_SIZE
    shim = emit_coverage_shim(0x40, prev_global=1, trace_base=base,
                              scratch_local=0)
    assert len(shim) == 11
    assert shim[0] == I("i32.const", base | 0x40)
    assert shim[0].site.id == 0x40
    assert shim[-2] == I("i32.const", 0x20)  # prev = cur >> 1
    assert shim[-1] == I("global.set", 1)


def test_shim_arithmetic_in_memory():
    """cur=0x40 with prev=0x12 bumps trace[0x40 ^ 0x12] and shifts prev."""
    m = ModuleIR()
    m.memory = (2, None)
    m.globals.append(Global("i32", True, [I("i32.const", 0x12)]))  # prev
    ti = m.add_type(FuncType((), ()))
    body = emit_coverage_shim(0x40, prev_global=0, trace_base=65536,
                              scratch_local=0) + [I("end")]
    m.functions.append(FunctionIR(ti, ["i32"], body))
    m.exports.append(Export("f", "func", 0))
    assert validate_module(m).ok
    eng = Engine(m)
    inst = eng.instantiate()
    eng.call_export(inst, "f", [])
    assert inst.memory[65536 + (0x40 ^ 0x12)] == 1
    assert inst.globals[0] == 0x40 >> 1
    eng.call_export(inst, "f", [])  # counter saturating is not modelled;
    assert inst.memory[65536 + (0x40 ^ 0x20)] == 1


def test_memory_grows_by_one_page_and_base_points_at_old_end():
    m = modbuild.echo_module()
    assert m.memory == (2, None)
    out, _ = apply_coverage_pass(m, rng_seed=5)
    assert out.memory == (3, None)
    eng = Engine(out)
    inst = eng.instantiate()
    _, (base,) = eng.call_export(inst, ACCESSOR_NAME, [])
    assert base == 2 * 65536


def test_max_limit_also_grows():
    m = modbuild.echo_module()
    m.memory = (2, 2)
    out, _ = apply_coverage_pass(m, rng_seed=5)
    assert out.memory == (3, 3)


def test_accessor_exported_and_not_instrumented():
    m, _ = apply_coverage_pass(modbuild.echo_module(), rng_seed=5)
    exp = m.export_map()[ACCESSOR_NAME]
    accessor = m.defined_func(exp.index)
    assert m.types[accessor.type_idx] == FuncType((), ("i32",))
    assert accessor.body == [I("i32.const", 2 * MAP_SIZE), I("end")]


def test_pass_adds_only_the_previous_location_global():
    m = modbuild.echo_module()
    out, _ = apply_coverage_pass(m, rng_seed=5)
    assert len(out.globals) == len(m.globals) + 1
    assert out.globals[-1] == Global("i32", True, [I("i32.const", 0)])


def test_trace_base_past_two_gib_encodes_as_a_signed_constant():
    """A 32768-page memory puts the map at 2**31, which an i32.const
    immediate holds only in its negative form. Not instantiated: the
    memory would take 2 GiB."""
    m = modbuild.echo_module()
    m.memory = (32768, None)
    out, _ = apply_coverage_pass(m, rng_seed=5)
    assert validate_module(out).ok
    assert parse_module(encode_module(out)) == out
    accessor = out.defined_func(out.export_map()[ACCESSOR_NAME].index)
    assert accessor.body[0] == I("i32.const", -(1 << 31))


def _with_accessor(body, globals_=()):
    """A two-page module exporting ``body`` as the trace-bits accessor."""
    m = ModuleIR()
    m.memory = (2, None)
    m.globals.extend(globals_)
    ti = m.add_type(FuncType((), ("i32",)))
    m.functions.append(FunctionIR(ti, [], body))
    m.exports.append(Export(ACCESSOR_NAME, "func", 0))
    return m


def test_read_trace_bits_without_accessor_raises_missing():
    m = modbuild.echo_module()
    eng = Engine(m)
    with pytest.raises(AccessorMissing):
        eng.read_trace_bits(eng.instantiate())


def test_read_trace_bits_with_non_constant_accessor_raises_missing():
    g = Global("i32", False, [I("i32.const", MAP_SIZE)])
    eng = Engine(_with_accessor([I("global.get", 0), I("end")], [g]))
    with pytest.raises(AccessorMissing):
        eng.read_trace_bits(eng.instantiate())


def test_read_trace_bits_past_end_of_memory_raises_out_of_bounds():
    eng = Engine(_with_accessor([I("i32.const", 2 * MAP_SIZE), I("end")]))
    with pytest.raises(AccessorOutOfBounds):
        eng.read_trace_bits(eng.instantiate())
    # the last map that fits is read
    eng = Engine(_with_accessor([I("i32.const", MAP_SIZE), I("end")]))
    inst = eng.instantiate()
    inst.memory[MAP_SIZE + 7] = 3
    assert eng.read_trace_bits(inst)[7] == 3


def test_module_without_memory_is_rejected():
    m = ModuleIR()
    ti = m.add_type(FuncType((), ()))
    m.functions.append(FunctionIR(ti, [], [I("end")]))
    with pytest.raises(NoMemory):
        apply_coverage_pass(m)


def test_trace_bits_zeroed_on_every_start():
    m, _ = apply_coverage_pass(modbuild.branchy_module(), rng_seed=5)
    assert validate_module(m).ok
    eng = Engine(m)
    inst = eng.instantiate(WasiConfig(stdin=b"a"))
    eng.run_start(inst)
    t1 = eng.read_trace_bits(inst)
    assert any(t1)
    # a second instance sees a fresh map even though counters differ
    inst2 = eng.instantiate(WasiConfig(stdin=b"a"))
    eng.run_start(inst2)
    assert eng.read_trace_bits(inst2) == t1


def test_branchy_paths_have_distinct_trace_maps():
    m, _ = apply_coverage_pass(modbuild.branchy_module(), rng_seed=5)
    eng = Engine(m)
    maps = []
    for data in (b"a", b"b", b"c", b"zz"):
        inst = eng.instantiate(WasiConfig(stdin=data))
        out = eng.run_start(inst)
        assert out.status == "exit"
        maps.append(eng.read_trace_bits(inst))
    for i in range(len(maps)):
        for j in range(i + 1, len(maps)):
            assert maps[i] != maps[j]


def test_coverage_neutral_for_program_output():
    for name, m, inputs in modbuild.corpus()[:6]:
        plain = Engine(m)
        cov, _ = apply_coverage_pass(m, rng_seed=8)
        hard = Engine(cov)
        for data in inputs:
            a = plain.run_start(plain.instantiate(WasiConfig(stdin=data)))
            b = hard.run_start(hard.instantiate(WasiConfig(stdin=data)))
            assert a.stdout == b.stdout and a.exit_code == b.exit_code, name


def test_module_without_start_validates_and_maps_zero():
    m = modbuild.bump_alloc_module()
    out, _ = apply_coverage_pass(m, rng_seed=5)
    assert validate_module(out).ok
    exports = out.export_map()
    assert exports[ACCESSOR_NAME].kind == "func"
    assert "__fuzzm_init" not in exports
    eng = Engine(out)
    assert eng.read_trace_bits(eng.instantiate()) == bytes(MAP_SIZE)


def test_seeded_site_ids_reproducible():
    a, _ = apply_coverage_pass(modbuild.branchy_module(), rng_seed=11)
    b, _ = apply_coverage_pass(modbuild.branchy_module(), rng_seed=11)
    c, _ = apply_coverage_pass(modbuild.branchy_module(), rng_seed=12)
    assert a == b
    assert a != c
