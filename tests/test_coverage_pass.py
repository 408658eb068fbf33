import hashlib
import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import modbuild
from test_runs import NO_SHRINK, generated_module
from wasmwarden import (
    Engine,
    WasiConfig,
    encode_module,
    parse_module,
    validate_module,
)
from wasmwarden.fuzz import FuzzConfig, Fuzzer
from wasmwarden.interp import AccessorMissing, AccessorOutOfBounds
from wasmwarden.ir import (
    PAGE,
    Export,
    FuncType,
    FunctionIR,
    Global,
    I,
    ModuleIR,
    add_fresh_local,
    add_global,
)
from wasmwarden.passes import (
    CanaryConfig,
    HeapConfig,
    apply_heap_pass,
    apply_stack_pass,
    collect_sites,
)
from wasmwarden.passes.sites import ORACLE_KINDS
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


@pytest.mark.parametrize("body,sites", [
    # br_if to a loop goes back to its head, which the loop site covers;
    # its end is reached only by falling through
    ([I("loop", None), I("local.get", 0), I("br_if", 0), I("end"),
      I("end")],
     [("entry", 0), ("loop", 0), ("br_if", 2)]),
    # br_table to a loop label only
    ([I("loop", None), I("local.get", 0), I("br_table", (0,), 0),
      I("end"), I("end")],
     [("entry", 0), ("loop", 0)]),
    # br_table to a loop label and to the block around it
    ([I("block", None), I("loop", None), I("local.get", 0),
      I("br_table", (0,), 1), I("end"), I("end"), I("end")],
     [("entry", 0), ("loop", 1), ("end", 5)]),
    # a block target is still marked
    ([I("block", None), I("local.get", 0), I("br_if", 0), I("end"),
      I("end")],
     [("entry", 0), ("br_if", 2), ("end", 3)]),
    # and so is an if target
    ([I("local.get", 0), I("if", None), I("local.get", 0), I("br_if", 0),
      I("end"), I("end")],
     [("entry", 0), ("if", 1), ("br_if", 3), ("end", 4)]),
])
def test_only_block_and_if_labels_mark_their_end(body, sites):
    f = FunctionIR(0, ["i32"], body)
    assert [(s.site_kind, s.position) for s in mark_branch_sites(f)] == sites


def test_shim_is_eleven_instructions_updating_the_edge_counter():
    base = 3 * MAP_SIZE
    shim = emit_coverage_shim(0x40, prev_global=1, trace_base=base,
                              scratch_local=0)
    assert len(shim) == 11
    assert shim[0] == I("i32.const", base | 0x40)
    assert shim[0].site.id == 0x40
    assert shim[-2] == I("i32.const", 0x20)  # prev = cur >> 1
    assert shim[-1] == I("global.set", 1)


def test_short_shim_counts_a_known_edge_at_a_constant_address():
    base = 3 * MAP_SIZE
    shim = emit_coverage_shim(0x40, prev_global=1, trace_base=base,
                              scratch_local=0, prev=0x12)
    assert [i.op for i in shim] == [
        "i32.const", "i32.const", "i32.load8_u", "i32.const", "i32.add",
        "i32.store8", "i32.const", "global.set"]
    assert shim[0] == shim[1] == I("i32.const", base | (0x40 ^ 0x12))
    assert shim[0].args is shim[1].args  # built once, used twice
    assert shim[0].site.id == 0x40 and shim[1].site is None
    assert shim[-2:] == [I("i32.const", 0x20), I("global.set", 1)]


# (kind, prev_site, update_seen) of each site
@pytest.mark.parametrize("body,imports,sites", [
    # a br_if to the function's label returns, which reads the entry's
    # update; the br_if knows it
    ([I("local.get", 0), I("br_if", 0), I("end")], 0,
     [("entry", None, True), ("br_if", 0, True)]),
    # a check whose fall-through traps: no one sees the br_if's update,
    # and only the branch reaches the end, where the entry's is known;
    # the end's own update is the one the exit reads
    ([I("block", None), I("local.get", 0), I("br_if", 0), I("unreachable"),
      I("end"), I("nop"), I("end")], 0,
     [("entry", None, False), ("br_if", 0, False), ("end", 0, True)]),
    # a call to a defined function reads the previous location and
    # leaves it unknown; a host call does neither
    ([I("call", 1), I("local.get", 0), I("if", None), I("end"), I("end")],
     0, [("entry", None, True), ("if", None, True)]),
    ([I("call", 1), I("local.get", 0), I("if", None), I("end"), I("end")],
     2, [("entry", None, True), ("if", 0, True)]),
    # arms that disagree meet at an end, whose full shim reads them all;
    # no one reads the entry's update past the if and else shims
    ([I("local.get", 0), I("if", None), I("local.get", 0), I("br_if", 0),
      I("else"), I("end"), I("end")], 0,
     [("entry", None, False), ("if", 0, True), ("br_if", 1, True),
      ("else", 0, True), ("end", None, True)]),
    # a loop head is never known; the branch back reads what the br_if
    # brings
    ([I("loop", None), I("local.get", 0), I("br_if", 0), I("end"),
      I("end")], 0,
     [("entry", None, True), ("loop", None, True), ("br_if", 1, True)]),
    # a path after br_table adds nothing to the inner end, which the
    # entry reaches alone; the outer end joins it with the branch
    ([I("block", None), I("block", None), I("local.get", 0),
      I("br_table", (0,), 1), I("end"), I("end"), I("end")], 0,
     [("entry", None, True), ("end", 0, True), ("end", None, True)]),
])
def test_the_walk_finds_known_locations_and_unseen_updates(body, imports,
                                                            sites):
    f = FunctionIR(0, ["i32"], body)
    assert [(s.site_kind, s.prev_site, s.update_seen)
            for s in mark_branch_sites(f, imports)] == sites


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


def test_fuzzer_refuses_a_map_past_end_of_memory_before_any_file(tmp_path):
    out = tmp_path / "campaign"
    m = _with_accessor([I("i32.const", 2 * MAP_SIZE), I("end")])
    with pytest.raises(AccessorOutOfBounds):
        Fuzzer(m, None, FuzzConfig(out_dir=out))
    assert not out.exists()


def test_read_trace_bits_is_a_read_only_view_of_instance_memory():
    eng = Engine(_with_accessor([I("i32.const", MAP_SIZE), I("end")]))
    inst = eng.instantiate()
    trace = eng.read_trace_bits(inst)
    assert trace.obj is inst.memory
    assert trace.readonly and trace.nbytes == MAP_SIZE
    with pytest.raises(TypeError):
        trace[0] = 1
    # no copy: a later write to the instance shows through
    inst.memory[MAP_SIZE + 9] = 5
    assert trace[9] == 5


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


def _triples(m: ModuleIR) -> list[tuple]:
    """(op, args, site) of every instruction of ``m``, in order."""
    exprs = ([f.body for f in m.functions] + [g.init for g in m.globals]
             + [e.offset for e in m.elems]
             + [d.offset for d in m.data_segments])
    return [(i.op, i.args, i.site) for expr in exprs for i in expr]


@pytest.mark.parametrize("make", [
    lambda: parse_module(encode_module(modbuild.victim_module())),
    modbuild.heap_victim_module,
], ids=["parsed-victim", "heap-victim"])
def test_passes_leave_the_instructions_of_their_input_unchanged(make):
    """``Instr`` is not frozen, and ``ModuleIR.copy()`` shares instructions
    between a pass's input and output: no pass may change one in place."""
    m = make()
    stages = [(m, _triples(m))]
    for apply in (lambda m: apply_heap_pass(m, HeapConfig(rng_seed=1)),
                  lambda m: apply_stack_pass(m, CanaryConfig(rng_seed=1)),
                  lambda m: apply_coverage_pass(m, rng_seed=3)):
        m, _ = apply(m)
        stages.append((m, _triples(m)))
    assert any(site for _, _, site in stages[-1][1])
    for module, triples in stages:
        assert _triples(module) == triples


@pytest.mark.parametrize("make", [
    modbuild.victim_module, modbuild.heap_victim_module,
    modbuild.branchy_module,
])
def test_every_shim_is_emit_coverage_shim_sharing_its_fixed_part(make):
    """Each shim is ``emit_coverage_shim``'s full form, or its short form
    at the previous location that the walk derives, less the update of
    that location where no reader sees it."""
    m, _ = apply_heap_pass(make(), HeapConfig(rng_seed=1))
    m, _ = apply_stack_pass(m, CanaryConfig(rng_seed=1))
    out, _ = apply_coverage_pass(m, rng_seed=3)
    prev_global = out.num_globals - 1
    trace_base = m.memory[0] * PAGE
    short_forms = 0
    for f, g in zip(m.functions, out.functions):
        scratch = len(out.types[g.type_idx].params) + len(g.locals) - 1
        offsets = [off for off, instr in enumerate(g.body)
                   if instr.site and instr.site.kind.startswith("cov")]
        sites = mark_branch_sites(f, m.num_imported_funcs)
        assert len(offsets) == len(sites)
        ids = [g.body[off].site.id for off in offsets]
        full, short = [], []
        for site, off, cur in zip(sites, offsets, ids):
            prev = None if site.prev_site is None else ids[site.prev_site] >> 1
            want = emit_coverage_shim(cur, prev_global, trace_base, scratch,
                                      site.site_kind, prev)
            if not site.update_seen:
                want = want[:-2]
            shim = g.body[off:off + len(want)]
            assert ([(i.op, i.args, i.site) for i in shim]
                    == [(i.op, i.args, i.site) for i in want])
            (full if prev is None else short).append(shim)
        # what does not depend on the site is one object per function: a
        # full shim's eight ops after its constant, among them the load,
        # add and store of every short shim, and the global.set
        for k in range(1, 9):
            assert len({id(shim[k]) for shim in full}) == 1
        for shim in short:
            assert [id(i) for i in shim[2:6]] == [id(i) for i in full[0][5:9]]
        updates = {id(shim[-1]) for shim in full + short
                   if shim[-1].op == "global.set"}
        assert len(updates) == 1
        short_forms += len(short)
    assert short_forms


def full_form_pass(m: ModuleIR, rng_seed: int) -> ModuleIR:
    """``apply_coverage_pass``'s module with ``emit_coverage_shim``'s full
    form at every site, from the same draws: the reference for the
    shims that know the previous location or leave out its update."""
    out = m.copy()
    rng = random.Random(rng_seed)
    pages, most = out.memory
    trace_base = pages * PAGE
    out.memory = (pages + 1, None if most is None else most + 1)
    prev_global = add_global(out, "i32", True, [I("i32.const", 0)])
    for f in out.functions:
        scratch = add_fresh_local(out, f, "i32")
        body, done = [], 0
        for site in mark_branch_sites(f):
            if site.site_kind != "entry":
                body += f.body[done:site.position + 1]
                done = site.position + 1
            body += emit_coverage_shim(rng.randrange(MAP_SIZE), prev_global,
                                       trace_base, scratch, site.site_kind)
        f.body = body + f.body[done:]
    accessor_type = out.add_type(FuncType((), ("i32",)))
    out.functions.append(FunctionIR(
        accessor_type, [], [I("i32.const", trace_base), I("end")]))
    out.exports.append(Export(ACCESSOR_NAME, "func", out.num_funcs - 1))
    return out


def observed(m: ModuleIR, inputs, export=None, args=()) -> list[tuple]:
    """Status, exit code, trap kind, stdout and trace map of each run of
    ``m``: ``_start`` on each input, or ``export`` called with ``args``."""
    eng, seen = Engine(m), []
    for data in inputs:
        inst = eng.instantiate(WasiConfig(stdin=data))
        if export is None:
            out = eng.run_start(inst)
        else:
            out, _ = eng.call_export(inst, export, list(args))
        seen.append((out.status, out.exit_code, out.trap_kind, out.stdout,
                     bytes(eng.read_trace_bits(inst))))
    return seen


def _perfbench_targets():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "targets.py"
    spec = importlib.util.spec_from_file_location("perfbench_targets", path)
    targets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(targets)
    return targets


def _equivalence_cases():
    """(name, module, inputs): the corpus, plain and with canaries, and the
    benchmark's two targets with canaries, each on its own inputs and on
    random ones."""
    rng = random.Random(25)
    cases = []
    for name, m, inputs in modbuild.corpus():
        cases.append((name, m, inputs))
        cases.append((f"{name}-canaries", _canaries(m), inputs))
    targets = _perfbench_targets()
    noise = [rng.randbytes(rng.randrange(33)) for _ in range(16)]
    cases.append(("victim", _canaries(targets.victim_module()),
                  [b"", b"A" * 16, b"4", b"42", b"42" + b"A" * 14,
                   b"42" + b"B" * 30, *noise]))
    cases.append(("instrument", _canaries(targets.big_module(2021)),
                  [bytes(range(16)), *noise]))
    return cases


def _canaries(m: ModuleIR) -> ModuleIR:
    m, _ = apply_heap_pass(m, HeapConfig(rng_seed=1))
    m, _ = apply_stack_pass(m, CanaryConfig(rng_seed=1))
    return m


def test_short_shims_count_what_full_shims_count():
    runs = 0
    for name, m, inputs in _equivalence_cases():
        out, _ = apply_coverage_pass(m, rng_seed=3)
        ref = full_form_pass(m, rng_seed=3)
        got, want = observed(out, inputs), observed(ref, inputs)
        assert got == want, name
        assert any(any(bits) for *_, bits in got), name
        runs += len(inputs)
    assert runs >= 200


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(st.data(), st.integers(0, 2**32))
def test_short_shims_count_what_full_shims_count_on_generated_bodies(
        data, seed):
    m, args = generated_module(data)
    out, _ = apply_coverage_pass(m, rng_seed=seed)
    ref = full_form_pass(m, rng_seed=seed)
    assert (observed(out, [b""], "f", args)
            == observed(ref, [b""], "f", args))


# SHA-256 of the encoded module and of the oracle sites' JSON. Taken when
# shims came to know the previous location and to leave out unseen
# updates, which changed the bytes and the oracle offsets by design; the
# equivalence tests above check that the traces did not change
GOLDEN = {
    "victim_module": (
        "7a98a47ef45d449f9ef85d342e94713895e68b91ad1e68a0c70643819403c394",
        "90a2b769f3e258539f09e6be59e090a7e31fbb26b969dd11099493887f10dc5e"),
    "heap_victim_module": (
        "92ff746ffe9ce040b2ea90a9cdffee2cba2cb4a0a30a37dd66cffb570c3e5883",
        "f9adaa32966f813a6378c4fbd361178acfb770de038f8195e638b125af7ddb37"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_instrumented_victims_keep_their_bytes_and_sites(name):
    built = getattr(modbuild, name)()
    m = modbuild.hardened(parse_module(encode_module(built)))
    assert validate_module(m).ok
    sites = collect_sites(m).by_kind(*ORACLE_KINDS).to_json()
    assert (hashlib.sha256(encode_module(m)).hexdigest(),
            hashlib.sha256(sites.encode()).hexdigest()) == GOLDEN[name]
