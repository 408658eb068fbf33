"""End-to-end acceptance gate for the toolkit.

Each test pins one externally stated guarantee: pass validity, semantic
transparency, the two canary oracles, heap layout arithmetic, coverage
fidelity, a full fuzzing campaign on the classic victim, artifact replay,
and the relative instruction-count cost of the passes.
"""

import random
import time

import numpy as np
import pytest

import modbuild
from wasmwarden import (
    Engine,
    RunLimits,
    WasiConfig,
    classify_crash,
    encode_module,
    validate_module,
)
from wasmwarden.cli import EXIT_CRASH, EXIT_OK, main
from wasmwarden.fuzz.bitmap import classify_counts
from wasmwarden.fuzz.engine import FuzzConfig, Fuzzer
from wasmwarden.ir import Export, FuncType, FunctionIR, Global, I, ModuleIR
from wasmwarden.passes import (
    CanaryConfig,
    HeapConfig,
    apply_coverage_pass,
    apply_heap_pass,
    apply_stack_pass,
    collect_sites,
)
from wasmwarden.passes.coverage import MAP_SIZE, emit_coverage_shim
from wasmwarden.passes.heap_canary import INFLATION, USER_OFFSET

FUEL = RunLimits(fuel=10_000_000)


def module_corpus():
    """≥20 distinct modules covering arithmetic, control flow, indirect
    calls, i/o, an allocator, and the overflow victim."""
    mods = [(name, m) for name, m, _ in modbuild.corpus()]
    mods.append(("bump_alloc", modbuild.bump_alloc_module()))
    mods.append(("victim", modbuild.victim_module()))
    return mods


def full_pipeline(m, seed=1):
    m, _ = apply_heap_pass(m, HeapConfig(rng_seed=seed))
    m, _ = apply_stack_pass(m, CanaryConfig(rng_seed=seed))
    m, _ = apply_coverage_pass(m, rng_seed=seed)
    return m


def run_once(m, data):
    eng = Engine(m)
    return eng.run_start(eng.instantiate(WasiConfig(stdin=data)), FUEL)


# -- criterion 1: every pass output validates cleanly -----------------------
def test_instrumented_corpus_validates_clean_and_fast():
    mods = module_corpus()
    assert len(mods) >= 20
    for name, m in mods:
        t0 = time.perf_counter()
        out = full_pipeline(m)
        report = validate_module(out)
        elapsed = time.perf_counter() - t0
        assert report.ok, f"{name}: {report}"
        assert elapsed < 1.0, f"{name}: pipeline took {elapsed:.2f}s"


# -- criterion 2: instrumentation never changes benign behavior -------------
def test_semantics_preserved_on_benign_corpus():
    pairs = 0
    for name, m, inputs in modbuild.corpus():
        hardened = full_pipeline(m)
        for data in inputs:
            plain = run_once(m, data)
            instr = run_once(hardened, data)
            assert instr.stdout == plain.stdout, (name, data)
            assert instr.exit_code == plain.exit_code, (name, data)
            pairs += 1
    assert pairs >= 20


# -- criterion 3: the stack-canary oracle fires, and only when armed --------
def test_stack_overflow_detected_only_with_stack_pass():
    crasher = b"42" + b"A" * 21
    plain = run_once(modbuild.victim_module(), crasher)
    assert plain.status == "exit"

    m, sites = apply_stack_pass(modbuild.victim_module(),
                                CanaryConfig(rng_seed=1))
    out = run_once(m, crasher)
    assert out.status == "trap"
    assert classify_crash(out, sites).kind == "stack-canary"


# -- criteria 4 + 5: heap oracle and chunk layout arithmetic ----------------
@pytest.fixture(scope="module")
def heap_target():
    m, sites = apply_heap_pass(modbuild.bump_alloc_module(),
                               HeapConfig(rng_seed=7))
    assert validate_module(m).ok
    return Engine(m), sites


def test_one_byte_heap_overflow_and_underflow_trap_at_free(heap_target):
    eng, sites = heap_target
    for delta, expected in ((0, "heap-overflow"), (-1, "heap-underflow")):
        inst = eng.instantiate()
        _, (p,) = eng.call_export(inst, "malloc", [24])
        inst.memory[p + (24 if delta == 0 else -1)] ^= 1
        out, _ = eng.call_export(inst, "free", [p])
        assert out.status == "trap"
        assert classify_crash(out, sites).kind == expected


def test_thousand_random_in_bounds_sequences_never_trap(heap_target):
    """Randomized alloc/write/free auditor; every allocation is also
    checked against the documented chunk layout."""
    eng, _ = heap_target
    inst = eng.instantiate()
    rng = random.Random(2024)
    live = []
    for _ in range(1000):
        if rng.random() < 0.6 or not live:
            n = rng.randint(1, 80)
            out, (p,) = eng.call_export(inst, "malloc", [n])
            assert out.status == "exit" and p != 0
            base = p - USER_OFFSET
            size = int.from_bytes(inst.memory[base : base + 4], "little")
            assert size == n  # size field at chunk base
            under = bytes(inst.memory[base + 4 : base + 12])
            over = bytes(inst.memory[p + n : p + n + 8])
            assert under == over != b"\x00" * 8  # canaries bracket payload
            for k in range(n):
                inst.memory[p + k] = rng.randrange(256)
            live.append(p)
        else:
            p = live.pop(rng.randrange(len(live)))
            out, _ = eng.call_export(inst, "free", [p])
            assert out.status == "exit", out.trap_kind


def test_allocation_inflation_is_twenty_with_payload_at_twelve(heap_target):
    eng, _ = heap_target
    inst = eng.instantiate()
    _, (a,) = eng.call_export(inst, "malloc", [16])
    _, (b,) = eng.call_export(inst, "malloc", [16])
    # the bump allocator packs chunks back to back (8-aligned), so the
    # pointer delta exposes the true inflated request size
    assert INFLATION == 20 and USER_OFFSET == 12
    assert b - a == (16 + INFLATION + 7) & ~7


def test_calloc_rewritten_and_overflow_guarded(heap_target):
    eng, _ = heap_target
    inst = eng.instantiate()
    _, (p,) = eng.call_export(inst, "calloc", [6, 9])
    assert p != 0
    size = int.from_bytes(inst.memory[p - 12 : p - 8], "little")
    assert size == 6 * 9  # requested as calloc(1, 74), stored as 54
    out, res = eng.call_export(inst, "calloc", [0x1_0000, 0x1_0000])
    assert out.status == "exit" and res == [0]


# -- criterion 6: coverage fidelity -----------------------------------------
def test_branch_demo_yields_four_distinct_trace_maps():
    m, _ = apply_coverage_pass(modbuild.branchy_module(), rng_seed=11)
    eng = Engine(m)
    maps = []
    for data in (b"a", b"b", b"c", b"z"):
        inst = eng.instantiate(WasiConfig(stdin=data))
        out = eng.run_start(inst, FUEL)
        assert out.status == "exit"
        maps.append(eng.read_trace_bits(inst))
    for i in range(4):
        for j in range(i + 1, 4):
            assert maps[i] != maps[j], (i, j)


def test_bucket_table_matches_reference_on_all_counts():
    def reference(count):
        for hi, bucket in ((0, 0), (1, 1), (2, 2), (3, 4), (7, 8),
                           (15, 16), (31, 32), (127, 64)):
            if count <= hi:
                return bucket
        return 128

    got = classify_counts(bytes(range(256)))
    assert list(got.index) == list(range(32))  # every word holds a count
    buckets = got.words.view(np.uint8)
    assert list(buckets) == [reference(c) for c in range(256)]


def test_edge_index_arithmetic_against_scalar_oracle():
    """Execute the real emitted shims for 1,050 random (cur, prev) pairs
    and compare the touched counter index and the updated previous
    location with a direct scalar computation: the full form reads prev
    from the global, the short form is given it and ignores the global."""
    rng = random.Random(31337)
    curs = [rng.randrange(MAP_SIZE) for _ in range(100)]
    # a short form per (cur, prev), its global set to another value
    known = [(cur, rng.randrange(MAP_SIZE // 2), rng.randrange(MAP_SIZE))
             for cur in curs[:50]]

    m = ModuleIR()
    m.memory = (2, None)
    m.globals.append(Global("i32", True, [I("i32.const", 0)]))  # prev
    ti = m.add_type(FuncType((), ()))
    shims = ([emit_coverage_shim(cur, prev_global=0, trace_base=65536,
                                 scratch_local=0) for cur in curs]
             + [emit_coverage_shim(cur, prev_global=0, trace_base=65536,
                                   scratch_local=0, prev=prev)
                for cur, prev, _ in known])
    for k, shim in enumerate(shims):
        m.functions.append(FunctionIR(ti, ["i32"], shim + [I("end")]))
        m.exports.append(Export(f"shim{k}", "func", k))
    assert validate_module(m).ok

    runs = [(k, cur, rng.randrange(MAP_SIZE), None)
            for k, cur in enumerate(curs) for _ in range(10)]
    runs += [(len(curs) + k, cur, stale, prev)
             for k, (cur, prev, stale) in enumerate(known)]
    eng = Engine(m)
    checked = 0
    for k, cur, global_prev, prev in runs:
        inst = eng.instantiate()
        inst.globals[0] = global_prev
        out, _ = eng.call_export(inst, f"shim{k}", [])
        assert out.status == "exit"
        idx = cur ^ (global_prev if prev is None else prev)
        assert inst.memory[65536 + idx] == 1
        assert sum(inst.memory[65536 : 65536 + MAP_SIZE]) == 1
        assert inst.globals[0] == cur >> 1
        checked += 1
    assert checked == 1050


# -- criteria 7 + 8: end-to-end campaign, then exact replay -----------------
@pytest.fixture(scope="module")
def victim_campaigns(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaigns")
    binary = root / "victim.fuzz.wasm"
    src = root / "victim.wasm"
    src.write_bytes(encode_module(modbuild.victim_module()))
    assert main(["instrument", str(src), "-o", str(binary),
                 "--canary-seed", "1", "--cov-seed", "3"]) == EXIT_OK

    module = modbuild.victim_module()
    module, _ = apply_heap_pass(module, HeapConfig(rng_seed=1))
    module, _ = apply_stack_pass(module, CanaryConfig(rng_seed=1))
    module, _ = apply_coverage_pass(module, rng_seed=3)
    sites = collect_sites(module).by_kind(
        "stack-canary", "heap-underflow", "heap-overflow"
    )

    runs = []
    for seed in range(5):
        cfg = FuzzConfig(
            out_dir=root / f"run_{seed}",
            rng_seed=seed,
            max_execs=500_000,
            max_seconds=600,
            limits=RunLimits(fuel=1_000_000),
            stop_after_crashes=1,
        )
        fz = Fuzzer(module, sites, cfg)
        stats = fz.run([b"A" * 16])
        runs.append((stats, fz, root / f"run_{seed}"))
    return binary, runs


def test_campaigns_find_stack_canary_crash(victim_campaigns):
    _, runs = victim_campaigns
    found = sum(
        1 for stats, _, _ in runs
        if stats.crashes_by_oracle["stack-canary"] >= 1
    )
    assert found >= 4, f"only {found}/5 campaigns found the overflow"
    for stats, fz, _ in runs:
        if fz.crashes:
            assert fz.crashes[0].data.startswith(b"42")
            assert stats.execs <= 500_000


def test_every_artifact_replays_exactly(victim_campaigns, capsys):
    binary, runs = victim_campaigns
    replayed = 0
    for _, _, out_dir in runs:
        for entry in sorted((out_dir / "queue").iterdir()):
            code = main(["run", str(binary), str(entry)])
            err = capsys.readouterr().err
            assert code == EXIT_OK, entry
            assert "oracle=none" in err
            replayed += 1
        for artifact in sorted((out_dir / "crashes").iterdir()):
            oracle = artifact.name.split("_", 2)[2]
            code = main(["run", str(binary), str(artifact)])
            err = capsys.readouterr().err
            assert code == EXIT_CRASH, artifact
            assert f"oracle={oracle}" in err
            replayed += 1
    assert replayed > 0


def test_replay_reproduces_recorded_trap_signature(victim_campaigns):
    _, runs = victim_campaigns
    for _, fz, _ in runs:
        for report in fz.crashes:
            outcome, _ = fz.run_input(report.data)
            assert outcome.status == "trap"
            assert outcome.trap_kind == report.trap_kind
            assert outcome.trap_function == report.trap_function
            assert outcome.trap_offset == report.trap_offset


# -- criterion 9: canaries cost less than coverage --------------------------
def _overhead_ratios(m, inputs):
    """Instruction-count ratios of the hardened and of the covered program
    to the plain one, one pair per input."""
    hardened, _ = apply_stack_pass(m, CanaryConfig(rng_seed=1))
    hardened, _ = apply_heap_pass(hardened, HeapConfig(rng_seed=1))
    covered, _ = apply_coverage_pass(m, rng_seed=1)
    canary_ratios, coverage_ratios = [], []
    for data in inputs:
        base = run_once(m, data).instructions_executed
        canary_ratios.append(run_once(hardened, data).instructions_executed
                             / base)
        coverage_ratios.append(run_once(covered, data).instructions_executed
                               / base)
    return canary_ratios, coverage_ratios


def test_canary_overhead_below_coverage_overhead(capsys):
    canary_ratios, coverage_ratios = [], []
    for name, m, inputs in modbuild.corpus()[:10]:
        can, cov = _overhead_ratios(m, inputs[:2])
        canary_ratios += can
        coverage_ratios += cov

    mean_can = sum(canary_ratios) / len(canary_ratios)
    mean_cov = sum(coverage_ratios) / len(coverage_ratios)
    with capsys.disabled():
        print(
            f"\n[overhead] canaries {mean_can:.2f}x, "
            f"coverage {mean_cov:.2f}x (instruction counts)"
        )
    assert mean_can < mean_cov
    assert all(r >= 1.0 for r in canary_ratios)

    # programs with a linear-memory frame, where the canaries do work
    framed = [(name, m, inputs) for name, m, inputs in modbuild.corpus()
              if any(I("global.set", 0) in f.body for f in m.functions)]
    assert len(framed) >= 3
    for name, m, inputs in framed:
        can, cov = _overhead_ratios(m, inputs)
        mean_can = sum(can) / len(can)
        mean_cov = sum(cov) / len(cov)
        with capsys.disabled():
            print(f"[overhead] {name}: canaries {mean_can:.2f}x, "
                  f"coverage {mean_cov:.2f}x")
        assert 1.0 < mean_can < mean_cov, name
