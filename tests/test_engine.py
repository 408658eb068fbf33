import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import modbuild
import wasmwarden.encoder
import wasmwarden.fuzz.engine as fuzz_engine
from wasmwarden.encoder import encode_module
from wasmwarden.interp import (
    INPUT_PATH,
    AccessorMissing,
    Engine,
    RunLimits,
    WasiConfig,
)
from wasmwarden.parser import parse_module
from wasmwarden.fuzz import mutate as mut
from wasmwarden.fuzz import (
    AllSeedsInvalid,
    FuzzConfig,
    Fuzzer,
    SeedCrashes,
)
from wasmwarden.fuzz.bitmap import MAP_SIZE, NO_NEW, VirginMap, classify_counts
from wasmwarden.fuzz.engine import module_sha256
from wasmwarden.passes import (
    CanaryConfig,
    HeapConfig,
    apply_coverage_pass,
    apply_heap_pass,
    apply_stack_pass,
    collect_sites,
)


def instrumented_victim():
    m = modbuild.victim_module()
    m, _ = apply_stack_pass(m, CanaryConfig(rng_seed=1))
    m, _ = apply_coverage_pass(m, rng_seed=3)
    return m, collect_sites(m).by_kind("stack-canary")


def instrumented_echo():
    m, _ = apply_coverage_pass(modbuild.echo_module(), rng_seed=3)
    return m


def quick_cfg(tmp_path=None, **kw):
    kw.setdefault("limits", RunLimits(fuel=1_000_000))
    return FuzzConfig(out_dir=tmp_path, rng_seed=0, **kw)


def test_no_seeds_is_an_error():
    m, sites = instrumented_victim()
    with pytest.raises(AllSeedsInvalid):
        Fuzzer(m, sites, quick_cfg()).run([])


def test_crashing_seed_is_rejected():
    m, sites = instrumented_victim()
    with pytest.raises(SeedCrashes) as e:
        Fuzzer(m, sites, quick_cfg()).run([b"ok", b"42" + b"A" * 21])
    assert e.value.crashing == [1]


def test_module_without_trace_map_is_refused_before_any_file(tmp_path):
    out = tmp_path / "campaign"
    with pytest.raises(AccessorMissing):
        Fuzzer(modbuild.victim_module(), None, FuzzConfig(out_dir=out))
    assert not out.exists()


def test_run_input_returns_the_trace_in_place():
    m, sites = instrumented_victim()
    fz = Fuzzer(m, sites, quick_cfg())
    _, trace = fz.run_input(b"hello")
    assert isinstance(trace, memoryview) and trace.readonly
    assert isinstance(trace.obj, bytearray) and any(trace)


def test_constant_behavior_program_keeps_one_path():
    m = instrumented_echo()
    # echo's control flow does not depend on input *values*, only length;
    # fixed-length mutations keep a single path class
    cfg = quick_cfg(max_execs=500, skip_deterministic=True)
    fz = Fuzzer(m, None, cfg)
    stats = fz.run([b"AAAA"])
    assert stats.execs == 500
    assert fz.crashes == []
    assert stats.unique_paths <= 3  # length changes may add a couple


def test_victim_campaign_finds_stack_canary_crash(tmp_path):
    m, sites = instrumented_victim()
    cfg = quick_cfg(tmp_path, max_execs=100_000, stop_after_crashes=1)
    fz = Fuzzer(m, sites, cfg)
    stats = fz.run([b"A" * 16])
    assert stats.unique_crashes >= 1
    assert stats.crashes_by_oracle["stack-canary"] >= 1
    assert fz.crashes[0].data.startswith(b"42")


def test_campaign_writes_disk_layout(tmp_path):
    m, sites = instrumented_victim()
    cfg = quick_cfg(tmp_path, max_execs=50_000, stop_after_crashes=1)
    fz = Fuzzer(m, sites, cfg)
    fz.run([b"A" * 16])

    queue = sorted(p.name for p in (tmp_path / "queue").iterdir())
    assert queue[0] == "id_000000"
    assert (tmp_path / "queue" / "id_000000").read_bytes() == b"A" * 16

    crashes = list((tmp_path / "crashes").iterdir())
    assert crashes and crashes[0].name.startswith("id_000000_")
    assert crashes[0].name.endswith("_stack-canary")

    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["unique_crashes"] == len(crashes)
    assert stats["execs"] > 0

    setup = json.loads((tmp_path / "fuzzer_setup.json").read_text())
    assert setup["module_sha256"] == hashlib.sha256(
        encode_module(m)
    ).hexdigest()


def test_campaigns_are_deterministic(tmp_path):
    m, sites = instrumented_victim()
    results = []
    for k in range(2):
        cfg = quick_cfg(tmp_path / str(k), max_execs=30_000,
                        stop_after_crashes=1)
        fz = Fuzzer(m, sites, cfg)
        stats = fz.run([b"A" * 16])
        results.append((stats.execs, [c.data for c in fz.crashes]))
    assert results[0] == results[1]


# what ``stats.json`` holds of the wall clock
WALL_CLOCK = ("execs_per_sec", "elapsed_seconds", "last_new_path_seconds")


def _artifacts(out: Path) -> dict:
    """Every file a campaign left in ``out`` by its path, with
    ``stats.json`` read and its wall-clock fields dropped."""
    found = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in out.rglob("*") if p.is_file()}
    stats = json.loads(found.pop("stats.json"))
    return {**found, "stats.json": {k: v for k, v in stats.items()
                                    if k not in WALL_CLOCK}}


def test_a_campaign_on_shared_code_keeps_what_a_cold_one_keeps(tmp_path,
                                                                code_cache):
    m, sites = instrumented_victim()
    module = parse_module(encode_module(m))
    kept, shared = [], []
    for run in ("cold", "warm"):
        fz = Fuzzer(module, sites, quick_cfg(tmp_path / run,
                                             max_execs=10_000))
        fz.run([b"A" * 16])
        kept.append(_artifacts(tmp_path / run))
        shared.append(dict(code_cache[module.source_sha256]))
    # the warm campaign compiled nothing: it ran the cold one's code
    assert shared[0] and shared[0].keys() == shared[1].keys()
    assert all(shared[1][i] is code for i, code in shared[0].items())
    assert any(name.startswith("crashes/") for name in kept[0])
    assert kept[0] == kept[1]


def test_duplicate_crash_signatures_are_collapsed():
    m, sites = instrumented_victim()
    fz = Fuzzer(m, sites, quick_cfg())
    fz.stats.start_time = 0.0
    fz.add_seeds([b"A" * 16])
    crasher = b"42" + b"A" * 21
    for _ in range(5):
        outcome, trace = fz.run_input(crasher)
        fz._triage(crasher, outcome, trace, parent=0, stage="t")
    assert fz.stats.crashes_total == 5
    assert fz.stats.unique_crashes == 1


# a few counters, some sharing an 8-byte word, and counts in five buckets
_COUNTERS = st.dictionaries(st.sampled_from([0, 1, 7, 8, 4096, MAP_SIZE - 1]),
                            st.sampled_from([1, 2, 3, 5, 200]), max_size=4)
# (counters, kept index, always, one flag per repeat: pass it as a view)
_STEPS = st.lists(st.tuples(_COUNTERS, st.integers(0, 2), st.booleans(),
                            st.lists(st.booleans(), min_size=1, max_size=3)),
                  max_size=24)


@settings(max_examples=60, deadline=None)
@given(_STEPS)
def test_kept_judges_every_trace_as_a_map_that_sees_each_one(steps):
    """``_Kept.keep`` skips a trace equal to the last its map judged; a
    reference that buckets and checks every trace must agree on every id
    and on the bits each map ends with. A view is a read-only slice at an
    offset of one buffer that every view trace overwrites, so a memo that
    kept the view instead of a copy would compare with the wrong bytes."""
    fz = Fuzzer(instrumented_victim()[0], None, quick_cfg())
    kept = [fz._queue, fz._crashes, fz._hangs]
    refs = [[VirginMap(), 0] for _ in kept]
    buf = bytearray(3 * MAP_SIZE)
    off = MAP_SIZE + 8
    for counters, k, always, as_views in steps:
        trace = bytearray(MAP_SIZE)
        for pos, count in counters.items():
            trace[pos] = count
        for as_view in as_views:
            if as_view:
                buf[off: off + MAP_SIZE] = trace
                t = memoryview(buf)[off: off + MAP_SIZE].toreadonly()
            else:
                t = bytes(trace)
            ref = refs[k]
            want = None
            if ref[0].has_new_bits(classify_counts(t)) != NO_NEW or always:
                want, ref[1] = ref[1], ref[1] + 1
            assert kept[k].keep(None, b"", t, always=always) == want
    for kp, (ref_map, next_id) in zip(kept, refs):
        assert (kp.map.seen == ref_map.seen).all()
        assert kp.next_id == next_id


def test_victim_campaign_buckets_only_a_trace_that_changed(monkeypatch):
    """Of 10,000 execs on the victim nearly all leave the trace the one
    before left: such a trace is neither bucketed nor checked."""
    calls = 0
    classify = fuzz_engine.classify_counts

    def counted(trace):
        nonlocal calls
        calls += 1
        return classify(trace)

    monkeypatch.setattr(fuzz_engine, "classify_counts", counted)
    m, sites = instrumented_victim()
    fz = Fuzzer(m, sites, quick_cfg(max_execs=10_000))
    run_input = fz.run_input
    changes = 0
    last = None

    def watched(data):
        nonlocal changes, last
        outcome, trace = run_input(data)
        copy = bytes(trace)
        changes += copy != last
        last = copy
        return outcome, trace

    fz.run_input = watched
    stats = fz.run([b"A" * 16])
    assert stats.execs == 10_000
    assert calls <= changes < 100
    assert [(c.data[:2], c.oracle) for c in fz.crashes] == [
        (b"42", "stack-canary")]


def test_replayed_queue_reestablishes_coverage(tmp_path):
    m, sites = instrumented_victim()
    cfg = quick_cfg(tmp_path, max_execs=30_000, stop_after_crashes=1)
    fz = Fuzzer(m, sites, cfg)
    fz.run([b"A" * 16])
    entries = [p.read_bytes()
               for p in sorted((tmp_path / "queue").iterdir())]

    fz2 = Fuzzer(m, sites, quick_cfg(max_execs=len(entries)))
    fz2.stats.start_time = 0.0
    fz2.add_seeds(entries)
    assert fz2.path_map.edge_count() == fz.path_map.edge_count()


def test_file_input_without_campaign_dir_leaves_cwd_untouched(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    m, sites = instrumented_victim()
    cfg = quick_cfg(max_execs=200, argv=["prog", "@@"])
    fz = Fuzzer(m, sites, cfg)
    argvs = []
    instantiate = fz.engine.instantiate

    def spy(wasi):
        argvs.append(wasi.argv)
        return instantiate(wasi)

    fz.engine.instantiate = spy
    stats = fz.run([b"A" * 16])
    assert stats.execs == 200
    assert list(tmp_path.iterdir()) == []
    # `@@` names stdin, which holds the input; no file is written for it
    assert {tuple(a) for a in argvs} == {("prog", INPUT_PATH)}


def test_file_input_campaign_writes_only_its_artifacts(tmp_path,
                                                       monkeypatch):
    for d in ("cwd", "tmp"):
        (tmp_path / d).mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    m, sites = instrumented_victim()
    out = tmp_path / "campaign"
    cfg = quick_cfg(out, max_execs=200, argv=["prog", "@@"])
    Fuzzer(m, sites, cfg).run([b"A" * 16])
    assert list((tmp_path / "cwd").iterdir()) == []
    assert list((tmp_path / "tmp").iterdir()) == []
    kept = ("queue/", "crashes/", "hangs/", ".state/deterministic_done/")
    for p in out.rglob("*"):
        name = p.relative_to(out).as_posix()
        assert (p.is_dir() or name.startswith(kept)
                or name in ("stats.json", "fuzzer_setup.json")), name


def _resumed_stage_calls(out: Path, budget: int, monkeypatch):
    """Run a victim campaign from ``AAAA`` into ``out`` for ``budget``
    execs, then resume it from its queue. Returns whether entry 0 was
    marked done before the resume, and the (input, stage) of every
    deterministic ``mutate`` call the resumed campaign made."""
    m, sites = instrumented_victim()
    Fuzzer(m, sites, quick_cfg(out, max_execs=budget)).run([b"AAAA"])
    marked = (out / ".state" / "deterministic_done"
              / hashlib.sha256(b"AAAA").hexdigest()).is_file()
    calls = []
    real = mut.mutate

    def spy(data, rng, stage, **kw):
        if stage in mut.DETERMINISTIC_STAGES:
            calls.append((data, stage))
        return real(data, rng, stage, **kw)

    monkeypatch.setattr(mut, "mutate", spy)
    Fuzzer(m, sites, quick_cfg(out, max_execs=budget + 2000)).run([])
    return marked, calls


def test_resume_skips_finished_deterministic_stages(tmp_path, monkeypatch):
    stages = sum(mut.stage_size(b"AAAA", s)
                 for s in mut.DETERMINISTIC_STAGES)
    # the seed's dry run, every stage of entry 0, then some havoc
    marked, calls = _resumed_stage_calls(tmp_path, 1 + stages + 50,
                                         monkeypatch)
    assert marked
    assert not any(data == b"AAAA" for data, _ in calls)
    assert calls  # later entries still run their stages


def test_resume_redoes_interrupted_deterministic_stages(tmp_path,
                                                        monkeypatch):
    marked, calls = _resumed_stage_calls(tmp_path, 20, monkeypatch)
    assert not marked
    assert (b"AAAA", "bitflip") in calls


# ------------------------------------------- the module hash in the setup

def instrumented_alloc():
    """The bump allocator with every pass applied."""
    m, _ = apply_heap_pass(modbuild.bump_alloc_module(use_names=True),
                           HeapConfig(rng_seed=1))
    m, _ = apply_stack_pass(m, CanaryConfig(rng_seed=1))
    m, _ = apply_coverage_pass(m, rng_seed=3)
    return m


def refuse_to_encode(monkeypatch):
    def refuse(m):
        raise AssertionError("the module was encoded")

    monkeypatch.setattr(wasmwarden.encoder, "encode_module", refuse)


@pytest.mark.parametrize("build", [lambda: instrumented_victim()[0],
                                   instrumented_alloc])
def test_parsed_module_is_hashed_without_encoding(build, tmp_path,
                                                  monkeypatch):
    raw = encode_module(build())
    m = parse_module(raw)
    assert encode_module(m) == raw
    expected = hashlib.sha256(encode_module(m)).hexdigest()
    refuse_to_encode(monkeypatch)
    assert module_sha256(m) == expected
    Fuzzer(m, None, quick_cfg(tmp_path))._write_setup()
    setup = json.loads((tmp_path / "fuzzer_setup.json").read_text())
    assert setup["module_sha256"] == expected


def test_built_or_passed_module_is_hashed_by_encoding(monkeypatch):
    built = modbuild.victim_module()
    passed, _ = apply_coverage_pass(parse_module(encode_module(built)),
                                    rng_seed=3)
    real = wasmwarden.encoder.encode_module
    encoded = []

    def spy(m):
        encoded.append(m)
        return real(m)

    # looked up in wasmwarden.encoder on every call
    monkeypatch.setattr(wasmwarden.encoder, "encode_module", spy)
    for m in (built, passed):
        assert module_sha256(m) == hashlib.sha256(real(m)).hexdigest()
    assert [id(m) for m in encoded] == [id(built), id(passed)]


# ------------------------------------------------------------------ hangs

# fuel for a victim run that reads its input and returns; an input that
# starts with "42" runs the copy loop and needs several times more
HANG_FUEL = 100


def hang_cfg(tmp_path=None, **kw):
    return quick_cfg(tmp_path, limits=RunLimits(fuel=HANG_FUEL), **kw)


def test_fuel_budgets_of_the_hang_tests():
    m, _ = instrumented_victim()
    eng = Engine(m)

    def executed(data):
        out = eng.run_start(eng.instantiate(WasiConfig(stdin=data)))
        assert out.status == "exit"
        return out.instructions_executed

    assert executed(b"4AAA") < HANG_FUEL < executed(b"42AA")


def test_hang_is_counted_kept_and_never_queued(tmp_path):
    m, sites = instrumented_victim()
    fz = Fuzzer(m, sites, hang_cfg(tmp_path))
    fz.stats.start_time = 0.0
    fz.add_seeds([b"AAAA"])
    for data in (b"42AA", b"42AA", b"42AB"):
        fz._process(data, 0, "havoc")
    assert len(fz.queue) == 1
    assert (fz.stats.hangs_total, fz.stats.unique_hangs) == (3, 1)
    assert [p.name for p in (tmp_path / "hangs").iterdir()] == ["id_000000"]
    assert (tmp_path / "hangs" / "id_000000").read_bytes() == b"42AA"


def test_campaign_keeps_hangs_out_of_the_queue(tmp_path):
    m, sites = instrumented_victim()
    fz = Fuzzer(m, sites, hang_cfg(tmp_path, max_execs=400))
    # entry "4AAA" reaches "42AA" early in its arith8 stage
    stats = fz.run([b"4AAA", b"AAAA"])
    assert stats.unique_hangs >= 1
    assert stats.hangs_total >= stats.unique_hangs
    hangs = sorted((tmp_path / "hangs").iterdir())
    assert len(hangs) == stats.unique_hangs
    eng = Engine(m)

    def status(p):
        inst = eng.instantiate(WasiConfig(stdin=p.read_bytes()))
        return eng.run_start(inst, RunLimits(fuel=HANG_FUEL)).status

    assert all(status(p) == "exit" for p in (tmp_path / "queue").iterdir())
    assert all(status(p) == "fuel-exhausted" for p in hangs)
    on_disk = json.loads((tmp_path / "stats.json").read_text())
    assert on_disk["hangs_total"] == stats.hangs_total
    assert on_disk["unique_hangs"] == stats.unique_hangs


def test_hanging_seed_is_skipped(tmp_path, caplog):
    m, sites = instrumented_victim()
    fz = Fuzzer(m, sites, hang_cfg(tmp_path, max_execs=10))
    fz.run([b"42AA", b"AAAA"])
    assert fz.queue[0].data == b"AAAA"
    assert "seed input 0 exhausts its fuel" in caplog.text
    assert (tmp_path / "hangs" / "id_000000").read_bytes() == b"42AA"


def test_campaign_whose_only_seed_hangs_is_refused():
    m, sites = instrumented_victim()
    with pytest.raises(AllSeedsInvalid):
        Fuzzer(m, sites, hang_cfg(max_execs=10)).run([b"42AA"])


def test_resume_numbers_new_hangs_after_the_ones_on_disk(tmp_path, caplog):
    m, sites = instrumented_victim()
    (tmp_path / "hangs").mkdir()
    (tmp_path / "hangs" / "id_000004").write_bytes(b"old")
    fz = Fuzzer(m, sites, hang_cfg(tmp_path))
    fz.stats.start_time = 0.0
    fz._replay_kept()
    assert "hangs/id_000004 no longer reproduces" in caplog.text
    fz.add_seeds([b"AAAA"])
    fz._process(b"42AA", 0, "havoc")
    assert (tmp_path / "hangs" / "id_000004").read_bytes() == b"old"
    assert (tmp_path / "hangs" / "id_000005").read_bytes() == b"42AA"


def test_resume_keeps_queue_ids_and_saved_hangs(tmp_path):
    """A queue entry that hangs under the resumed campaign's fuel leaves
    every queue file as it was, and a hang already in ``hangs/`` is not
    written again."""
    m, sites = instrumented_victim()
    queue_dir = tmp_path / "queue"
    queue_dir.mkdir()
    before = {f"id_{i:06d}": data
              for i, data in enumerate([b"AAAA", b"42AA", b"4AAA"])}
    for name, data in before.items():
        (queue_dir / name).write_bytes(data)

    def resume():
        # the budget ends the campaign once the queue has been replayed
        fz = Fuzzer(m, sites, hang_cfg(tmp_path, max_execs=1))
        stats = fz.run([])
        assert [e.id for e in fz.queue] == [0, 2]
        assert {p.name: p.read_bytes() for p in queue_dir.iterdir()} == before
        hangs = {p.name: p.read_bytes()
                 for p in (tmp_path / "hangs").iterdir()}
        assert hangs == {"id_000000": b"42AA"}
        return stats

    first = resume()
    assert (first.hangs_total, first.unique_hangs) == (1, 1)
    second = resume()  # replays hangs/id_000000 before the queue
    assert (second.hangs_total, second.unique_hangs) == (1, 1)


def test_queue_file_that_now_crashes_is_refused_by_its_id(tmp_path):
    m, sites = instrumented_victim()
    queue_dir = tmp_path / "queue"
    queue_dir.mkdir()
    (queue_dir / "id_000000").write_bytes(b"AAAA")
    (queue_dir / "id_000003").write_bytes(b"42" + b"A" * 21)
    with pytest.raises(SeedCrashes) as e:
        Fuzzer(m, sites, quick_cfg(tmp_path)).run([])
    assert e.value.crashing == [3]
    assert "queue file id(s) [3]" in str(e.value)


def test_kept_file_without_an_id_is_skipped(tmp_path, caplog):
    m, sites = instrumented_victim()
    # a crashing input, so that a queue file read as a seed would show
    crasher = b"42" + b"A" * 21
    names = ["crashes/id_x_builtin", "hangs/id_", "queue/id_1a",
             "queue/id_\u00b2"]
    for name in names:
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(crasher)
    fz = Fuzzer(m, sites, quick_cfg(tmp_path, max_execs=5))
    fz.run([b"AAAA"])
    assert [e.id for e in fz.queue] == [0]
    assert fz.crashes == []
    for name in names:
        assert f"{name} has no id in its name; skipped" in caplog.text
        assert (tmp_path / name).read_bytes() == crasher
