import hashlib
import json
from pathlib import Path

import pytest

import modbuild
from wasmwarden.encoder import encode_module
from wasmwarden.interp import RunLimits
from wasmwarden.fuzz import mutate as mut
from wasmwarden.fuzz import (
    AllSeedsInvalid,
    FuzzConfig,
    Fuzzer,
    SeedCrashes,
)
from wasmwarden.passes import (
    CanaryConfig,
    apply_coverage_pass,
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


def test_duplicate_crash_signatures_are_collapsed():
    m, sites = instrumented_victim()
    fz = Fuzzer(m, sites, quick_cfg())
    fz.stats.start_time = 0.0
    fz.add_seeds([b"A" * 16])
    crasher = b"42" + b"A" * 21
    for _ in range(5):
        outcome, trace = fz.run_input(crasher)
        fz._record_crash(crasher, outcome, trace, parent=0, stage="t")
    assert fz.stats.crashes_total == 5
    assert fz.stats.unique_crashes == 1


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
    paths = []
    instantiate = fz.engine.instantiate

    def spy(wasi):
        path = Path(wasi.argv[1])
        assert path.read_bytes() == wasi.stdin
        paths.append(path)
        return instantiate(wasi)

    fz.engine.instantiate = spy
    stats = fz.run([b"A" * 16])
    assert stats.execs == 200
    assert list(tmp_path.iterdir()) == []
    # one private file per campaign, removed when the campaign ends
    assert len(set(paths)) == 1
    assert paths[0].parent != tmp_path
    assert not paths[0].parent.exists()


def _resumed_stage_calls(out: Path, budget: int, monkeypatch):
    """Run a victim campaign from ``AAAA`` into ``out`` for ``budget``
    execs, then resume it from its queue. Returns whether entry 0 was
    marked done before the resume, and the (input, stage) of every
    deterministic ``mutate`` call the resumed campaign made."""
    m, sites = instrumented_victim()
    Fuzzer(m, sites, quick_cfg(out, max_execs=budget)).run([b"AAAA"])
    marked = (out / ".state" / "deterministic_done" / "id_000000").is_file()
    queue = [p.read_bytes() for p in sorted((out / "queue").iterdir())]
    calls = []
    real = mut.mutate

    def spy(data, rng, stage, **kw):
        if stage in mut.DETERMINISTIC_STAGES:
            calls.append((data, stage))
        return real(data, rng, stage, **kw)

    monkeypatch.setattr(mut, "mutate", spy)
    Fuzzer(m, sites, quick_cfg(out, max_execs=budget + 2000)).run(queue)
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
