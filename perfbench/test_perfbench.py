"""Self-test of the benchmark's own arithmetic and targets.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE),
                str(HERE.parent / "tests")]

import bench  # noqa: E402
import spans as sp  # noqa: E402
import targets  # noqa: E402
import wasmwarden.fuzz.engine as fuzz_engine  # noqa: E402
from wasmwarden import encode_module, validate_module  # noqa: E402


# -- span arithmetic ---------------------------------------------------------
def test_self_time_is_span_minus_the_part_children_cover():
    spans = [
        ["root", 0, 100, -1, -1],
        ["a", 10, 30, 0, 0],
        ["b", 25, 50, 0, 0],  # overlaps a: the union counts once
        ["c", 90, 120, 0, 1],  # runs past its parent: clipped
        ["a.x", 12, 20, 1, 0],  # a grandchild is a's, not root's
    ]
    assert sp.self_times(spans) == [100 - 40 - 10, 20 - 8, 25, 30, 8]


def test_tracer_records_parent_and_exec_id():
    ticks = iter(range(0, 1000, 10))
    tracer = sp.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    seen = []
    outer = tracer.wrap("outer", lambda: leaf(1), starts_exec=True,
                        note=lambda args, result: seen.append(result))
    with tracer.span("rep"):
        outer()
        outer()
    spans = tracer.take()
    assert [s[sp.NAME] for s in spans] == [
        "rep", "outer", "leaf", "outer", "leaf"]
    assert [s[sp.PARENT] for s in spans] == [-1, 0, 1, 0, 3]
    assert [s[sp.EXEC] for s in spans] == [-1, 0, 0, 1, 1]
    assert seen == [2, 2]
    assert all(s[sp.END] > s[sp.START] for s in spans)
    assert tracer.take() == []
    assert sp.by_name(spans, "rep") == {"outer": (2, 2 * (30 - 10))}
    assert sp.by_name(spans)["leaf"] == (2, 20)


def test_median_and_nearest_rank_percentile():
    values = list(range(1, 101))
    random.Random(1).shuffle(values)
    assert sp.median(values) == 50.5
    assert sp.median([3, 1, 2]) == 2
    assert [sp.percentile(values, q) for q in (50, 90, 99, 100)] == [
        50, 90, 99, 100]
    assert sp.percentile([7], 50) == 7
    with pytest.raises(ValueError):
        sp.percentile(values, 0)
    with pytest.raises(ValueError):
        sp.median([])


def test_tail_level_keeps_ten_samples_beyond():
    assert sp.tail_level(15) is None
    assert sp.tail_level(20) == 50
    assert sp.tail_level(100) == 90
    assert sp.tail_level(1000) == 99
    assert sp.tail_level(10_000) == 99.9


def test_failed_frac_base_is_checks_attempted():
    checks = bench.Checks()
    checks.check(True, "a")
    checks.check(False, "b")
    checks.check(True, "c")
    checks.check(True, "d")
    assert (checks.attempted, checks.failed) == (4, 1)
    assert checks.failures == ["b"]
    assert sp.failed_frac(checks.failed, checks.attempted) == 0.25
    assert sp.failed_frac(0, 10) == 0.0
    with pytest.raises(ValueError):
        sp.failed_frac(0, 0)
    with pytest.raises(ValueError):
        sp.failed_frac(3, 2)


def test_digest_ignores_wall_clock_fields(tmp_path):
    (tmp_path / "queue").mkdir()
    (tmp_path / "crashes").mkdir()
    (tmp_path / "queue" / "id_000000").write_bytes(b"AAAA")
    stats = {"execs": 10, "elapsed_seconds": 1.5, "execs_per_sec": 6.7,
             "last_new_path_seconds": 0.1, "unique_paths": 1}
    (tmp_path / "stats.json").write_text(json.dumps(stats))
    first = bench.artifact_digest(tmp_path)
    stats.update(elapsed_seconds=9.0, execs_per_sec=1.1,
                 last_new_path_seconds=2.0)
    (tmp_path / "stats.json").write_text(json.dumps(stats))
    assert bench.artifact_digest(tmp_path) == first
    (tmp_path / "queue" / "id_000000").write_bytes(b"AAAB")
    assert bench.artifact_digest(tmp_path) != first


# -- targets -----------------------------------------------------------------
def test_victim_target_matches_the_test_suite_victim():
    import modbuild

    assert (encode_module(targets.victim_module())
            == encode_module(modbuild.victim_module()))


def test_big_module_is_large_valid_and_seeded():
    m = targets.big_module(7)
    assert validate_module(m).ok
    assert len(m.functions) > targets.BIG_FUNCS
    assert sum(len(f.body) for f in m.functions) > 50 * targets.BIG_FUNCS
    assert encode_module(m) == encode_module(targets.big_module(7))
    assert encode_module(m) != encode_module(targets.big_module(8))


# -- campaign wiring ---------------------------------------------------------
def test_traced_campaign_matches_untraced_and_unbinds(tmp_path):
    wl = dataclasses.replace(bench.WORKLOADS["victim"], max_execs=400)
    binary, sites = bench.instrument(encode_module(wl.target()))
    module = bench.parse_module(binary)
    names = (fuzz_engine.classify_counts, fuzz_engine.mut)
    plain = bench.run_campaign(module, sites, wl, 3, tmp_path / "plain")
    tracer = sp.Tracer()
    traced = bench.run_campaign(module, sites, wl, 3, tmp_path / "traced",
                                tracer)
    assert (fuzz_engine.classify_counts, fuzz_engine.mut) == names
    assert plain.digest == traced.digest
    assert plain.instructions == traced.instructions
    assert plain.execs_per_s > 0
    parents = {s[sp.NAME]: traced.spans[s[sp.PARENT]][sp.NAME]
               for s in traced.spans if s[sp.PARENT] >= 0}
    for layer in ("interp.instantiate", "interp.run_start",
                  "interp.read_trace_bits"):
        assert parents[layer] == "fuzz.run_input"
    for layer in ("fuzz.run_input", "fuzz.bitmap.classify_counts",
                  "fuzz.bitmap.has_new_bits", "fuzz.mutate"):
        assert parents[layer] == "fuzz.campaign"
    assert traced.layers["fuzz.run_input"][0] == traced.execs == 400
    assert sum(traced.tally.counts[k] for k in traced.tally.counts
               if k.startswith("mutate.")) == 399


def test_all_keeps_the_result_line_of_a_failed_workload():
    import run

    failed = {"correct": False, "attempted": 4, "failed": 1, "metrics": {}}
    assert run.last_json_line("FAILED check: x\n" + json.dumps(failed)
                              + "\n") == failed
    assert run.last_json_line("Traceback (most recent call last):\n"
                              "RuntimeError: boom\n") is None
    assert run.last_json_line("") is None
