import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import modbuild
from wasmwarden.cli import (
    EXIT_CRASH,
    EXIT_FUEL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
)
from wasmwarden.encoder import encode_module
from wasmwarden.fuzz.bitmap import bucket_for_count
from wasmwarden.interp import INPUT_PATH, MAX_PAGES, Engine
from wasmwarden.ir import Export, I, WasmError
from wasmwarden.passes.coverage import MAP_SIZE
from wasmwarden.passes.sites import SiteTable


@pytest.fixture
def victim_wasm(tmp_path):
    p = tmp_path / "victim.wasm"
    p.write_bytes(encode_module(modbuild.victim_module()))
    return p


@pytest.fixture
def hardened(victim_wasm, tmp_path):
    out = tmp_path / "victim.fuzz.wasm"
    code = main(["instrument", str(victim_wasm), "-o", str(out),
                 "--canary-seed", "1", "--cov-seed", "3"])
    assert code == EXIT_OK
    return out


def test_instrument_writes_binary_and_sidecar(hardened, capsys):
    assert hardened.exists()
    sidecar = hardened.parent / (hardened.name + ".sites.json")
    sites = json.loads(sidecar.read_text())
    assert sites and all(
        set(s) == {"function", "offset", "kind", "id"} for s in sites
    )
    assert any(s["kind"] == "stack-canary" for s in sites)


@pytest.mark.parametrize("text", ["{not json", "{}", "[1]", "[[0, 1]]",
                                  '[{"function": 0}]', b"\xff"])
def test_sidecar_that_is_not_a_list_of_sites_is_refused(hardened, text):
    sidecar = hardened.parent / (hardened.name + ".sites.json")
    assert len(SiteTable.from_json(sidecar.read_text())) > 0
    with pytest.raises(WasmError):
        SiteTable.from_json(text)


def test_instrument_refuses_same_path(victim_wasm):
    assert main(["instrument", str(victim_wasm), "-o", str(victim_wasm)]) \
        == EXIT_USAGE


def test_instrument_refuses_all_passes_disabled(victim_wasm, tmp_path):
    out = tmp_path / "o.wasm"
    code = main(["instrument", str(victim_wasm), "-o", str(out),
                 "--no-stack-canaries", "--no-heap-canaries",
                 "--no-coverage"])
    assert code == EXIT_USAGE


def test_instrument_refuses_double_instrumentation(hardened, tmp_path):
    out = tmp_path / "twice.wasm"
    assert main(["instrument", str(hardened), "-o", str(out)]) == EXIT_USAGE


def test_instrument_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.wasm"
    bad.write_bytes(b"\x00asm\x01\x00\x00\x00\xff\xff\xff")
    out = tmp_path / "o.wasm"
    assert main(["instrument", str(bad), "-o", str(out)]) == EXIT_PARSE


def test_run_benign_input_exits_zero(hardened, tmp_path, capsys):
    inp = tmp_path / "in"
    inp.write_bytes(b"hello")
    assert main(["run", str(hardened), str(inp)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "oracle=none" in err


def test_run_crash_input_exits_ten(hardened, tmp_path, capsys):
    inp = tmp_path / "in"
    inp.write_bytes(b"42" + b"A" * 21)
    assert main(["run", str(hardened), str(inp)]) == EXIT_CRASH
    err = capsys.readouterr().err
    assert "oracle=stack-canary" in err


def test_run_fuel_exhaustion_exits_eleven(hardened, tmp_path):
    inp = tmp_path / "in"
    inp.write_bytes(b"hello")
    # the whole run takes 77 instructions
    assert main(["run", str(hardened), str(inp), "--fuel", "50"]) \
        == EXIT_FUEL


@pytest.mark.parametrize("command", ["run", "fuzz", "cov"])
@pytest.mark.parametrize("fuel", ["-5", "-1", "many"])
def test_fuel_that_is_not_a_count_is_a_usage_error(hardened, tmp_path, capsys,
                                                     command, fuel):
    out = tmp_path / "c"
    seeds = tmp_path / "s"
    seeds.mkdir()
    (seeds / "s0").write_bytes(b"AAAA")
    campaign = ["-o", str(out), "--seeds", str(seeds), "--execs", "10"]
    assert main([command, str(hardened), *(campaign if command == "fuzz"
                                            else []), "--fuel", fuel]) \
        == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: argument --fuel: expected a count of instructions")
    assert not out.exists()


@pytest.mark.parametrize("option,value", [
    ("--jobs", "-3"), ("--jobs", "0"), ("--jobs", "x"), ("--execs", "-5"),
    ("--execs", "1.5"), ("--time", "-1"), ("--time", "nan"),
])
def test_fuzz_refuses_counts_out_of_range(hardened, tmp_path, capsys, option,
                                         value):
    out = tmp_path / "c"
    seeds = tmp_path / "s"
    seeds.mkdir()
    (seeds / "s0").write_bytes(b"AAAA")
    budget = [] if option == "--execs" else ["--execs", "10"]
    assert main(["fuzz", str(hardened), "-o", str(out), "--seeds",
                 str(seeds), *budget, option, value]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {option}: expected ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_zero_execs_and_seconds_are_budgets(hardened, tmp_path):
    seeds = tmp_path / "s"
    seeds.mkdir()
    (seeds / "s0").write_bytes(b"AAAA")
    for k, budget in enumerate((["--execs", "0"], ["--time", "0"])):
        assert main(["fuzz", str(hardened), "-o", str(tmp_path / f"c{k}"),
                     "--seeds", str(seeds), *budget]) == EXIT_OK


def test_run_at_zero_fuel_exhausts_it(hardened, tmp_path):
    inp = tmp_path / "in"
    inp.write_bytes(b"hello")
    assert main(["run", str(hardened), str(inp), "--fuel", "0"]) == EXIT_FUEL


def test_run_without_start_export_is_usage_error(tmp_path):
    p = tmp_path / "lib.wasm"
    p.write_bytes(encode_module(modbuild.bump_alloc_module()))
    assert main(["run", str(p)]) == EXIT_USAGE


def _check_cov_lines(out: str) -> int:
    """Each edge line shows its count's bucket; returns the edge total."""
    *lines, total = out.strip().splitlines()
    for line in lines:
        idx, count, bucket = re.fullmatch(
            r" *(\d+) count= *(\d+) bucket=0x([0-9a-f]{2})", line).groups()
        assert 0 <= int(idx) < MAP_SIZE
        assert int(bucket, 16) == bucket_for_count(int(count)) > 0
    assert total == f"total edges hit: {len(lines)}"
    return len(lines)


def test_cov_dumps_edges(hardened, tmp_path, capsys):
    inp = tmp_path / "in"
    inp.write_bytes(b"hello")
    assert main(["cov", str(hardened), str(inp)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "total edges hit:" in out
    edges = int(out.strip().rsplit(" ", 1)[1])
    assert edges > 0
    assert _check_cov_lines(out) == edges


def test_cov_on_uninstrumented_binary_is_usage_error(victim_wasm, tmp_path):
    inp = tmp_path / "in"
    inp.write_bytes(b"x")
    assert main(["cov", str(victim_wasm), str(inp)]) == EXIT_USAGE


def test_cov_output_differs_between_inputs(hardened, tmp_path, capsys):
    dumps = []
    for data in (b"hello", b"42xy"):
        inp = tmp_path / "in"
        inp.write_bytes(data)
        main(["cov", str(hardened), str(inp)])
        dumps.append(capsys.readouterr().out)
        _check_cov_lines(dumps[-1])
    assert dumps[0] != dumps[1]


def test_fuzz_small_campaign(hardened, tmp_path, capsys):
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    (seeds / "s0").write_bytes(b"A" * 16)
    out = tmp_path / "campaign"
    code = main([
        "fuzz", str(hardened), "-o", str(out), "--seeds", str(seeds),
        "--execs", "2000", "--fuel", "1000000",
    ])
    assert code == EXIT_OK
    stats = json.loads((out / "stats.json").read_text())
    assert stats["execs"] == 2000
    assert (out / "queue" / "id_000000").exists()


def test_fuzz_on_uninstrumented_binary_is_usage_error(victim_wasm,
                                                      tmp_path):
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    (seeds / "s0").write_bytes(b"AAAA")
    assert main(["fuzz", str(victim_wasm), "-o", str(tmp_path / "c"),
                 "--seeds", str(seeds), "--execs", "10"]) == EXIT_USAGE
    assert not (tmp_path / "c").exists()


def test_fuzz_requires_seeds_or_resume(hardened, tmp_path):
    assert main(["fuzz", str(hardened), "-o", str(tmp_path / "c")]) \
        == EXIT_USAGE


def test_fuzz_resume_reuses_queue(hardened, tmp_path):
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    (seeds / "s0").write_bytes(b"A" * 16)
    out = tmp_path / "campaign"
    main(["fuzz", str(hardened), "-o", str(out), "--seeds", str(seeds),
          "--execs", "1000", "--fuel", "1000000"])
    code = main(["fuzz", str(hardened), "-o", str(out), "--resume",
                 "--execs", "500", "--fuel", "1000000"])
    assert code == EXIT_OK


def test_fuzz_resume_keeps_crash_files(hardened, tmp_path):
    # only havoc can lengthen the seed enough to overflow; campaign seed 2
    # first finds a 9-byte crash, seed 3 a 23-byte one, which falls into a
    # different loop-count bucket and so is a new crash after the resume
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    (seeds / "s0").write_bytes(b"42AAAAAA")
    out = tmp_path / "campaign"
    common = ["--execs", "4000", "--fuel", "1000000"]
    assert main(["fuzz", str(hardened), "-o", str(out), "--seeds",
                 str(seeds), "--seed", "2", *common]) == EXIT_OK
    crashes = out / "crashes"
    before = {p.name: p.read_bytes() for p in crashes.iterdir()}
    assert len(before) == 1
    assert main(["fuzz", str(hardened), "-o", str(out), "--resume",
                 "--seed", "3", *common]) == EXIT_OK
    after = {p.name: p.read_bytes() for p in crashes.iterdir()}
    assert {n: after.get(n) for n in before} == before
    new = [int(n.split("_")[1]) for n in after.keys() - before.keys()]
    assert new and min(new) > max(int(n.split("_")[1]) for n in before)
    assert len(set(after.values())) == len(after)
    stats = json.loads((out / "stats.json").read_text())
    assert stats["unique_crashes"] == len(after)


def _campaign_files(out):
    """Every file in the campaign's queue, crashes and hangs: its inode,
    modification time and bytes, by path."""
    files = {}
    for sub in ("queue", "crashes", "hangs"):
        for p in (out / sub).iterdir():
            st = p.stat()
            files[f"{sub}/{p.name}"] = (st.st_ino, st.st_mtime_ns,
                                        p.read_bytes())
    return files


def test_fuzz_resume_rewrites_no_file(hardened, tmp_path):
    # campaign seed 2 keeps a crash (see above); the resume at fuel 100
    # keeps hangs, and the last resume replays all three kinds of file
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    (seeds / "s0").write_bytes(b"42AAAAAA")
    out = tmp_path / "campaign"
    before = {}
    for args in (["--seeds", str(seeds), "--seed", "2", "--execs", "4000",
                  "--fuel", "1000000"],
                 ["--resume", "--execs", "1", "--fuel", "100"],
                 ["--resume", "--execs", "500", "--fuel", "1000000"]):
        assert main(["fuzz", str(hardened), "-o", str(out), *args]) \
            == EXIT_OK
        after = _campaign_files(out)
        assert {n: after.get(n) for n in before} == before
        before = after
    for sub in ("queue", "crashes", "hangs"):
        assert any(n.startswith(sub + "/") for n in before)


def test_fuzz_resume_after_a_hanging_seed_keeps_the_queue(hardened,
                                                          tmp_path):
    # at fuel 100 the seed "42AA" hangs and "AAAA" does not
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    (seeds / "s0").write_bytes(b"42AA")
    (seeds / "s1").write_bytes(b"AAAA")
    out = tmp_path / "campaign"
    assert main(["fuzz", str(hardened), "-o", str(out), "--seeds",
                 str(seeds), "--execs", "400", "--fuel", "100"]) == EXIT_OK
    queue = out / "queue"
    before = {p.name: p.read_bytes() for p in queue.iterdir()}
    assert len(before) >= 2
    assert main(["fuzz", str(hardened), "-o", str(out), "--resume",
                 "--execs", "1", "--fuel", "100"]) == EXIT_OK
    after = {p.name: p.read_bytes() for p in queue.iterdir()}
    assert after == before
    assert len(set(after.values())) == len(after)


def _check_new_seeds_queued_after_the_old_queue(hardened, tmp_path,
                                                *flags):
    """A second campaign in the same directory, given ``flags``, keeps
    every queue file and queues only the new seed bytes, after them."""
    first, second = tmp_path / "s1", tmp_path / "s2"
    for d, data in ((first, [b"A" * 16]),
                    (second, [b"A" * 16, b"second seed"])):
        d.mkdir()
        for k, seed in enumerate(data):
            (d / f"s{k}").write_bytes(seed)
    out = tmp_path / "campaign"
    common = ["fuzz", str(hardened), "-o", str(out), "--fuel", "1000000"]
    assert main([*common, "--seeds", str(first), "--execs", "1000"]) \
        == EXIT_OK
    queue = out / "queue"
    before = {p.name: p.read_bytes() for p in queue.iterdir()}
    assert main([*common, "--seeds", str(second), "--execs", "1",
                 *flags]) == EXIT_OK
    after = {p.name: p.read_bytes() for p in queue.iterdir()}
    assert {n: after.get(n) for n in before} == before
    new = after.keys() - before.keys()
    assert [after[n] for n in new] == [b"second seed"]
    assert min(new) > max(before)


def test_fuzz_new_seeds_are_queued_after_the_old_queue(hardened, tmp_path):
    _check_new_seeds_queued_after_the_old_queue(hardened, tmp_path)


def test_fuzz_resume_queues_new_seeds(hardened, tmp_path):
    _check_new_seeds_queued_after_the_old_queue(hardened, tmp_path,
                                                "--resume")


def test_fuzz_resume_of_nothing_is_usage_error(hardened, tmp_path):
    out = tmp_path / "campaign"
    assert main(["fuzz", str(hardened), "-o", str(out), "--resume"]) \
        == EXIT_USAGE
    assert not out.exists()


def test_fuzz_jobs_resume_each_from_its_own_queue(hardened, tmp_path):
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    (seeds / "s0").write_bytes(b"42AAAAAA")
    out = tmp_path / "campaign"
    common = ["--jobs", "2", "--execs", "1500", "--fuel", "1000000"]
    assert main(["fuzz", str(hardened), "-o", str(out), "--seeds",
                 str(seeds), *common]) == EXIT_OK

    def artifacts():
        return {
            p.relative_to(out).as_posix(): p.read_bytes()
            for sub in ("queue", "crashes")
            for p in out.glob(f"job_*/{sub}/*")
        }

    before = artifacts()
    for k in (0, 1):
        assert any(n.startswith(f"job_{k}/queue/") for n in before)
    assert main(["fuzz", str(hardened), "-o", str(out), "--resume",
                 *common]) == EXIT_OK
    after = artifacts()
    assert {n: after.get(n) for n in before} == before
    assert not (out / "queue").exists()


def test_run_replays_every_crash_of_a_seeded_campaign(tmp_path):
    # the target traps when its input's first byte equals the first byte
    # of its WASI RNG, which no campaign setting seeds
    target = tmp_path / "rng.wasm"
    target.write_bytes(encode_module(modbuild.rng_match_module()))
    hardened = tmp_path / "rng.fuzz.wasm"
    assert main(["instrument", str(target), "-o", str(hardened)]) == EXIT_OK
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    (seeds / "s0").write_bytes(b"A")
    out = tmp_path / "campaign"
    assert main(["fuzz", str(hardened), "-o", str(out), "--seeds",
                 str(seeds), "--seed", "5", "--execs", "3000"]) == EXIT_OK
    crashes = sorted((out / "crashes").iterdir())
    assert crashes
    for p in crashes:
        assert main(["run", str(hardened), str(p)]) == EXIT_CRASH, p.name


def test_run_cov_and_fuzz_pass_the_same_argv(hardened, tmp_path,
                                             monkeypatch):
    argvs = set()
    instantiate = Engine.instantiate

    def spy(self, wasi=None):
        argvs.add(tuple(wasi.argv))
        return instantiate(self, wasi)

    monkeypatch.setattr(Engine, "instantiate", spy)
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    inp = seeds / "s0"
    inp.write_bytes(b"hello")
    argv = ["--argv", "prog @@"]
    assert main(["run", str(hardened), str(inp), *argv]) == EXIT_OK
    assert main(["cov", str(hardened), str(inp), *argv]) == EXIT_OK
    assert main(["fuzz", str(hardened), "-o", str(tmp_path / "campaign"),
                 "--seeds", str(seeds), "--execs", "20", *argv]) == EXIT_OK
    assert argvs == {("prog", INPUT_PATH)}


def test_missing_file_is_usage_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.wasm")]) == EXIT_USAGE


# ------------------------------------------------------- the CLI as a process

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def inputs(tmp_path, hardened, victim_wasm):
    """A directory of the files the refusal cases name: ``v.wasm`` and its
    instrumented ``v.h`` (with sidecar), a crashing input, a seeds dir and
    one whose seed crashes, a garbage binary, modules with one and with
    two functions that fail validation, one whose memory limit is past
    4 GiB and one whose limit is at it, one whose initial memory is past
    ``MAX_PAGES`` and one whose is at it, two whose export or name section
    calls an imported function an allocator, a malformed sidecar, a plain
    file and a directory."""
    d = tmp_path / "inputs"
    d.mkdir()
    (d / "v.wasm").write_bytes(victim_wasm.read_bytes())
    (d / "v.h").write_bytes(hardened.read_bytes())
    sidecar = hardened.parent / (hardened.name + ".sites.json")
    (d / "v.h.sites.json").write_bytes(sidecar.read_bytes())
    (d / "crash").write_bytes(b"42" + b"A" * 21)
    (d / "s").mkdir()
    (d / "s" / "s0").write_bytes(b"AAAA")
    (d / "cs").mkdir()
    (d / "cs" / "s0").write_bytes(b"42" + b"A" * 21)
    (d / "bad.wasm").write_bytes(b"\x00asm\x01\x00\x00\x00\xff\xff\xff")
    invalid = modbuild.victim_module()
    modbuild.add_func(invalid, (), (), [], [I("i32.add"), I("drop"),
                                           I("end")])
    (d / "invalid.wasm").write_bytes(encode_module(invalid))
    modbuild.add_func(invalid, (), (), [], [I("i32.add"), I("drop"),
                                           I("end")])
    (d / "invalid2.wasm").write_bytes(encode_module(invalid))
    # a max past 2^16 pages; a check that let it through would run one page
    huge = modbuild.victim_module()
    huge.memory = (huge.memory[0], 65537)
    (d / "huge.wasm").write_bytes(encode_module(huge))
    # one page past what memory.grow reaches; a check that let it through
    # would zero 64 MiB per instance
    big = modbuild.victim_module()
    big.memory = (MAX_PAGES + 1, None)
    (d / "big.wasm").write_bytes(encode_module(big))
    # runs as it is, but leaves no page for the trace map
    full = modbuild.victim_module()
    full.memory = (MAX_PAGES, None)
    (d / "full.wasm").write_bytes(encode_module(full))
    # valid, but the trace map's page takes its maximum past 4 GiB
    top = modbuild.victim_module()
    top.memory = (top.memory[0], 65536)
    (d / "top.wasm").write_bytes(encode_module(top))
    # an allocator that is the imported function 0, by export and by name
    exported = modbuild.victim_module()
    exported.exports.append(Export("free", "func", 0))
    (d / "free-export.wasm").write_bytes(encode_module(exported))
    named = modbuild.victim_module()
    named.names[0] = "malloc"
    (d / "malloc-name.wasm").write_bytes(encode_module(named))
    (d / "malformed.json").write_text("{not json")
    (d / "file").write_bytes(b"")
    (d / "dir").mkdir()
    return d


FUZZ = ["--execs", "10"]
# (argv, exit code, a path the refused command must not create)
REFUSALS = {
    "run-negative-fuel": (["run", "x.wasm", "--fuel", "-5"], EXIT_USAGE,
                          None),
    "run-no-binary": (["run"], EXIT_USAGE, None),
    "instrument-negative-sp-global": (["instrument", "v.wasm", "-o", "v.x",
                                       "--sp-global", "-1"], EXIT_USAGE,
                                      "v.x"),
    "fuzz-jobs-not-a-count": (["fuzz", "v.h", "-o", "c", "--seeds", "s",
                               "--jobs", "x", *FUZZ], EXIT_USAGE, "c"),
    "fuzz-negative-jobs": (["fuzz", "v.h", "-o", "c", "--seeds", "s",
                            "--jobs", "-3", *FUZZ], EXIT_USAGE, "c"),
    "run-missing-input": (["run", "v.h", "missing-input"], EXIT_USAGE, None),
    "run-directory": (["run", "dir"], EXIT_USAGE, None),
    "cov-directory-input": (["cov", "v.h", "dir"], EXIT_USAGE, None),
    "run-malformed-sites": (["run", "v.h", "--sites", "malformed.json"],
                            EXIT_USAGE, None),
    "run-missing-sites": (["run", "v.h", "crash", "--sites", "typo.json"],
                          EXIT_USAGE, None),
    "fuzz-missing-sites": (["fuzz", "v.h", "-o", "c", "--seeds", "s",
                            "--sites", "typo.json", *FUZZ], EXIT_USAGE, "c"),
    "instrument-missing-dir": (["instrument", "v.wasm", "-o",
                                "missing/dir/x.wasm"], EXIT_USAGE, "missing"),
    "fuzz-output-is-a-file": (["fuzz", "v.h", "-o", "file", "--seeds", "s",
                               *FUZZ], EXIT_USAGE, None),
    "run-invalid-module": (["run", "invalid.wasm"], EXIT_PARSE, None),
    "cov-invalid-module": (["cov", "invalid.wasm"], EXIT_PARSE, None),
    "run-two-invalid-functions": (["run", "invalid2.wasm"], EXIT_PARSE,
                                  None),
    "run-memory-past-4-gib": (["run", "huge.wasm"], EXIT_PARSE, None),
    "run-memory-past-grow-limit": (["run", "big.wasm"], EXIT_USAGE, None),
    "instrument-memory-at-grow-limit": (["instrument", "full.wasm", "-o",
                                         "full.h"], EXIT_USAGE, "full.h"),
    "instrument-memory-max-at-4-gib": (["instrument", "top.wasm", "-o",
                                        "top.h"], EXIT_USAGE, "top.h"),
    "fuzz-invalid-module": (["fuzz", "invalid.wasm", "-o", "c", "--seeds",
                             "s", *FUZZ], EXIT_PARSE, "c"),
    "fuzz-uninstrumented": (["fuzz", "v.wasm", "-o", "c", "--seeds", "s",
                             *FUZZ], EXIT_USAGE, "c"),
    "instrument-alloc-past-the-functions": (["instrument", "v.wasm", "-o",
                                             "v.x", "--alloc", "malloc=999"],
                                            EXIT_USAGE, "v.x"),
    "instrument-alloc-imported": (["instrument", "v.wasm", "-o", "v.x",
                                   "--alloc", "malloc=0"], EXIT_USAGE, "v.x"),
    "instrument-exported-allocator-imported": (["instrument",
                                                "free-export.wasm", "-o",
                                                "f.x"], EXIT_USAGE, "f.x"),
    "instrument-named-allocator-imported": (["instrument", "malloc-name.wasm",
                                             "-o", "m.x"], EXIT_USAGE,
                                            "m.x"),
    "instrument-dealloc-unknown-name": (["instrument", "v.wasm", "-o", "v.x",
                                         "--dealloc", "fre=1"], EXIT_USAGE,
                                        "v.x"),
    "fuzz-jobs-uninstrumented": (["fuzz", "v.wasm", "-o", "c", "--seeds",
                                  "s", "--jobs", "2", *FUZZ], EXIT_USAGE,
                                 "c"),
    "fuzz-jobs-malformed": (["fuzz", "bad.wasm", "-o", "c", "--seeds", "s",
                             "--jobs", "2", *FUZZ], EXIT_PARSE, "c"),
    "fuzz-crashing-seed": (["fuzz", "v.h", "-o", "c", "--seeds", "cs",
                            *FUZZ], EXIT_CRASH, "c"),
    "fuzz-jobs-crashing-seed": (["fuzz", "v.h", "-o", "c", "--seeds", "cs",
                                 "--jobs", "2", *FUZZ], EXIT_CRASH, "c"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refused_command_prints_one_error_and_its_exit_code(inputs, case):
    argv, code, absent = REFUSALS[case]
    proc = subprocess.Popen(
        [sys.executable, "-m", "wasmwarden.cli", *argv], cwd=inputs,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        # no pool worker outlives the test
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{case} did not return")
    err = err.decode()
    assert "Traceback" not in err
    lines = err.splitlines()
    assert lines and lines[-1].startswith("error: "), err
    assert sum(line.startswith("error: ") for line in lines) == 1, err
    assert proc.returncode == code, err
    if absent is not None:
        assert not (inputs / absent).exists()


# run in a fresh process: the commands' exit code, unless numpy got imported
NO_NUMPY = """import sys
from wasmwarden.cli import main
code = main(sys.argv[1:])
sys.exit(100 if "numpy" in sys.modules else code)
"""

# ``cov`` of the hardened victim on an overflowing input, as it printed
# when the bucket table was a numpy array
COV_OVERFLOW = """\
 5755 count= 23 bucket=0x20
 8914 count= 23 bucket=0x20
18624 count=  1 bucket=0x01
22743 count=  1 bucket=0x01
25132 count=  1 bucket=0x01
32301 count=  1 bucket=0x01
39945 count=  1 bucket=0x01
44034 count=  1 bucket=0x01
57593 count=  1 bucket=0x01
64725 count=  1 bucket=0x01
total edges hit: 10
"""


def test_instrument_run_and_cov_do_not_import_numpy(victim_wasm, tmp_path):
    hardened, inp = tmp_path / "v.h.wasm", tmp_path / "in"
    inp.write_bytes(b"42" + b"A" * 24)

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-c", NO_NUMPY, *map(str, argv)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60)

    proc = cli("instrument", victim_wasm, "-o", hardened,
               "--canary-seed", "1", "--cov-seed", "3")
    assert proc.returncode == EXIT_OK, proc.stderr
    proc = cli("run", hardened, inp)
    assert proc.returncode == EXIT_CRASH, proc.stderr
    proc = cli("cov", hardened, inp)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == COV_OVERFLOW
