import json
import re

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
from wasmwarden.passes.coverage import MAP_SIZE


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
    # the whole run takes 83 instructions
    assert main(["run", str(hardened), str(inp), "--fuel", "50"]) \
        == EXIT_FUEL


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


def test_fuzz_new_seeds_are_queued_after_the_old_queue(hardened, tmp_path):
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
    assert main([*common, "--seeds", str(second), "--execs", "1"]) \
        == EXIT_OK
    after = {p.name: p.read_bytes() for p in queue.iterdir()}
    assert {n: after.get(n) for n in before} == before
    new = after.keys() - before.keys()
    assert [after[n] for n in new] == [b"second seed"]
    assert min(new) > max(before)


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


def test_missing_file_is_usage_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.wasm")]) == EXIT_USAGE
