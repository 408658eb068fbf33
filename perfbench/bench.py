"""Workloads, timing loops and correctness checks of the benchmark.

Load comes from this one process and thread. A campaign is a closed
loop: ``Fuzzer.run`` waits for each exec before it mutates the next.
"""

from __future__ import annotations

import gc
import gzip
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import types
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy

import wasmwarden.encoder
import wasmwarden.fuzz.engine as fuzz_engine
from wasmwarden import (
    Engine,
    RunLimits,
    WasiConfig,
    classify_crash,
    encode_module,
    parse_module,
    validate_module,
)
from wasmwarden.fuzz import NO_NEW, CrashReport, FuzzConfig, Fuzzer
from wasmwarden.fuzz.mutate import STAGES
from wasmwarden.ir import ModuleIR
from wasmwarden.passes import (
    CanaryConfig,
    HeapConfig,
    SiteTable,
    apply_coverage_pass,
    apply_heap_pass,
    apply_stack_pass,
    collect_sites,
)
from wasmwarden.passes.sites import ORACLE_KINDS

import spans as sp
import targets

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

CANARY_SEED = 1  # heap and stack canary values
COV_SEED = 3  # coverage edge ids
BIG_MODULE_SEED = 2021  # generator seed of the instrument workload's module
SETUP_PROBES = 12  # fresh processes per run, spread through the run
MIN_PIPELINE_REPS = 3
MIN_CAMPAIGNS = 2  # two runs of one seed are needed for the digest check

# stats.json fields that hold wall-clock readings
WALL_CLOCK_FIELDS = ("execs_per_sec", "elapsed_seconds",
                     "last_new_path_seconds")


@dataclass(frozen=True)
class Workload:
    """One workload; README.md and BENCHMARK.json say why each exists."""

    name: str
    target: Callable[[], ModuleIR]  # the uninstrumented module
    seed_input: bytes
    fuel: int
    max_execs: int  # exec budget of one campaign
    skip_deterministic: bool
    pipeline_share: float  # share of the run spent on pipeline reps
    benign: bool  # no input can crash the target
    expected_crash: Optional[tuple[str, bytes]] = None  # (oracle, prefix)


WORKLOADS = {w.name: w for w in (
    Workload(
        "victim",
        targets.victim_module,
        b"A" * 16,
        fuel=1_000_000, max_execs=10_000, skip_deterministic=False,
        pipeline_share=0.1, benign=False,
        expected_crash=("stack-canary", b"42"),
    ),
    Workload(
        "instrument",
        # one fixed module: every run instruments the same bytes
        lambda: targets.big_module(BIG_MODULE_SEED),
        # havoc from a fixed input spreads the execs over all 16 entries,
        # so their mean cost does not depend on the seed
        bytes(range(16)),
        fuel=1_000_000, max_execs=400, skip_deterministic=True,
        pipeline_share=0.8, benign=True,
    ),
)}

REAL_LAYERS = types.SimpleNamespace(
    parse_module=parse_module,
    apply_heap_pass=apply_heap_pass,
    apply_stack_pass=apply_stack_pass,
    apply_coverage_pass=apply_coverage_pass,
    validate_module=validate_module,
    encode_module=encode_module,
    Engine=Engine,
)


# ---------------------------------------------------------------------------
# the static pipeline: what `wasmwarden instrument` does, then what `run`
# and `fuzz` pay before their first exec

def instrument(raw: bytes, layers=REAL_LAYERS) -> tuple[bytes, SiteTable]:
    m = layers.parse_module(raw)
    m, _ = layers.apply_heap_pass(m, HeapConfig(rng_seed=CANARY_SEED))
    m, _ = layers.apply_stack_pass(m, CanaryConfig(rng_seed=CANARY_SEED))
    m, _ = layers.apply_coverage_pass(m, rng_seed=COV_SEED)
    report = layers.validate_module(m)
    if not report.ok:
        raise RuntimeError(f"instrumented module fails validation: {report}")
    return layers.encode_module(m), collect_sites(m).by_kind(*ORACLE_KINDS)


def load(binary: bytes, layers=REAL_LAYERS) -> Engine:
    return layers.Engine(layers.parse_module(binary))


def instr_count(m: ModuleIR) -> int:
    return sum(len(f.body) for f in m.functions)


def traced_layers(tracer: sp.Tracer, ir_counts: dict) -> tuple:
    """Pipeline and load layers that record spans; the pipeline ones also
    record the IR instruction count after each step."""
    def count(key):
        def note(args, result):
            ir_counts[key] = instr_count(
                result[0] if isinstance(result, tuple) else result)
        return note

    w = tracer.wrap
    pipeline = types.SimpleNamespace(
        parse_module=w("parser.parse_module", parse_module,
                       note=count("ir.instrs.input")),
        apply_heap_pass=w("passes.heap_canary", apply_heap_pass,
                          note=count("ir.instrs.heap_canary")),
        apply_stack_pass=w("passes.stack_canary", apply_stack_pass,
                           note=count("ir.instrs.stack_canary")),
        apply_coverage_pass=w("passes.coverage", apply_coverage_pass,
                              note=count("ir.instrs.coverage")),
        validate_module=w("validate.validate_module", validate_module),
        encode_module=w("encoder.encode_module", encode_module),
    )
    loader = types.SimpleNamespace(
        parse_module=w("parser.parse_module", parse_module),
        Engine=w("interp.engine_init", Engine),
    )
    return pipeline, loader


# ---------------------------------------------------------------------------
# campaigns

class Tally:
    """Counts taken at the traced boundaries of one campaign."""

    def __init__(self):
        self.counts: Counter = Counter()

    def outcome(self, args, out):
        if out.status == "fuel-exhausted":
            self.counts["hangs"] += 1
        elif out.status == "trap":
            self.counts["traps"] += 1

    def novelty(self, args, result):
        self.counts["novel"] += result != NO_NEW

    def mutate(self, args, result):
        self.counts["mutate." + args[2]] += 1


class _Proxy:
    """A stand-in for a module that overrides some of its names."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


@contextmanager
def traced_campaign(fz: Fuzzer, tracer: sp.Tracer, tally: Tally):
    """Bind span wrappers where the Fuzzer looks each name up: its module
    globals, its bitmaps, its engine and itself."""
    saved = (fuzz_engine.classify_counts, fuzz_engine.mut,
             wasmwarden.encoder.encode_module)
    w = tracer.wrap
    fuzz_engine.classify_counts = w("fuzz.bitmap.classify_counts", saved[0])
    fuzz_engine.mut = _Proxy(
        saved[1], mutate=w("fuzz.mutate", saved[1].mutate, note=tally.mutate))
    # Fuzzer.run encodes the module into fuzzer_setup.json's hash
    wasmwarden.encoder.encode_module = w("encoder.encode_module", saved[2])
    fz.run_input = w("fuzz.run_input", fz.run_input, starts_exec=True)
    for vmap in (fz.path_map, fz.crash_map):
        vmap.has_new_bits = w("fuzz.bitmap.has_new_bits", vmap.has_new_bits,
                              note=tally.novelty)
    eng = fz.engine
    eng.instantiate = w("interp.instantiate", eng.instantiate)
    eng.run_start = w("interp.run_start", eng.run_start, note=tally.outcome)
    eng.read_trace_bits = w("interp.read_trace_bits", eng.read_trace_bits)
    try:
        yield
    finally:
        (fuzz_engine.classify_counts, fuzz_engine.mut,
         wasmwarden.encoder.encode_module) = saved


@dataclass
class CampaignRun:
    crashes: list[CrashReport]
    out_dir: Path
    execs: int
    wall_s: float  # of Fuzzer.run
    instructions: int
    digest: str
    queue_files: int
    crash_files: int
    tally: Optional[Tally] = None  # set on traced runs
    layers: Optional[dict] = None  # name -> (calls, self ns), traced runs
    campaign_ns: int = 0
    spans: Optional[list] = None

    @property
    def execs_per_s(self) -> float:
        return self.execs / self.wall_s


def run_campaign(module: ModuleIR, sites: SiteTable, wl: Workload,
                 seed: int, out_dir: Path,
                 tracer: Optional[sp.Tracer] = None) -> CampaignRun:
    cfg = FuzzConfig(
        out_dir=out_dir, rng_seed=seed, max_execs=wl.max_execs,
        limits=RunLimits(fuel=wl.fuel),
        skip_deterministic=wl.skip_deterministic,
    )
    fz = Fuzzer(module, sites, cfg)
    # every run, traced or not, counts instructions, so the two differ
    # only by their spans
    instructions = [0]
    run_start = fz.engine.run_start

    def counted_run_start(inst, limits=None):
        out = run_start(inst, limits)
        instructions[0] += out.instructions_executed
        return out

    fz.engine.run_start = counted_run_start
    tally = Tally() if tracer is not None else None
    with (traced_campaign(fz, tracer, tally) if tracer is not None
          else nullcontext()):
        run = (tracer.wrap("fuzz.campaign", fz.run) if tracer is not None
               else fz.run)
        t0 = time.perf_counter()
        stats = run([wl.seed_input])
        wall = time.perf_counter() - t0
    run = CampaignRun(
        fz.crashes, out_dir, stats.execs, wall, instructions[0],
        artifact_digest(out_dir),
        len(list((out_dir / "queue").iterdir())),
        len(list((out_dir / "crashes").iterdir())),
    )
    if tracer is not None:
        run.tally = tally
        run.spans = tracer.take()
        run.layers = sp.by_name(run.spans)
        run.campaign_ns = sum(s[sp.END] - s[sp.START] for s in run.spans
                              if s[sp.NAME] == "fuzz.campaign")
    return run


def artifact_digest(out_dir: Path) -> str:
    """Queue and crash names and bytes, plus stats.json without its
    wall-clock fields."""
    h = hashlib.sha256()
    for sub in ("queue", "crashes"):
        for p in sorted((out_dir / sub).iterdir()):
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            h.update(f"{sub}/{p.name} {digest}\n".encode())
    stats = json.loads((out_dir / "stats.json").read_text())
    for key in WALL_CLOCK_FIELDS:
        stats.pop(key, None)
    h.update(json.dumps(stats, sort_keys=True).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# correctness

class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_output(checks: Checks, binary: bytes):
    m = parse_module(binary)
    checks.check(validate_module(m).ok, "instrumented module validates")
    checks.check(encode_module(m) == binary,
                 "instrumented module round-trips through parse and encode")


def check_campaign(checks: Checks, wl: Workload, binary: bytes,
                   sites: SiteTable, run: CampaignRun, seed: int):
    """Replay every artifact of one campaign on a fresh engine."""
    eng = Engine(parse_module(binary))
    limits = RunLimits(fuel=wl.fuel)

    def replay(data: bytes):
        wasi = WasiConfig(stdin=data, rng_seed=seed)
        return eng.run_start(eng.instantiate(wasi), limits)

    for p in sorted((run.out_dir / "queue").iterdir()):
        out = replay(p.read_bytes())
        checks.check(
            out.status == "exit" and not classify_crash(out, sites).is_crash,
            f"queue/{p.name} replays without a crash")
    crashes = run.crashes
    files = sorted((run.out_dir / "crashes").iterdir())  # in id order
    checks.check(len(files) == len(crashes),
                 "one crash artifact per unique crash")
    for p, report in zip(files, crashes):
        out = replay(p.read_bytes())
        checks.check(
            (out.trap_kind, out.trap_function, out.trap_offset)
            == (report.trap_kind, report.trap_function, report.trap_offset),
            f"crashes/{p.name} replays to its recorded trap")
    if wl.benign:
        checks.check(not crashes, "a benign target yields no crash")
    if wl.expected_crash is not None:
        oracle, prefix = wl.expected_crash
        checks.check(
            any(r.oracle == oracle and r.data.startswith(prefix)
                for r in crashes),
            f"a {oracle} crash whose input starts with {prefix!r} is found")


# ---------------------------------------------------------------------------
# environment and set-up

def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(wl: Workload, seed: int, seconds: float) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "fuel": wl.fuel,
        "exec_budget": wl.max_execs,
        "deterministic_stages": not wl.skip_deterministic,
        "canary_seed": CANARY_SEED,
        "cov_seed": COV_SEED,
    }


def probe_setup(binary: Path, sites_json: Path, fuel: int) -> float:
    """Set-up time of one fresh process (probe.py)."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), str(ROOT / "src"),
         str(binary), str(sites_json), str(fuel)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(out.stdout.split()[-1])


# ---------------------------------------------------------------------------
# metrics

def _campaign_layers(runs: list[CampaignRun]) -> dict[str, tuple]:
    """Per-layer metrics from the traced campaigns, as name -> (value,
    unit)."""
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    campaign_ns = 0
    tally: Counter = Counter()
    for run in runs:
        for name, (n, t) in run.layers.items():
            calls[name] += n
            self_ns[name] += t
        campaign_ns += run.campaign_ns
        tally.update(run.tally.counts)
    execs = sum(r.execs for r in runs)
    n_runs = len(runs)
    m: dict[str, tuple] = {}
    for layer in ("fuzz.bitmap.classify_counts", "fuzz.bitmap.has_new_bits",
                  "interp.read_trace_bits", "interp.instantiate",
                  "interp.run_start", "fuzz.mutate"):
        m[layer + ".us"] = (self_ns[layer] / max(calls[layer], 1) / 1e3,
                            "us")
        m[layer + ".share"] = (self_ns[layer] / campaign_ns, "ratio")
    for layer, key in (("fuzz.run_input", "fuzz.run_input.self_us"),
                       ("fuzz.campaign", "fuzz.engine.self_us")):
        m[key] = (self_ns[layer] / execs / 1e3, "us")
        m[key.replace("self_us", "share")] = (
            self_ns[layer] / campaign_ns, "ratio")
    m["encoder.encode_module.campaign.s"] = (
        self_ns["encoder.encode_module"] / n_runs / 1e9, "s")
    m["fuzz.bitmap.novel_ratio"] = (
        tally["novel"] / calls["fuzz.bitmap.has_new_bits"], "ratio")
    m["interp.run_start.instr_per_s"] = (
        sum(r.instructions for r in runs)
        / (self_ns["interp.run_start"] / 1e9), "1/s")
    m["interp.run_start.hangs"] = (tally["hangs"] / n_runs, "count")
    m["interp.run_start.traps"] = (tally["traps"] / n_runs, "count")
    for stage in STAGES:
        m[f"fuzz.mutate.calls.{stage}"] = (
            tally["mutate." + stage] / n_runs, "count")
    m["fuzz.engine.queue_writes"] = (
        sum(r.queue_files for r in runs) / n_runs, "count")
    m["fuzz.engine.crash_writes"] = (
        sum(r.crash_files for r in runs) / n_runs, "count")
    return m


PIPELINE_LAYERS = ("parser.parse_module", "passes.heap_canary",
                   "passes.stack_canary", "passes.coverage",
                   "validate.validate_module", "encoder.encode_module")


def _pipeline_layers(reps: list[list], ir_counts: dict) -> dict[str, tuple]:
    """Per-layer metrics from the traced pipeline reps: the median over
    reps of each layer's self time in the rep."""
    per_rep: dict[str, list[float]] = {}
    for rep in reps:
        inst = sp.by_name(rep, "bench.instrument")
        loaded = sp.by_name(rep, "bench.load")
        roots = sp.by_name(rep)
        row = {f"{layer}.s": inst[layer][1] / 1e9
               for layer in PIPELINE_LAYERS}
        row["bench.instrument.self.s"] = roots["bench.instrument"][1] / 1e9
        row["load.parser.parse_module.s"] = (
            loaded["parser.parse_module"][1] / 1e9)
        row["interp.engine_init.s"] = loaded["interp.engine_init"][1] / 1e9
        for key, value in row.items():
            per_rep.setdefault(key, []).append(value)
    m = {key: (sp.median(vals), "s") for key, vals in per_rep.items()}
    for key, value in ir_counts.items():
        m[key] = (value, "count")
    return m


# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One invocation: set up, measure for ``seconds``, check, report."""
    logging.getLogger("wasmwarden").setLevel(logging.ERROR)
    wl = WORKLOADS[name]
    env = environment(wl, seed, seconds)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        return _measure(wl, seed, seconds, trace, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(wl: Workload, seed: int, seconds: float, trace: bool,
             env: dict, work: Path) -> dict:
    checks = Checks()
    raw = encode_module(wl.target())
    binary, sites = instrument(raw)
    check_output(checks, binary)
    probe_args = (work / "target.wasm", work / "target.sites.json", wl.fuel)
    probe_args[0].write_bytes(binary)
    probe_args[1].write_text(sites.to_json())
    module = parse_module(binary)

    tracer = sp.Tracer() if trace else None
    ir_counts: dict = {}
    if trace:
        pipe_layers, load_layers = traced_layers(tracer, ir_counts)
        span = tracer.span
    else:
        pipe_layers = load_layers = REAL_LAYERS
        span = lambda name: nullcontext()  # noqa: E731

    # pipeline reps, campaigns and set-up probes interleave, so all three
    # sample the whole run
    instrument_s, load_s, pipeline_spans, setup_times = [], [], [], []
    runs: list[CampaignRun] = []
    same_output = True
    spent = {"pipeline": 0.0, "campaign": 0.0}
    t_begin = time.perf_counter()
    while True:
        # probe i is due once i / SETUP_PROBES of the run has passed
        if (len(setup_times) < SETUP_PROBES and len(setup_times) * seconds
                <= SETUP_PROBES * (time.perf_counter() - t_begin)):
            setup_times.append(probe_setup(*probe_args))
        short = {"pipeline": len(instrument_s) < MIN_PIPELINE_REPS,
                 "campaign": len(runs) < MIN_CAMPAIGNS}
        if short["pipeline"] != short["campaign"]:
            kind = "pipeline" if short["pipeline"] else "campaign"
        else:
            total = spent["pipeline"] + spent["campaign"]
            kind = ("pipeline"
                    if spent["pipeline"] <= wl.pipeline_share * total
                    else "campaign")
        if not any(short.values()):
            done = len(instrument_s) if kind == "pipeline" else len(runs)
            mean = spent[kind] / done
            if time.perf_counter() - t_begin + mean > seconds:
                break
        gc.collect()  # each rep starts without the last one's garbage
        t0 = time.perf_counter()
        if kind == "pipeline":
            with span("bench.instrument"):
                out, _ = instrument(raw, pipe_layers)
            t1 = time.perf_counter()
            with span("bench.load"):
                load(out, load_layers)
            if trace:
                pipeline_spans.append(tracer.take())
            instrument_s.append(t1 - t0)
            load_s.append(time.perf_counter() - t1)
            same_output &= out == binary
        else:
            out_dir = work / f"campaign-{len(runs)}"
            traced_rep = trace and len(runs) % 2 == 1
            run = run_campaign(module, sites, wl, seed, out_dir,
                               tracer if traced_rep else None)
            if runs:  # the first run's artifacts are kept for replay
                shutil.rmtree(out_dir)
            if run.spans is not None:  # keep only the last traced spans
                for r in runs:
                    r.spans = None
            runs.append(run)
        spent[kind] += time.perf_counter() - t0
    while len(setup_times) < SETUP_PROBES:  # a short run ends before all
        setup_times.append(probe_setup(*probe_args))
    checks.check(same_output, "instrument output is the same on every "
                 "repetition")
    digests = sorted({r.digest for r in runs})
    print(f"digest {wl.name} seed={seed}: {' '.join(digests)} "
          f"({len(runs)} campaigns)")
    for r in runs[1:]:
        checks.check(r.digest == runs[0].digest,
                     "campaign artifacts are the same on every run of the "
                     "seed")
    check_campaign(checks, wl, binary, sites, runs[0], seed)

    result: dict = {"env": env, "digest": digests[0],
                    "checks": {"attempted": checks.attempted,
                               "failed": checks.failed,
                               "failures": checks.failures}}
    untraced = [r for r in runs if r.tally is None]
    if trace:
        traced = [r for r in runs if r.tally is not None]
        metrics = _campaign_layers(traced)
        metrics.update(_pipeline_layers(pipeline_spans, ir_counts))
        eps_plain = max(r.execs_per_s for r in untraced)
        eps_traced = max(r.execs_per_s for r in traced)
        metrics["trace.execs_per_s.untraced"] = (eps_plain, "1/s")
        metrics["trace.execs_per_s.traced"] = (eps_traced, "1/s")
        metrics["trace.overhead_frac"] = (1 - eps_traced / eps_plain,
                                          "ratio")
        write_spans(wl.name, seed, pipeline_spans + [traced[-1].spans])
    else:
        execs = sum(r.execs for r in runs)
        # best of N identical repetitions (set-up probes included): the
        # host's speed shifts between modes for seconds at a time, and only
        # ever slows the work down
        metrics = {
            "execs_per_s": (max(r.execs_per_s for r in runs), "1/s"),
            "instr_per_exec": (sum(r.instructions for r in runs) / execs,
                               "count"),
            "instrument_s": (min(instrument_s), "s"),
            "load_s": (min(load_s), "s"),
            "instrumented_bytes": (len(binary), "bytes"),
            "setup_s": (min(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
            "checks_passed_frac": (
                1 - sp.failed_frac(checks.failed, checks.attempted),
                "ratio"),
        }
    result["samples"] = {
        "execs_per_s": [r.execs_per_s for r in runs],
        "instrument_s": instrument_s,
        "load_s": load_s,
        "setup_s": setup_times,
    }
    result["metrics"] = metrics
    return result


def write_spans(workload: str, seed: int, groups: list[list]):
    """Spans of the traced pipeline reps and of the last traced campaign,
    one JSON list per line."""
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt") as f:
        for group_id, group in enumerate(groups):
            for s in group:
                f.write(json.dumps([group_id] + s) + "\n")


def write_result(workload: str, seed: int, trace: int, result: dict):
    path = OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
