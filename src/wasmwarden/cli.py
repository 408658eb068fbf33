"""Command-line entry point.

Subcommands: instrument (apply hardening/coverage passes), run (execute one
input and classify the outcome), fuzz (coverage-guided campaign), cov
(dump the trace map for one input).

Exit codes: 0 success, 1 parse/validation failure, 2 usage error or
unsupported input, 10 target crashed, 11 fuel exhausted.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .encoder import encode_module
from .interp import (
    INPUT_PATH,
    Engine,
    RunLimits,
    WasiConfig,
    classify_crash,
    exec_argv,
)
from .ir import MalformedBinary, UnsupportedFeature, WasmError
from .parser import parse_module
from .passes.coverage import ACCESSOR_NAME, apply_coverage_pass
from .passes.heap_canary import HeapConfig, apply_heap_pass
from .passes.sites import ORACLE_KINDS, SiteTable, collect_sites
from .passes.stack_canary import CanaryConfig, apply_stack_pass
from .validate import validate_module
from .fuzz.bitmap import bucket_for_count
from .fuzz.engine import (
    AllSeedsInvalid,
    FuzzConfig,
    Fuzzer,
    SeedCrashes,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_USAGE = 2
EXIT_CRASH = 10
EXIT_FUEL = 11

log = logging.getLogger(__name__)


def _load_module(path: str):
    try:
        return parse_module(Path(path).read_bytes())
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except UnsupportedFeature as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except (MalformedBinary, WasmError) as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _load_sites(bin_path: str, explicit: str | None) -> SiteTable:
    path = Path(explicit) if explicit else Path(bin_path + ".sites.json")
    if path.exists():
        return SiteTable.from_json(path.read_text())
    return SiteTable()


def _parse_overrides(pairs: list[str]) -> dict[str, int]:
    out = {}
    for pair in pairs:
        name, _, idx = pair.partition("=")
        if not idx.isdigit():
            print(f"error: expected name=index, got {pair!r}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        out[name] = int(idx)
    return out


# ---------------------------------------------------------------------------
def cmd_instrument(args) -> int:
    if Path(args.output).resolve() == Path(args.input).resolve():
        print("error: output path equals input path", file=sys.stderr)
        return EXIT_USAGE
    passes_on = [
        not args.no_heap_canaries, not args.no_stack_canaries,
        not args.no_coverage,
    ]
    if not any(passes_on):
        print("error: all passes disabled; nothing to do", file=sys.stderr)
        return EXIT_USAGE

    m = _load_module(args.input)
    if ACCESSOR_NAME in m.export_map():
        print(
            f"error: {args.input} already exports {ACCESSOR_NAME}; "
            "refusing to instrument twice", file=sys.stderr,
        )
        return EXIT_USAGE

    if not args.no_heap_canaries:
        overrides = _parse_overrides(args.alloc + args.dealloc)
        m, heap_sites = apply_heap_pass(
            m, HeapConfig(rng_seed=args.canary_seed), overrides
        )
        print(f"heap pass: {len(heap_sites)} check sites")
    if not args.no_stack_canaries:
        m, stack_sites = apply_stack_pass(
            m, CanaryConfig(sp_global=args.sp_global,
                            rng_seed=args.canary_seed)
        )
        # one check site per function that opens a frame
        print(
            f"stack pass: {len(stack_sites)} of {len(m.functions)} "
            f"functions have a frame, {len(stack_sites)} check sites"
        )
    if not args.no_coverage:
        m, _ = apply_coverage_pass(m, rng_seed=args.cov_seed)
        n_cov = sum(
            1 for s in collect_sites(m) if s.kind.startswith("cov")
        )
        print(f"coverage pass: {n_cov} branch sites")

    report = validate_module(m)
    if not report.ok:
        print(f"error: instrumented module fails validation:\n{report}",
              file=sys.stderr)
        return EXIT_PARSE

    Path(args.output).write_bytes(encode_module(m))
    sites = collect_sites(m).by_kind(*ORACLE_KINDS)
    Path(args.output + ".sites.json").write_text(sites.to_json())
    print(f"wrote {args.output} (+ sidecar, {len(sites)} oracle sites)")
    return EXIT_OK


def _argv_template(args) -> list[str]:
    return args.argv.split() if args.argv else ["prog"]


def _exec(args):
    """Run ``args.input`` (empty when not given) on ``args.binary`` as a
    campaign runs an input: on stdin, under ``--argv`` and ``--fuel``.
    Returns the engine, the instance and the outcome."""
    engine = Engine(_load_module(args.binary))
    data = Path(args.input).read_bytes() if args.input else b""
    inst = engine.instantiate(
        WasiConfig(exec_argv(_argv_template(args)), data))
    return engine, inst, engine.run_start(inst, RunLimits(fuel=args.fuel))


def cmd_run(args) -> int:
    sites = _load_sites(args.binary, args.sites)
    _, _, outcome = _exec(args)
    sys.stdout.buffer.write(outcome.stdout)
    sys.stdout.buffer.flush()
    sys.stderr.buffer.write(outcome.stderr)

    crash = classify_crash(outcome, sites)
    print(
        f"status={outcome.status} exit_code={outcome.exit_code} "
        f"trap={outcome.trap_kind or '-'} oracle={crash.kind} "
        f"instructions={outcome.instructions_executed}",
        file=sys.stderr,
    )
    if outcome.status == "fuel-exhausted":
        return EXIT_FUEL
    if crash.is_crash:
        return EXIT_CRASH
    return EXIT_OK


def cmd_cov(args) -> int:
    engine, inst, _ = _exec(args)
    edges = 0
    for idx, raw in enumerate(engine.read_trace_bits(inst)):
        if raw:
            edges += 1
            print(f"{idx:5d} count={raw:3d} "
                  f"bucket=0x{bucket_for_count(raw):02x}")
    print(f"total edges hit: {edges}")
    return EXIT_OK


def _run_campaign(binary: str, seeds: list[bytes], cfg: FuzzConfig,
                  sites: SiteTable, quiet: bool = False) -> int:
    m = _load_module(binary)
    fuzzer = Fuzzer(m, sites, cfg)
    if not quiet:
        fuzzer.on_stats = lambda s: print(
            f"execs={s.execs} ({s.execs_per_sec:.0f}/s) "
            f"paths={s.unique_paths} crashes={s.unique_crashes} "
            f"edges={s.edges_covered}",
            file=sys.stderr,
        )
    try:
        stats = fuzzer.run(seeds)
    except SeedCrashes as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CRASH
    except AllSeedsInvalid as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(stats.to_json())
    return EXIT_OK


def _campaign_worker(task) -> int:
    binary, seeds, cfg, sites_json = task
    return _run_campaign(
        binary, seeds, cfg, SiteTable.from_json(sites_json), quiet=True
    )


def cmd_fuzz(args) -> int:
    sites = _load_sites(args.binary, args.sites)
    out = Path(args.output)
    # each job keeps its own campaign dir, and a campaign goes on from
    # the files in its dir
    dirs = ([out] if args.jobs <= 1
            else [out / f"job_{k}" for k in range(args.jobs)])
    if args.resume:
        for d in dirs:
            if not (d / "queue").is_dir():
                print(f"error: nothing to resume in {d}", file=sys.stderr)
                return EXIT_USAGE
    seeds = []
    if args.seeds is not None:
        seeds_dir = Path(args.seeds)
        if not seeds_dir.is_dir():
            print(f"error: seeds dir not found: {args.seeds}",
                  file=sys.stderr)
            return EXIT_USAGE
        seeds = [p.read_bytes() for p in sorted(seeds_dir.iterdir())
                 if p.is_file()]

    def make_cfg(out_dir: Path, seed: int) -> FuzzConfig:
        return FuzzConfig(
            out_dir=out_dir,
            rng_seed=seed,
            max_execs=args.execs,
            max_seconds=args.time,
            limits=RunLimits(fuel=args.fuel),
            argv=_argv_template(args),
        )

    if args.jobs <= 1:
        return _run_campaign(args.binary, seeds, make_cfg(out, args.seed),
                             sites)

    import multiprocessing as mp

    tasks = [
        (args.binary, seeds, make_cfg(d, args.seed + k), sites.to_json())
        for k, d in enumerate(dirs)
    ]
    with mp.Pool(args.jobs) as pool:
        codes = pool.map(_campaign_worker, tasks)
    return max(codes)


# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wasmwarden",
        description="Binary-only Wasm hardening and greybox fuzzing",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("instrument", help="apply hardening/coverage passes")
    pi.add_argument("input")
    pi.add_argument("-o", "--output", required=True)
    pi.add_argument("--no-stack-canaries", action="store_true")
    pi.add_argument("--no-heap-canaries", action="store_true")
    pi.add_argument("--no-coverage", action="store_true")
    pi.add_argument("--sp-global", type=int, default=0,
                    help="global index of the shadow stack pointer")
    pi.add_argument("--canary-seed", type=int, default=None)
    pi.add_argument("--cov-seed", type=int, default=None)
    pi.add_argument("--alloc", action="append", default=[],
                    metavar="NAME=IDX",
                    help="allocator override, e.g. malloc=12")
    pi.add_argument("--dealloc", action="append", default=[],
                    metavar="NAME=IDX")
    pi.set_defaults(fn=cmd_instrument)

    pr = sub.add_parser("run", help="execute one input and classify it")
    pr.add_argument("binary")
    pr.add_argument("input", nargs="?", default=None)
    pr.add_argument("--sites", default=None,
                    help="sites sidecar (default: <binary>.sites.json)")
    pr.add_argument("--fuel", type=int, default=RunLimits.fuel)
    pr.add_argument("--argv", default=None,
                    help='argv template, e.g. "prog @@"; @@ stands for '
                         f'{INPUT_PATH}, and the input is on stdin')
    pr.set_defaults(fn=cmd_run)

    pf = sub.add_parser("fuzz", help="coverage-guided fuzzing campaign")
    pf.add_argument("binary")
    pf.add_argument("-o", "--output", required=True, help="campaign dir")
    pf.add_argument("--seeds", default=None, help="seed inputs dir")
    pf.add_argument("--sites", default=None)
    pf.add_argument("--time", type=float, default=None, help="seconds")
    pf.add_argument("--execs", type=int, default=None)
    pf.add_argument("--fuel", type=int, default=RunLimits.fuel)
    pf.add_argument("--argv", default=None)
    pf.add_argument("--seed", type=int, default=0, help="campaign rng seed")
    pf.add_argument("--resume", action="store_true",
                    help="require the campaign dir to hold a queue "
                         "already (with --jobs, each job its own)")
    pf.add_argument("--jobs", type=int, default=1)
    pf.set_defaults(fn=cmd_fuzz)

    pc = sub.add_parser("cov", help="dump trace map for one input")
    pc.add_argument("binary")
    pc.add_argument("input", nargs="?", default=None)
    pc.add_argument("--fuel", type=int, default=RunLimits.fuel)
    pc.add_argument("--argv", default=None)
    pc.set_defaults(fn=cmd_cov)
    return p


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING)
    args = build_parser().parse_args(argv)
    if args.command == "fuzz" and not args.resume and args.seeds is None:
        print("error: fuzz needs --seeds (or --resume)", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except SystemExit as e:
        return int(e.code or 0)
    except WasmError as e:  # a module the passes or the engine refuse
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
