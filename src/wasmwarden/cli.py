"""Command-line entry point.

Subcommands: instrument (apply hardening/coverage passes), run (execute one
input and classify the outcome), fuzz (coverage-guided campaign), cov
(dump the trace map for one input).

Exit codes: 0 success, 1 malformed binary or invalid module, 2 usage
error, unsupported input or a file that cannot be read or written, 10
target crashed, 11 fuel exhausted. Every refusal is an exception that
``_refuse`` reports and maps to its code.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .encoder import encode_module
from .interp import (
    INPUT_PATH,
    MAX_PAGES,
    Engine,
    InvalidModule,
    RunLimits,
    SeedCrashes,
    WasiConfig,
    classify_crash,
    exec_argv,
)
from .ir import MalformedBinary, WasmError
from .parser import parse_module
from .passes.coverage import (
    ACCESSOR_NAME,
    COUNT_BUCKET,
    apply_coverage_pass,
)
from .passes.heap_canary import HeapConfig, apply_heap_pass
from .passes.sites import ORACLE_KINDS, SiteTable, collect_sites
from .passes.stack_canary import CanaryConfig, apply_stack_pass
from .validate import MAX_MEMORY_PAGES, validate_module

if TYPE_CHECKING:
    from .fuzz.engine import FuzzConfig

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_USAGE = 2
EXIT_CRASH = 10
EXIT_FUEL = 11


class UsageError(WasmError):
    """A command line the tool refuses."""


# the exit code of a refusal: the first row its exception is an instance of
_EXIT_CODES = (
    ((MalformedBinary, InvalidModule), EXIT_PARSE),
    (SeedCrashes, EXIT_CRASH),
    ((WasmError, OSError), EXIT_USAGE),
)


def _refuse(e: WasmError | OSError, where: str = "") -> int:
    """Report a refusal on one line and return its exit code."""
    print(f"error: {where}{e}", file=sys.stderr)
    return next(code for cls, code in _EXIT_CODES if isinstance(e, cls))


def _load_module(path: str):
    return parse_module(Path(path).read_bytes())


def _load_sites(bin_path: str, explicit: str | None) -> SiteTable:
    """The sites sidecar named on the command line, or else
    ``<binary>.sites.json``, the only one that may be absent."""
    path = Path(bin_path + ".sites.json" if explicit is None else explicit)
    if explicit is None and not path.exists():
        return SiteTable()
    return SiteTable.from_json(path.read_bytes())


def _parse_overrides(pairs: list[str]) -> dict[str, int]:
    out = {}
    for pair in pairs:
        name, _, idx = pair.partition("=")
        if not idx.isdigit():
            raise UsageError(f"expected name=index, got {pair!r}")
        out[name] = int(idx)
    return out


# ---------------------------------------------------------------------------
def cmd_instrument(args) -> int:
    if Path(args.output).resolve() == Path(args.input).resolve():
        raise UsageError("output path equals input path")
    if args.no_heap_canaries and args.no_stack_canaries and args.no_coverage:
        raise UsageError("all passes disabled; nothing to do")

    m = _load_module(args.input)
    # a maximum already past 4 GiB is the input's fault: the output then
    # fails validation, exit code 1
    in_max = m.memory[1] if m.memory and m.memory[1] is not None else 0
    if ACCESSOR_NAME in m.export_map():
        raise UsageError(f"{args.input} already exports {ACCESSOR_NAME}; "
                         "refusing to instrument twice")

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
    # the trace map's page may take the memory past what Engine() accepts,
    # or a valid maximum past what Wasm allows
    if m.memory and m.memory[0] > MAX_PAGES:
        raise UsageError(
            f"instrumented module would start with {m.memory[0]} pages of "
            f"memory, past the {MAX_PAGES}-page limit"
        )
    if (m.memory and m.memory[1] is not None
            and m.memory[1] > MAX_MEMORY_PAGES >= in_max):
        raise UsageError(
            f"instrumented module would allow {m.memory[1]} pages of "
            f"memory, past the {MAX_MEMORY_PAGES}-page (4 GiB) limit"
        )
    # one walk of the final bodies serves the count and the sidecar
    sites = collect_sites(m)
    if not args.no_coverage:
        n_cov = sum(1 for s in sites if s.kind.startswith("cov"))
        print(f"coverage pass: {n_cov} branch sites")

    report = validate_module(m)
    if not report.ok:
        raise InvalidModule(f"instrumented module fails validation: {report}")

    Path(args.output).write_bytes(encode_module(m))
    oracle_sites = sites.by_kind(*ORACLE_KINDS)
    Path(args.output + ".sites.json").write_text(oracle_sites.to_json())
    print(f"wrote {args.output} (+ sidecar, {len(oracle_sites)} oracle sites)")
    return EXIT_OK


def _at_least(least: int, what: str, kind=int):
    """An argparse type: a ``kind`` value of ``least`` or more."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not value >= least:  # NaN is not >= least
            raise argparse.ArgumentTypeError(
                f"expected {what}, {least} or more, got {text!r}")
        return value
    return parse


# --fuel: how many instructions a run may execute
_fuel = _at_least(0, "a count of instructions")


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
                  f"bucket=0x{COUNT_BUCKET[raw]:02x}")
    print(f"total edges hit: {edges}")
    return EXIT_OK


def _run_campaign(module, seeds: list[bytes], cfg: FuzzConfig,
                  sites: SiteTable, quiet: bool = False) -> int:
    from .fuzz.engine import Fuzzer

    fuzzer = Fuzzer(module, sites, cfg)
    if not quiet:
        fuzzer.on_stats = lambda s: print(
            f"execs={s.execs} ({s.execs_per_sec:.0f}/s) "
            f"paths={s.unique_paths} crashes={s.unique_crashes} "
            f"edges={s.edges_covered}",
            file=sys.stderr,
        )
    print(fuzzer.run(seeds).to_json())
    return EXIT_OK


def _campaign_worker(task) -> int:
    """One ``--jobs`` campaign. It reports its own refusal, naming its
    directory: no exception may cross the pool, as some do not unpickle."""
    module, seeds, cfg, sites = task
    try:
        return _run_campaign(module, seeds, cfg, sites, quiet=True)
    except (WasmError, OSError) as e:
        return _refuse(e, f"{cfg.out_dir}: ")


def cmd_fuzz(args) -> int:
    # the fuzzer imports numpy (~0.1 s), which no other command needs
    from .fuzz.engine import FuzzConfig, Fuzzer

    if args.seeds is None and not args.resume:
        raise UsageError("fuzz needs --seeds (or --resume)")
    sites = _load_sites(args.binary, args.sites)
    out = Path(args.output)
    # each job keeps its own campaign dir, and a campaign goes on from
    # the files in its dir
    dirs = ([out] if args.jobs <= 1
            else [out / f"job_{k}" for k in range(args.jobs)])
    if args.resume:
        for d in dirs:
            if not (d / "queue").is_dir():
                raise UsageError(f"nothing to resume in {d}")
    seeds = []
    if args.seeds is not None:
        seeds_dir = Path(args.seeds)
        if not seeds_dir.is_dir():
            raise UsageError(f"seeds dir not found: {args.seeds}")
        seeds = [p.read_bytes() for p in sorted(seeds_dir.iterdir())
                 if p.is_file()]

    def make_cfg(out_dir: Path | None, seed: int) -> FuzzConfig:
        return FuzzConfig(
            out_dir=out_dir,
            rng_seed=seed,
            max_execs=args.execs,
            max_seconds=args.time,
            limits=RunLimits(fuel=args.fuel),
            argv=_argv_template(args),
        )

    module = _load_module(args.binary)
    if args.jobs <= 1:
        return _run_campaign(module, seeds, make_cfg(out, args.seed), sites)

    import multiprocessing as mp

    # what every job would refuse is refused once, before any job dir exists
    fuzzer = Fuzzer(module, sites, make_cfg(None, args.seed))
    if not args.resume:  # a resumed job's own queue rules on its seeds
        fuzzer.add_seeds(seeds)
    tasks = [(module, seeds, make_cfg(d, args.seed + k), sites)
             for k, d in enumerate(dirs)]
    with mp.Pool(args.jobs) as pool:
        codes = pool.map(_campaign_worker, tasks)
    return max(codes)


# ---------------------------------------------------------------------------
class _Parser(argparse.ArgumentParser):
    """Refuses a command line as ``main`` refuses any other command: one
    ``error:`` line and exit code 2, without argparse's usage lines. The
    subcommands' parsers are of this class too."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
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
    pi.add_argument("--sp-global", type=_at_least(0, "a global index"),
                    default=0,
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
    pr.add_argument("--fuel", type=_fuel, default=RunLimits.fuel)
    pr.add_argument("--argv", default=None,
                    help='argv template, e.g. "prog @@"; @@ stands for '
                         f'{INPUT_PATH}, and the input is on stdin')
    pr.set_defaults(fn=cmd_run)

    pf = sub.add_parser("fuzz", help="coverage-guided fuzzing campaign")
    pf.add_argument("binary")
    pf.add_argument("-o", "--output", required=True, help="campaign dir")
    pf.add_argument("--seeds", default=None, help="seed inputs dir")
    pf.add_argument("--sites", default=None)
    pf.add_argument("--time", type=_at_least(0, "seconds", float),
                    default=None, help="seconds")
    pf.add_argument("--execs", type=_at_least(0, "a count of execs"),
                    default=None)
    pf.add_argument("--fuel", type=_fuel, default=RunLimits.fuel)
    pf.add_argument("--argv", default=None)
    pf.add_argument("--seed", type=int, default=0, help="campaign rng seed")
    pf.add_argument("--resume", action="store_true",
                    help="require the campaign dir to hold a queue "
                         "already (with --jobs, each job its own)")
    pf.add_argument("--jobs", type=_at_least(1, "a count of campaigns"),
                    default=1)
    pf.set_defaults(fn=cmd_fuzz)

    pc = sub.add_parser("cov", help="dump trace map for one input")
    pc.add_argument("binary")
    pc.add_argument("input", nargs="?", default=None)
    pc.add_argument("--fuel", type=_fuel, default=RunLimits.fuel)
    pc.add_argument("--argv", default=None)
    pc.set_defaults(fn=cmd_cov)
    return p


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING)
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (WasmError, OSError) as e:
        return _refuse(e)


if __name__ == "__main__":
    sys.exit(main())
