"""wasmwarden campaign benchmark.

    python3 perfbench/run.py --workload victim|instrument|all \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (correctness checks) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--workload all`` runs each workload in its own process
and prints a table. See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# bench.WORKLOADS holds the same names; bench is imported only once the
# sources are known to be there
WORKLOAD_NAMES = ("victim", "instrument")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0,
                   help="campaign rng seed (targets and seed inputs are "
                        "fixed)")
    p.add_argument("--seconds", type=float, default=55.0,
                   help="measured time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def describe_samples(name: str, samples: list) -> str:
    """How a metric was taken from its samples: the best of N repetitions
    (set-up probes are fresh processes), shown with their median and,
    given ten samples beyond it, their slow tail."""
    import spans

    n = len(samples)
    if n < 2:
        return ""
    text = f"  (best of {n}; median {spans.median(samples):.6g}"
    level = spans.tail_level(n)
    if level is not None:
        # a rate's slow tail is its low end
        q = 100 - level if name == "execs_per_s" else level
        text += f"; p{q:g} {spans.percentile(samples, q):.6g}"
    return text + ")"


def last_json_line(stdout: str):
    """The JSON object on the last line of ``stdout``, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def run_all(args) -> int:
    """Each workload in a fresh process; a table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        sys.stderr.write(proc.stderr)
        # a failed check still prints its result line and exits 1; only a
        # run without one (a crash) is an error
        result = last_json_line(proc.stdout)
        if result is None:
            print(f"error: workload {name} exited with {proc.returncode} "
                  "and no result line", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
            rows.append((name, metric, v["value"], v["unit"]))
        rows.append((name, "failed_frac", result["failed"]
                     / result["attempted"], "ratio"))
    for name, metric, value, unit in rows:
        print(f"{name:<11} {metric:<40} {value:>16.6g} {unit}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "wasmwarden" / "__init__.py").is_file():
        print(f"error: no wasmwarden sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import bench
    import spans

    result = bench.run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    checks = result["checks"]
    for what in checks["failures"]:
        print(f"FAILED check: {what}")
    print(f"checks {checks['attempted'] - checks['failed']}/"
          f"{checks['attempted']} passed, failed_frac = "
          f"{spans.failed_frac(checks['failed'], checks['attempted']):.4f}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}"
              + describe_samples(name, result["samples"].get(name, [])))
    bench.write_result(args.workload, args.seed, args.trace, result)
    ok = checks["failed"] == 0
    print(json.dumps({
        "correct": ok,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
