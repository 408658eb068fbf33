"""Coverage-guided fuzzing campaign: queue management, novelty admission,
crash and hang triage, and on-disk campaign state."""

from __future__ import annotations

import hashlib
import json
import logging
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .. import encoder
from ..interp import (
    Engine,
    ExecOutcome,
    RunLimits,
    WasiConfig,
    classify_crash,
)
from ..ir import ModuleIR, WasmError
from ..passes.sites import SiteTable
from . import mutate as mut
from .bitmap import NO_NEW, VirginMap, classify_counts

log = logging.getLogger(__name__)

HAVOC_ROUNDS = 256  # rng-driven mutations per queue cycle entry
STATS_FLUSH_EVERY = 1.0  # seconds


class SeedCrashes(WasmError):
    def __init__(self, crashing: list[int]):
        super().__init__(
            f"seed input(s) {crashing} crash the target before fuzzing starts"
        )
        self.crashing = crashing


class AllSeedsInvalid(WasmError):
    pass


@dataclass
class FuzzConfig:
    out_dir: Optional[Path] = None
    rng_seed: int = 0
    max_execs: Optional[int] = None
    max_seconds: Optional[float] = None
    limits: RunLimits = field(default_factory=RunLimits)
    argv: list[str] = field(default_factory=lambda: ["prog"])
    stop_after_crashes: Optional[int] = None
    skip_deterministic: bool = False


@dataclass
class QueueEntry:
    id: int
    data: bytes
    parent: int = -1
    stage: str = "seed"
    deterministic_done: bool = False


@dataclass
class CrashReport:
    id: int
    data: bytes
    oracle: str  # "stack-canary" | "heap-canary" | "builtin"
    trap_kind: str
    trap_function: int
    trap_offset: int
    parent: int = -1
    stage: str = ""


@dataclass
class CampaignStats:
    execs: int = 0
    unique_paths: int = 0
    unique_crashes: int = 0
    crashes_total: int = 0
    crashes_by_oracle: dict[str, int] = field(
        default_factory=lambda: {
            "stack-canary": 0, "heap-canary": 0, "builtin": 0
        }
    )
    hangs_total: int = 0
    unique_hangs: int = 0
    edges_covered: int = 0
    start_time: float = 0.0
    elapsed: float = 0.0
    last_new_path: float = 0.0

    @property
    def execs_per_sec(self) -> float:
        return self.execs / self.elapsed if self.elapsed > 0 else 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "execs": self.execs,
                "execs_per_sec": round(self.execs_per_sec, 1),
                "unique_paths": self.unique_paths,
                "unique_crashes": self.unique_crashes,
                "crashes_total": self.crashes_total,
                "crashes_by_oracle": self.crashes_by_oracle,
                "hangs_total": self.hangs_total,
                "unique_hangs": self.unique_hangs,
                "edges_covered": self.edges_covered,
                "elapsed_seconds": round(self.elapsed, 3),
                "last_new_path_seconds": round(self.last_new_path, 3),
            },
            indent=1,
        )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def module_sha256(m: ModuleIR) -> str:
    """SHA-256 of ``m`` as a binary: the digest of the bytes
    ``parse_module`` read it from, or of its encoding when it was built in
    Python or returned by a pass. The two agree whenever the binary
    round-trips. The recorded digest assumes the parsed module was not
    changed in place since; nothing checks that, so code that does so must
    clear ``m.source_sha256``."""
    if m.source_sha256 is not None:
        return m.source_sha256
    return _sha256(encoder.encode_module(m))


def _oracle_bucket(kind: str) -> str:
    """Stats bucket for a crash class kind."""
    if kind in ("heap-underflow", "heap-overflow"):
        return "heap-canary"
    return kind


@dataclass
class _Kept:
    """The inputs a campaign keeps in ``<out>/<sub>/`` rather than in its
    queue: one for each trace new to ``map``, numbered on from
    ``next_id``."""
    sub: str
    map: VirginMap
    next_id: int = 0

    def keep(self, out: Optional[Path], data: bytes, trace: memoryview,
             suffix: str = "", file_id: Optional[int] = None,
             ) -> Optional[int]:
        """The id ``data`` is kept under, or None when ``trace`` is not new
        to the map. An input replayed from the directory keeps its
        ``file_id``; any other takes the next id and is written to
        ``<out>/<sub>/id_NNNNNN<suffix>``."""
        if self.map.has_new_bits(classify_counts(trace)) == NO_NEW:
            return None
        if file_id is None:
            file_id = self.next_id
            self.next_id += 1
            if out is not None:
                (out / self.sub / f"id_{file_id:06d}{suffix}").write_bytes(
                    data)
        return file_id


class Fuzzer:
    """One single-process campaign over an instrumented module."""

    def __init__(
        self,
        module: ModuleIR,
        sites: SiteTable | None,
        config: FuzzConfig | None = None,
    ):
        self.config = config or FuzzConfig()
        self.engine = Engine(module)
        self.sites = sites or SiteTable()
        self.rng = random.Random(self.config.rng_seed)
        self.queue: list[QueueEntry] = []
        self.crashes: list[CrashReport] = []
        # the next queue id; a seed that hangs leaves its id unused
        self._next_queue_id = 0
        self.path_map = VirginMap()
        self.crash_map = VirginMap()
        self.hang_map = VirginMap()
        self._crashes = _Kept("crashes", self.crash_map)
        self._hangs = _Kept("hangs", self.hang_map)
        # ids with a deterministic-stage marker on disk, listed once
        self._done_markers: set[str] = set()
        self.stats = CampaignStats()
        self._last_flush = 0.0
        # holds .cur_input for `@@` when there is no campaign directory
        self._cur_input_dir: Optional[tempfile.TemporaryDirectory] = None
        self.on_stats: Optional[Callable[[CampaignStats], None]] = None

        out = self.config.out_dir
        if out is not None:
            out = Path(out)
            for sub in ("queue", "crashes", "hangs"):
                (out / sub).mkdir(parents=True, exist_ok=True)
            self.config.out_dir = out
            markers = out / ".state" / "deterministic_done"
            if markers.is_dir():
                self._done_markers = {p.name for p in markers.iterdir()}

    # ------------------------------------------------------------------
    def run_input(self, data: bytes) -> tuple[ExecOutcome, memoryview]:
        """Execute one input; returns the outcome and the raw trace bits,
        a read-only view into the instance's memory."""
        argv = [a if a != "@@" else self._write_cur_input(data)
                for a in self.config.argv]
        wasi = WasiConfig(argv=argv, stdin=data,
                          rng_seed=self.config.rng_seed)
        inst = self.engine.instantiate(wasi)
        outcome = self.engine.run_start(inst, self.config.limits)
        trace = self.engine.read_trace_bits(inst)
        self.stats.execs += 1
        return outcome, trace

    def _write_cur_input(self, data: bytes) -> str:
        out = self.config.out_dir
        if out is None:
            if self._cur_input_dir is None:
                self._cur_input_dir = tempfile.TemporaryDirectory(
                    prefix="wasmwarden-")
            out = Path(self._cur_input_dir.name)
        p = out / ".cur_input"
        p.write_bytes(data)
        return str(p)

    def close(self):
        """Remove the private `.cur_input` directory, if one was made."""
        if self._cur_input_dir is not None:
            self._cur_input_dir.cleanup()
            self._cur_input_dir = None

    # ------------------------------------------------------------------
    def add_seeds(self, seeds: list[bytes]):
        """Dry-run every seed; a crashing seed aborts the campaign setup,
        a hanging one is skipped."""
        if not seeds:
            raise AllSeedsInvalid("no seed inputs provided")
        crashing = []
        for i, data in enumerate(seeds):
            outcome, trace = self.run_input(data)
            crash = classify_crash(outcome, self.sites)
            if crash.is_crash:
                crashing.append(i)
                continue
            if outcome.status == "fuel-exhausted":
                log.warning("seed input %d exhausts its fuel; skipped", i)
                self._record_hang(data, outcome, trace, -1, "seed")
                # the seeds after it keep their ids, so a resumed queue
                # is written back to the files it was read from
                self._next_queue_id += 1
                continue
            self.path_map.has_new_bits(classify_counts(trace))
            self._admit(data, parent=-1, stage="seed")
        if crashing:
            raise SeedCrashes(crashing)
        if not self.queue:
            raise AllSeedsInvalid("no usable seed inputs")

    def _admit(self, data: bytes, parent: int, stage: str) -> QueueEntry:
        entry = QueueEntry(self._next_queue_id, data, parent, stage)
        self._next_queue_id += 1
        self.queue.append(entry)
        self.stats.unique_paths = len(self.queue)
        self.stats.last_new_path = time.monotonic() - self.stats.start_time
        out = self.config.out_dir
        if out is not None:
            name = f"id_{entry.id:06d}"
            (out / "queue" / name).write_bytes(data)
            # a resumed campaign skips the stages an earlier one finished
            entry.deterministic_done = (
                name in self._done_markers
                and self._deterministic_marker(entry).read_text()
                == _sha256(data))
        return entry

    def _deterministic_marker(self, entry: QueueEntry) -> Path:
        """Written once ``entry`` has been through every deterministic
        stage; it holds the entry's hash, so it cannot vouch for other
        bytes that later take the same id. It lives outside ``queue/``,
        which holds inputs only."""
        return (self.config.out_dir / ".state" / "deterministic_done"
                / f"id_{entry.id:06d}")

    def _record_crash(
        self, data: bytes, outcome: ExecOutcome, trace: memoryview,
        parent: int, stage: str, file_id: Optional[int] = None,
    ) -> Optional[CrashReport]:
        """Count a crash, and keep it if its trace is new to the crash
        map. A crash replayed from ``crashes/`` keeps its ``file_id`` and
        is not counted again."""
        if file_id is None:
            self.stats.crashes_total += 1
        oracle = _oracle_bucket(classify_crash(outcome, self.sites).kind)
        crash_id = self._crashes.keep(self.config.out_dir, data, trace,
                                      f"_{oracle}", file_id)
        if crash_id is None:
            return None
        report = CrashReport(
            id=crash_id, data=data, oracle=oracle,
            trap_kind=outcome.trap_kind,
            trap_function=outcome.trap_function,
            trap_offset=outcome.trap_offset,
            parent=parent, stage=stage,
        )
        self.crashes.append(report)
        self.stats.unique_crashes = len(self.crashes)
        self.stats.crashes_by_oracle[oracle] = (
            self.stats.crashes_by_oracle.get(oracle, 0) + 1
        )
        if file_id is None:
            log.info(
                "unique crash %d: %s (%s) at func %d offset %d",
                report.id, report.oracle, outcome.trap_kind,
                outcome.trap_function, outcome.trap_offset,
            )
        return report

    def _record_hang(
        self, data: bytes, outcome: ExecOutcome, trace: memoryview,
        parent: int, stage: str, file_id: Optional[int] = None,
    ):
        """Count an exec that ran out of fuel, and keep its input if its
        trace is new to the hang map. A hang replayed from ``hangs/`` keeps
        its ``file_id`` and is not counted again. A hang never enters the
        queue: each havoc round on it would burn the whole fuel budget.
        Takes the arguments of ``_record_crash``."""
        if file_id is None:
            self.stats.hangs_total += 1
        if self._hangs.keep(self.config.out_dir, data, trace,
                            file_id=file_id) is not None:
            self.stats.unique_hangs += 1

    def _recorder(self, outcome: ExecOutcome):
        """The method that records an exec whose input stays out of the
        queue: ``_record_crash`` or ``_record_hang``; None for any
        other exec."""
        if classify_crash(outcome, self.sites).is_crash:
            return self._record_crash
        if outcome.status == "fuel-exhausted":
            return self._record_hang
        return None

    def _replay_kept(self):
        """Re-run the crash and hang files already in the campaign
        directory, so a resumed campaign neither reports them again nor
        reuses their ids."""
        out = self.config.out_dir
        if out is None:
            return
        for kept, record in ((self._crashes, self._record_crash),
                             (self._hangs, self._record_hang)):
            for p in sorted((out / kept.sub).glob("id_*")):
                file_id = int(p.name.split("_")[1])
                kept.next_id = max(kept.next_id, file_id + 1)
                data = p.read_bytes()
                outcome, trace = self.run_input(data)
                if self._recorder(outcome) == record:
                    record(data, outcome, trace, -1, "resume", file_id)
                else:
                    log.warning("%s/%s no longer reproduces", kept.sub,
                                p.name)

    # ------------------------------------------------------------------
    def _process(self, data: bytes, parent: int, stage: str) -> bool:
        """Run one candidate; returns False when a budget is exhausted."""
        outcome, trace = self.run_input(data)
        record = self._recorder(outcome)
        if record is not None:
            record(data, outcome, trace, parent, stage)
        elif self.path_map.has_new_bits(classify_counts(trace)) != NO_NEW:
            self._admit(data, parent, stage)
        self._maybe_flush()
        return not self._budget_exhausted()

    def _budget_exhausted(self) -> bool:
        c = self.config
        if c.max_execs is not None and self.stats.execs >= c.max_execs:
            return True
        if (c.max_seconds is not None
                and time.monotonic() - self.stats.start_time >= c.max_seconds):
            return True
        if (c.stop_after_crashes is not None
                and len(self.crashes) >= c.stop_after_crashes):
            return True
        return False

    def _fuzz_entry(self, entry: QueueEntry) -> bool:
        if not entry.deterministic_done and not self.config.skip_deterministic:
            for stage in mut.DETERMINISTIC_STAGES:
                for index in range(mut.stage_size(entry.data, stage)):
                    data = mut.mutate(entry.data, self.rng, stage, index=index)
                    if not self._process(data, entry.id, stage):
                        return False
            entry.deterministic_done = True
            if self.config.out_dir is not None:
                marker = self._deterministic_marker(entry)
                marker.parent.mkdir(parents=True, exist_ok=True)
                marker.write_text(_sha256(entry.data))
        for _ in range(HAVOC_ROUNDS):
            if self.rng.random() < 0.2 and len(self.queue) > 1:
                other = self.rng.choice(
                    [e for e in self.queue if e.id != entry.id]
                )
                data = mut.mutate(entry.data, self.rng, "splice",
                                  other=other.data)
                stage = "splice"
            else:
                data = mut.mutate(entry.data, self.rng, "havoc")
                stage = "havoc"
            if not self._process(data, entry.id, stage):
                return False
        return True

    def run(self, seeds: list[bytes]) -> CampaignStats:
        self.stats.start_time = time.monotonic()
        self._write_setup()
        try:
            self._replay_kept()
            self.add_seeds(seeds)
            cursor = 0
            while not self._budget_exhausted():
                entry = self.queue[cursor % len(self.queue)]
                cursor += 1
                if not self._fuzz_entry(entry):
                    break
        finally:
            self.close()
        self.stats.elapsed = time.monotonic() - self.stats.start_time
        self.stats.edges_covered = self.path_map.edge_count()
        self._flush_stats()
        return self.stats

    # ------------------------------------------------------------------
    def _write_setup(self):
        out = self.config.out_dir
        if out is None:
            return
        setup = {
            "module_sha256": module_sha256(self.engine.module),
            "rng_seed": self.config.rng_seed,
            "argv": self.config.argv,
            "fuel": self.config.limits.fuel,
            "max_execs": self.config.max_execs,
            "max_seconds": self.config.max_seconds,
        }
        (out / "fuzzer_setup.json").write_text(json.dumps(setup, indent=1))

    def _maybe_flush(self):
        now = time.monotonic()
        if now - self._last_flush >= STATS_FLUSH_EVERY:
            self.stats.elapsed = now - self.stats.start_time
            self.stats.edges_covered = self.path_map.edge_count()
            self._flush_stats()
            if self.on_stats is not None:
                self.on_stats(self.stats)

    def _flush_stats(self):
        self._last_flush = time.monotonic()
        out = self.config.out_dir
        if out is not None:
            (out / "stats.json").write_text(self.stats.to_json())

