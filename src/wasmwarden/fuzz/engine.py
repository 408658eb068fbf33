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
    def __init__(self, crashing: list[int], what: str = "seed input(s)"):
        super().__init__(
            f"{what} {crashing} crash the target before fuzzing starts"
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
    """The inputs a campaign keeps in ``<out>/<sub>/``: one for each trace
    new to ``map`` (and, in the queue, every seed), numbered on from
    ``next_id``."""
    sub: str
    map: VirginMap
    next_id: int = 0

    def keep(self, out: Optional[Path], data: bytes, trace: memoryview,
             suffix: str = "", file_id: Optional[int] = None,
             always: bool = False) -> Optional[int]:
        """The id ``data`` is kept under, or None when ``trace`` is not new
        to the map and ``always`` is not set. An input replayed from the
        directory keeps its ``file_id``; any other takes the next id and is
        written to ``<out>/<sub>/id_NNNNNN<suffix>``."""
        if (self.map.has_new_bits(classify_counts(trace)) == NO_NEW
                and not always):
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
        self.path_map = VirginMap()
        self.crash_map = VirginMap()
        self.hang_map = VirginMap()
        # the owners of the ids in the campaign directory
        self._queue = _Kept("queue", self.path_map)
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
        """Dry-run every seed and queue it after the highest queue id in
        use; a crashing seed aborts the campaign setup, and a hanging one
        or one whose bytes are already queued is skipped."""
        queued = {e.data for e in self.queue}
        crashing = [i for i, data in enumerate(seeds) if data not in queued
                    and not self._seed(data, f"seed input {i}")]
        if crashing:
            raise SeedCrashes(crashing)
        if not self.queue:
            raise AllSeedsInvalid("no usable seed inputs" if seeds
                                  else "no seed inputs provided")

    def _seed(self, data: bytes, name: str,
              file_id: Optional[int] = None) -> bool:
        """Run one seed and queue it whatever its trace; False when it
        crashes. A queue file replayed as a seed keeps its ``file_id``. A
        seed that hangs is kept as a hang and skipped."""
        outcome, trace = self.run_input(data)
        if outcome.status == "trap":
            return False
        if outcome.status == "fuel-exhausted":
            log.warning("%s exhausts its fuel; skipped", name)
            file_id = None  # a new hang, numbered in hangs/
        self._triage(data, outcome, trace, -1, "seed", file_id)
        return True

    def _deterministic_marker(self, entry: QueueEntry) -> Path:
        """Written once ``entry`` has been through every deterministic
        stage; it holds the entry's hash, so it cannot vouch for other
        bytes that later take the same id. It lives outside ``queue/``,
        which holds inputs only."""
        return (self.config.out_dir / ".state" / "deterministic_done"
                / f"id_{entry.id:06d}")

    def _triage(
        self, data: bytes, outcome: ExecOutcome, trace: memoryview,
        parent: int, stage: str, file_id: Optional[int] = None,
    ):
        """Count one exec and keep its input by how it ended: a trap in
        ``crashes/``, a fuel exhaustion in ``hangs/``, an exit in
        ``queue/`` when its trace is new to the path map, or always for a
        seed. A hang never enters the queue: each havoc round on it would
        burn the whole fuel budget. A crash or hang replayed from its
        directory keeps its ``file_id`` and is not counted again, and so
        does a queue file replayed as a seed."""
        out = self.config.out_dir
        status = outcome.status
        if status == "exit":
            entry_id = self._queue.keep(out, data, trace, "", file_id,
                                        stage == "seed")
            if entry_id is None:
                return
            entry = QueueEntry(entry_id, data, parent, stage)
            self.queue.append(entry)
            self.stats.unique_paths = len(self.queue)
            self.stats.last_new_path = (time.monotonic()
                                        - self.stats.start_time)
            # a resumed campaign skips the stages an earlier one finished
            entry.deterministic_done = (
                f"id_{entry_id:06d}" in self._done_markers
                and self._deterministic_marker(entry).read_text()
                == _sha256(data))
        elif status == "trap":
            if file_id is None:
                self.stats.crashes_total += 1
            oracle = _oracle_bucket(classify_crash(outcome, self.sites).kind)
            crash_id = self._crashes.keep(out, data, trace, f"_{oracle}",
                                          file_id)
            if crash_id is None:
                return
            self.crashes.append(CrashReport(
                crash_id, data, oracle, outcome.trap_kind,
                outcome.trap_function, outcome.trap_offset, parent, stage))
            self.stats.unique_crashes = len(self.crashes)
            self.stats.crashes_by_oracle[oracle] += 1
            if file_id is None:
                log.info("unique crash %d: %s (%s) at func %d offset %d",
                         crash_id, oracle, outcome.trap_kind,
                         outcome.trap_function, outcome.trap_offset)
        else:  # fuel-exhausted
            if file_id is None:
                self.stats.hangs_total += 1
            if self._hangs.keep(out, data, trace, "", file_id) is not None:
                self.stats.unique_hangs += 1

    def _replay_kept(self):
        """Re-run the files already in the campaign directory, each under
        its own id: first ``crashes/`` and ``hangs/``, whose files are not
        reported again, then ``queue/``, whose files are seeds. No file is
        written again, and new files are numbered after the highest id."""
        out = self.config.out_dir
        if out is None:
            return
        crashing = []
        for kept, status in ((self._crashes, "trap"),
                             (self._hangs, "fuel-exhausted"),
                             (self._queue, "exit")):
            for p in sorted((out / kept.sub).glob("id_*")):
                name = f"{kept.sub}/{p.name}"
                digits = p.name[3:].split("_")[0]
                if not (digits.isascii() and digits.isdigit()):
                    log.warning("%s has no id in its name; skipped", name)
                    continue
                file_id = int(digits)
                kept.next_id = max(kept.next_id, file_id + 1)
                data = p.read_bytes()
                if kept is self._queue:
                    if not self._seed(data, name, file_id):
                        crashing.append(file_id)
                    continue
                outcome, trace = self.run_input(data)
                if outcome.status == status:
                    self._triage(data, outcome, trace, -1, "resume", file_id)
                else:
                    log.warning("%s no longer reproduces", name)
        if crashing:
            raise SeedCrashes(crashing, "queue file id(s)")

    # ------------------------------------------------------------------
    def _process(self, data: bytes, parent: int, stage: str) -> bool:
        """Run one candidate; returns False when a budget is exhausted."""
        outcome, trace = self.run_input(data)
        self._triage(data, outcome, trace, parent, stage)
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

