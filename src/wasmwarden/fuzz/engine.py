"""Coverage-guided fuzzing campaign: queue management, novelty admission,
crash and hang triage, and on-disk campaign state."""

from __future__ import annotations

import hashlib
import json
import logging
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .. import encoder
from ..interp import (
    Engine,
    ExecOutcome,
    RunLimits,
    SeedCrashes,
    WasiConfig,
    classify_crash,
    exec_argv,
)
from ..ir import ModuleIR, WasmError
from ..passes.sites import ORACLE_KINDS, SiteTable
from . import mutate as mut
from .bitmap import NO_NEW, VirginMap, classify_counts

log = logging.getLogger(__name__)

HAVOC_ROUNDS = 256  # rng-driven mutations per queue cycle entry
STATS_FLUSH_EVERY = 1.0  # seconds
# one empty file per queue entry whose deterministic stages are done,
# named by the SHA-256 of its bytes; outside queue/, which holds inputs only
DONE_MARKERS = Path(".state", "deterministic_done")


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
    oracle: str  # a kind in ORACLE_KINDS, or "builtin"
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
        default_factory=lambda: dict.fromkeys(ORACLE_KINDS + ("builtin",), 0)
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


class _SeedRun(NamedTuple):
    """A seed's one run, held until the campaign accepts its seeds."""
    data: bytes
    outcome: ExecOutcome
    trace: bytes  # a copy: the trace view dies with its instance
    file_id: Optional[int]  # a replayed queue file's id, unless it hangs


@dataclass
class _Kept:
    """The inputs a campaign keeps in ``<out>/<sub>/``: one for each trace
    new to ``map`` (and, in the queue, every seed), numbered on from
    ``next_id``."""
    sub: str
    map: VirginMap
    next_id: int = 0

    def keep(self, out: Optional[Path], data: bytes,
             trace: bytes | memoryview, suffix: str = "",
             file_id: Optional[int] = None,
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
        # refused before the campaign directory is made
        error = self.engine.trace_map_error(self.engine.mem_size)
        if error is not None:
            raise error
        self._argv = exec_argv(self.config.argv)
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
        # the names in DONE_MARKERS, listed once
        self._done_markers: set[str] = set()
        self.stats = CampaignStats()
        self._last_flush = 0.0
        self.on_stats: Optional[Callable[[CampaignStats], None]] = None

        out = self.config.out_dir
        if out is not None:
            out = self.config.out_dir = Path(out)
            markers = out / DONE_MARKERS
            if markers.is_dir():
                self._done_markers = {p.name for p in markers.iterdir()}

    # ------------------------------------------------------------------
    def run_input(self, data: bytes) -> tuple[ExecOutcome, memoryview]:
        """Execute one input; returns the outcome and the raw trace bits,
        a read-only view into the instance's memory."""
        inst = self.engine.instantiate(WasiConfig(self._argv, data))
        outcome = self.engine.run_start(inst, self.config.limits)
        trace = self.engine.read_trace_bits(inst)
        self.stats.execs += 1
        return outcome, trace

    # ------------------------------------------------------------------
    def add_seeds(self, seeds: list[bytes],
                  replayed: Sequence[_SeedRun] = ()):
        """Run each seed not queued yet, then queue them after the queue
        files ``_replay_kept`` ran, which keep their ids. A crashing seed
        or queue file, or no usable seed, refuses the campaign before its
        directory is made; a hanging seed is kept as a hang."""
        crashing = [r.file_id for r in replayed if r.outcome.status == "trap"]
        if crashing:
            raise SeedCrashes(crashing, "queue file id(s)")
        queued = {e.data for e in self.queue}
        queued.update(r.data for r in replayed if r.outcome.status == "exit")
        fresh = {i: self._seed_run(f"seed input {i}", data)
                 for i, data in enumerate(seeds) if data not in queued}
        crashing = [i for i, r in fresh.items() if r.outcome.status == "trap"]
        if crashing:
            raise SeedCrashes(crashing)
        runs = [*replayed, *fresh.values()]
        if not self.queue and all(r.outcome.status != "exit" for r in runs):
            raise AllSeedsInvalid("no usable seed inputs" if seeds
                                  else "no seed inputs provided")
        self._write_setup()
        for r in runs:
            self._triage(r.data, r.outcome, r.trace, -1, "seed", r.file_id)

    def _seed_run(self, name: str, data: bytes,
                  file_id: Optional[int] = None) -> _SeedRun:
        outcome, trace = self.run_input(data)
        if outcome.status == "fuel-exhausted":
            log.warning("%s exhausts its fuel; skipped", name)
            file_id = None  # a new hang, numbered in hangs/
        return _SeedRun(data, outcome, bytes(trace), file_id)

    def _triage(
        self, data: bytes, outcome: ExecOutcome, trace: bytes | memoryview,
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
            entry.deterministic_done = _sha256(data) in self._done_markers
        elif status == "trap":
            if file_id is None:
                self.stats.crashes_total += 1
            oracle = classify_crash(outcome, self.sites).kind
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

    def _replay_kept(self) -> list[_SeedRun]:
        """Re-run the files already in the campaign directory, each under
        its own id: first ``crashes/`` and ``hangs/``, whose files are not
        reported again, then ``queue/``, whose files are seeds and are
        returned for ``add_seeds`` to keep. No file is written, and new
        files are numbered after the highest id."""
        out = self.config.out_dir
        replayed: list[_SeedRun] = []
        if out is None:
            return replayed
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
                    replayed.append(self._seed_run(name, data, file_id))
                    continue
                outcome, trace = self.run_input(data)
                if outcome.status == status:
                    self._triage(data, outcome, trace, -1, "resume", file_id)
                else:
                    log.warning("%s no longer reproduces", name)
        return replayed

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

    def _fuzz_entry(self, pos: int) -> bool:
        """Fuzz the entry at queue position ``pos``; returns False when a
        budget is exhausted."""
        entry = self.queue[pos]
        if not entry.deterministic_done and not self.config.skip_deterministic:
            for stage in mut.DETERMINISTIC_STAGES:
                for index in range(mut.stage_size(entry.data, stage)):
                    data = mut.mutate(entry.data, self.rng, stage, index=index)
                    if not self._process(data, entry.id, stage):
                        return False
            entry.deterministic_done = True
            if self.config.out_dir is not None:
                markers = self.config.out_dir / DONE_MARKERS
                markers.mkdir(parents=True, exist_ok=True)
                (markers / _sha256(entry.data)).touch()
        for _ in range(HAVOC_ROUNDS):
            if self.rng.random() < 0.2 and len(self.queue) > 1:
                # a partner other than the entry itself, drawn as
                # rng.choice draws from the queue without it
                i = self.rng.randrange(len(self.queue) - 1)
                other = self.queue[i + (i >= pos)]
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
        self.add_seeds(seeds, self._replay_kept())
        cursor = 0
        while not self._budget_exhausted():
            if not self._fuzz_entry(cursor % len(self.queue)):
                break
            cursor += 1
        self.stats.elapsed = time.monotonic() - self.stats.start_time
        self.stats.edges_covered = self.path_map.edge_count()
        self._flush_stats()
        return self.stats

    # ------------------------------------------------------------------
    def _write_setup(self):
        """Make the campaign directory and its ``fuzzer_setup.json``."""
        out = self.config.out_dir
        if out is None:
            return
        for sub in ("queue", "crashes", "hangs"):
            (out / sub).mkdir(parents=True, exist_ok=True)
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

