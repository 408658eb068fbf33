"""In-memory span tracing and the summary arithmetic of the benchmark.

A span is ``[name, start_ns, end_ns, parent, exec_id]``; ``parent`` is
the index of the enclosing span in the same list (-1 for a root) and
``exec_id`` the campaign exec most recently started (-1 before the
first), so a mutation carries the id of the exec it follows.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

NAME, START, END, PARENT, EXEC = range(5)


class Tracer:
    """Wraps callables so that every call records a span. Spans stay in
    memory until the caller takes them."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        self.exec_id = -1

    def wrap(self, name: str, fn: Callable, *, starts_exec: bool = False,
             note: Optional[Callable] = None) -> Callable:
        """``fn`` with a span per call. ``starts_exec`` marks the call that
        begins a new exec; ``note(args, result)`` sees every return."""
        spans, open_, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            if starts_exec:
                self.exec_id += 1
            rec = [name, clock(), 0, open_[-1] if open_ else -1,
                   self.exec_id]
            open_.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                open_.pop()
            if note is not None:
                note(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block, e.g. one benchmark repetition."""
        rec = [name, self.clock(), 0,
               self._open[-1] if self._open else -1, self.exec_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = self.clock()
            self._open.pop()

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        if self._open:
            raise RuntimeError("take() while spans are open")
        spans = self.spans[:]
        self.spans.clear()  # wrappers hold this list
        self.exec_id = -1
        return spans


def covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of [lo, hi) covered by the union of ``intervals``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START])
        - covered(children.get(i, []), s[START], s[END])
        for i, s in enumerate(spans)
    ]


def by_name(spans: list[list], parent_name: Optional[str] = None
            ) -> dict[str, tuple[int, int]]:
    """name -> (calls, total self ns), optionally only for spans whose
    parent span carries ``parent_name``."""
    own = self_times(spans)
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for s, t in zip(spans, own):
        if parent_name is not None and (
                s[PARENT] < 0 or spans[s[PARENT]][NAME] != parent_name):
            continue
        acc = out[s[NAME]]
        acc[0] += 1
        acc[1] += t
    return {k: (v[0], v[1]) for k, v in out.items()}


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not values or not 0 < q <= 100:
        raise ValueError("percentile needs samples and 0 < q <= 100")
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)  # ceil without floats
    return ordered[max(int(rank), 1) - 1]


def tail_level(n: int, min_beyond: int = 10) -> Optional[float]:
    """The highest of p50/p90/p99/p99.9 that leaves at least
    ``min_beyond`` of ``n`` samples above its rank, or None."""
    best = None
    for q in (50, 90, 99, 99.9):
        if n - -(-n * q // 100) >= min_beyond:
            best = q
    return best


def failed_frac(failed: int, attempted: int) -> float:
    """Failed correctness checks over checks attempted."""
    if attempted <= 0:
        raise ValueError("no correctness checks were attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted
