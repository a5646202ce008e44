"""Span recorder that times calls into duelrank's modules from outside.

``Tracer`` replaces each traced function at the name its caller looks it
up by, and puts every original back when it exits. Module-level callees
are rebound in the caller's module, because ``from x import f`` copies
``f`` into the caller when the caller loads; methods are rebound on the
class. Each call records one span: name, start, end and the span that was
open when it began. Spans stay in memory as flat arrays while the traced
code runs and are folded into per-name totals by ``drain``.

Self time is a span's duration minus the time covered by its child spans.
Spans come from one thread and nest strictly (a child opens after and
closes before its parent), so children never overlap and the covered
time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np


class SpanLog:
    """Spans held as parallel arrays, plus per-span work counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[int, float] = {}
        self._stack = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1,
            work: float = 0.0) -> int:
        """Record a finished span directly (used by tests)."""
        idx = len(self.name_id)
        self.name_id.append(self.name_index(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        if work:
            self.work[idx] = work
        return idx


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=len(dur))
    return dur - covered


class Totals:
    """Per-name call count, total seconds, self seconds and work units."""

    def __init__(self) -> None:
        self.by_name: dict[str, list[float]] = {}

    def fold(self, log: SpanLog) -> None:
        if not len(log.name_id):
            return
        nid = np.frombuffer(log.name_id, dtype=np.int32)
        start = np.frombuffer(log.start, dtype=float)
        end = np.frombuffer(log.end, dtype=float)
        dur = end - start
        own = self_times(start, end, np.frombuffer(log.parent, dtype=np.int32))
        work = np.zeros(len(nid))
        for idx, w in log.work.items():
            work[idx] = w
        k = len(log.names)
        columns = (np.bincount(nid, minlength=k),
                   np.bincount(nid, weights=dur, minlength=k),
                   np.bincount(nid, weights=own, minlength=k),
                   np.bincount(nid, weights=work, minlength=k))
        for i, name in enumerate(log.names):
            acc = self.by_name.setdefault(name, [0.0, 0.0, 0.0, 0.0])
            for j, col in enumerate(columns):
                acc[j] += float(col[i])

    def calls(self, name: str) -> float:
        return self.by_name.get(name, [0.0] * 4)[0]

    def total_s(self, name: str) -> float:
        return self.by_name.get(name, [0.0] * 4)[1]

    def self_s(self, name: str) -> float:
        return self.by_name.get(name, [0.0] * 4)[2]

    def work(self, name: str) -> float:
        return self.by_name.get(name, [0.0] * 4)[3]

    def layer_self_s(self, layer: str) -> float:
        return sum(v[2] for name, v in self.by_name.items()
                   if name.split(".", 1)[0] == layer)


def _records(args, kwargs):
    history = args[0] if args else kwargs["history"]
    return len(history)


def _file_size(pos: int):
    def size(args, kwargs):
        return os.path.getsize(args[pos])
    return size


def targets(dr) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, work function) for every traced call.

    ``dr`` holds the imported duelrank modules as attributes. Owners are
    the modules and classes where the callers look the names up.
    """
    sch, har, met, gam, trk = (dr.schedulers, dr.harness, dr.metrics,
                               dr.games, dr.tracker)
    out = [
        (sch, "batch_update", "ratings.batch_update", None),
        (sch, "mle_fit", "ratings.mle_fit", _records),
        (sch, "sgd_step_elo", "ratings.sgd_step", None),
        (sch, "sgd_step_melo", "ratings.sgd_step", None),
        (sch, "sample_outcome", "games.sample_outcome", None),
        (gam, "gen_elo_game", "games.build", None),
        (gam, "gen_noisy_elo_game", "games.build", None),
        (gam, "load_matrix", "games.build", None),
        (gam, "true_ratings", "games.true_ratings", None),
        (har, "instant_regret", "metrics.instant_regret", None),
        (har, "_metric_snapshot", "metrics.snapshot", None),
        (har, "reciprocal_rank", "metrics.reciprocal_rank", None),
        (har, "hit_ratio_at_k", "metrics.hit_ratio_at_k", None),
        (har, "ndcg_at_k", "metrics.ndcg_at_k", None),
        (met, "ranking", "metrics.ranking", None),
        (har, "simulate", "harness.simulate", None),
        (har, "run_replicate", "harness.run_replicate", None),
        (har, "report", "harness.report", None),
        (har, "write_trace_csv", "harness.write_trace_csv", _file_size(1)),
        (har, "read_trace_csv", "harness.read_trace_csv", _file_size(0)),
    ]
    for method in ("update", "uncertainty_matrix", "pair_uncertainty"):
        out.append((trk.DesignTracker, method, f"tracker.{method}", None))
    for cls in vars(sch).values():
        if (isinstance(cls, type) and issubclass(cls, sch.Scheduler)
                and cls is not sch.Scheduler and not cls.__name__.startswith("_")):
            out.append((cls, "step", "schedulers.step", None))
            out.append((cls, "estimate", "schedulers.estimate", None))
    return out


class Tracer:
    """Context manager that installs span wrappers and restores originals.

    Names missing from the program are skipped, so the metrics that read
    them report zero calls instead of failing the run.
    """

    def __init__(self, dr, log: SpanLog | None = None):
        self.dr = dr
        self.log = log if log is not None else SpanLog()
        self._saved: list[tuple[object, str, bool, object]] = []

    def _wrap(self, fn, nid: int, work):
        log = self.log

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = log.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(idx)
                if work is not None:
                    log.work[idx] = work(args, kwargs)

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, name, work in targets(self.dr):
            if not hasattr(owner, attr):
                continue
            own = isinstance(owner, type) and attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._saved.append((owner, attr, own or not isinstance(owner, type),
                                original))
            setattr(owner, attr,
                    self._wrap(original, self.log.name_index(name), work))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, had_own, original in reversed(self._saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()
