"""Seeded simulation loop, sweeps, and CSV/JSON emission.

A run is fully determined by its configuration plus base seed: matrix
generation, match outcomes, and scheduler randomness each get an
independent stream derived from the seed (numpy PCG64 throughout, never
OS entropy), so repeated runs are byte-identical.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import multiprocessing
import os
import sys
import time
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from . import games
from .config import RunConfig, _field_types
from .errors import ConfigError
from .games import TrueRatings, WinMatrix
from .metrics import RankScorer, instant_regret
# Re-exported: perfbench/tracer.py looks the per-metric functions up here.
from .metrics import hit_ratio_at_k, ndcg_at_k, reciprocal_rank  # noqa: F401
from .schedulers import MatchEnv, make_scheduler


def build_matrix(cfg: RunConfig) -> WinMatrix:
    """The game a config plays: its ``matrix`` file, or its generator."""
    if cfg.matrix is not None:
        matrix = games.load_matrix(cfg.matrix)
        if matrix.n != cfg.n:
            raise ConfigError(
                f"matrix has {matrix.n} players, config n={cfg.n}", key="n")
        return matrix
    seed = cfg.matrix_seed if cfg.matrix_seed is not None else cfg.seed
    if cfg.game == "elo":
        return games.gen_elo_game(cfg.n, cfg.rating_scale, seed)
    if cfg.game == "noisy_elo":
        return games.gen_noisy_elo_game(cfg.n, cfg.rating_scale, cfg.noise,
                                        seed, clip_eps=cfg.clip_eps)
    if cfg.game == "triangular":
        return games.gen_triangular(cfg.n)
    if cfg.game == "cyclic":
        return games.gen_cyclic(cfg.n)
    if cfg.game == "triangular_rev":
        return games.gen_triangular_rev(cfg.n)
    if cfg.game == "cyclic_dominant":
        return games.gen_cyclic_dominant(cfg.n)
    raise ConfigError(f"unknown game generator: {cfg.game}", key="game")


@dataclass
class Trace:
    """One replicate's per-round columns; index t - 1 holds round t."""

    x: np.ndarray                # int64
    y: np.ndarray                # int64
    outcome: np.ndarray          # int64, 1 if x beat y
    instant_regret: np.ndarray
    cum_regret: np.ndarray
    rr: np.ndarray
    hr: np.ndarray               # T x len(ks)
    ndcg: np.ndarray             # T x len(ks)
    ks: tuple[int, ...]


# New estimates scored per RankScorer call, so one row-wise argsort
# serves up to 64 rounds; the buffer holds BLOCK x n floats.
BLOCK = 64


def _metric_snapshot(scorer: RankScorer, block: np.ndarray):
    return scorer.score(block)


def run_replicate(cfg: RunConfig, matrix: WinMatrix, truth: TrueRatings,
                  rep: int) -> Trace:
    """Play T rounds of one seeded replicate and record the trace.

    Rounds are played by Scheduler.play, each call until the last round
    or until the new estimates fill the free rows of a BLOCK x n buffer.
    Their ratings are copied into the buffer; a full buffer, and the rest
    after the last round, is scored in one call, and every other round
    takes the scores of the last new estimate before it. So an online
    baseline, which learns every round, plays 64 rounds per call and
    scores them at once, and a held MaxIn pair's rounds are one call.
    """
    outcome_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, rep, 1]))
    sched_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, rep, 2]))
    env = MatchEnv(matrix, outcome_rng)
    scheduler = make_scheduler(cfg, sched_rng)
    scorer = RankScorer(truth, cfg.ks)
    T = cfg.T
    x, y, outcome = (np.empty(T, dtype=np.int64) for _ in range(3))
    rr = np.empty(T)
    hr, ndcg = np.empty((T, len(cfg.ks))), np.empty((T, len(cfg.ks)))
    src = np.zeros(T, dtype=np.intp)  # src[t] = t if t was scored
    block = np.empty((BLOCK, matrix.n))  # rows to score, one per new estimate
    rounds = np.empty(BLOCK, dtype=np.intp)  # the round of each row
    t = filled = 0  # rounds played; rows of block in use
    while t < T:
        xs, ys, os_, rows, at = scheduler.play(env, T - t, BLOCK - filled)
        k = len(xs)
        x[t:t + k], y[t:t + k], outcome[t:t + k] = xs, ys, os_
        end = filled + len(at)
        block[filled:end], rounds[filled:end] = rows, t + at
        src[t + at] = t + at
        t, filled = t + k, end
        if filled == BLOCK or (t == T and filled):
            scored = rounds[:filled]
            rr[scored], hr[scored], ndcg[scored] = _metric_snapshot(
                scorer, block[:filled])
            filled = 0
    src = np.maximum.accumulate(src)  # other rounds copy the last scored row
    rr, hr, ndcg = rr[src], hr[src], ndcg[src]
    # np.cumsum adds in round order, as a running total would
    regret = instant_regret(truth, x, y)
    return Trace(x=x, y=y, outcome=outcome, instant_regret=regret, ks=cfg.ks,
                 cum_regret=np.cumsum(regret), rr=rr, hr=hr, ndcg=ndcg)


def summarize(traces: list[Trace], config_digest: str = "",
              wall_time: float = 0.0) -> dict:
    """Final-round metrics of each trace, in order, with their mean and
    std: the summary `run` and `report` write as JSON."""
    def ms(vals):
        a = np.asarray(vals, dtype=float)
        return {"mean": np.mean(a, axis=0).tolist(),
                "std": np.std(a, axis=0).tolist()}

    ks = traces[0].ks
    if any(tr.ks != ks for tr in traces):
        raise ConfigError("traces have different metric cutoffs", key="ks")
    final_cum_regret = [float(tr.cum_regret[-1]) for tr in traces]
    final_rr = [float(tr.rr[-1]) for tr in traces]
    final_hr = [tr.hr[-1].tolist() for tr in traces]
    final_ndcg = [tr.ndcg[-1].tolist() for tr in traces]
    return {
        "config": config_digest,
        "replicates": len(traces),
        "ks": list(ks),
        "final_cum_regret": final_cum_regret,
        "final_rr": final_rr,
        "final_hr": final_hr,
        "final_ndcg": final_ndcg,
        "cum_regret": ms(final_cum_regret),
        "rr": ms(final_rr),
        "hr": ms(final_hr) if ks else None,
        "ndcg": ms(final_ndcg) if ks else None,
        "wall_time": wall_time,
    }


def simulate(cfg: RunConfig) -> tuple[list[Trace], dict]:
    """Run every replicate of a config; deterministic given (config, seed)."""
    cfg.resolve()  # validates; each scheduler resolves its own copy
    start = time.perf_counter()
    matrix = build_matrix(cfg)
    truth = games.true_ratings(matrix, clip_eps=cfg.clip_eps)
    traces = [run_replicate(cfg, matrix, truth, rep)
              for rep in range(cfg.replicates)]
    return traces, summarize(traces, cfg.digest(),
                             time.perf_counter() - start)


def _sweep_point(cfg: RunConfig) -> dict:
    try:
        return {"ok": True, "summary": simulate(cfg)[1]}
    except Exception as exc:  # record, don't abort the sweep
        return {"ok": False, "error": type(exc).__name__, "message": str(exc),
                "config": cfg.digest()}


def pool_map(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``: here if ``workers <= 1`` or the list
    ``items`` has at most one entry, else in ``workers`` spawned processes,
    each with one BLAS/OpenMP thread so they do not oversubscribe the
    cores. The caller's environment is restored afterwards."""
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    saved = {var: os.environ[var] for var in pins if var in os.environ}
    os.environ.update(dict.fromkeys(pins, "1"))
    try:
        with futures.ProcessPoolExecutor(
                workers, multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, items))
    finally:
        for var in pins:
            del os.environ[var]
        os.environ.update(saved)


def grid_points(template: RunConfig, grid: dict[str, list]) -> list[tuple]:
    """The cartesian grid over the template as (point, config) pairs:
    keys sorted, values in the order given. Keys with empty value lists
    fall back to the template's value; an unknown key is a ConfigError."""
    types = _field_types()
    for k in grid:
        if k not in types:
            raise ConfigError(f"unknown sweep key: {k}", key=k)
    keys = sorted(k for k, vals in grid.items() if vals)
    points = [dict(zip(keys, combo))
              for combo in itertools.product(*(grid[k] for k in keys))]
    return [(p, dataclasses.replace(template, **p)) for p in points]


def sweep(template: RunConfig, grid: dict[str, list],
          workers: int = 1) -> list[dict]:
    """Run ``grid_points(template, grid)`` in order, each result with its
    point. Point failures are recorded in place without stopping the sweep.
    Points go through ``pool_map``, so a script calling this with
    ``workers > 1`` needs an ``if __name__ == "__main__":`` guard.
    """
    if workers < 1:
        raise ConfigError("workers must be at least 1", key="workers")
    points = grid_points(template, grid)
    results = pool_map(_sweep_point, [cfg for _, cfg in points], workers)
    for res, (point, _) in zip(results, points):
        res["point"] = point
    return results


def trace_header(ks) -> str:
    cols = ["t", "x", "y", "outcome", "instant_regret", "cum_regret", "rr"]
    cols += [f"hr@{k}" for k in ks]
    cols += [f"ndcg@{k}" for k in ks]
    return ",".join(cols)


def _cell_text(col: np.ndarray) -> list[str]:
    """`repr` of each float or `str` of each int in a column, formatted
    once per distinct value and expanded through the inverse index.

    Floats are told apart by bit pattern, so -0.0 and 0.0 keep their own
    text.
    """
    if col.dtype.kind == "f":
        bits, fmt = np.asarray(col, np.float64).view(np.int64), repr
        uniq, inv = np.unique(bits, return_inverse=True)
        uniq = uniq.view(np.float64)
    else:
        fmt = str
        uniq, inv = np.unique(col, return_inverse=True)
    return np.array(list(map(fmt, uniq.tolist())), dtype=object)[inv].tolist()


def write_trace_csv(trace: Trace, path) -> None:
    """Write a trace as CSV, byte for byte: the `trace_header` line, then
    one line per round holding `str` of each int column (`t`, `x`, `y`,
    `outcome`) and `repr` of each float column, so floats read back
    exactly. Lines end in LF."""
    cols = [trace.x, trace.y, trace.outcome, trace.instant_regret,
            trace.cum_regret, trace.rr, *trace.hr.T, *trace.ndcg.T]
    cells = [map(str, range(1, len(trace.x) + 1))]
    cells += [_cell_text(c) for c in cols]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace_header(trace.ks) + "\n")
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_trace_csv(path) -> Trace:
    """Read a trace written by `write_trace_csv`; blank lines are skipped.

    Raises ValueError if the header is not a `trace_header`, if there are
    no rows, or if a row's width differs from the header's or a cell does
    not parse as its column's type (an int for `t`, `x`, `y`, `outcome`).
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ValueError("trace CSV has no rows")
    header = lines[0].rstrip("\n")
    ks = tuple(int(c.split("@")[1]) for c in header.split(",")
               if c.startswith("hr@"))
    if header != trace_header(ks):
        raise ValueError(f"not a trace header: {header!r}")
    row = np.dtype([("int", np.int64, (4,)),
                    ("float", np.float64, (3 + 2 * len(ks),))])
    body = np.loadtxt(lines[1:], dtype=row, delimiter=",", comments=None,
                      ndmin=1)
    _, x, y, outcome = np.ascontiguousarray(body["int"].T)
    f = np.ascontiguousarray(body["float"].T)
    return Trace(x=x, y=y, outcome=outcome, instant_regret=f[0],
                 cum_regret=f[1], rr=f[2], hr=f[3:3 + len(ks)].T,
                 ndcg=f[3 + len(ks):].T, ks=ks)


def write_json(obj, path=None) -> None:
    """Write ``obj`` as 2-space-indented JSON and a newline to ``path``,
    or to stdout when ``path`` is None."""
    text = json.dumps(obj, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def report(traces: list[Trace], summary: dict, out_prefix: str) -> list[str]:
    """Emit trace CSVs (one per replicate) and the summary JSON."""
    written = []
    for i, tr in enumerate(traces):
        path = f"{out_prefix}.trace{i}.csv"
        write_trace_csv(tr, path)
        written.append(path)
    path = f"{out_prefix}.summary.json"
    write_json(summary, path)
    return written + [path]
