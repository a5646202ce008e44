#!/usr/bin/env python3
"""Scorecard of the paper's claims across matrix seeds.

Example (the command behind the committed SCORECARD.json):
    python3 scripts/scorecard.py --workers 2 --out SCORECARD.json

It reads ``duelrank sweep``'s flags: ``--config`` and one ``--<field>``
flag per ``RunConfig`` field for the template, repeatable ``--grid
KEY=V1,V2,...`` axes, and ``--workers``; ``--out`` is the JSON path
(default: stdout). DEFAULTS come first, so a later flag replaces a value
and a later ``--grid`` replaces an axis or flag: gamma 1.8, noise 0.1,
ks 4, every algorithm, n in {20, 100}, seeds 1..12, and four games: ``elo``
and ``noisy_elo`` (matrix seed = seed), and ``triangular_rev`` and
``cyclic_dominant``, whose best player is n - 1. An axis overrides the
template, so a flag for an axis key (``--n 6``) is a usage error: write
``--grid n=6``, or drop the axis with ``--grid n=``.

A run is one ``harness.simulate`` of a grid point; maxinp, whose refit
is O(t) per round, stops at T_MAXINP (2000) rounds. A run with ks
lacking 4 or replicates != 1 is a usage error. Runs go through
``harness.pool_map``, as ``harness.sweep``'s points do; each worker
keeps its trace and returns only these statistics, read off the trace
columns:

- ``final_regret``: cum_regret at T;
- ``regret_at_common_t``: cum_regret at t = min(T, T_MAXINP), where
  every algorithm, maxinp included, can be compared;
- ``rr1``: whether RR = 1 at T, and ``hr4``: HR@4 at T;
- ``rounds_to_identify``: the first t from which rr stays 1 up to T, or
  null;
- ``self_pair_share``: the share of the T rounds with x == y;
- ``first_frozen_round``: the first t from which x == y up to T, or null;
- ``us_per_round``: simulate's wall time over T;
- ``regret_slope``: the least-squares slope of log cum_regret against
  log t over t in SLOPE_TS = {500, 1000, 2000, 5000, 10000, 20000},
  t <= T; null with fewer than two such t or a non-positive regret.
  O~(sqrt T) regret predicts about 0.5; a run that locks in on a weak
  player gives about 1;
- ``tail_rate``: the regret per round over the second half of the run,
  (R(T) - R(T // 2)) / (T - T // 2), with R(0) = 0. It reads the
  asymptotic regime the slope can miss: a locked-in run keeps a positive
  rate, a run that has learned the best player tends to 0;
- ``frozen_gap``: instant_regret at T, r*_best - r*_x, when the run ends
  frozen on x; else null;
- ``winner_correct``: whether the run ends frozen on a player with zero
  regret, a true best player.

Per cell (a grid point without its seed), over the seeds, it gives the
median and quartiles of the final regret, the RR = 1 rate, the mean
HR@4, the runs that identified, froze, and froze on a true best player,
with their median rounds and frozen gap, and the medians of the other
statistics, and lists every deterministic statistic per seed. It is a
report, not a gate: nothing here passes or fails.

``--diff A.json B.json`` runs nothing. It matches the cells of two
scorecards on their point, every non-empty axis but seed, and prints a
markdown table with one row per cell in both, each column A -> B: the
median final regret, the runs with RR = 1 at T, the runs ending frozen
on a true best player (``winner_correct``) and the median tail rate.
Cells in only one file are listed after it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from duelrank import cli, harness  # noqa: E402
from duelrank.config import ALGORITHMS, RunConfig  # noqa: E402
from duelrank.errors import ConfigError  # noqa: E402

DEFAULTS = ["--gamma", "1.8", "--noise", "0.1", "--ks", "4",
            "--grid", "algo=" + ",".join(ALGORITHMS),
            "--grid", "game=elo,noisy_elo,triangular_rev,cyclic_dominant",
            "--grid", "n=20,100", "--grid", "seed=1,2,3,4,5,6,7,8,9,10,11,12"]
T_MAXINP = 2000
SLOPE_TS = (500, 1000, 2000, 5000, 10000, 20000)
PER_SEED = ("final_regret", "regret_at_common_t", "rr1", "hr4",
            "rounds_to_identify", "self_pair_share", "first_frozen_round",
            "regret_slope", "tail_rate", "frozen_gap", "winner_correct")


def suffix_start(flags) -> int | None:
    """The first round t (1-based) from which ``flags`` holds up to the
    last round, or None if it does not hold in the last round."""
    flags = np.asarray(flags, dtype=bool)
    if not flags[-1]:
        return None
    misses = np.flatnonzero(~flags)
    return int(misses[-1]) + 2 if len(misses) else 1


def regret_slope(cum_regret) -> float | None:
    """Slope of log R(t) against log t over the SLOPE_TS within T."""
    ts = [t for t in SLOPE_TS if t <= len(cum_regret)]
    r = np.asarray(cum_regret)[np.array(ts, dtype=np.intp) - 1]
    if len(ts) < 2 or not (r > 0).all():
        return None
    return float(np.polyfit(np.log(ts), np.log(r), 1)[0])


def tail_rate(cum_regret) -> float:
    """(R(T) - R(T // 2)) / (T - T // 2), with R(0) = 0."""
    T, half = len(cum_regret), len(cum_regret) // 2
    start = cum_regret[half - 1] if half else 0.0
    return float((cum_regret[-1] - start) / (T - half))


def trace_stats(trace: harness.Trace) -> dict:
    """The per-run statistics of the module doc, except us_per_round."""
    self_pair = trace.x == trace.y
    frozen_gap = float(trace.instant_regret[-1]) if self_pair[-1] else None
    return {
        "final_regret": float(trace.cum_regret[-1]),
        "regret_at_common_t": float(
            trace.cum_regret[min(len(trace.cum_regret), T_MAXINP) - 1]),
        "rr1": bool(trace.rr[-1] == 1.0),
        "hr4": float(trace.hr[-1, trace.ks.index(4)]),
        "rounds_to_identify": suffix_start(trace.rr == 1.0),
        "self_pair_share": float(self_pair.mean()),
        "first_frozen_round": suffix_start(self_pair),
        "regret_slope": regret_slope(trace.cum_regret),
        "tail_rate": tail_rate(trace.cum_regret),
        "frozen_gap": frozen_gap,
        "winner_correct": frozen_gap == 0.0,
    }


def run_cell(cfg: RunConfig) -> dict:
    """One run's statistics, or its error, as ``harness.sweep`` records."""
    try:
        traces, summary = harness.simulate(cfg)
    except Exception as exc:  # record, don't abort the grid
        return {"seed": cfg.seed, "error": type(exc).__name__,
                "message": str(exc)}
    return {"seed": cfg.seed, **trace_stats(traces[0]),
            "us_per_round": 1e6 * summary["wall_time"] / cfg.T}


def _quartiles(values) -> dict | None:
    if not values:
        return None
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(q2), "q3": float(q3)}


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return float(np.median(values)) if values else None


def summarize_cell(runs: list[dict]) -> dict:
    """Across one cell's runs: the aggregates of the module doc, the
    failed runs, and every deterministic statistic per seed."""
    ok = [r for r in runs if "error" not in r]
    out = {"runs": len(ok),
           "failed": [r for r in runs if "error" in r],
           "final_regret": _quartiles([r["final_regret"] for r in ok]),
           "rr1_rate": sum(r["rr1"] for r in ok) / len(ok) if ok else None,
           "hr4_mean": float(np.mean([r["hr4"] for r in ok])) if ok else None}
    for key in ("rounds_to_identify", "first_frozen_round", "frozen_gap"):
        hits = [r[key] for r in ok if r[key] is not None]
        out[key] = {"runs": len(hits), "median": _median(hits)}
    out["winner_correct"] = sum(r["winner_correct"] for r in ok)
    for key in ("regret_at_common_t", "self_pair_share", "us_per_round",
                "regret_slope", "tail_rate"):
        out[key] = _median([r[key] for r in ok])
    out["per_seed"] = {"seed": [r["seed"] for r in ok],
                       **{key: [r[key] for r in ok] for key in PER_SEED}}
    return out


def scorecard(template: RunConfig, grid: dict, workers: int) -> dict:
    """Every run of ``harness.grid_points(template, grid)``, maxinp's T
    capped at T_MAXINP, summarized per cell: a point without its seed.
    A run the statistics cannot read is a ConfigError, before any runs."""
    points = harness.grid_points(template, grid)
    configs = [dataclasses.replace(cfg, T=min(cfg.T, T_MAXINP))
               if cfg.algo == "maxinp" else cfg for _, cfg in points]
    if any(4 not in cfg.ks or cfg.replicates != 1 for cfg in configs):
        raise ConfigError("every run needs 4 in ks and replicates=1")
    runs = harness.pool_map(run_cell, configs, workers)
    cells: dict[tuple, tuple[dict, list]] = {}
    for (point, _), cfg, run in zip(points, configs, runs):
        key = tuple((k, v) for k, v in point.items() if k != "seed")
        cells.setdefault(key, ({**dict(key), "T": cfg.T}, []))[1].append(run)
    return {"grid": {"template": template.digest(), "axes": grid,
                     "T_maxinp": T_MAXINP, "common_t": T_MAXINP},
            "cells": [{**cell, **summarize_cell(cell_runs)}
                      for cell, cell_runs in cells.values()]}


def cells_by_point(result: dict) -> dict:
    """A scorecard's cells keyed by their point: the (axis, value) pairs
    of every non-empty axis but seed, in the file's axis order."""
    keys = [k for k, vals in result["grid"]["axes"].items()
            if vals and k != "seed"]
    return {tuple((k, cell[k]) for k in keys): cell
            for cell in result["cells"]}


def _label(point) -> str:
    return ", ".join(f"`{v}`" if isinstance(v, str) else f"{k}={v}"
                     for k, v in point)


def _diff_stats(cell: dict) -> list[str]:
    def fmt(value, spec):
        return "—" if value is None else format(value, spec)

    runs = cell["runs"]
    return [fmt((cell["final_regret"] or {}).get("median"), ".0f"),
            f"{sum(cell['per_seed']['rr1'])}/{runs}",
            f"{cell['winner_correct']}/{runs}", fmt(cell["tail_rate"], ".2f")]


def diff(a: dict, b: dict) -> str:
    """The ``--diff`` table of scorecards a and b (see the module doc)."""
    cells_a, cells_b = cells_by_point(a), cells_by_point(b)
    rows = ["| cell | median regret | RR=1 | winner | tail rate |",
            "|---|---|---|---|---|"]
    for point, cell in cells_a.items():
        if point in cells_b:
            pairs = zip(_diff_stats(cell), _diff_stats(cells_b[point]))
            rows.append(f"| {_label(point)} | "
                        + " | ".join(f"{x} → {y}" for x, y in pairs) + " |")
    for name, mine, other in (("A", cells_a, cells_b),
                              ("B", cells_b, cells_a)):
        rows += [f"only in {name}: {_label(p)}"
                 for p in mine if p not in other]
    return "\n".join(rows) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="defaults, applied before the arguments: " + " ".join(DEFAULTS))
    cli.add_config_flags(ap, sweep=True)
    ap.add_argument("--diff", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two scorecards cell by cell; runs nothing")
    given, args = ap.parse_args(argv), ap.parse_args(DEFAULTS + argv)
    if given.diff:
        try:
            a, b = (json.loads(Path(path).read_text()) for path in given.diff)
            text = diff(a, b)
        except (OSError, ValueError, KeyError) as exc:
            ap.error(f"--diff: {type(exc).__name__}: {exc}")
        sys.stdout.write(text)
        return 0
    for spec in given.grid:  # the user's axis replaces a default flag
        key = spec.split("=", 1)[0]
        setattr(args, key, getattr(given, key, None))
    try:
        template, grid, workers = cli.sweep_args(args)
        result = scorecard(template, grid, workers)
    except ConfigError as exc:
        ap.error(str(exc))
    command = " ".join(["python3", "scripts/scorecard.py", *argv])
    harness.write_json({"command": command, **result}, template.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
