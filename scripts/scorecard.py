#!/usr/bin/env python3
"""Scorecard of the paper's claims across matrix seeds.

Example (the command behind the committed SCORECARD.json):
    python3 scripts/scorecard.py --workers 2 --out SCORECARD.json

The games are ``elo``, ``noisy_elo`` with noise = NOISE (0.1), both with
the matrix seed equal to the seed, and two fixed games whose best player
is n - 1: ``triangular_rev`` (higher index always wins) and
``cyclic_dominant`` (acceptance test 7's ring plus a dominant player).
All four are ``duelrank.games`` generators, played by name through
``RunConfig.game``.
A run is one ``harness.simulate`` of an (algo, game, n, seed) cell, with
gamma = GAMMA (1.8) and ks = (4,); maxinp, whose refit is O(t) per
round, stops at T_MAXINP (2000) rounds. Runs go through
``harness.pool_map`` to ``--workers`` processes, as ``harness.sweep``'s
points do; each worker keeps its trace and returns only these
statistics, read off the trace columns:

- ``final_regret``: cum_regret at T;
- ``rr1``: whether RR = 1 at T, and ``hr4``: HR@4 at T;
- ``rounds_to_identify``: the first t from which rr stays 1 up to T, or
  null;
- ``self_pair_share``: the share of the T rounds with x == y;
- ``first_frozen_round``: the first t from which x == y up to T, or null;
- ``us_per_round``: simulate's wall time over T;
- ``regret_slope``: the least-squares slope of log cum_regret against
  log t over t in {500, 1000, 2000, 5000}, t <= T; null with fewer than
  two such t or a non-positive regret. O~(sqrt T) regret predicts about
  0.5; a run that locks in on a weak player gives about 1;
- ``tail_rate``: the regret per round over the second half of the run,
  (R(T) - R(T // 2)) / (T - T // 2), with R(0) = 0. It reads the
  asymptotic regime the slope can miss: a locked-in run keeps a positive
  rate, a run that has learned the best player tends to 0;
- ``frozen_gap``: instant_regret at T, r*_best - r*_x, when the run ends
  frozen on x; else null;
- ``winner_correct``: whether the run ends frozen on a player with zero
  regret, a true best player.

Per (algo, game, n), over the seeds, it prints the median and quartiles
of the final regret, the RR = 1 rate, the mean HR@4, how many runs
identified and froze with the median of their rounds, how many ended
frozen on a true best player, the median frozen gap over the runs that
froze, and the medians of the other statistics; every deterministic
statistic is also listed per seed. The JSON goes to ``--out`` or
stdout. It is a report, not a gate: nothing here passes or fails.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from duelrank import harness  # noqa: E402
from duelrank.config import ALGORITHMS, RunConfig  # noqa: E402

GAMES = ("elo", "noisy_elo", "triangular_rev", "cyclic_dominant")
GAMMA, NOISE, T_MAXINP = 1.8, 0.1, 2000
SLOPE_TS = (500, 1000, 2000, 5000)
PER_SEED = ("final_regret", "rr1", "hr4", "rounds_to_identify",
            "self_pair_share", "first_frozen_round", "regret_slope",
            "tail_rate", "frozen_gap", "winner_correct")


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
    for key in ("self_pair_share", "us_per_round", "regret_slope",
                "tail_rate"):
        out[key] = _median([r[key] for r in ok])
    out["per_seed"] = {"seed": [r["seed"] for r in ok],
                       **{key: [r[key] for r in ok] for key in PER_SEED}}
    return out


def grid_configs(args) -> list[RunConfig]:
    """One config per (algo, game, n, seed), in that nesting order."""
    return [RunConfig(algo=algo, game=game, n=n, seed=seed, gamma=GAMMA,
                      noise=NOISE, ks=(4,),
                      T=min(args.T, T_MAXINP) if algo == "maxinp" else args.T)
            for algo in args.algos for game in args.games for n in args.n
            for seed in range(1, args.seeds + 1)]


def scorecard(args) -> dict:
    configs = grid_configs(args)
    runs = harness.pool_map(run_cell, configs, args.workers)
    cells = []
    cell_keys = itertools.product(args.algos, args.games, args.n)
    for i, (algo, game, n) in zip(range(0, len(runs), args.seeds), cell_keys):
        cells.append({"algo": algo, "game": game, "n": n, "T": configs[i].T,
                      **summarize_cell(runs[i:i + args.seeds])})
    return {"grid": {"algos": args.algos, "games": args.games, "n": args.n,
                     "seeds": list(range(1, args.seeds + 1)), "T": args.T,
                     "T_maxinp": T_MAXINP, "gamma": GAMMA, "noise": NOISE,
                     "ks": [4]},
            "cells": cells}


def _names(allowed):
    def parse(text):
        names = text.split(",")
        bad = [x for x in names if x not in allowed]
        if bad:
            raise argparse.ArgumentTypeError(f"unknown: {','.join(bad)}")
        return names
    return parse


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--algos", type=_names(ALGORITHMS),
                    default=list(ALGORITHMS))
    ap.add_argument("--games", type=_names(GAMES), default=list(GAMES))
    ap.add_argument("--n", type=lambda s: [int(v) for v in s.split(",")],
                    default=[20, 100])
    ap.add_argument("--seeds", type=int, default=12,
                    help="matrix seeds 1..SEEDS")
    ap.add_argument("--T", type=int, default=5000)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", help="JSON path (default: stdout)")
    argv = sys.argv[1:] if argv is None else argv
    args = ap.parse_args(argv)
    if args.seeds < 1 or args.workers < 1:
        ap.error("--seeds and --workers must be at least 1")
    command = " ".join(["python3", "scripts/scorecard.py", *argv])
    harness.write_json({"command": command, **scorecard(args)}, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
