#!/usr/bin/env python3
"""Compare all schedulers on one game and print a regret/ranking table.

Runs every algorithm with the same matrix and seed layout, writes
per-replicate trace CSVs under --out, and prints mean final cumulative
regret and ranking metrics.

Example:
    python3 scripts/compare_schedulers.py --game elo --n 20 --T 5000 \
        --replicates 5 --out results/elo20
"""

import argparse
import os

from duelrank.config import ALGORITHMS, RunConfig
from duelrank.harness import report, simulate


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--game", default="elo",
                    choices=["elo", "noisy_elo", "triangular", "cyclic"])
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--T", type=int, default=5000)
    ap.add_argument("--tau", type=int, default=None)
    ap.add_argument("--gamma", type=float, default=1.8)
    ap.add_argument("--noise", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=50)
    ap.add_argument("--matrix-seed", type=int, default=2)
    ap.add_argument("--replicates", type=int, default=5)
    ap.add_argument("--melo", action="store_true",
                    help="learn cyclic features in the baselines too")
    ap.add_argument("--out", default=None,
                    help="prefix for trace/summary files (default: no files)")
    args = ap.parse_args()

    header = f"{'algorithm':<12} {'R(T)':>10} {'RR':>6} {'HR@4':>6} {'NDCG@4':>7}"
    print(header)
    print("-" * len(header))
    for algo in ALGORITHMS:
        cfg = RunConfig(
            algo=algo, game=args.game, n=args.n, T=args.T, tau=args.tau,
            gamma=args.gamma, noise=args.noise, seed=args.seed,
            matrix_seed=args.matrix_seed, replicates=args.replicates,
            melo=args.melo or algo == "maxin_melo", ks=(4,))
        traces, summary = simulate(cfg)
        if args.out:
            os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
            report(traces, summary, f"{args.out}.{algo}")
        s = summary.stats()
        print(f"{algo:<12} {s['cum_regret']['mean']:>10.1f} "
              f"{s['rr']['mean']:>6.3f} {s['hr']['mean'][0]:>6.3f} "
              f"{s['ndcg']['mean'][0]:>7.3f}")


if __name__ == "__main__":
    main()
