#!/usr/bin/env python3
"""Sweep the exploration weight gamma and report regret per grid point.

Example:
    python3 scripts/gamma_sweep.py --n 20 --T 5000 --replicates 5
"""

import argparse

import numpy as np

from duelrank.config import RunConfig
from duelrank.harness import sweep

GAMMA_GRID = tuple(round(0.2 * i, 1) for i in range(1, 11))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--algo", default="maxin_elo")
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--T", type=int, default=5000)
    ap.add_argument("--tau", type=int, default=None)
    ap.add_argument("--seed", type=int, default=50)
    ap.add_argument("--matrix-seed", type=int, default=2)
    ap.add_argument("--replicates", type=int, default=5)
    ap.add_argument("--gammas", default=None,
                    help="comma-separated values (default: the 0.2..2.0 grid)")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    gammas = ([float(v) for v in args.gammas.split(",")]
              if args.gammas else list(GAMMA_GRID))
    template = RunConfig(algo=args.algo, n=args.n, T=args.T, tau=args.tau,
                         seed=args.seed, matrix_seed=args.matrix_seed,
                         replicates=args.replicates, workers=args.workers)
    results = sweep(template, {"gamma": gammas})

    print(f"{'gamma':>6} {'R(T) mean':>10} {'R(T) std':>9} {'RR mean':>8}")
    for res in results:
        if not res["ok"]:
            print(f"{res['point']['gamma']:>6} failed: {res['message']}")
            continue
        s = res["summary"]
        regret = np.asarray(s["final_cum_regret"])
        print(f"{res['point']['gamma']:>6} {regret.mean():>10.1f} "
              f"{regret.std():>9.1f} {np.mean(s['final_rr']):>8.3f}")


if __name__ == "__main__":
    main()
