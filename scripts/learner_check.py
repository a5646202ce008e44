#!/usr/bin/env python3
"""The batch-SGD learner against the full-history MLE on the same records.

Example:
    python3 scripts/learner_check.py --game noisy_elo --noise 0.1 --n 20 \\
        --batches 256 --alphas tau,1,0.2 --seed 0

This checks the learner alone, with no scheduler choosing the pairs.
The game, tau (round(0.7 n)) and the MLE ridge are those of a
``maxin_elo`` run with the same flags (``RunConfig.resolve`` and
``harness.build_matrix``); ``--game`` takes any ``RunConfig.game``
generator, and an unknown one is a usage error. One seeded stream of
uniform pairs (never self-pairs) is played on the game, and its outcomes
are cut into batches of tau records. Batch 0 starts the learner as MaxIn
does (``schedulers.warm_start``), and batch j >= 1 is SGD step j
(``ratings.batch_update``). The same records go to every alpha. At
j = 1, 2, 4, ... and at the last batch it reports the L2 distance of the
SGD average r_bar_j from the MLE of batches 0..j (``ratings.mle_fit``),
corr(r_bar_j, r*) and the paper's gap factor ``schedulers.g2(j, tau,
alpha)``. The result is printed as JSON. It is a report, not a test:
nothing here passes or fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from duelrank import games, harness  # noqa: E402
from duelrank.config import RunConfig  # noqa: E402
from duelrank.errors import ConfigError  # noqa: E402
from duelrank.ratings import batch_update, mle_fit  # noqa: E402
from duelrank.schedulers import g2, warm_start  # noqa: E402


def uniform_records(p: np.ndarray, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """``count`` (x, y, o) rows over uniform pairs x < y, o = 1 if x won."""
    iu, ju = np.triu_indices(len(p), k=1)
    pick = rng.integers(len(iu), size=count)
    x, y = iu[pick], ju[pick]
    o = (rng.random(count) < p[x, y]).astype(np.int64)
    return np.stack((x, y, o), axis=1)


def checkpoints(batches: int) -> list[int]:
    js = [1 << i for i in range(batches.bit_length()) if 1 << i < batches]
    return js + [batches]


def learner_check(cfg: RunConfig, matrix: games.WinMatrix, batches: int,
                  alphas: list[float]) -> dict:
    """The report for a resolved config's tau, ridge, eta0 and seed on
    its game ``matrix``; see the module doc."""
    n, tau = cfg.n, cfg.tau
    r_star = games.true_ratings(matrix).r_star
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3]))
    records = uniform_records(matrix.p, tau * (batches + 1), rng)
    warm = warm_start(records[:tau], cfg, rng)
    mles = {j: mle_fit(records[:tau * (j + 1)], n, ridge=cfg.ridge).r
            for j in checkpoints(batches)}
    runs = []
    for alpha in alphas:
        sgd = dataclasses.replace(warm, alpha=alpha)
        rows = []
        for j in range(1, batches + 1):
            sgd = batch_update(sgd, records[tau * j:tau * (j + 1)])
            if j in mles:
                rows.append({
                    "j": j, "records": tau * (j + 1),
                    "gap_l2": float(np.linalg.norm(sgd.r_bar - mles[j])),
                    "corr_true": float(np.corrcoef(sgd.r_bar, r_star)[0, 1]),
                    "g2": g2(j, tau, alpha)})
        runs.append({"alpha": alpha, "checkpoints": rows})
    return {"n": n, "tau": tau, "seed": cfg.seed, "eta0": cfg.eta0,
            "batches": batches, "runs": runs}


def parse_alphas(text: str, tau: int) -> list[float]:
    """The comma list's step divisors; ValueError unless each is a
    positive finite number."""
    alphas = [float(tau) if a == "tau" else float(a) for a in text.split(",")]
    if not all(0.0 < a < math.inf for a in alphas):  # also rejects nan
        raise ValueError(f"every alpha must be positive and finite, got {text}")
    return alphas


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--game", default="elo",
                    help="a RunConfig.game generator")
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--noise", type=float, default=0.0)
    ap.add_argument("--batches", type=int, default=256,
                    help="SGD steps after the center batch")
    ap.add_argument("--alphas", default="tau,1,0.2",
                    help="comma list; 'tau' stands for the batch size")
    ap.add_argument("--eta0", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.batches < 1:
        ap.error("--batches must be at least 1")
    try:
        cfg = RunConfig(algo="maxin_elo", game=args.game, n=args.n,
                        noise=args.noise, eta0=args.eta0,
                        seed=args.seed).resolve()
        matrix = harness.build_matrix(cfg)
        alphas = parse_alphas(args.alphas, cfg.tau)
    except ConfigError as e:
        ap.error(str(e))
    except ValueError as e:
        ap.error(f"--alphas: {e}")
    report = learner_check(cfg, matrix, args.batches, alphas)
    harness.write_json({"game": args.game, "noise": args.noise, **report})
    return 0


if __name__ == "__main__":
    sys.exit(main())
