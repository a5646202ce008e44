"""End-to-end acceptance gate.

Each test checks one contract of the library at its stated tolerance and
emits a single [PASS]/[FAIL] line outside pytest's capture so the verdicts
survive in piped logs. Heavier simulations are shared via module fixtures.
"""

import itertools
import math
import time

import numpy as np
import pytest

from duelrank.games import (
    WinMatrix,
    gen_cyclic,
    gen_elo_game,
    logit_matrix,
    sigmoid,
    true_ratings,
)
from duelrank.harness import RunConfig, simulate, write_trace_csv
from duelrank.metrics import hit_ratio_at_k, ndcg_at_k, reciprocal_rank
from duelrank.ratings import (
    RatingState,
    _batch_gradients,
    batch_update,
    cyclic_term,
    elo_loss,
    mle_fit,
)
from duelrank.schedulers import MatchEnv, make_scheduler, warm_start
from duelrank.tracker import DesignTracker


def _verdict(capsys, num, name, ok):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {num}: {name}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


# ---------------------------------------------------------------- 1

def _loss_at(r, c, x, y, o):
    z = r[x] - r[y]
    if c is not None:
        z += cyclic_term(c, x, y)
    return elo_loss(o, float(sigmoid(z)))


def _fd_gradients(r, c, x, y, o, h=1e-6):
    """Central finite differences over every parameter of players x and y."""
    grad_r = np.zeros_like(r)
    for i in (x, y):
        rp, rm = r.copy(), r.copy()
        rp[i] += h
        rm[i] -= h
        grad_r[i] = (_loss_at(rp, c, x, y, o) - _loss_at(rm, c, x, y, o)) / (2 * h)
    grad_c = None
    if c is not None:
        grad_c = np.zeros_like(c)
        for i in (x, y):
            for d in range(c.shape[1]):
                cp, cm = c.copy(), c.copy()
                cp[i, d] += h
                cm[i, d] -= h
                grad_c[i, d] = (_loss_at(r, cp, x, y, o)
                                - _loss_at(r, cm, x, y, o)) / (2 * h)
    return grad_r, grad_c


def test_01_gradient_oracle(capsys):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    cases = [(None, 250)] + [(k, 250) for k in (1, 2, 4)]
    for k, count in cases:
        for _ in range(count):
            n = int(rng.integers(3, 12))
            r = rng.normal(scale=1.5, size=n)
            c = rng.normal(scale=0.7, size=(n, 2 * k)) if k else None
            x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
            o = int(rng.integers(0, 2))
            got_r, got_c = _batch_gradients(r, c, [(x, y, o)])
            ref_r, ref_c = _fd_gradients(r, c, x, y, o)
            err = np.linalg.norm(got_r - ref_r)
            ref_norm = np.linalg.norm(ref_r)
            if c is not None:
                err = math.hypot(err, float(np.linalg.norm(got_c - ref_c)))
                ref_norm = math.hypot(ref_norm,
                                      float(np.linalg.norm(ref_c)))
            worst = max(worst, err / max(ref_norm, 1e-10))
    elapsed = time.perf_counter() - start
    _verdict(capsys, 1, "analytic vs finite-difference gradients",
             worst < 1e-4 and elapsed < 10.0)


# ---------------------------------------------------------------- 2

def test_02_hodge_identity(capsys):
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 31))
        a = rng.normal(scale=0.8, size=(n, n))
        a = a - a.T
        p = sigmoid(a)
        np.fill_diagonal(p, 0.5)
        m = WinMatrix(n=n, p=p)
        truth = true_ratings(m)
        logits = logit_matrix(m)
        grad = truth.r_star[:, None] - truth.r_star[None, :]
        ok &= np.max(np.abs(grad + truth.rot - logits)) <= 1e-9
        ok &= np.max(np.abs(truth.rot + truth.rot.T)) <= 1e-9
        ok &= np.max(np.abs(truth.rot.sum(axis=1))) <= 1e-9
    elapsed = time.perf_counter() - start
    _verdict(capsys, 2, "Hodge split reconstructs the logit matrix",
             bool(ok) and elapsed < 5.0)


# ---------------------------------------------------------------- 3

def test_03_sherman_morrison_oracle(capsys):
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 21))
        tracker = DesignTracker(n, 1.0)
        v = np.eye(n)
        for _ in range(500):
            x, y = (int(v_) for v_ in rng.choice(n, size=2, replace=False))
            tracker.update(x, y)
            u = np.zeros(n)
            u[x], u[y] = 1.0, -1.0
            v += np.outer(u, u)
        worst = max(worst, float(np.max(np.abs(tracker.v_inv
                                               - np.linalg.inv(v)))))
    _verdict(capsys, 3, "maintained design inverse matches direct inversion",
             worst < 1e-8)


# ---------------------------------------------------------------- 4

def test_04_sgd_tracks_mle(capsys):
    cfg = RunConfig(algo="maxin_elo", n=20).resolve()  # MaxIn's learner
    n, tau = cfg.n, cfg.tau
    matrix = gen_elo_game(n, 1.0, seed=40)
    wins = 0
    for seed in range(5):
        rng = np.random.default_rng([404, seed])
        history = []
        for _ in range(tau):
            x, y = (int(v) for v in rng.choice(n, 2, replace=False))
            history.append((x, y, int(rng.random() < matrix.p[x, y])))
        sgd = warm_start(history, cfg, rng)
        gaps = {}
        for j in range(1, 201):
            for _ in range(tau):
                x, y = (int(v) for v in rng.choice(n, 2, replace=False))
                o = int(rng.random() < matrix.p[x, y])
                history.append((x, y, o))
            sgd = batch_update(sgd, history[-tau:])
            if j in (10, 200):
                ref = mle_fit(history, n).r
                gaps[j] = float(np.linalg.norm(
                    (sgd.r_bar - sgd.r_bar.mean()) - ref))
        if gaps[200] < gaps[10]:
            wins += 1
    _verdict(capsys, 4, "averaged SGD iterate approaches the running MLE",
             wins == 5)


# ---------------------------------------------------------------- 5 / 6

@pytest.fixture(scope="module")
def elo_runs():
    """Five replicates of MaxIn-Elo and Random on one n=20 Elo game."""
    base = dict(n=20, T=5000, seed=50, matrix_seed=2, replicates=5,
                rating_scale=1.0, tau=80, gamma=1.8)
    out = {}
    start = time.perf_counter()
    for algo in ("maxin_elo", "random"):
        traces, summary = simulate(RunConfig(algo=algo, **base))
        out[algo] = (traces, summary)
    out["elapsed"] = time.perf_counter() - start
    return out


def test_05_sublinear_regret(capsys, elo_runs):
    traces, summary = elo_runs["maxin_elo"]
    early = np.mean([t.cum_regret[1249] for t in traces])
    late = np.mean([t.cum_regret[4999] for t in traces])
    sublinear = late / 5000.0 < 0.6 * early / 1250.0
    rand_late = np.mean(elo_runs["random"][1]["final_cum_regret"])
    beats_random = np.mean(summary["final_cum_regret"]) < rand_late
    _verdict(capsys, 5, "regret grows sublinearly and beats random",
             sublinear and beats_random and elo_runs["elapsed"] < 120.0)


def test_06_top1_identification(capsys, elo_runs):
    tri_traces, _ = simulate(RunConfig(
        algo="maxin_elo", game="triangular", n=10, T=2000, seed=60,
        replicates=5))
    tri_hits = sum(t.rr[-1] == 1.0 for t in tri_traces)
    elo_traces, _ = elo_runs["maxin_elo"]
    elo_hits = sum(t.rr[-1] >= 0.5 for t in elo_traces)
    _verdict(capsys, 6, "final reciprocal rank finds the top player",
             tri_hits >= 4 and elo_hits >= 4)


# ---------------------------------------------------------------- 7

def _cyclic_plus_dominant(tmp_path):
    base = gen_cyclic(5).p
    p = np.full((6, 6), 0.5)
    p[:5, :5] = base
    p[5, :5] = 0.8
    p[:5, 5] = 0.2
    path = tmp_path / "cyclic_dom.csv"
    np.savetxt(path, p, delimiter=",", fmt="%.17g")
    return str(path)


def test_07_intransitive_game(capsys, tmp_path):
    matrix = _cyclic_plus_dominant(tmp_path)
    base = dict(n=6, T=3000, seed=70, replicates=5, matrix=matrix,
                melo=True, k=4)
    maxin, _ = simulate(RunConfig(algo="maxin_melo", **base))
    rand, _ = simulate(RunConfig(algo="random", **base))
    rr_hits = sum(t.rr[-1] == 1.0 for t in maxin)
    regret_wins = sum(m.cum_regret[-1] < r.cum_regret[-1]
                      for m, r in zip(maxin, rand))
    _verdict(capsys, 7, "cyclic-feature scheduler handles intransitivity",
             rr_hits >= 4 and regret_wins >= 4)


# ---------------------------------------------------------------- 8

def _per_round_times(algo, T):
    n = 20
    matrix = gen_elo_game(n, 1.0, seed=80)
    rng = np.random.default_rng(808)
    env = MatchEnv(matrix, np.random.default_rng(809))
    cfg = RunConfig(algo=algo, n=n).resolve()
    sched = make_scheduler(cfg, rng)
    times = np.empty(T)
    for t in range(T):
        start = time.perf_counter()
        sched.step(env)
        times[t] = time.perf_counter() - start
    return times


@pytest.mark.parametrize("_", [None])
def test_08_complexity_contract(capsys, _):
    def late_over_early(algo):
        times = _per_round_times(algo, 5000)
        return np.median(times[4900:5000]) / np.median(times[450:550])

    # timing is noisy; allow one retry, which re-times both schedulers
    for _attempt in range(2):
        ok = (late_over_early("maxin_elo") <= 2.0
              and late_over_early("maxinp") >= 3.0)
        if ok:
            break
    _verdict(capsys, 8, "constant per-round cost vs linear-in-history refit",
             ok)


# ---------------------------------------------------------------- 9

def _ref_metrics(truth, est, k):
    pred = sorted(range(len(est.r)), key=lambda i: (-est.r[i], i))
    true = sorted(range(len(truth.r_star)),
                  key=lambda i: (-truth.r_star[i], i))
    rr = 1.0 / (pred.index(truth.best) + 1)
    top = set(true[:k])
    hr = len(top & set(pred[:k])) / k
    norm = sum(1.0 / math.log2(i + 2) for i in range(k))
    dcg = sum((pred[i] in top) / math.log2(i + 2) for i in range(k))
    return rr, hr, dcg / norm


def _truth_from(r_star):
    from duelrank.games import TrueRatings
    r_star = np.asarray(r_star, dtype=float)
    n = len(r_star)
    return TrueRatings(r_star=r_star, rot=np.zeros((n, n)),
                       best=int(np.argmax(r_star)))


def test_09_metric_oracles(capsys):
    ok = True
    for n in range(2, 7):
        truth = _truth_from(np.arange(n, 0.0, -1.0))
        for perm in itertools.permutations(range(n)):
            est = RatingState(r=np.array(perm, dtype=float))
            for k in range(1, n + 1):
                rr, hr, ndcg = _ref_metrics(truth, est, k)
                ok &= abs(reciprocal_rank(truth, est) - rr) <= 1e-12
                ok &= abs(hit_ratio_at_k(truth, est, k) - hr) <= 1e-12
                ok &= abs(ndcg_at_k(truth, est, k) - ndcg) <= 1e-12
    rng = np.random.default_rng(909)
    truth = _truth_from(rng.normal(size=20))
    for _ in range(1000):
        est = RatingState(r=rng.normal(size=20))
        k = int(rng.integers(1, 21))
        rr, hr, ndcg = _ref_metrics(truth, est, k)
        ok &= abs(reciprocal_rank(truth, est) - rr) <= 1e-12
        ok &= abs(hit_ratio_at_k(truth, est, k) - hr) <= 1e-12
        ok &= abs(ndcg_at_k(truth, est, k) - ndcg) <= 1e-12
    _verdict(capsys, 9, "ranking metrics match exhaustive references",
             bool(ok))


# ---------------------------------------------------------------- 10

def test_10_determinism(capsys, tmp_path):
    cfg = RunConfig(algo="maxin_elo", n=10, T=120, seed=1000, ks=(3,))
    blobs = []
    for i in range(2):
        traces, _ = simulate(cfg)
        path = tmp_path / f"det{i}.csv"
        write_trace_csv(traces[0], path)
        blobs.append(path.read_bytes())
    identical = blobs[0] == blobs[1]

    seqs = set()
    for seed in range(10):
        traces, _ = simulate(RunConfig(algo="maxin_elo", n=10, T=100,
                                       seed=seed))
        seqs.add(tuple(zip(traces[0].x.tolist(), traces[0].y.tolist())))
    _verdict(capsys, 10, "byte-identical reruns, seed-distinct schedules",
             identical and len(seqs) == 10)
