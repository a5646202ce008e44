"""Config parsing, simulation loop, sweeps, and file emission."""

import dataclasses
import hashlib
import json
import math
import os
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from duelrank import games, harness
from duelrank.config import ALGORITHMS, RunConfig, _field_types, parse_config
from duelrank.errors import ConfigError
from duelrank.harness import (
    read_trace_csv,
    report,
    simulate,
    sweep,
    trace_header,
    write_trace_csv,
)


class TestParseConfig:
    def test_defaults_filled(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("algo=maxin_elo\nn=20\nT=5000\nseed=7\n")
        cfg = parse_config(str(path))
        assert cfg.algo == "maxin_elo"
        assert cfg.n == 20 and cfg.T == 5000 and cfg.seed == 7
        assert cfg.tau is None  # resolved to round(0.7*n) downstream
        assert cfg.resolve().tau == 14
        assert cfg.gamma == 1.0

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# a comment\n\nalgo=random  # trailing\nn=5\nT=50\n")
        assert parse_config(str(path)).algo == "random"

    def test_zero_tau_named_in_error(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("algo=maxin_elo\nn=5\nT=50\ntau=0\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(str(path))
        assert exc.value.key == "tau"

    def test_unknown_algorithm(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("algo=alpha_ig\nn=5\nT=50\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(str(path))
        assert exc.value.key == "algo"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("algo=random\nn=5\nT=50\nfrobnicate=1\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(str(path))
        assert exc.value.key == "frobnicate"

    def test_type_mismatch(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("algo=random\nn=five\nT=50\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(str(path))
        assert exc.value.key == "n"

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("algo=random\nn=5\nT=50\nseed=1\n")
        cfg = parse_config(str(path), overrides={"seed": 9, "T": "80"})
        assert cfg.seed == 9 and cfg.T == 80

    def test_ks_list(self):
        cfg = parse_config(overrides={"algo": "random", "n": "6", "T": "50",
                                      "ks": "1,3,5"})
        assert cfg.ks == (1, 3, 5)

    def test_replicates_invariant(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(overrides={"algo": "random", "n": "5", "T": "50",
                                    "replicates": "0"})
        assert exc.value.key == "replicates"

    def test_field_types_cover_every_field(self):
        expected = {
            str: ["algo", "game", "matrix", "gamma_mode", "out"],
            int: ["n", "T", "tau", "k", "seed", "matrix_seed", "replicates"],
            float: ["rating_scale", "noise", "gamma", "alpha", "eta0",
                    "delta", "lambda_ridge", "ridge", "c1", "clip_eps"],
            bool: ["melo"],
            tuple: ["ks"],
        }
        flat = {name: t for t, names in expected.items() for name in names}
        assert set(flat) == {f.name for f in dataclasses.fields(RunConfig)}
        assert harness._field_types() == flat

    def test_digest_ignores_output_path(self):
        cfg = RunConfig(algo="random", n=5, T=30, seed=3)
        moved = dataclasses.replace(cfg, out="elsewhere")
        assert moved.digest() == cfg.digest()
        assert dataclasses.replace(cfg, seed=4).digest() != cfg.digest()

    def test_digest_pinned(self):
        # guards the field order and spelling that name every experiment
        cfg = RunConfig(algo="maxinp", n=8, T=300, tau=5, gamma=1.8,
                        melo=True, seed=7, matrix_seed=3, ks=(1, 4), out="x")
        assert cfg.digest() == (
            "algo=maxinp;game=elo;n=8;rating_scale=1.0;noise=0.0;"
            "matrix=None;T=300;tau=5;gamma=1.8;gamma_mode=fixed;alpha=None;"
            "eta0=1.0;k=4;melo=True;delta=0.2;lambda_ridge=1.0;"
            "ridge=0.0001;c1=0.25;clip_eps=0.001;seed=7;matrix_seed=3;"
            "replicates=1;ks=1,4;prng=numpy-pcg64")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "key", [k for k, t in _field_types().items() if t is float])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError) as exc:
            RunConfig(algo="maxin_elo", n=6, T=40, **{key: value}).resolve()
        assert exc.value.key == key

    @pytest.mark.parametrize("value", [0.0, -1.0, 1e-320, 1e-200])
    def test_lambda_ridge_must_be_positive(self, value):
        """A subnormal ridge's 1 / lambda is inf, and below 1e-150 a rank-1
        term (2 / lambda)^2 can overflow: either fills V^{-1} with NaN."""
        with pytest.raises(ConfigError) as exc:
            RunConfig(n=6, T=40, lambda_ridge=value).resolve()
        assert exc.value.key == "lambda_ridge"

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_ridge_must_be_positive(self, algo):
        # MaxIn fits with max(ridge, 2) and maxinp first fits at round tau,
        # so neither would notice a bad ridge before resolve()
        with pytest.raises(ConfigError) as exc:
            RunConfig(algo=algo, n=6, T=40, ridge=-5.0).resolve()
        assert exc.value.key == "ridge"


class TestSimulate:
    def test_row_count_and_warmup_flags(self):
        cfg = RunConfig(algo="maxin_elo", n=10, T=10, tau=7, seed=1)
        traces, _ = simulate(cfg)
        trace = traces[0]
        assert len(trace.x) == 10
        # seven uniform warmup pairs, scored on the zero estimate until the
        # warmup fit in round 7
        assert (trace.x[:7] < trace.y[:7]).all()
        assert len(set(trace.rr[:6].tolist())) == 1

    def test_cum_regret_is_running_sum(self):
        cfg = RunConfig(algo="random", n=6, T=40, seed=2)
        traces, _ = simulate(cfg)
        cum = 0.0
        for regret, total in zip(traces[0].instant_regret.tolist(),
                                 traces[0].cum_regret.tolist()):
            assert regret >= 0.0
            cum += regret
            assert total == pytest.approx(cum, abs=1e-12)

    def test_byte_identical_traces(self, tmp_path):
        cfg = RunConfig(algo="maxin_elo", n=8, T=60, tau=5, seed=3,
                        ks=(2,))
        paths = []
        for i in range(2):
            traces, _ = simulate(cfg)
            path = tmp_path / f"t{i}.csv"
            write_trace_csv(traces[0], path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_matrix_seed_isolated_from_scheduler_seed(self):
        a = harness.build_matrix(RunConfig(n=10, seed=1, matrix_seed=5))
        b = harness.build_matrix(RunConfig(n=10, seed=2, matrix_seed=5))
        np.testing.assert_array_equal(a.p, b.p)

    def test_scheduler_pairs_isolated_from_matrix_seed(self):
        # same base seed, different matrices: warmup pair draws coincide
        pair_seqs = []
        for mseed in (11, 12):
            cfg = RunConfig(algo="maxin_elo", n=10, T=7, tau=6, seed=4,
                            matrix_seed=mseed)
            traces, _ = simulate(cfg)
            pair_seqs.append(list(zip(traces[0].x[:6].tolist(),
                                      traces[0].y[:6].tolist())))
        assert pair_seqs[0] == pair_seqs[1]

    def test_distinct_seeds_distinct_pairs(self):
        seqs = set()
        for seed in range(5):
            cfg = RunConfig(algo="maxin_elo", n=10, T=40, tau=7, seed=seed)
            traces, _ = simulate(cfg)
            seqs.add(tuple(zip(traces[0].x.tolist(), traces[0].y.tolist())))
        assert len(seqs) == 5

    def test_replicates_share_matrix_but_differ(self):
        cfg = RunConfig(algo="random", n=8, T=30, seed=0, replicates=3)
        traces, summary = simulate(cfg)
        assert len(traces) == 3
        assert summary["replicates"] == 3
        assert len(summary["final_cum_regret"]) == 3
        seqs = {tuple(zip(t.x.tolist(), t.y.tolist(), t.outcome.tolist()))
                for t in traces}
        assert len(seqs) == 3

    def test_loaded_matrix_env(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,0.9,0.9\n0.1,0.5,0.9\n0.1,0.1,0.5\n")
        cfg = RunConfig(algo="random", n=3, T=20, seed=0, matrix=str(path))
        traces, _ = simulate(cfg)
        assert len(traces[0].x) == 20


class TestSweep:
    def test_grid_counting(self):
        cfg = RunConfig(algo="random", n=5, T=30, seed=0, replicates=2)
        results = sweep(cfg, {"gamma": [0.2, 0.4, 0.6]})
        assert len(results) == 3
        assert all(r["ok"] for r in results)
        assert all(r["summary"]["replicates"] == 2 for r in results)

    def test_empty_value_list_uses_template(self):
        cfg = RunConfig(algo="random", n=5, T=30, seed=0)
        results = sweep(cfg, {"eta0": []})
        assert len(results) == 1

    def test_single_point_equals_direct_simulate(self):
        cfg = RunConfig(algo="maxin_elo", n=8, T=50, tau=5, seed=1)
        direct = simulate(cfg)[1]
        swept = sweep(cfg, {})[0]["summary"]
        assert swept["final_cum_regret"] == direct["final_cum_regret"]
        assert swept["final_rr"] == direct["final_rr"]

    def test_failures_recorded_not_raised(self):
        cfg = RunConfig(algo="maxin_elo", n=5, T=30, seed=0)
        results = sweep(cfg, {"tau": [2, 40]})  # 40 >= T is invalid
        assert results[0]["ok"]
        assert not results[1]["ok"]
        assert results[1]["error"] == "ConfigError"

    def test_unknown_sweep_key(self):
        with pytest.raises(ConfigError):
            sweep(RunConfig(algo="random", n=5, T=30), {"nope": [1]})

    def test_parallel_matches_serial(self):
        cfg = RunConfig(algo="random", n=5, T=30, seed=0)
        serial = sweep(cfg, {"eta0": [0.1, 0.5]})
        parallel = sweep(cfg, {"eta0": [0.1, 0.5]}, workers=2)
        for s, p in zip(serial, parallel):
            assert s["summary"]["final_cum_regret"] == \
                p["summary"]["final_cum_regret"]
            assert s["summary"]["config"] == p["summary"]["config"]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigError) as exc:
            sweep(RunConfig(algo="random", n=5, T=30), {}, workers=workers)
        assert exc.value.key == "workers"

    def test_per_seed_best_gamma_selection(self):
        # tuning protocol: pick the gamma with the best final RR per seed
        cfg = RunConfig(algo="maxin_elo", n=6, T=60, tau=4, seed=0,
                        replicates=2)
        results = sweep(cfg, {"gamma": [0.4, 1.0]})
        per_seed_best = []
        for rep in range(2):
            rrs = [r["summary"]["final_rr"][rep] for r in results]
            per_seed_best.append(max(range(len(rrs)), key=lambda i: rrs[i]))
        assert len(per_seed_best) == 2


PINS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]


class TestPoolMap:
    def test_workers_start_with_one_blas_thread(self, monkeypatch):
        monkeypatch.setenv(PINS[0], "4")
        for var in PINS[1:]:
            monkeypatch.delenv(var, raising=False)
        assert harness.pool_map(os.getenv, PINS, 2) == ["1", "1", "1"]
        # the caller's environment is as it was
        assert os.environ[PINS[0]] == "4"
        assert all(var not in os.environ for var in PINS[1:])

    @pytest.mark.parametrize("workers,items", [(1, [0, 1]), (0, [0, 1]),
                                               (2, [0])])
    def test_serial_path_runs_in_process(self, workers, items):
        assert harness.pool_map(lambda _: os.getpid(), items, workers) == \
            [os.getpid()] * len(items)

    def test_results_keep_input_order(self):
        assert harness.pool_map(abs, [-3, 1, -2, 0], 2) == [3, 1, 2, 0]


def reference_trace_csv(trace) -> bytes:
    """The row-at-a-time writer that preceded the column-wise one."""
    lines = [trace_header(trace.ks)]
    for i in range(len(trace.x)):
        vals = [i + 1, trace.x[i].item(), trace.y[i].item(),
                trace.outcome[i].item(), trace.instant_regret[i].item(),
                trace.cum_regret[i].item(), trace.rr[i].item()]
        vals += trace.hr[i].tolist() + trace.ndcg[i].tolist()
        lines.append(",".join(repr(float(v)) if isinstance(v, float)
                              else str(v) for v in vals))
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestTraceBytes:
    def _bytes(self, trace, path):
        write_trace_csv(trace, path)
        return path.read_bytes()

    def test_random_without_cutoffs(self, tmp_path):
        traces, _ = simulate(RunConfig(algo="random", n=7, T=60, seed=4))
        assert traces[0].hr.shape == (60, 0)
        got = self._bytes(traces[0], tmp_path / "t.csv")
        assert got == reference_trace_csv(traces[0])

    def test_maxin_with_self_pairs_and_read_back(self, tmp_path):
        traces, _ = simulate(RunConfig(algo="maxin_elo", n=12, T=200, tau=8,
                                       gamma=0.5, seed=4, ks=(1, 4, 10)))
        trace = traces[0]
        assert (trace.x == trace.y).any() and (trace.x != trace.y).any()
        got = self._bytes(trace, tmp_path / "t.csv")
        assert got == reference_trace_csv(trace)
        back = read_trace_csv(tmp_path / "t.csv")
        assert reference_trace_csv(back) == got
        assert self._bytes(back, tmp_path / "back.csv") == got

    def test_maxin_melo_ignores_melo_flag(self, tmp_path):
        # MaxIn takes mElo from algo, so one sweep over algo serves all six
        kw = dict(algo="maxin_melo", n=8, T=300, tau=6, gamma=1.8, k=2,
                  ks=(4,), seed=4)
        got = [self._bytes(simulate(RunConfig(**kw, melo=melo))[0][0],
                           tmp_path / f"{melo}.csv") for melo in (False, True)]
        assert got[0] == got[1]

    # SHA-256 of write_trace_csv bytes, one small config per algorithm.
    # Trace bytes are the determinism contract: a change that moves one of
    # these digests changes results and must be declared as such. They
    # were taken with numpy 2.4 on x86-64.
    DIGESTS = [
        (dict(algo="maxin_elo", n=12, T=400, tau=8, gamma=1.0,
              rating_scale=2.0, ks=(1, 4, 10), seed=3),
         "10ceb736271e97f9a84657daac0e7a6b91d3ca43a5a6769953b6f4bd625f4b6c"),
        (dict(algo="maxin_melo", n=8, T=300, tau=6, gamma=1.8, k=2, ks=(4,),
              seed=4),
         "e1d33a7e77ebf8c415fb9b59cbbfe423c6e901a6a05d42ed17e918d9b987ceba"),
        (dict(algo="random", n=8, T=200, melo=True, k=2, ks=(4,), seed=5),
         "97b6c800a1019074c5f40ebf6046e451b0e88d9090834d80a081b62d56742c0a"),
        (dict(algo="rg_ucb", n=6, T=200, ks=(2,), seed=6),
         "3ebd2c7b1fe01a671bf0441e1a59f1efc76862a9bb41be721820818070b10572"),
        (dict(algo="dbgd", n=8, T=200, ks=(4,), seed=7),
         "7e63cc8b61e3a443e7f06869144daf5d99843da177cb4ac66de180603d125985"),
        (dict(algo="maxinp", n=6, T=80, tau=5, gamma=1.8, ks=(2,), seed=8),
         "69c64ad543bd3ccd38a421b0284cbf616104e402734d7faef8d0b3e4d823f890"),
        # matrix=True: play on MATRIX_CSV, read by load_matrix
        (dict(algo="maxinp", matrix=True, n=5, T=80, tau=12, gamma=4.0,
              ks=(2,), seed=9),
         "7223a62169269db9830d0f3a28d51a26966a776066358e4ef2e488c4d9ad1241"),
        (dict(algo="rg_ucb", n=6, T=200, melo=True, k=2, ks=(2,), seed=10),
         "2ce0d4e6ab7d7d20405b0600e744fe56cfa6c82593d1d1f0aa1de9dad665b827"),
        (dict(algo="maxin_elo", game="noisy_elo", noise=0.1, n=8, T=300,
              tau=6, gamma_mode="theoretical", ks=(4,), seed=11),
         "b9d0f0f57d9130a704681fa3bc03417df21b1f451eb8f88b92fd1f668f3f6687"),
        # mElo at k=1 (no self-pairs, 33 distinct pairs) and a mElo dbgd
        (dict(algo="maxin_melo", game="noisy_elo", noise=0.2, n=9, T=300,
              tau=6, gamma=1.8, k=1, ks=(3,), seed=12),
         "8ed513b2fb20b0c5b07b1ab519cb973dcb7a79f00062a174fd9a9360dcb5e2aa"),
        (dict(algo="dbgd", melo=True, k=3, n=8, T=200, ks=(4,), seed=13),
         "c85278280ff6dea321cbcc207f93c29312d1db2bf76ea55f1fe1c4c384d8cc2a"),
    ]
    DIGEST_IDS = [kw["algo"] for kw, _ in DIGESTS[:6]] + [
        "maxinp-matrix", "rg_ucb-melo", "maxin_elo-theoretical",
        "maxin_melo-k1", "dbgd-melo"]
    # one upset (4 beats 0) on an otherwise ordered 5-player game
    MATRIX_CSV = ("0.5,0.6,0.7,0.8,0.35\n"
                  "0.4,0.5,0.6,0.7,0.8\n"
                  "0.3,0.4,0.5,0.6,0.7\n"
                  "0.2,0.3,0.4,0.5,0.6\n"
                  "0.65,0.2,0.3,0.4,0.5\n")

    @pytest.mark.parametrize("kw,digest", DIGESTS, ids=DIGEST_IDS)
    def test_digest_pinned(self, tmp_path, kw, digest):
        if kw.get("matrix"):
            path = tmp_path / "matrix.csv"
            path.write_text(self.MATRIX_CSV)
            kw = {**kw, "matrix": str(path)}
        traces, _ = simulate(RunConfig(**kw))
        if kw["algo"] == "maxin_elo" and "gamma_mode" not in kw:
            assert (traces[0].x == traces[0].y).sum() > kw["T"] // 2
        got = self._bytes(traces[0], tmp_path / "t.csv")
        assert hashlib.sha256(got).hexdigest() == digest


def reference_run(cfg: RunConfig):
    """run_replicate's rounds, one step each, scoring every estimate with
    RankScorer and drawing every outcome as one scalar uniform.

    Also checks the estimate contract: an estimate returned again on the
    next round has the same bits as when it first appeared. Returns the
    per-round (rr, hr, ndcg), the scheduler, the number of distinct
    estimates returned, the warmup's zero ratings included, and the
    per-round (x, y, outcome).
    """
    from duelrank.metrics import RankScorer
    from duelrank.schedulers import make_scheduler
    cfg = cfg.resolve()
    matrix = harness.build_matrix(cfg)
    truth = games.true_ratings(matrix, clip_eps=cfg.clip_eps)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, 1]))

    def play(x, y):
        return int(rng.random() < matrix.p[x, y])

    def play_many(x, y, k):
        x, y = (np.broadcast_to(a, k).tolist() for a in (x, y))
        return np.array([play(a, b) for a, b in zip(x, y)], dtype=np.int64)

    env = types.SimpleNamespace(play=play, plays=lambda k: play,
                                play_many=play_many)
    sched = make_scheduler(cfg, np.random.default_rng(
        np.random.SeedSequence([cfg.seed, 0, 2])))
    scorer = RankScorer(truth, cfg.ks)
    rows, played, last, first_bits, distinct = [], [], None, None, 0
    for _ in range(cfg.T):
        played.append(sched.step(env))
        est = sched.estimate()
        bits = (est.r.tobytes(), None if est.c is None else est.c.tobytes())
        if est is last:
            assert bits == first_bits
        else:
            last, first_bits, distinct = est, bits, distinct + 1
        rows.append([a[0] for a in scorer.score(est.r[None, :])])
    return rows, sched, distinct, played


class TestEstimateContract:
    CASES = [
        dict(algo="maxin_elo", n=12, T=400, tau=8, gamma=1.0,
             rating_scale=2.0, ks=(1, 4, 10), seed=3),
        dict(algo="maxin_elo", n=8, T=300, tau=6, gamma_mode="theoretical",
             ks=(2,), seed=1),
        dict(algo="maxin_melo", n=8, T=300, tau=6, gamma=1.8, k=2, ks=(4,),
             seed=4),
        dict(algo="random", n=8, T=150, ks=(4,), seed=5),
        dict(algo="random", n=8, T=150, melo=True, k=2, ks=(4,), seed=5),
        dict(algo="rg_ucb", n=6, T=150, ks=(2,), seed=6),
        dict(algo="dbgd", n=8, T=150, melo=True, k=1, ks=(4,), seed=7),
        dict(algo="maxinp", n=6, T=60, tau=5, gamma=1.8, ks=(2,), seed=8),
        dict(algo="maxinp", n=6, T=60, tau=5, gamma_mode="theoretical",
             ks=(2,), seed=8),
    ]

    CASE_IDS = ["-".join(str(kw.get(k)) for k in ("algo", "melo", "gamma_mode")
                         if k in kw) for kw in CASES]

    @staticmethod
    def assert_run_matches(cfg, rows):
        cfg = cfg.resolve()
        matrix = harness.build_matrix(cfg)
        truth = games.true_ratings(matrix, clip_eps=cfg.clip_eps)
        trace = harness.run_replicate(cfg, matrix, truth, 0)
        rr, hr, ndcg = zip(*rows)
        assert np.array_equal(trace.rr, np.array(rr))
        assert np.array_equal(trace.hr, np.array(hr).reshape(cfg.T, -1))
        assert np.array_equal(trace.ndcg, np.array(ndcg).reshape(cfg.T, -1))
        return trace

    @pytest.mark.parametrize("kw", CASES, ids=CASE_IDS)
    def test_scores_match_every_round_reference(self, kw):
        cfg = RunConfig(**kw)
        rows, sched, distinct, _ = reference_run(cfg)
        if kw["algo"].startswith("maxin_"):
            assert sched.sgd.j >= 2
            assert distinct == 2 + sched.sgd.j
        self.assert_run_matches(cfg, rows)

    # T=2 stands in for T=1, which RunConfig rejects. Both configs give a
    # new estimate every round: random always, and MaxIn with tau=1 since
    # the theoretical gamma keeps every player a candidate, so it never
    # self-pairs and each round is a batch. So T is the count of scored
    # rows, on both sides of the 64-row block.
    @pytest.mark.parametrize("T", [2, 63, 64, 65, 131])
    @pytest.mark.parametrize("kw", [
        dict(algo="random", n=7, ks=(1, 3, 7), seed=21),
        dict(algo="maxin_elo", n=4, tau=1, gamma_mode="theoretical",
             ks=(2,), seed=22)],
        ids=["random", "maxin_elo"])
    def test_block_boundaries_match_reference(self, kw, T):
        cfg = RunConfig(**kw, T=T)
        rows, _, distinct, _ = reference_run(cfg)
        assert distinct == T
        self.assert_run_matches(cfg, rows)

    @pytest.mark.parametrize("kw", CASES, ids=CASE_IDS)
    def test_scores_each_distinct_estimate_once(self, kw, monkeypatch):
        sizes = []
        snapshot = harness._metric_snapshot

        def counting(scorer, block):
            sizes.append(len(block))
            return snapshot(scorer, block)

        monkeypatch.setattr(harness, "_metric_snapshot", counting)
        cfg = RunConfig(**kw)
        _, _, distinct, _ = reference_run(cfg)
        simulate(cfg)
        assert sum(sizes) == distinct
        assert all(s == harness.BLOCK for s in sizes[:-1])
        assert 0 < sizes[-1] <= harness.BLOCK

    def test_maxin_estimate_is_read_only(self):
        _, sched, _, _ = reference_run(RunConfig(**self.CASES[2]))
        est = sched.estimate()
        for a in (est.r, est.c):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestHeldTail:
    """run_replicate fills the rounds after a held pair in one draw; they
    equal a step per round, whatever round the run freezes in."""

    FROZEN_EARLY = dict(algo="maxin_elo", n=12, T=400, tau=8, gamma=1.0,
                        rating_scale=2.0, ks=(1, 4, 10), seed=3)
    # (config, the round whose self-pair is held, or None)
    CASES = [
        (FROZEN_EARLY, 141),
        (dict(algo="maxin_melo", n=8, T=400, tau=6, gamma=1.0, k=2, ks=(4,),
              seed=4), 69),
        ({**FROZEN_EARLY, "T": 141}, 141),
        (dict(algo="maxin_elo", n=8, T=300, tau=6, gamma=1.8, ks=(2,),
              seed=1), None),
        (dict(algo="maxin_elo", n=8, T=300, tau=6, gamma_mode="theoretical",
              ks=(2,), seed=1), None),
    ]

    @pytest.mark.parametrize("kw,freeze", CASES, ids=[
        "elo-early", "melo-early", "elo-last-round", "elo-never",
        "theoretical"])
    def test_trace_matches_a_step_per_round(self, kw, freeze):
        cfg = RunConfig(**kw)
        rows, sched, _, played = reference_run(cfg)
        x, y, o = (np.array(col) for col in zip(*played))
        assert (sched.held is None) == (freeze is None)
        if freeze is not None:
            assert (x[freeze - 1:] == y[freeze - 1:]).all()
            assert sched.held == (x[-1], y[-1])
            assert x[freeze - 2] != y[freeze - 2]
            # a held tail of hundreds of rounds, played as one draw
            assert freeze == cfg.T or cfg.T - freeze > 256
        trace = TestEstimateContract.assert_run_matches(cfg, rows)
        assert np.array_equal(trace.x, x) and np.array_equal(trace.y, y)
        assert np.array_equal(trace.outcome, o)


class TestReport:
    def _trace(self, ks=()):
        cfg = RunConfig(algo="maxin_elo", n=8, T=25, tau=5, seed=2, ks=ks)
        return simulate(cfg)

    def test_csv_line_count_and_header(self, tmp_path):
        traces, _ = self._trace(ks=(2, 3))
        path = tmp_path / "trace.csv"
        write_trace_csv(traces[0], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 26
        assert lines[0] == "t,x,y,outcome,instant_regret,cum_regret,rr," \
            "hr@2,hr@3,ndcg@2,ndcg@3"
        assert path.read_text().endswith("\n")

    def test_round_trip(self, tmp_path):
        traces, _ = self._trace(ks=(2,))
        path = tmp_path / "trace.csv"
        write_trace_csv(traces[0], path)
        back = read_trace_csv(path)
        assert back.ks == (2,)
        for f in dataclasses.fields(back):  # every field, not only the CSV's
            # repr round-trips exactly
            np.testing.assert_array_equal(getattr(back, f.name),
                                          getattr(traces[0], f.name))

    def test_summary_json(self, tmp_path):
        traces, summary = self._trace(ks=(2,))
        files = report(traces, summary, str(tmp_path / "run"))
        assert len(files) == 2
        payload = json.loads((tmp_path / "run.summary.json").read_text())
        assert payload["replicates"] == 1
        assert len(payload["final_cum_regret"]) == 1
        assert payload["rr"]["mean"] == summary["final_rr"][0]
        assert "config" in payload

    def test_header_without_ks(self):
        assert trace_header(()) == "t,x,y,outcome,instant_regret,cum_regret,rr"


class TestReadTraceCsv:
    HEADER = "t,x,y,outcome,instant_regret,cum_regret,rr,hr@1,hr@2,ndcg@1,ndcg@2"
    ROW = "{t},3,1,1,0.25,{cum},1.0,0.0,1.0,0.0,0.5"

    def _csv(self, tmp_path, rows, header=HEADER):
        path = tmp_path / "t.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        return path

    def _rows(self, count=3):
        return [self.ROW.format(t=t, cum=0.25 * t) for t in range(1, count + 1)]

    def test_reads_columns(self, tmp_path):
        back = read_trace_csv(self._csv(tmp_path, self._rows()))
        assert back.ks == (1, 2)
        assert back.x.tolist() == [3, 3, 3] and back.x.dtype == np.int64
        assert back.cum_regret.tolist() == [0.25, 0.5, 0.75]
        assert back.hr.shape == back.ndcg.shape == (3, 2)
        assert back.ndcg[:, 1].tolist() == [0.5, 0.5, 0.5]

    def test_short_row_rejected(self, tmp_path):
        rows = self._rows()
        rows[1] = rows[1].rsplit(",", 1)[0]
        with pytest.raises(ValueError):
            read_trace_csv(self._csv(tmp_path, rows))

    def test_long_row_rejected(self, tmp_path):
        rows = self._rows()
        rows[2] += ",0.5"
        with pytest.raises(ValueError):
            read_trace_csv(self._csv(tmp_path, rows))

    def test_non_integer_x_rejected(self, tmp_path):
        rows = self._rows()
        rows[0] = rows[0].replace(",3,", ",1.5,", 1)
        with pytest.raises(ValueError):
            read_trace_csv(self._csv(tmp_path, rows))

    def test_blank_lines_skipped(self, tmp_path):
        rows = self._rows()
        gappy = ["", rows[0], "  ", rows[1], "", "\t", rows[2], ""]
        back = read_trace_csv(self._csv(tmp_path, gappy))
        plain = read_trace_csv(self._csv(tmp_path, rows))
        for name in ("x", "cum_regret", "hr", "ndcg"):
            assert np.array_equal(getattr(back, name), getattr(plain, name))

    @pytest.mark.parametrize("header", [
        "t,x,y,outcome,instant_regret,cum_regret,rr,hr@1,ndcg@1,ndcg@2",
        "t,x,y,instant_regret,cum_regret,rr,hr@1,hr@2,ndcg@1,ndcg@2,outcome",
    ])
    def test_foreign_header_rejected(self, tmp_path, header):
        with pytest.raises(ValueError):
            read_trace_csv(self._csv(tmp_path, self._rows(), header=header))

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            read_trace_csv(self._csv(tmp_path, []))


# Floats the codec must keep apart or render specially; a small pool per
# trace makes most cells repeat, as in real traces.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1.1125369292536007e-308, float("inf"), float("-inf"),
                  1.0, 0.1, 1e16, -1.7976931348623157e308,
                  # NaNs: the default, a negative one and one with a payload
                  *np.array([0x7FF8000000000000, 0xFFF8000000000000,
                             0x7FF0000000000123], dtype=np.uint64)
                  .view(np.float64).tolist()]


@st.composite
def random_traces(draw):
    T = draw(st.integers(1, 40))
    ks = tuple(draw(st.lists(st.integers(1, 30), max_size=3, unique=True)))
    pool = draw(st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=6))
    pool += draw(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                    allow_subnormal=True),
                          min_size=0 if pool else 1, max_size=3))
    ints = st.integers(-2**63, 2**63 - 1) | st.integers(-3, 30)

    def floats(*shape):
        return draw(arrays(np.float64, shape, elements=st.sampled_from(pool)))

    x, y, outcome = (draw(arrays(np.int64, T, elements=ints)) for _ in range(3))
    return harness.Trace(x=x, y=y, outcome=outcome, instant_regret=floats(T),
                         cum_regret=floats(T), rr=floats(T),
                         hr=floats(T, len(ks)), ndcg=floats(T, len(ks)), ks=ks)


def same_bits_but_nan_payload(a, b):
    """Bitwise equal arrays, except that any NaN matches any NaN."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype.kind != "f":
        return np.array_equal(a, b)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def every_special_float():
    cells = np.array(SPECIAL_FLOATS * 2)
    T = len(cells)
    return harness.Trace(
        x=np.arange(T), y=np.zeros(T, dtype=np.int64),
        outcome=np.full(T, -2**63), instant_regret=cells,
        cum_regret=cells[::-1].copy(), rr=np.roll(cells, 1),
        hr=np.stack([cells, -cells], axis=1), ndcg=np.stack([cells] * 2, 1),
        ks=(2, 7))


class TestTraceCodecProperties:
    @given(trace=random_traces())
    @example(trace=every_special_float())
    @settings(max_examples=60, deadline=None)
    def test_bytes_and_round_trip(self, tmp_path_factory, trace):
        path = tmp_path_factory.mktemp("codec") / "t.csv"
        write_trace_csv(trace, path)
        raw = path.read_bytes()
        assert raw == reference_trace_csv(trace)
        back = read_trace_csv(path)
        assert back.ks == trace.ks
        for name in ("x", "y", "outcome", "instant_regret", "cum_regret",
                     "rr", "hr", "ndcg"):
            assert same_bits_but_nan_payload(getattr(back, name),
                                             getattr(trace, name)), name
        write_trace_csv(back, path)
        assert path.read_bytes() == raw


@st.composite
def small_configs(draw):
    algo = draw(st.sampled_from(ALGORITHMS))
    n = draw(st.integers(3, 12))
    T = draw(st.integers(2, 60 if algo == "maxinp" else 120))
    kw = dict(algo=algo, n=n, T=T, tau=draw(st.integers(1, T - 1)),
              seed=draw(st.integers(0, 2**32 - 1)),
              matrix_seed=draw(st.integers(0, 2**32 - 1)),
              game=draw(st.sampled_from(["elo", "noisy_elo", "triangular",
                                         "cyclic"])),
              noise=draw(st.sampled_from([0.0, 0.1])),
              k=draw(st.integers(1, 3)), melo=draw(st.booleans()),
              gamma_mode=draw(st.sampled_from(["fixed", "theoretical"])),
              gamma=draw(st.floats(0.05, 5.0)),
              ks=tuple(draw(st.lists(st.integers(1, n), max_size=2))))
    return RunConfig(**kw)


@given(cfg=small_configs())
@settings(max_examples=25, deadline=None)
def test_repeated_simulate_gives_same_bytes(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("det") / "t.csv"
    blobs = []
    for _ in range(2):
        write_trace_csv(simulate(cfg)[0][0], path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


class TestCli:
    def _main(self, argv, capsys):
        from duelrank.cli import main
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("game,make", [
        ("elo", lambda: games.gen_elo_game(7, 1.5, 3)),
        ("noisy_elo", lambda: games.gen_noisy_elo_game(7, 1.5, 0.1, 3)),
        ("triangular", lambda: games.gen_triangular(7)),
        ("cyclic", lambda: games.gen_cyclic(7)),
        ("triangular_rev", lambda: games.gen_triangular_rev(7)),
        ("cyclic_dominant", lambda: games.gen_cyclic_dominant(7)),
        # clip_eps=0.2 clips entries of this matrix, and matrix_seed
        # replaces seed, so both flags must reach the generator
        ("noisy_elo --clip-eps 0.2 --matrix-seed 8",
         lambda: harness.build_matrix(RunConfig(
             game="noisy_elo", n=7, rating_scale=1.5, noise=0.1, seed=3,
             clip_eps=0.2, matrix_seed=8))),
    ])
    def test_gen_writes_generator_matrix(self, tmp_path, capsys, game, make):
        argv = ["gen", "--game", *game.split(), "--n", "7", "--rating-scale",
                "1.5", "--noise", "0.1", "--seed", "3"]
        path = tmp_path / "m.csv"
        code, out, _ = self._main([*argv, "--out", str(path)], capsys)
        assert code == 0 and out == ""
        np.testing.assert_array_equal(games.load_matrix(str(path)).p,
                                      make().p)
        # without --out the same CSV goes to stdout
        code, out, _ = self._main(argv, capsys)
        assert code == 0 and out == path.read_text()

    @pytest.mark.parametrize("flags", [
        ["--game", "noisy_elo", "--noise", "-1"], ["--game", "cyclic"],
        ["--ridge", "-5"], ["--seed", "-1"], ["--T", "1"],
        ["--matrix", "{m7}"], ["--game", "cyclic_dominant"]])
    def test_gen_rejects_what_run_rejects(self, tmp_path, capsys, flags):
        m7 = tmp_path / "m7.csv"
        np.savetxt(m7, games.gen_elo_game(7, 1.0, 3).p, delimiter=",",
                   fmt="%.17g")
        flags = [f.format(m7=m7) for f in ["--n", "2", *flags]]
        code, out, gen_err = self._main(["gen", *flags], capsys)
        assert code == 1 and out == ""
        assert json.loads(gen_err)["error"] == "ConfigError"
        code, out, run_err = self._main(["run", *flags], capsys)
        assert code == 1 and out == ""
        assert gen_err == run_err

    def test_gen_writes_loadable_matrix(self, tmp_path, capsys):
        from duelrank.games import load_matrix
        path = tmp_path / "m.csv"
        code, _, _ = self._main(
            ["gen", "--game", "cyclic", "--n", "5", "--out", str(path)],
            capsys)
        assert code == 0
        m = load_matrix(str(path))
        assert m.n == 5
        assert m.p[0, 1] == 0.9

    def test_run_prints_summary(self, capsys):
        code, out, err = self._main(
            ["run", "--algo", "random", "--n", "5", "--T", "30",
             "--seed", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["replicates"] == 1
        assert "final_cum_regret" in payload

    def test_run_writes_files(self, tmp_path, capsys):
        prefix = tmp_path / "exp"
        code, _, _ = self._main(
            ["run", "--algo", "maxin_elo", "--n", "8", "--T", "30",
             "--tau", "5", "--seed", "1", "--replicates", "2",
             "--out", str(prefix)], capsys)
        assert code == 0
        assert (tmp_path / "exp.trace0.csv").exists()
        assert (tmp_path / "exp.trace1.csv").exists()
        assert (tmp_path / "exp.summary.json").exists()

    def test_run_with_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("algo=random\nn=5\nT=30\nseed=1\n")
        code, out, _ = self._main(
            ["run", "--config", str(cfg), "--T", "10"], capsys)
        assert code == 0
        assert json.loads(out)["replicates"] == 1
        parsed = parse_config(str(cfg), {"T": 10})
        assert parsed.T == 10

    def test_error_is_json_on_stderr_exit_1(self, tmp_path, capsys):
        files = {"empty": "", "one": "0.5\n", "diag": "0.6,0.7\n0.3,0.4\n",
                 "antisym": "0.5,0.7\n0.4,0.5\n"}
        for name, text in files.items():
            (tmp_path / f"{name}.csv").write_text(text)
        # a matrix file with fewer than two players is a file error, and
        # every file error names the file
        for flags, error, key in [
                (["--algo", "alpha_ig", "--n", "5", "--T", "30"],
                 "ConfigError", "algo"),
                *[(["--matrix", str(tmp_path / f"{name}.csv"), "--n", "2"],
                   "MatrixLoadError", None) for name in files]]:
            code, out, err = self._main(["run", *flags], capsys)
            assert code == 1
            assert out == ""
            assert err.count("\n") == 1
            payload = json.loads(err)
            assert payload["error"] == error
            assert payload.get("key") == key
            if key is None:
                assert flags[1] in payload["message"]

    @pytest.mark.parametrize("text", ["0.5,nan\nnan,0.5\n",
                                      "0.5,1.5\n-0.5,0.5\n"])
    def test_matrix_entry_outside_unit_interval(self, tmp_path, capsys, text):
        # a NaN entry used to run to a NaN regret with exit 0
        path = tmp_path / "m.csv"
        path.write_text(text)
        code, out, err = self._main(
            ["run", "--matrix", str(path), "--n", "2", "--T", "20"], capsys)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "MatrixLoadError",
            "message": f"matrix in {path}: entries must lie in [0, 1]"}

    def test_missing_config_file_is_handled(self, capsys):
        code, _, err = self._main(
            ["run", "--config", "/nonexistent/cfg"], capsys)
        assert code == 1
        assert json.loads(err)["error"] in ("FileNotFoundError", "ConfigError")

    def test_sweep_json(self, capsys):
        for extra in ([], ["--workers", "2"]):
            code, out, _ = self._main(
                ["sweep", "--algo", "random", "--n", "5", "--T", "30",
                 "--seed", "0", "--grid", "eta0=0.1,0.5", *extra], capsys)
            assert code == 0
            results = json.loads(out)
            assert len(results) == 2
            assert all(r["ok"] for r in results)

    def test_sweep_validates_each_grid_point_not_the_template(self, capsys):
        # the template's default maxin_elo needs tau < T; no point plays it
        code, out, _ = self._main(
            ["sweep", "--T", "10", "--grid", "algo=random"], capsys)
        assert code == 0
        assert [r["ok"] for r in json.loads(out)] == [True]
        # the first point that does not validate is the error, by name
        code, out, err = self._main(
            ["sweep", "--T", "10", "--grid", "algo=random,maxin_elo,maxinp"],
            capsys)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ConfigError", "key": "tau",
            "message": "grid point algo=maxin_elo: warmup tau must be "
                       "smaller than horizon T"}

    def test_sweep_rejects_a_flag_for_an_axis_key(self, capsys):
        argv = ["sweep", "--algo", "random", "--T", "10", "--n", "6"]
        code, out, err = self._main([*argv, "--grid", "n=4"], capsys)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ConfigError", "key": "n",
            "message": "n is a --grid axis; give one value as --grid n=VALUE"}
        # an empty axis is no axis: the flag's value is the run's
        code, out, _ = self._main([*argv, "--grid", "n="], capsys)
        assert code == 0
        (result,) = json.loads(out)
        assert result["ok"] and ";n=6;" in result["summary"]["config"]

    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_workers_is_a_sweep_flag_only(self, capsys, command):
        # RunConfig has no workers field, so run and gen have no such flag
        with pytest.raises(SystemExit) as exc:
            self._main([command, "--workers", "2"], capsys)
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_report_subcommand(self, tmp_path, capsys):
        traces, summary = simulate(
            RunConfig(algo="random", n=5, T=20, seed=3, ks=(2,),
                      replicates=2))
        for i, tr in enumerate(traces):
            write_trace_csv(tr, tmp_path / f"r{i}.csv")
        code, out, _ = self._main(
            ["report", "--traces", str(tmp_path / "r0.csv"),
             str(tmp_path / "r1.csv")], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["final_cum_regret"]) == 2
        assert payload["cum_regret"]["mean"] == pytest.approx(
            np.mean(summary["final_cum_regret"]))

    def test_report_prints_run_summary_shape(self, tmp_path, capsys):
        flags = ["--algo", "maxin_elo", "--n", "8", "--T", "30", "--tau", "5",
                 "--seed", "1", "--replicates", "2", "--ks", "2,3"]
        _, out, _ = self._main(["run", *flags], capsys)
        ran = json.loads(out)
        self._main(["run", *flags, "--out", str(tmp_path / "exp")], capsys)
        code, out, _ = self._main(
            ["report", "--traces", str(tmp_path / "exp.trace0.csv"),
             str(tmp_path / "exp.trace1.csv")], capsys)
        assert code == 0
        reported = json.loads(out)
        assert reported.keys() == ran.keys()
        for key in ran.keys() - {"config", "wall_time"}:
            assert reported[key] == ran[key], key

    @pytest.mark.parametrize("ks", ["2,3", ""])
    def test_run_summary_json_key_order(self, tmp_path, capsys, ks):
        code, _, _ = self._main(
            ["run", "--algo", "random", "--n", "5", "--T", "20", "--seed", "1",
             "--replicates", "2", "--ks", ks, "--out", str(tmp_path / "exp")],
            capsys)
        assert code == 0
        payload = json.loads((tmp_path / "exp.summary.json").read_text())
        # the key order sets the JSON bytes
        assert list(payload) == [
            "config", "replicates", "ks", "final_cum_regret", "final_rr",
            "final_hr", "final_ndcg", "cum_regret", "rr", "hr", "ndcg",
            "wall_time"]
        assert (payload["hr"] is None) == (payload["ndcg"] is None) == (ks == "")

    def test_report_rejects_mixed_cutoffs(self, tmp_path, capsys):
        for i, ks in enumerate([(2,), (3,)]):
            traces, _ = simulate(RunConfig(algo="random", n=5, T=20, seed=3,
                                           ks=ks))
            write_trace_csv(traces[0], tmp_path / f"r{i}.csv")
        code, out, err = self._main(
            ["report", "--traces", str(tmp_path / "r0.csv"),
             str(tmp_path / "r1.csv")], capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["key"] == "ks"

    @pytest.mark.parametrize("fault", ["short_row", "foreign_header"])
    def test_report_malformed_trace_is_json_error(self, tmp_path, capsys,
                                                  fault):
        header, row = trace_header((2,)), "1,0,1,1,0.25,0.25,1.0,0.5,0.5"
        if fault == "short_row":
            lines = [header, row, row.rsplit(",", 1)[0]]
        else:
            lines = [header.replace("outcome", "result"), row]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = self._main(["report", "--traces", str(path)], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "DuelRankError"
        assert str(path) in payload["message"]

    @pytest.mark.parametrize("command", ["run", "sweep", "gen"])
    @pytest.mark.parametrize(
        "key", [f.name for f in dataclasses.fields(RunConfig)])
    def test_flag_for_every_config_field(self, command, key):
        from duelrank.cli import build_parser
        flag = "--" + key.replace("_", "-")
        args = build_parser().parse_args([command, flag, "7"])
        assert getattr(args, key) == "7"

    def test_run_noise_and_rating_scale_flags(self, capsys):
        code, out, _ = self._main(
            ["run", "--algo", "random", "--game", "noisy_elo", "--n", "6",
             "--T", "40", "--seed", "2", "--noise", "0.05",
             "--rating-scale", "2", "--ks", "2"], capsys)
        assert code == 0
        _, summary = simulate(RunConfig(
            algo="random", game="noisy_elo", n=6, T=40, seed=2, noise=0.05,
            rating_scale=2.0, ks=(2,)))
        expected = summary
        printed = json.loads(out)
        del printed["wall_time"], expected["wall_time"]
        assert printed == json.loads(json.dumps(expected))

    def test_bad_flag_value_is_json_config_error(self, capsys):
        code, out, err = self._main(["run", "--n", "abc"], capsys)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert payload["key"] == "n"

    @pytest.mark.parametrize("flag,value", [
        ("--gamma", "nan"), ("--gamma", "inf"), ("--eta0", "nan"),
        ("--lambda-ridge", "nan"), ("--lambda-ridge", "0"),
        ("--lambda-ridge", "1e-320"), ("--lambda-ridge", "1e-200"),
        ("--ridge", "nan"), ("--clip-eps", "0.7"), ("--clip-eps", "0"),
        ("--rating-scale", "-1"), ("--noise", "-0.5"), ("--seed", "-1"),
        ("--matrix-seed", "-2"), ("--ridge", "-5"), ("--ridge", "0")])
    def test_bad_number_is_json_config_error(self, capsys, flag, value):
        code, out, err = self._main(
            ["run", "--n", "6", "--T", "40", flag, value], capsys)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert payload["key"] == flag[2:].replace("-", "_")

    @pytest.mark.parametrize("flags", [[], ["--n", "5", "--ks", "3"]])
    def test_matrix_size_differs_from_n(self, tmp_path, capsys, flags):
        path = tmp_path / "m7.csv"
        np.savetxt(path, games.gen_elo_game(7, 1.0, 3).p, delimiter=",",
                   fmt="%.17g")
        code, out, err = self._main(
            ["run", "--matrix", str(path), "--algo", "random", *flags],
            capsys)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert payload["key"] == "n"

    @pytest.mark.parametrize("argv,key", [
        (["gen", "--game", "noisy_elo", "--noise", "-1"], "noise"),
        (["run", "--game", "cyclic", "--n", "2"], "n"),
        (["sweep", "--grid", "foo=1"], "foo"),
        (["sweep", "--grid", "gamma"], "grid"),
        (["sweep", "--workers", "0"], "workers"),
        (["sweep", "--workers", "two"], "workers"),
        (["sweep", "--grid", "workers=2"], "workers")])
    def test_bad_argument_is_json_config_error_with_key(self, capsys, argv,
                                                        key):
        code, out, err = self._main(argv, capsys)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert payload["key"] == key


@pytest.mark.parametrize("algo", ["random", "rg_ucb", "dbgd"])
def test_online_baseline_trace_has_no_warmup(algo):
    # the online baselines play no warmup, so a default tau >= T is no error
    cfg = RunConfig(algo=algo, n=100, T=50)
    assert cfg.resolve().tau >= cfg.T
    traces, _ = simulate(cfg)
    assert len(traces[0].x) == cfg.T
