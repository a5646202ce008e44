"""The scripts under scripts/: ab_bench.py parses and summarizes canned
benchmark output, learner_check.py reports in a fixed shape, and
scorecard.py reads its statistics off hand-built traces and a tiny grid."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _ab_bench():
    spec = importlib.util.spec_from_file_location(
        "ab_bench", ROOT / "scripts" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned_run(rounds, rss, sha="ab12", failed=0):
    metrics = {"rounds_per_s": {"value": rounds, "unit": "rounds/s"},
               "peak_rss_mb": {"value": rss, "unit": "MiB"}}
    return "\n".join([
        "environment {}",
        "pass 1 untraced wall=1.0s rounds/s=1.0 sha256=x",
        f"trace_sha256 paper-n20-io {sha}",
        "  rounds_per_s = 1 rounds/s",
        '{"correct": %s, "attempted": 6, "failed": %d, "metrics": %s}'
        % ("true" if failed == 0 else "false", failed, json.dumps(metrics)),
    ]) + "\n"


def test_ab_bench_summary_of_canned_runs():
    ab = _ab_bench()
    base = [ab.parse_run(_canned_run(r, 58.0)) for r in (100, 110, 90, 105)]
    change = [ab.parse_run(_canned_run(r, m))
              for r, m in ((150, 59.0), (100, 57.0), (160, 59.0), (140, 58.0))]
    assert base[0] == {"metrics": {"rounds_per_s": 100, "peak_rss_mb": 58.0},
                       "sha256": "ab12", "failed": 0, "correct": True}
    out = ab.summarize(list(zip(base, change)),
                       {"rounds_per_s": "higher", "peak_rss_mb": "lower"})
    assert out["pairs"] == 4
    assert out["sha256_equal"] and out["failed_equal"] and out["all_correct"]
    rounds = out["metrics"]["rounds_per_s"]
    assert rounds["won"] == 3                  # 100 < 110 is a loss
    assert rounds["base"][1] == 102.5 and rounds["change"][1] == 145.0
    assert rounds["base"][0] <= 102.5 <= rounds["base"][2]
    assert rounds["ratio"] == 145.0 / 102.5
    assert out["metrics"]["peak_rss_mb"]["won"] == 1   # only 57 < 58
    assert rounds["verdict"] == "no change"    # 3/4 pairs is below 9/10
    text = ab.format_summary("paper-n20-io", out)
    assert "won 3/4" in text and "trace_sha256 equal" in text
    assert "-> no change" in text

    def runs(rounds, rss=58.0, failed=0):
        return [ab.parse_run(_canned_run(r, rss, failed=failed))
                for r in rounds]

    # ten pairs, the fewest a gain counts on
    base10 = runs((100, 110, 90, 105, 95, 102, 98, 108, 92, 104))

    def verdicts(change, rss=58.0, failed=0):
        out = ab.summarize(
            list(zip(base10, runs(change, rss, failed))),
            {"rounds_per_s": "higher", "peak_rss_mb": "lower"},
            {"rounds_per_s": 0.25, "peak_rss_mb": 0.1})
        return {k: m["verdict"] for k, m in out["metrics"].items()}

    # base: median 101, q3 - q1 = 11.5, bound 0.25 x 101 = 25.25
    faster = (130, 135, 128, 140, 126, 138, 133, 131, 129, 137)
    assert verdicts(faster) == {                    # +31 > 11.5, 10/10
        "rounds_per_s": "gain", "peak_rss_mb": "no change"}
    # the same runs cannot count as a gain on 4 pairs, nor when the
    # change fails an operation the base does not
    assert verdicts(faster[:4])["rounds_per_s"] == "unresolved"
    assert verdicts(faster, failed=1)["rounds_per_s"] == "unresolved"
    assert verdicts((112, 125, 104, 121, 108, 118, 103, 115, 106, 111))[
        "rounds_per_s"] == "no change"               # +10.5 < 11.5
    assert verdicts((70, 80, 68, 75, 72, 78, 66, 74, 71, 77))[
        "rounds_per_s"] == "worse"                   # -28 > 25.25
    # change spread 52.5 > 25.25, and 100 < 110: too wide to tell
    assert verdicts((150, 100, 160, 140, 150, 100, 160, 140, 150, 100))[
        "rounds_per_s"] == "unresolved"
    # as wide, but every change run beats every base run
    assert verdicts((200, 300, 250, 400, 220, 310, 260, 390, 240, 330))[
        "rounds_per_s"] == "gain"
    # lower is better: 57 wins every pair, 64 is 6 > 0.1 x 58 worse
    assert verdicts(faster, rss=57.0)["peak_rss_mb"] == "gain"
    assert verdicts(faster, rss=64.0)["peak_rss_mb"] == "worse"
    assert verdicts(faster, rss=59.0)["peak_rss_mb"] == "no change"


def test_ab_bench_flags_differing_bytes_and_failures():
    ab = _ab_bench()
    pairs = [(ab.parse_run(_canned_run(100, 58.0)),
              ab.parse_run(_canned_run(120, 58.0, sha="cd34", failed=1)))]
    out = ab.summarize(pairs, {"rounds_per_s": "higher"})
    assert not out["sha256_equal"] and not out["failed_equal"]
    assert not out["all_correct"]
    assert out["metrics"]["rounds_per_s"]["base"] == (100, 100, 100)
    assert "DIFFERENT" in ab.format_summary("w", out)


def test_ab_bench_seed_ranges():
    assert _ab_bench().parse_seeds("1,5-7,10") == [1, 5, 6, 7, 10]


def test_ab_bench_spread_check():
    """Each side's q3 - q1 against bound x base median; either side over
    the limit flags SPREAD, and a metric without a bound gets no check."""
    ab = _ab_bench()

    def runs(values):
        return [ab.parse_run(_canned_run(r, 58.0)) for r in values]

    base = runs((100, 110, 90, 105))       # q1 92.5, median 102.5, q3 108.75
    tight = runs((130, 135, 128, 140))     # q1 128.5, q3 138.75
    wide = runs((150, 100, 160, 140))      # q1 110, q3 157.5
    better, bounds = {"rounds_per_s": "higher"}, {"rounds_per_s": 0.25}
    passing = ab.summarize(list(zip(base, tight)), better, bounds)
    assert passing["metrics"]["rounds_per_s"]["spread"] == {
        "base": 16.25, "change": 10.25, "limit": 25.625, "ok": True}
    text = ab.format_summary("w", passing)
    assert "spread base 16.25 change 10.25 limit 25.62" in text
    assert "SPREAD" not in text
    failing = ab.summarize(list(zip(base, wide)), better, bounds)
    spread = failing["metrics"]["rounds_per_s"]["spread"]
    assert spread["change"] == 47.5 and not spread["ok"]
    assert "SPREAD" in ab.format_summary("w", failing)
    # a wide base fails too: 47.5 > 0.25 x 145
    wide_base = ab.summarize(list(zip(wide, tight)), better, bounds)
    assert not wide_base["metrics"]["rounds_per_s"]["spread"]["ok"]
    unbounded = ab.summarize(list(zip(base, wide)), better)
    assert "spread" not in unbounded["metrics"]["rounds_per_s"]
    assert "spread" not in ab.format_summary("w", unbounded)


def test_learner_check_report_keys_and_repeatable(capsys):
    """A tiny learner_check run, once as a script and once in-process,
    gives the same bytes with the documented keys; no value is pinned."""
    import subprocess
    import sys
    script = ROOT / "scripts" / "learner_check.py"
    argv = ["--game", "noisy_elo", "--noise", "0.1", "--n", "6",
            "--batches", "5", "--alphas", "tau,0.2", "--seed", "3"]
    first = subprocess.run([sys.executable, str(script), *argv],
                           capture_output=True, text=True, check=True).stdout
    spec = importlib.util.spec_from_file_location("learner_check", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(argv) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    assert report["tau"] == 4 and report["batches"] == 5
    assert [run["alpha"] for run in report["runs"]] == [4.0, 0.2]
    for run in report["runs"]:
        assert [c["j"] for c in run["checkpoints"]] == [1, 2, 4, 5]
        for c in run["checkpoints"]:
            assert set(c) == {"j", "records", "gap_l2", "corr_true", "g2"}
            assert c["records"] == 4 * (c["j"] + 1)


@pytest.mark.parametrize("alphas", ["tau,x", "0", "-1", "nan", "inf"])
def test_learner_check_rejects_bad_alphas(capsys, alphas):
    """A non-number and a non-positive or non-finite alpha are usage
    errors (exit 2), as a bad --batches is, before any fit runs."""
    spec = importlib.util.spec_from_file_location(
        "learner_check", ROOT / "scripts" / "learner_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.raises(SystemExit) as exc:
        module.main(["--n", "6", "--batches", "2", "--alphas", alphas])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--alphas:" in err and "Traceback" not in err


@pytest.fixture
def sc():
    """scripts/scorecard.py as a module."""
    spec = importlib.util.spec_from_file_location(
        "scorecard", ROOT / "scripts" / "scorecard.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scorecard_suffix_start(sc):
    assert sc.suffix_start([True, True, True]) == 1
    assert sc.suffix_start([False, True, True]) == 2
    assert sc.suffix_start([True, False, False, True]) == 4
    assert sc.suffix_start([True, True, False]) is None
    assert sc.suffix_start([False]) is None


def test_scorecard_regret_slope(sc):
    t = np.arange(1, 5001, dtype=float)
    assert abs(sc.regret_slope(3.0 * np.sqrt(t)) - 0.5) < 1e-12
    assert abs(sc.regret_slope(0.2 * t) - 1.0) < 1e-12
    # T = 1200 keeps t = 500 and 1000 only; T = 800 keeps one point
    assert abs(sc.regret_slope(np.sqrt(t[:1200])) - 0.5) < 1e-12
    assert sc.regret_slope(np.sqrt(t[:800])) is None
    zero_start = t.copy()
    zero_start[:1000] = 0.0
    assert sc.regret_slope(zero_start) is None


def test_scorecard_trace_stats_of_a_hand_built_trace(sc):
    from duelrank.harness import Trace
    # rounds 1-6: rr reaches 1 at round 3, dips at 4, holds from 5;
    # x == y from round 4 on; hr@4 ends at 0.75 (ks = (1, 4))
    x = np.array([0, 1, 2, 3, 3, 3])
    y = np.array([1, 2, 3, 3, 3, 3])
    rr = np.array([0.5, 0.5, 1.0, 0.5, 1.0, 1.0])
    hr = np.array([[0.0, 0.5]] * 5 + [[1.0, 0.75]])
    regret = np.array([0.5, 0.25, 0.25, 0.0, 0.0, 0.0])
    trace = Trace(x=x, y=y, outcome=np.ones(6, dtype=np.int64),
                  instant_regret=regret, cum_regret=np.cumsum(regret), rr=rr,
                  hr=hr, ndcg=hr.copy(), ks=(1, 4))
    assert sc.trace_stats(trace) == {
        "final_regret": 1.0, "rr1": True, "hr4": 0.75,
        "rounds_to_identify": 5, "self_pair_share": 0.5,
        "first_frozen_round": 4, "regret_slope": None}
    rr[-1] = 0.5
    stats = sc.trace_stats(trace)
    assert not stats["rr1"] and stats["rounds_to_identify"] is None


def test_scorecard_cell_summary(sc):
    runs = [{"seed": s, "final_regret": reg, "rr1": rr1, "hr4": hr4,
             "rounds_to_identify": ident, "self_pair_share": share,
             "first_frozen_round": frozen, "regret_slope": slope,
             "us_per_round": us}
            for s, reg, rr1, hr4, ident, share, frozen, slope, us in [
                (1, 10.0, True, 1.0, 40, 0.5, 90, 0.5, 3.0),
                (2, 20.0, False, 0.5, None, 0.25, None, 1.0, 5.0),
                (3, 30.0, True, 0.75, 60, 0.75, 70, None, 4.0)]]
    runs.append({"seed": 4, "error": "SolverError", "message": "x"})
    out = sc.summarize_cell(runs)
    assert out["runs"] == 3 and out["failed"] == [runs[3]]
    assert out["final_regret"] == {"q1": 15.0, "median": 20.0, "q3": 25.0}
    assert out["rr1_rate"] == 2 / 3 and out["hr4_mean"] == 0.75
    assert out["rounds_to_identify"] == {"runs": 2, "median": 50.0}
    assert out["first_frozen_round"] == {"runs": 2, "median": 80.0}
    assert out["self_pair_share"] == 0.5 and out["us_per_round"] == 4.0
    assert out["regret_slope"] == 0.75       # the null slope is left out
    assert out["per_seed"]["seed"] == [1, 2, 3]
    assert out["per_seed"]["rounds_to_identify"] == [40, None, 60]


def test_scorecard_two_cell_grid_in_a_pool_and_serially(sc, capsys):
    """The same grid run by a 2-process pool (as a script) and serially
    (in-process) gives the same statistics, up to the timings."""
    import subprocess
    import sys
    script = ROOT / "scripts" / "scorecard.py"
    argv = ["--n", "6", "--T", "200", "--seeds", "2", "--algos",
            "maxin_elo", "--games", "elo,cyclic_dominant"]
    pooled = json.loads(subprocess.run(
        [sys.executable, str(script), *argv, "--workers", "2"],
        capture_output=True, text=True, check=True).stdout)
    assert sc.main(argv) == 0
    serial = json.loads(capsys.readouterr().out)
    assert pooled["command"].endswith("--workers 2")
    assert serial["command"] == "python3 scripts/scorecard.py " + \
        " ".join(argv)
    assert [(c["algo"], c["game"], c["n"], c["T"]) for c in serial["cells"]] \
        == [("maxin_elo", "elo", 6, 200),
            ("maxin_elo", "cyclic_dominant", 6, 200)]
    for a, b in zip(pooled["cells"], serial["cells"]):
        assert a["us_per_round"] > 0 and b["us_per_round"] > 0
        a.pop("us_per_round"), b.pop("us_per_round")
        assert a == b
        assert a["runs"] == 2 and not a["failed"]
        assert a["per_seed"]["seed"] == [1, 2]
    # the dominant player is not index 0, so regret is not 0 by default
    assert serial["cells"][1]["final_regret"]["median"] > 0


@pytest.mark.parametrize("n", [4, 6, 20])
@pytest.mark.parametrize("game", ["triangular_rev", "cyclic_dominant"])
def test_scorecard_matrix_games_load_with_best_last(sc, game, n):
    """The scorecard plays its fixed games by name, with no matrix file;
    the games themselves are tested in test_games.TestFixedGames."""
    import argparse
    from duelrank import games, harness
    args = argparse.Namespace(algos=["random"], games=[game], n=[n],
                              seeds=1, T=10)
    (cfg,) = sc.grid_configs(args)
    assert cfg.game == game and cfg.matrix is None
    assert games.true_ratings(harness.build_matrix(cfg)).best == n - 1
