"""The scripts under scripts/: ab_bench.py parses and summarizes canned
benchmark output, and learner_check.py reports in a fixed shape."""

import importlib.util
import json
from pathlib import Path

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
    text = ab.format_summary("paper-n20-io", out)
    assert "won 3/4" in text and "trace_sha256 equal" in text


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
