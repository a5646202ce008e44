"""The scripts under scripts/: ab_bench.py parses and summarizes canned
benchmark output, runs each side from source and counts its lines;
round_cost.py times and counts one tiny case; learner_check.py reports
in a fixed shape, and scorecard.py reads its statistics off hand-built
traces and a tiny grid."""

import importlib.util
import json
import subprocess
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


@pytest.mark.parametrize("seeds", ["10-1", "1,3-2", "", "1,x"])
def test_ab_bench_rejects_bad_seeds(capsys, seeds):
    """A reversed range, an empty list or a non-number is a usage error
    (exit 2) before any run starts, not an IndexError after none ran."""
    with pytest.raises(SystemExit) as exc:
        _ab_bench().main(["--base", ".", "--workload", "paper-n20-io",
                          "--seeds", seeds])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seeds" in err and "Traceback" not in err


def test_ab_bench_defaults_come_from_benchmark_json(monkeypatch, capsys):
    """With no --workload and no --seconds, every workload BENCHMARK.json
    lists is run for its run_seconds, on both sides of each pair (their
    copies a and b, base first)."""
    ab = _ab_bench()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = []

    def run_one(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        return {"metrics": {m["name"]: 1.0 for m in spec["end_to_end"]},
                "sha256": "ab12", "failed": 0, "correct": True}

    monkeypatch.setattr(ab, "run_one", run_one)
    assert ab.main(["--base", "b", "--change", str(ROOT), "--seeds", "7"]) \
        == 0
    names = [w["name"] for w in spec["workloads"]]
    assert len(names) > 1
    assert calls == [(side, name, 7, spec["run_seconds"])
                     for name in names for side in ("a", "b")]
    assert capsys.readouterr().out.count("trace_sha256 equal") == len(names)
    calls.clear()
    assert ab.main(["--base", "b", "--change", str(ROOT), "--seeds", "7",
                    "--workload", names[0], "--seconds", "0.5"]) == 0
    assert [c[1:] for c in calls] == [(names[0], 7, 0.5)] * 2


def test_ab_bench_runs_compile_from_source(monkeypatch, tmp_path):
    """Each run gets PYTHONDONTWRITEBYTECODE=1 and a new, empty
    PYTHONPYCACHEPREFIX outside the checkout, whatever the caller's
    environment says, so a __pycache__ in the checkout is never read."""
    ab = _ab_bench()
    (tmp_path / "src" / "__pycache__").mkdir(parents=True)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "src"))
    seen = []

    def run(cmd, **kw):
        prefix = Path(kw["env"]["PYTHONPYCACHEPREFIX"])
        seen.append((kw["env"]["PYTHONDONTWRITEBYTECODE"], prefix,
                     list(prefix.iterdir()), kw["cwd"]))
        return subprocess.CompletedProcess(cmd, 0, _canned_run(100, 58.0), "")

    monkeypatch.setattr(ab.subprocess, "run", run)
    for seed in (1, 2):
        assert ab.run_one(tmp_path, "paper-n20-io", seed, 0.5)[
            "sha256"] == "ab12"
    assert [(s[0], s[2], s[3]) for s in seen] == [("1", [], tmp_path)] * 2
    prefixes = [s[1] for s in seen]
    assert prefixes[0] != prefixes[1]
    assert not any(p.exists() or tmp_path in p.parents for p in prefixes)


def test_ab_bench_runs_each_side_from_a_copy(monkeypatch, tmp_path):
    """Both sides run in copies of their src/, perfbench/ and
    BENCHMARK.json, made the same way under one temporary parent, without
    bytecode, benchmark work files or anything else in the checkout; the
    parent is gone once the runs are done."""
    ab = _ab_bench()
    spec = {"run_seconds": 1, "workloads": [{"name": "paper-n20-io"}],
            "end_to_end": [
                {"name": "rounds_per_s", "better": "higher", "bound": 0.25},
                {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}
    for side in ("base", "change"):
        root = tmp_path / side
        for name in ("src/duelrank/__init__.py", "perfbench/run.py",
                     "perfbench/__pycache__/run.pyc", "perfbench/_work/x.csv",
                     "README.md"):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(f"{side} {name}\n")
        (root / "BENCHMARK.json").write_text(json.dumps(spec))
    seen = []

    def run(cmd, **kw):
        cwd = Path(kw["cwd"])
        files = sorted(str(p.relative_to(cwd)) for p in cwd.rglob("*")
                       if p.is_file())
        side = (cwd / "perfbench" / "run.py").read_text().split()[0]
        seen.append((side, cwd, files))
        return subprocess.CompletedProcess(cmd, 0, _canned_run(100, 58.0), "")

    monkeypatch.setattr(ab.subprocess, "run", run)
    assert ab.main(["--base", str(tmp_path / "base"), "--change",
                    str(tmp_path / "change"), "--seeds", "1-2"]) == 0
    assert [s[0] for s in seen] == ["base", "change", "change", "base"]
    cwds = {side: cwd for side, cwd, _ in seen}
    assert len({cwd for _, cwd, _ in seen}) == 2
    assert cwds["base"].parent == cwds["change"].parent
    assert tmp_path not in cwds["base"].parents
    assert all(files == ["BENCHMARK.json", "perfbench/run.py",
                         "src/duelrank/__init__.py"] for _, _, files in seen)
    assert not cwds["base"].parent.exists()


def test_ab_bench_counts_src_lines(monkeypatch, capsys, tmp_path):
    """Each side's src/duelrank/*.py lines, as wc -l counts them, are
    printed once and added to every workload's JSON summary."""
    ab = _ab_bench()
    files = {"base": {"a.py": "x = 1\ny = 2\n\n", "b.py": "z\nw\n"},
             "change": {"a.py": "x = 1\n", "c.py": "\n\nlast"}}
    for side, texts in files.items():
        pkg = tmp_path / side / "src" / "duelrank"
        (pkg / "sub").mkdir(parents=True)
        (pkg / "sub" / "d.py").write_text("not counted\n")
        (pkg / "notes.txt").write_text("not counted\n")
        for name, text in texts.items():
            (pkg / name).write_text(text)
    base, change = tmp_path / "base", tmp_path / "change"
    assert (ab.src_lines(base), ab.src_lines(change)) == (5, 3)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(ab, "run_one", lambda *a: {
        "metrics": {m["name"]: 1.0 for m in spec["end_to_end"]},
        "sha256": "ab12", "failed": 0, "correct": True})
    assert ab.main(["--base", str(base), "--change", str(change),
                    "--seeds", "7", "--seconds", "0.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [ln for ln in out if ln.startswith("src/")] == [
        "src/duelrank/*.py lines: base 5, change 3 (-2)"]
    summaries = [json.loads(ln) for ln in out if ln.startswith("{")]
    assert len(summaries) == len(spec["workloads"])
    assert all(s["src_lines"] == {"base": 5, "change": 3}
               for s in summaries)


def test_ab_bench_reports_numpy_runtime(monkeypatch, capsys):
    """The numpy version and the SIMD extensions found on this CPU are
    printed once, before the runs, and added to every JSON summary."""
    ab = _ab_bench()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(ab, "run_one", lambda *a: {
        "metrics": {m["name"]: 1.0 for m in spec["end_to_end"]},
        "sha256": "ab12", "failed": 0, "correct": True})
    assert ab.main(["--base", str(ROOT), "--change", str(ROOT),
                    "--seeds", "7", "--seconds", "0.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    runtime = ab.numpy_runtime()
    assert runtime["version"] == np.__version__
    printed = [ln for ln in out if ln.startswith("numpy ")]
    assert printed == [
        f"numpy {np.__version__} on both sides ({runtime['python']}): SIMD "
        f"baseline {' '.join(runtime['baseline'])}; found "
        f"{' '.join(runtime['found'])}"]
    assert out.index(printed[0]) < min(
        i for i, ln in enumerate(out) if " seed 7 " in ln)
    summaries = [json.loads(ln) for ln in out if ln.startswith("{")]
    assert summaries and all(s["numpy"] == runtime for s in summaries)


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
    # the flag names the runs that decide it: 100 < 110, so not resolved
    rounds = failing["metrics"]["rounds_per_s"]
    assert (rounds["worst_change"], rounds["best_base"]) == (100, 110)
    assert not rounds["every_run_better"]
    assert ("SPREAD: worst change 100, best base 110, not every change "
            "run better") in ab.format_summary("w", failing)
    # as wide, but every change run beats every base run
    resolved = ab.summarize(
        list(zip(base, runs((250, 120, 260, 200)))), better, bounds)
    assert not resolved["metrics"]["rounds_per_s"]["spread"]["ok"]
    assert ("SPREAD: worst change 120, best base 110, every change run "
            "better") in ab.format_summary("w", resolved)
    # lower is better: the worst change run is the largest
    lower = ab.summarize(list(zip(base, wide)), {"rounds_per_s": "lower"},
                         bounds)["metrics"]["rounds_per_s"]
    assert (lower["worst_change"], lower["best_base"]) == (160, 90)
    assert not lower["every_run_better"]
    # a wide base fails too: 47.5 > 0.25 x 145
    wide_base = ab.summarize(list(zip(wide, tight)), better, bounds)
    assert not wide_base["metrics"]["rounds_per_s"]["spread"]["ok"]
    unbounded = ab.summarize(list(zip(base, wide)), better)
    assert "spread" not in unbounded["metrics"]["rounds_per_s"]
    assert "spread" not in ab.format_summary("w", unbounded)


def test_ab_bench_pair_ratio():
    """The per-pair change/base quartiles: seeds 8x apart in speed that
    agree within each pair give a tight pair ratio, while the spread
    check and the verdict still read the runs themselves."""
    ab = _ab_bench()

    def runs(values):
        return [ab.parse_run(_canned_run(r, 58.0)) for r in values]

    better, bounds = {"rounds_per_s": "higher"}, {"rounds_per_s": 0.25}
    base = runs((100, 200, 400, 800))      # q1 125, median 300, q3 700
    agree = ab.summarize(list(zip(base, runs((110, 220, 440, 880)))),
                         better, bounds)
    rounds = agree["metrics"]["rounds_per_s"]
    assert rounds["pair_ratio"] == pytest.approx((1.1, 1.1, 1.1))
    assert not rounds["spread"]["ok"] and rounds["verdict"] == "unresolved"
    text = ab.format_summary("w", agree)
    assert "x1.100  pair x1.100 [x1.100, x1.100]  won 4/4" in text
    # ratios 0.9, 1.2, 1.1 and 1.0: quartiles as of the runs themselves
    mixed = ab.summarize(list(zip(runs((100,) * 4), runs((90, 120, 110,
                                                          100)))), better)
    assert mixed["metrics"]["rounds_per_s"]["pair_ratio"] == pytest.approx(
        (0.925, 1.05, 1.175))


def _round_cost():
    spec = importlib.util.spec_from_file_location(
        "round_cost", ROOT / "scripts" / "round_cost.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_round_cost_tiny_case(capsys):
    """One tiny case, this checkout on both sides: a time per round for
    each, and the change side's count of tracker updates, of which the
    warmup's first (disjoint pairs) writes vu's rows only."""
    rc = _round_cost()
    assert rc.main(["--base", str(ROOT), "--change", str(ROOT),
                    "--algos", "maxin_elo", "--sizes", "6:30:1/3",
                    "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("maxin_elo n=6 T=30 ks=1,3")
    (row,) = json.loads(lines[-1])["rows"]
    assert row["ks"] == [1, 3] and row["seed"] == 5 and row["gamma"] == 1.8
    assert row["base_us_per_round"] > 0 and row["change_us_per_round"] > 0
    assert 1 <= row["sparse"] <= row["updates"] <= 30
    assert row["sparse_share"] == row["sparse"] / row["updates"]


def test_round_cost_sizes_and_usage(capsys):
    rc = _round_cost()
    assert rc.parse_sizes(rc.SIZES) == [(20, 5000, ()), (100, 5000, ()),
                                        (500, 1000, (1, 4, 10))]
    for argv in (["--sizes", "20"], ["--sizes", "20:x"], ["--repeats", "2"],
                 ["--base", ".", "--repeats", "0"]):
        with pytest.raises(SystemExit) as exc:
            rc.main(argv)
        assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


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


def _learner_check():
    spec = importlib.util.spec_from_file_location(
        "learner_check", ROOT / "scripts" / "learner_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_learner_check_runs_any_generated_game(capsys):
    """--game takes any RunConfig.game generator, not only elo games."""
    assert _learner_check().main(["--game", "triangular_rev", "--n", "6",
                                  "--batches", "2", "--alphas", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["game"] == "triangular_rev" and report["tau"] == 4
    assert [c["j"] for c in report["runs"][0]["checkpoints"]] == [1, 2]


def test_learner_check_rejects_an_unknown_game(capsys):
    """An unknown game is harness.build_matrix's ConfigError, reported as
    a usage error (exit 2) with no traceback."""
    with pytest.raises(SystemExit) as exc:
        _learner_check().main(["--game", "nope", "--n", "6"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown game generator: nope" in err and "Traceback" not in err


@pytest.mark.parametrize("alphas", ["tau,x", "0", "-1", "nan", "inf"])
def test_learner_check_rejects_bad_alphas(capsys, alphas):
    """A non-number and a non-positive or non-finite alpha are usage
    errors (exit 2), as a bad --batches is, before any fit runs."""
    with pytest.raises(SystemExit) as exc:
        _learner_check().main(["--n", "6", "--batches", "2", "--alphas",
                               alphas])
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


def test_scorecard_trace_stats_of_a_hand_built_trace(sc, monkeypatch):
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
        "final_regret": 1.0, "regret_at_common_t": 1.0, "rr1": True,
        "hr4": 0.75,
        "rounds_to_identify": 5, "self_pair_share": 0.5,
        "first_frozen_round": 4, "regret_slope": None,
        "tail_rate": 0.0, "frozen_gap": 0.0, "winner_correct": True}
    rr[-1] = 0.5
    stats = sc.trace_stats(trace)
    assert not stats["rr1"] and stats["rounds_to_identify"] is None
    # a common t below T reads R(t) there: R(2) = 0.5 + 0.25
    monkeypatch.setattr(sc, "T_MAXINP", 2)
    stats = sc.trace_stats(trace)
    assert stats["regret_at_common_t"] == 0.75
    assert stats["final_regret"] == 1.0
    monkeypatch.undo()
    # frozen on a player 0.5 below the best: R(6) - R(3) = 1.5 over 3
    # rounds, a wrong winner
    weak = np.array([0.5, 0.25, 0.25, 0.5, 0.5, 0.5])
    trace.instant_regret, trace.cum_regret = weak, np.cumsum(weak)
    stats = sc.trace_stats(trace)
    assert stats["tail_rate"] == 0.5 and stats["frozen_gap"] == 0.5
    assert not stats["winner_correct"]
    # not frozen at T: no gap and no winner, whatever the regret
    trace.y = np.array([1, 2, 3, 3, 3, 4])
    stats = sc.trace_stats(trace)
    assert stats["frozen_gap"] is None and not stats["winner_correct"]
    assert stats["first_frozen_round"] is None


def test_scorecard_tail_rate(sc):
    assert sc.tail_rate(np.array([2.0])) == 2.0           # R(0) = 0
    assert sc.tail_rate(np.array([1.0, 3.0])) == 2.0      # over round 2
    # T = 5: (R(5) - R(2)) / 3
    assert sc.tail_rate(np.array([1.0, 2.0, 2.0, 2.0, 5.0])) == 1.0


def test_scorecard_cell_summary(sc):
    runs = [{"seed": s, "final_regret": reg, "regret_at_common_t": reg / c,
             "rr1": rr1, "hr4": hr4,
             "rounds_to_identify": ident, "self_pair_share": share,
             "first_frozen_round": frozen, "regret_slope": slope,
             "us_per_round": us, "tail_rate": tail, "frozen_gap": gap,
             "winner_correct": gap == 0.0}
            for s, reg, c, rr1, hr4, ident, share, frozen, slope, us, tail, gap
            in [(1, 10.0, 1, True, 1.0, 40, 0.5, 90, 0.5, 3.0, 0.0, 0.0),
                (2, 20.0, 4, False, 0.5, None, 0.25, None, 1.0, 5.0, 0.5,
                 None),
                (3, 30.0, 2, True, 0.75, 60, 0.75, 70, None, 4.0, 0.25,
                 0.5)]]
    runs.append({"seed": 4, "error": "SolverError", "message": "x"})
    out = sc.summarize_cell(runs)
    assert out["runs"] == 3 and out["failed"] == [runs[3]]
    assert out["final_regret"] == {"q1": 15.0, "median": 20.0, "q3": 25.0}
    assert out["rr1_rate"] == 2 / 3 and out["hr4_mean"] == 0.75
    assert out["rounds_to_identify"] == {"runs": 2, "median": 50.0}
    assert out["first_frozen_round"] == {"runs": 2, "median": 80.0}
    assert out["self_pair_share"] == 0.5 and out["us_per_round"] == 4.0
    assert out["regret_slope"] == 0.75       # the null slope is left out
    assert out["tail_rate"] == 0.25
    assert out["frozen_gap"] == {"runs": 2, "median": 0.25}
    assert out["winner_correct"] == 1
    # common-t regrets 10, 5 and 15: the median is not the final one's
    assert out["regret_at_common_t"] == 10.0
    assert out["per_seed"]["regret_at_common_t"] == [10.0, 5.0, 15.0]
    assert out["per_seed"]["seed"] == [1, 2, 3]
    assert out["per_seed"]["rounds_to_identify"] == [40, None, 60]
    assert out["per_seed"]["frozen_gap"] == [0.0, None, 0.5]
    assert out["per_seed"]["winner_correct"] == [True, False, False]


def test_scorecard_two_cell_grid_in_a_pool_and_serially(sc, capsys):
    """The same grid run by a 2-process pool (as a script) and serially
    (in-process) gives the same statistics, up to the timings."""
    import subprocess
    import sys
    script = ROOT / "scripts" / "scorecard.py"
    argv = ["--grid", "n=6", "--T", "200", "--grid", "seed=1,2", "--grid",
            "algo=maxin_elo", "--grid", "game=elo,cyclic_dominant"]
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


def _spy_runs(sc, monkeypatch) -> list:
    """The configs the scorecard runs, in order, on its serial path."""
    seen, run_cell = [], sc.run_cell
    monkeypatch.setattr(sc, "run_cell",
                        lambda cfg: seen.append(cfg) or run_cell(cfg))
    return seen


@pytest.mark.parametrize("n", [4, 6, 20])
@pytest.mark.parametrize("game", ["triangular_rev", "cyclic_dominant"])
def test_scorecard_matrix_games_load_with_best_last(sc, monkeypatch, capsys,
                                                    game, n):
    """The scorecard plays its fixed games by name, with no matrix file;
    the games themselves are tested in test_games.TestFixedGames."""
    from duelrank import games, harness
    seen = _spy_runs(sc, monkeypatch)
    # an empty --grid drops the default algo axis for the template's
    assert sc.main(["--grid", "algo=", "--algo", "random", "--grid",
                    f"game={game}", "--grid", f"n={n}", "--grid", "seed=1",
                    "--T", "10"]) == 0
    (cfg,) = seen
    assert cfg.algo == "random" and cfg.game == game and cfg.matrix is None
    assert games.true_ratings(harness.build_matrix(cfg)).best == n - 1
    (cell,) = json.loads(capsys.readouterr().out)["cells"]
    assert (cell["game"], cell["n"], cell["runs"]) == (game, n, 1)
    assert "algo" not in cell and not cell["failed"]


def test_scorecard_template_flag_reaches_every_run(sc, monkeypatch, capsys):
    """A RunConfig flag the scorecard does not default (--alpha) is set
    on every run and recorded in the template's digest."""
    seen = _spy_runs(sc, monkeypatch)
    assert sc.main(["--alpha", "1", "--T", "50", "--grid",
                    "algo=maxin_elo,random,maxinp", "--grid", "game=elo",
                    "--grid", "n=6", "--grid", "seed=1,2"]) == 0
    assert [(c.algo, c.seed) for c in seen] == [
        ("maxin_elo", 1), ("maxin_elo", 2), ("random", 1), ("random", 2),
        ("maxinp", 1), ("maxinp", 2)]
    assert all(c.alpha == 1.0 and c.gamma == 1.8 and c.ks == (4,)
               for c in seen)
    out = json.loads(capsys.readouterr().out)
    assert "alpha=1.0;" in out["grid"]["template"]
    assert out["grid"]["axes"] == {"algo": ["maxin_elo", "random", "maxinp"],
                                   "game": ["elo"], "n": [6],
                                   "seed": [1, 2]}
    assert out["grid"]["common_t"] == out["grid"]["T_maxinp"] == 2000
    assert [c["runs"] for c in out["cells"]] == [2, 2, 2]


def test_scorecard_cells_group_by_point_not_position(sc, capsys):
    """An axis that sorts after seed still gives one cell per value, with
    every seed in it; T and the other axes come from the point."""
    assert sc.main(["--grid", "tau=3,4", "--grid", "algo=maxin_elo",
                    "--grid", "game=elo", "--grid", "n=6", "--grid",
                    "seed=1,2,3", "--T", "50"]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert [(c["algo"], c["game"], c["n"], c["tau"], c["T"]) for c in cells] \
        == [("maxin_elo", "elo", 6, 3, 50), ("maxin_elo", "elo", 6, 4, 50)]
    for c in cells:
        assert c["runs"] == 3 and not c["failed"]
        assert c["per_seed"]["seed"] == [1, 2, 3]


def test_scorecard_axis_replaces_a_default_flag(sc, monkeypatch, capsys):
    """A --grid axis for a key the defaults give as a flag (gamma) is the
    runs' value, not a usage error; the other default flags stay."""
    seen = _spy_runs(sc, monkeypatch)
    assert sc.main(["--grid", "gamma=1,3", "--grid", "algo=random",
                    "--grid", "game=elo", "--grid", "n=6", "--grid",
                    "seed=1", "--T", "20"]) == 0
    assert [(c.gamma, c.noise, c.ks) for c in seen] == [(1.0, 0.1, (4,)),
                                                        (3.0, 0.1, (4,))]
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert [c["gamma"] for c in cells] == [1.0, 3.0]


def _card(axes, cells):
    """A hand-built scorecard JSON: (point, median regret, rr1 per seed,
    winner_correct, tail rate) per cell."""
    return {"grid": {"axes": axes}, "cells": [
        {**point, "T": 50, "runs": len(rr1),
         "final_regret": None if median is None else {"median": median},
         "per_seed": {"rr1": rr1}, "winner_correct": winners,
         "tail_rate": tail}
        for point, median, rr1, winners, tail in cells]}


def test_scorecard_diff_of_hand_built_files(sc, monkeypatch, capsys,
                                            tmp_path):
    """Cells match on every non-empty axis but seed, whatever their order
    in the files; the others are listed, and nothing runs."""
    seen = _spy_runs(sc, monkeypatch)
    axes = {"algo": ["x", "y"], "game": [], "n": [6], "seed": [1, 2]}
    a = _card(axes, [
        ({"algo": "x", "n": 6}, 100.4, [True, False], 1, 0.5),
        ({"algo": "y", "n": 6}, 7.0, [False, False], 0, 0.125)])
    b = _card({**axes, "algo": ["y", "z"]}, [
        ({"algo": "z", "n": 6}, 3.0, [True], 1, 0.0),
        ({"algo": "y", "n": 6}, None, [], 0, None)])
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, card in zip(paths, (a, b)):
        path.write_text(json.dumps(card))
    assert sc.main(["--diff", *map(str, paths)]) == 0
    assert capsys.readouterr().out == (
        "| cell | median regret | RR=1 | winner | tail rate |\n"
        "|---|---|---|---|---|\n"
        "| `y`, n=6 | 7 → — | 0/2 → 0/0 | 0/2 → 0/0 | 0.12 → — |\n"
        "only in A: `x`, n=6\n"
        "only in B: `z`, n=6\n")
    assert seen == []
    # an axis only one file has keeps every cell apart
    c = _card({**axes, "tau": [3]},
              [({"algo": "y", "n": 6, "tau": 3}, 1.0, [True], 1, 0.0)])
    assert sc.diff(a, c).splitlines()[2:] == [
        "only in A: `x`, n=6", "only in A: `y`, n=6",
        "only in B: `y`, n=6, tau=3"]
    # a missing or foreign file is a usage error, not a traceback
    paths[1].write_text("{}")
    for second in (tmp_path / "none.json", paths[1]):
        with pytest.raises(SystemExit) as exc:
            sc.main(["--diff", str(paths[0]), str(second)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--diff: " in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["--grid", "nope=1"], "unknown sweep key: nope"),
    (["--grid", "n=x"], "bad value for n"),
    (["--ks", "10"], "4 in ks"),
    (["--replicates", "2"], "replicates=1"),
    (["--workers", "0"], "workers must be at least 1"),
    (["--n", "6"], "n is a --grid axis")])
def test_scorecard_usage_errors(sc, capsys, argv, message):
    """A bad key or value, a run the statistics cannot read, fewer than
    one worker, and a flag for an axis key exit 2 before any run."""
    with pytest.raises(SystemExit) as exc:
        sc.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
