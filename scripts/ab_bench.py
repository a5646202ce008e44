#!/usr/bin/env python3
"""A/B benchmark of two source checkouts, in alternating order.

Example:
    python3 scripts/ab_bench.py --base /path/to/parent --change . \\
        --workload paper-n20-io --seeds 2101-2110 --seconds 20

``--workload`` defaults to every workload in the change checkout's
``BENCHMARK.json``, and ``--seconds`` to its ``run_seconds``.

For each seed it runs ``perfbench/run.py --trace 0`` once in each
checkout, base first on the 1st, 3rd, ... pair and change first on the
others, so slow phases of the machine fall on both sides. It then prints,
per side, the median and quartiles of every end-to-end metric, the
quartiles of the per-pair ratio change/base, how many pairs the change
won, and whether ``trace_sha256`` and the ``failed`` count matched in
every pair. Seeds can differ in speed far more than the two sides do;
the pair ratio cancels that, so it shows pairs that agree even when
each side's spread is wide. Metric names, their better direction and
their bounds are read from the change checkout's ``BENCHMARK.json``.

Before the runs, each side's ``src/``, ``perfbench/`` and
``BENCHMARK.json`` are copied the same way under one temporary parent
(see ``copy_checkout``), and every run starts in its side's copy: where
a checkout lives can move ``setup_s`` and ``peak_rss_mb`` by itself.
Every run compiles its imports from source (see ``run_one``). Each
side's ``src/duelrank/*.py`` line count is printed once, before the
runs, and added to every workload's JSON summary as ``src_lines``; so
are the numpy version and the CPU features its SIMD dispatch found
(``numpy_runtime``), since a kernel's speed against another, einsum's
against a ufunc broadcast say, depends on the host's vector extensions.

The spread check: each side's middle-half spread (q3 - q1) is printed
next to ``bound x base median``, and a metric is flagged ``SPREAD`` when
either side exceeds it, since runs that spread that widely cannot tell a
change of that size from noise. A ``SPREAD`` flag is followed by the
worst change run, the best base run, and whether every change run beat
every base run, which resolves the spread (see ``unresolved`` below).

Each metric ends in one verdict, the first of these that holds:

- ``worse``: the median moved the worse way by more than bound x base
  median (metrics with a bound only);
- ``unresolved``: the spread check failed and not every change run beats
  every base run;
- ``gain``: the change won at least 9/10 of the pairs, and its median
  moved the better way by more than the base's q3 - q1; this counts only
  with at least MIN_GAIN_PAIRS pairs and the same ``failed`` count in
  every pair, and reads ``unresolved`` otherwise;
- ``no change``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

MIN_GAIN_PAIRS = 10
# What a benchmark run reads from a checkout; bytecode and the benchmark's
# work files stay behind.
COPIED = ("src", "perfbench", "BENCHMARK.json")
IGNORED = shutil.ignore_patterns("__pycache__", "_work")


def parse_run(stdout: str) -> dict:
    """One benchmark run's metric values, trace digest and failed count,
    from its printed report (a ``trace_sha256 <workload> <hex>`` line and
    a final JSON line)."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    sha = next((ln.split()[2] for ln in lines
                if ln.startswith("trace_sha256 ")), None)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "sha256": sha, "failed": result["failed"],
            "correct": result["correct"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def extremes(base: list[float], change: list[float],
             sign: float) -> tuple[float, float, bool]:
    """The worst change run, the best base run, and whether the one beats
    the other, that is whether every change run beats every base run;
    ``sign`` is +1 when higher is better."""
    worst = sign * min(sign * c for c in change)
    best = sign * max(sign * b for b in base)
    return worst, best, sign * worst > sign * best


def verdict(base: list[float], change: list[float], sign: float,
            won: int, bound: float | None, failed_equal: bool) -> str:
    """``worse``, ``unresolved``, ``gain`` or ``no change`` for one metric's
    runs (see the module doc); ``sign`` is +1 when higher is better, and
    ``failed_equal`` says whether every pair failed as many operations."""
    (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
    moved = sign * (c2 - b2)
    if bound is not None:
        if -moved > bound * abs(b2):
            return "worse"
        spread_ok = max(b3 - b1, c3 - c1) <= bound * abs(b2)
        if not spread_ok and not extremes(base, change, sign)[2]:
            return "unresolved"
    if won >= 0.9 * len(base) and moved > b3 - b1:
        enough = len(base) >= MIN_GAIN_PAIRS and failed_equal
        return "gain" if enough else "unresolved"
    return "no change"


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric: base and change (q1, median, q3), the pairs the change
    won, the median ratio change/base, ``pair_ratio``: the (q1, median,
    q3) of change/base over the pairs, and the worst change run, the best
    base run and whether every change run beat every base run; plus
    whether every pair agreed on trace bytes and failed operations.
    ``pairs`` holds (base, change) results of ``parse_run``; ``better``
    maps a metric to higher|lower.
    For a metric with a bound in ``bounds``, ``spread`` holds each side's
    q3 - q1, the limit ``bound x base median``, and whether both sides
    stay within it. ``verdict`` is the metric's verdict (see ``verdict``)."""
    out = {"pairs": len(pairs), "metrics": {},
           "sha256_equal": all(b["sha256"] == c["sha256"] for b, c in pairs),
           "failed_equal": all(b["failed"] == c["failed"] for b, c in pairs),
           "all_correct": all(b["correct"] and c["correct"]
                              for b, c in pairs)}
    for name, direction in better.items():
        base = [b["metrics"][name] for b, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        qb, qc = quartiles(base), quartiles(change)
        worst, best, every = extremes(base, change, sign)
        bound = (bounds or {}).get(name)
        ratios = [c / b for b, c in zip(base, change) if b]
        out["metrics"][name] = {"base": qb, "change": qc, "won": won,
                                "ratio": qc[1] / qb[1] if qb[1] else None,
                                "pair_ratio":
                                    quartiles(ratios) if ratios else None,
                                "worst_change": worst, "best_base": best,
                                "every_run_better": every,
                                "verdict": verdict(base, change, sign, won,
                                                   bound, out["failed_equal"])}
        if bound is not None:
            limit = bound * abs(qb[1])
            sb, sc = qb[2] - qb[0], qc[2] - qc[0]
            out["metrics"][name]["spread"] = {
                "base": sb, "change": sc, "limit": limit,
                "ok": max(sb, sc) <= limit}
    return out


def format_summary(workload: str, summary: dict) -> str:
    rows = [f"{workload}: {summary['pairs']} pairs, trace_sha256 "
            f"{'equal' if summary['sha256_equal'] else 'DIFFERENT'}, failed "
            f"{'equal' if summary['failed_equal'] else 'DIFFERENT'}, "
            f"{'all correct' if summary['all_correct'] else 'NOT CORRECT'}"]
    for name, m in summary["metrics"].items():
        (b1, b2, b3), (c1, c2, c3) = m["base"], m["change"]
        ratio = f"x{m['ratio']:.3f}" if m["ratio"] is not None else "-"
        if m["pair_ratio"] is not None:
            r1, r2, r3 = m["pair_ratio"]
            ratio += f"  pair x{r2:.3f} [x{r1:.3f}, x{r3:.3f}]"
        row = (f"  {name:14s} base {b2:.6g} [{b1:.6g}, {b3:.6g}]  "
               f"change {c2:.6g} [{c1:.6g}, {c3:.6g}]  {ratio}  "
               f"won {m['won']}/{summary['pairs']}")
        if "spread" in m:
            sp = m["spread"]
            row += (f"  spread base {sp['base']:.4g} change {sp['change']:.4g}"
                    f" limit {sp['limit']:.4g}")
            if not sp["ok"]:
                row += (f" SPREAD: worst change {m['worst_change']:.6g}, best"
                        f" base {m['best_base']:.6g}, "
                        f"{'every' if m['every_run_better'] else 'not every'}"
                        " change run better")
        rows.append(f"{row}  -> {m['verdict']}")
    return "\n".join(rows)


def parse_seeds(text: str) -> list[int]:
    """'1,2,5-7' -> [1, 2, 5, 6, 7]; as ``--seeds``' type, a non-number
    or an empty or reversed range is a usage error (exit 2)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"empty seed range {part}")
        seeds += span
    return seeds


def src_lines(checkout: Path) -> int:
    """The lines of the checkout's src/duelrank/*.py, counted as
    ``cat src/duelrank/*.py | wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n")
               for p in (checkout / "src" / "duelrank").glob("*.py"))


def numpy_runtime() -> dict:
    """numpy's version and SIMD extensions as ``np.show_runtime()`` reports
    them (baseline, and the dispatch targets this CPU has), for the
    interpreter that runs both sides' benchmarks (``sys.executable``);
    neither copy holds a numpy of its own, so one probe serves both."""
    import numpy as np
    from numpy._core import _multiarray_umath as umath
    return {"version": np.__version__, "python": sys.executable,
            "baseline": list(umath.__cpu_baseline__),
            "found": [name for name in umath.__cpu_dispatch__
                      if umath.__cpu_features__[name]]}


def copy_checkout(checkout: Path, dest: Path) -> Path:
    """A copy of what the benchmark reads from the checkout (COPIED; what
    the checkout lacks is skipped) in the new directory dest."""
    dest.mkdir()
    for name in COPIED:
        src = checkout / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=IGNORED)
        elif src.exists():
            shutil.copy2(src, dest / name)
    return dest


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run, compiling its imports from source: it neither
    reads a ``__pycache__`` left in the checkout nor writes one, so a
    cache on one side only cannot skew ``setup_s``."""
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPYCACHEPREFIX": cache}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, check=False,
            env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, default=Path("."))
    ap.add_argument("--workload", action="append",
                    help="benchmark workload name (repeatable; default: "
                    "every workload in BENCHMARK.json)")
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="e.g. 2101-2110 or 1,5,9")
    ap.add_argument("--seconds", type=float,
                    help="default: BENCHMARK.json's run_seconds")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    args.workload = args.workload or [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    lines = {side: src_lines(getattr(args, side)) for side in ("base", "change")}
    print(f"src/duelrank/*.py lines: base {lines['base']}, change "
          f"{lines['change']} ({lines['change'] - lines['base']:+d})",
          flush=True)
    runtime = numpy_runtime()
    print(f"numpy {runtime['version']} on both sides ({runtime['python']}): "
          f"SIMD baseline {' '.join(runtime['baseline'])}; found "
          f"{' '.join(runtime['found'])}", flush=True)
    with tempfile.TemporaryDirectory() as parent:
        # names of one length, so the two paths differ in one byte only
        copies = {side: copy_checkout(getattr(args, side), Path(parent) / name)
                  for side, name in (("base", "a"), ("change", "b"))}
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = (["base", "change"] if i % 2 == 0
                         else ["change", "base"])
                res = {side: run_one(copies[side], workload, seed,
                                     args.seconds) for side in order}
                pairs.append((res["base"], res["change"]))
                print(f"{workload} seed {seed} ({order[0]} first): "
                      + "  ".join(
                          f"{name} {res['base']['metrics'][name]:.6g} -> "
                          f"{res['change']['metrics'][name]:.6g}"
                          for name in better), flush=True)
            summary = summarize(pairs, better, bounds)
            print(format_summary(workload, summary), flush=True)
            print(json.dumps({"workload": workload, "src_lines": lines,
                              "numpy": runtime, **summary}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
