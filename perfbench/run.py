"""Round-throughput benchmark for duelrank.

    python3 perfbench/run.py --workload maxin-n100 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports duelrank from its
``src/``. It builds the workload's inputs from ``--seed``, then repeats
timed passes of the workload until ``--seconds`` have gone by, checks
every operation's output, and prints a human-readable report followed by
one JSON line. With ``--trace 0`` the JSON holds the end-to-end metrics,
measured untraced. With ``--trace 1`` untraced and traced passes alternate
and the JSON holds the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy loads: the benchmark measures
# the single-threaded program on a small shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import SpanLog, Totals, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    reference_work,
    run_pass,
    setup,
    verify_pass,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
SETUP_REPS = 11
MIN_PASSES = 2
# Fastest reference_work() time on the 2-vCPU Xeon the baseline was taken on.
REFERENCE_S = 0.010
LAYERS = ("games", "tracker", "ratings", "schedulers", "metrics", "harness")

END_TO_END = {
    "rounds_per_s": "rounds/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

SIMULATE_LABELS = sorted({job.label for w in WORKLOADS.values()
                          for job in w.jobs})

PER_LAYER = {
    "schedulers.step.self_us_per_round": "us/round",
    "schedulers.self_pair_frac": "fraction",
    "schedulers.estimate.us_per_round": "us/round",
    "tracker.update.calls_per_round": "calls/round",
    "tracker.update.us_per_call": "us/call",
    "tracker.uncertainty_matrix.calls_per_round": "calls/round",
    "tracker.uncertainty_matrix.us_per_call": "us/call",
    "ratings.batch_update.calls_per_round": "calls/round",
    "ratings.batch_update.us_per_call": "us/call",
    "ratings.mle_fit.calls_per_round": "calls/round",
    "ratings.mle_fit.us_per_call": "us/call",
    "ratings.mle_fit.us_per_record": "us/record",
    "ratings.sgd_step.us_per_call": "us/call",
    "games.sample_outcome.calls_per_round": "calls/round",
    "games.sample_outcome.us_per_round": "us/round",
    "games.build_s": "s",
    "games.true_ratings_s": "s",
    "metrics.ranking.calls_per_round": "calls/round",
    "metrics.ranking.us_per_call": "us/call",
    "metrics.snapshot.us_per_round": "us/round",
    "metrics.instant_regret.us_per_round": "us/round",
    "harness.run_replicate.self_us_per_round": "us/round",
    "harness.write_trace_csv.mb_per_s": "MB/s",
    "harness.write_trace_csv.bytes_per_round": "bytes/round",
    "harness.read_trace_csv.mb_per_s": "MB/s",
    **{f"harness.simulate.{label}.us_per_round": "us/round"
       for label in SIMULATE_LABELS},
    **{f"{layer}.self_share": "fraction" for layer in LAYERS},
    "trace.overhead_frac": "fraction",
    "quality.final_cum_regret": "regret",
    "quality.final_rr": "score",
    "quality.final_ndcg": "score",
}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tot: Totals, rounds: int) -> dict[str, float]:
    """Per-layer values from the traced passes' span totals."""
    def per_call(name):
        return 1e6 * _ratio(tot.total_s(name), tot.calls(name))

    def per_round(name):
        return 1e6 * _ratio(tot.total_s(name), rounds)

    def calls(name):
        return _ratio(tot.calls(name), rounds)

    return {
        "schedulers.step.self_us_per_round":
            1e6 * _ratio(tot.self_s("schedulers.step"), rounds),
        "schedulers.estimate.us_per_round": per_round("schedulers.estimate"),
        "tracker.update.calls_per_round": calls("tracker.update"),
        "tracker.update.us_per_call": per_call("tracker.update"),
        "tracker.uncertainty_matrix.calls_per_round":
            calls("tracker.uncertainty_matrix"),
        "tracker.uncertainty_matrix.us_per_call":
            per_call("tracker.uncertainty_matrix"),
        "ratings.batch_update.calls_per_round": calls("ratings.batch_update"),
        "ratings.batch_update.us_per_call": per_call("ratings.batch_update"),
        "ratings.mle_fit.calls_per_round": calls("ratings.mle_fit"),
        "ratings.mle_fit.us_per_call": per_call("ratings.mle_fit"),
        "ratings.mle_fit.us_per_record":
            1e6 * _ratio(tot.total_s("ratings.mle_fit"),
                         tot.work("ratings.mle_fit")),
        "ratings.sgd_step.us_per_call": per_call("ratings.sgd_step"),
        "games.sample_outcome.calls_per_round": calls("games.sample_outcome"),
        "games.sample_outcome.us_per_round": per_round("games.sample_outcome"),
        "metrics.ranking.calls_per_round": calls("metrics.ranking"),
        "metrics.ranking.us_per_call": per_call("metrics.ranking"),
        "metrics.snapshot.us_per_round": per_round("metrics.snapshot"),
        "metrics.instant_regret.us_per_round":
            per_round("metrics.instant_regret"),
        "harness.run_replicate.self_us_per_round":
            1e6 * _ratio(tot.self_s("harness.run_replicate"), rounds),
        "harness.write_trace_csv.mb_per_s":
            1e-6 * _ratio(tot.work("harness.write_trace_csv"),
                          tot.total_s("harness.write_trace_csv")),
        "harness.write_trace_csv.bytes_per_round":
            _ratio(tot.work("harness.write_trace_csv"), rounds),
        "harness.read_trace_csv.mb_per_s":
            1e-6 * _ratio(tot.work("harness.read_trace_csv"),
                          tot.total_s("harness.read_trace_csv")),
    }


def reference_costs(passes, field: str = "item_s") -> list[float]:
    """Each item's time in reference_work() units, median over passes.

    The machine's speed drifts by up to 1.6x, over seconds to minutes,
    under load from other tenants. Dividing an item's time by the mean of
    the reference_work() times just before and after it removes most of
    that drift; multiplied by REFERENCE_S the cost reads as seconds at
    the reference speed.
    """
    return [statistics.median(
        getattr(p, field)[i] / (0.5 * (p.ref_s[i] + p.ref_s[i + 1]))
        for p in passes) for i in range(len(passes[0].item_s))]


def simulate_us_per_round(items, passes) -> dict[str, float]:
    """Each job's simulate time per round at reference speed."""
    costs = reference_costs(passes, "sim_s")
    out = {}
    for label in SIMULATE_LABELS:
        idx = [i for i, it in enumerate(items) if it.job.label == label]
        rounds = sum(items[i].job.T * items[i].job.replicates for i in idx)
        out[f"harness.simulate.{label}.us_per_round"] = 1e6 * _ratio(
            REFERENCE_S * sum(costs[i] for i in idx), rounds)
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> dict:
    workload = WORKLOADS[workload_name]
    env = environment()
    print("environment " + json.dumps(env), flush=True)

    setups, refs = [], [reference_work()]
    for rep in range(SETUP_REPS):
        inputs = workdir / f"inputs{rep}"
        inputs.mkdir()
        dr, items, times = setup(SRC, workload, seed, inputs)
        setups.append(times)
        refs.append(reference_work())
    print("setup_s per repetition, unscaled: "
          + " ".join(f"{s.total_s:.4f}" for s in setups), flush=True)

    def setup_median(field: str) -> float:
        """Median over set-ups of a set-up time at reference speed."""
        return REFERENCE_S * statistics.median(
            getattr(s, field) / (0.5 * (refs[i] + refs[i + 1]))
            for i, s in enumerate(setups))

    scratch = workdir / "scratch"
    scratch.mkdir()
    plain, traced, verdicts = [], [], []
    totals = Totals()
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(plain) < MIN_PASSES
           or (trace and not traced)):
        use_tracer = trace and len(traced) < len(plain)
        outdir = workdir / f"pass{len(plain) + len(traced)}"
        outdir.mkdir()
        if use_tracer:
            log = SpanLog()
            with Tracer(dr, log):
                out = run_pass(dr, workload, items, outdir)
            totals.fold(log)
            del log
            traced.append(out)
        else:
            out = run_pass(dr, workload, items, outdir)
            plain.append(out)
        verdicts.append(verify_pass(dr, workload, items, out, scratch))
        out.release()
        kind = "traced" if use_tracer else "untraced"
        print(f"pass {len(verdicts)} {kind} wall={out.wall_s:.4f}s "
              f"rounds/s={out.rounds / out.wall_s:.1f} "
              f"sha256={verdicts[-1].sha256}", flush=True)
        shutil.rmtree(outdir)

    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    shas = {v.sha256 for v in verdicts}
    for v in verdicts:
        for problem in v.problems[:5]:
            print(f"FAILED {problem}", flush=True)
    if len(shas) != 1:
        print(f"FAILED passes disagree on trace bytes: {sorted(shas)}")
    first = verdicts[0]
    finals = first.quality or [(0.0, 0.0, 0.0)]   # every item failed
    cum, rr, ndcg = (statistics.fmean(q[i] for q in finals) for i in range(3))

    e2e = {
        "rounds_per_s": _ratio(plain[0].rounds,
                               REFERENCE_S * sum(reference_costs(plain))),
        "setup_s": setup_median("total_s"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    quality = {
        "quality.final_cum_regret": cum,
        "quality.final_rr": rr,
        "quality.final_ndcg": ndcg,
    }
    print(f"workload {workload.name} seed={seed} passes: {len(plain)} untraced,"
          f" {len(traced)} traced; rounds/pass={plain[0].rounds}")
    raw = statistics.median(p.rounds / p.wall_s for p in plain)
    ref = statistics.median(r for p in plain for r in p.ref_s)
    print(f"  unscaled median-pass rounds/s = {raw:.6g}; "
          f"median reference_work = {ref:.6g} s")
    print(f"trace_sha256 {workload.name} {first.sha256}")
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {END_TO_END[name]}")

    if trace:
        rounds = sum(p.rounds for p in traced)
        traced_wall = sum(p.wall_s for p in traced)
        metrics = {
            **layer_metrics(totals, rounds),
            "schedulers.self_pair_frac": _ratio(first.self_pair_rounds,
                                                first.post_warmup_rounds),
            "games.build_s": setup_median("build_s"),
            "games.true_ratings_s": setup_median("true_ratings_s"),
            **simulate_us_per_round(items, plain),
            **{f"{layer}.self_share": totals.layer_self_s(layer) / traced_wall
               for layer in LAYERS},
            "trace.overhead_frac": sum(reference_costs(traced))
            / sum(reference_costs(plain)) - 1.0,
            **quality,
        }
        units = PER_LAYER
        for name in PER_LAYER:
            print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    else:
        metrics, units = e2e, END_TO_END
        for name, value in quality.items():
            print(f"  {name} = {value:.6g} {PER_LAYER[name]}")

    return {
        "correct": failed == 0 and len(shas) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "duelrank" / "__init__.py").is_file():
        print(f"error: no duelrank sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
