"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

A workload is a fixed list of jobs. Each job is one ``RunConfig`` shape
run on ``matrices`` different game matrices, each drawn from its own seed
derived from the workload seed. One pass runs every (job, matrix) item
through ``harness.simulate`` once, so a pass is deterministic given the
seed and every pass of a run must give the same trace bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import sys
import time
import traceback
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import (
    Expect,
    final_quality,
    parse_trace,
    self_pair_counts,
    shape_problems,
    trace_problems,
)

GAMMA = 1.8
SELF_PAIR_ALGOS = ("maxin_elo", "maxin_melo", "maxinp")
MODULES = ("games", "harness", "metrics", "ratings", "schedulers", "tracker")


@dataclass(frozen=True)
class Job:
    algo: str
    n: int
    T: int
    ks: tuple[int, ...]
    game: str = "elo"
    noise: float = 0.0
    tau: int | None = None      # warmup rounds of MaxIn/MaxInP
    replicates: int = 1
    via_csv: bool = False       # write the matrix to CSV, load it back

    @property
    def label(self) -> str:
        return f"{self.algo}.n{self.n}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple[Job, ...]
    matrices: int
    write_traces: bool = False

    @property
    def rounds_per_pass(self) -> int:
        return self.matrices * sum(j.T * j.replicates for j in self.jobs)


# Items are short (about 0.3-2 s each on a 2-core machine) so that a run
# repeats each one several times; many matrices per pass average out the
# seed-to-seed spread of per-round cost. MaxIn at n=100 stops at T=300:
# the candidate set is then still near n on every matrix, while at
# T=1000 its size, and with it the O(|S|^2) pair search, varies by a
# factor of two between matrices.
WORKLOADS = {w.name: w for w in (
    Workload(
        "maxin-n100",
        "MaxIn at n=100, where the O(n^2) candidate set, pair search and "
        "rank-1 tracker work dominate a round",
        (Job("maxin_elo", n=100, T=300, ks=(10,), tau=70),
         Job("maxin_melo", n=100, T=300, ks=(10,), tau=70)),
        matrices=3),
    Workload(
        "baselines",
        "online-SGD baselines with no tracker or candidate set; metric "
        "sorting and the rg_ucb pair scan dominate",
        (Job("random", n=100, T=1000, ks=(10,), game="noisy_elo", noise=0.05),
         Job("dbgd", n=100, T=1000, ks=(10,), game="noisy_elo", noise=0.05),
         Job("rg_ucb", n=30, T=300, ks=(10,), game="noisy_elo", noise=0.05)),
        matrices=2),
    Workload(
        "maxinp-refit",
        "full-history MLE refit every round, O(t) per round; the only "
        "workload that loads its matrix from CSV",
        (Job("maxinp", n=20, T=500, ks=(4,), tau=14, via_csv=True),),
        matrices=6),
    Workload(
        "paper-n20-io",
        "paper default n=20, tau=80: small-n call overhead and many "
        "self-pairs; traces written and read back as CSV",
        (Job("maxin_elo", n=20, T=5000, ks=(1, 4, 10), tau=80, replicates=2),),
        matrices=3, write_traces=True),
)}


def import_duelrank(src: Path) -> types.SimpleNamespace:
    """Import duelrank afresh from ``src``, dropping any loaded copy."""
    for name in [m for m in sys.modules
                 if m == "duelrank" or m.startswith("duelrank.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"duelrank.{m}") for m in MODULES})


@dataclass
class Item:
    job: Job
    cfg: object             # duelrank.harness.RunConfig
    expect: Expect


@dataclass
class SetupTimes:
    total_s: float
    build_s: float
    true_ratings_s: float


def item_seed(seed: int, m: int) -> int:
    return 1000 * seed + m


def build_items(dr, workload: Workload, seed: int,
                workdir: Path) -> tuple[list[Item], float, float]:
    """Every input of a workload, plus seconds spent building and in truth."""
    items, build_s, truth_s = [], 0.0, 0.0
    for j, job in enumerate(workload.jobs):
        for m in range(workload.matrices):
            s = item_seed(seed, m)
            cfg = dr.harness.RunConfig(
                algo=job.algo, game=job.game, n=job.n, noise=job.noise,
                T=job.T, tau=job.tau, gamma=GAMMA, ks=job.ks,
                replicates=job.replicates, seed=s, matrix_seed=s)
            t0 = time.perf_counter()
            matrix = dr.harness.build_matrix(cfg)
            if job.via_csv:
                path = workdir / f"matrix{j}_{m}.csv"
                np.savetxt(path, matrix.p, fmt="%.17g", delimiter=",")
                cfg = dataclasses.replace(cfg, matrix=str(path))
                matrix = dr.harness.build_matrix(cfg)
            t1 = time.perf_counter()
            truth = dr.games.true_ratings(matrix, clip_eps=cfg.clip_eps)
            t2 = time.perf_counter()
            build_s += t1 - t0
            truth_s += t2 - t1
            after = job.tau if job.algo in SELF_PAIR_ALGOS else None
            items.append(Item(job, cfg, Expect(
                T=job.T, n=job.n, ks=job.ks, r_star=np.array(truth.r_star),
                best=int(truth.best), self_pairs_after=after)))
    return items, build_s, truth_s


def setup(src: Path, workload: Workload, seed: int, workdir: Path):
    """Import duelrank and build the workload's inputs; returns timings."""
    t0 = time.perf_counter()
    dr = import_duelrank(src)
    items, build_s, truth_s = build_items(dr, workload, seed, workdir)
    total = time.perf_counter() - t0
    return dr, items, SetupTimes(total, build_s, truth_s)


def reference_work() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work."""
    t0 = time.perf_counter()
    acc = 0
    for j in range(100_000):
        acc += j * j
    a = np.arange(100.0)
    for _ in range(1500):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - t0


@dataclass
class PassOutput:
    wall_s: float
    rounds: int                        # rounds of the items that completed
    ref_s: list[float]                 # reference_work around each item
    item_s: list[float]                # per item, simulate plus trace I/O
    sim_s: list[float]                 # per item, simulate alone
    errors: list[str]                  # per item, the exception it raised
    traces: list[list[object]]         # per item, in-memory traces
    written: list[list[str]]           # per item, trace CSV paths
    readback: list[list[object]]       # per item, traces read back

    def release(self) -> None:
        """Drop the traces once checked; only the timings are kept."""
        self.traces, self.readback = [], []


def run_pass(dr, workload: Workload, items: list[Item],
             outdir: Path) -> PassOutput:
    """The timed section: every simulate call, plus trace write/read-back.

    An item that raises is a failed operation: its error is kept for the
    checks and the pass goes on with the next item.
    """
    harness = dr.harness
    out = PassOutput(0.0, 0, [], [], [], [], [], [], [])
    for i, item in enumerate(items):
        out.ref_s.append(reference_work())
        trs, paths, back, error = [], [], [], ""
        t0 = time.perf_counter()
        try:
            trs, summary = harness.simulate(item.cfg)
            t1 = time.perf_counter()
            if workload.write_traces:
                paths = harness.report(trs, summary, str(outdir / f"item{i}"))
                paths = paths[:len(trs)]
                back = [harness.read_trace_csv(p) for p in paths]
        except Exception as exc:  # recorded and checked as a failed operation
            t1 = time.perf_counter()
            error = "".join(traceback.format_exception_only(exc)).strip()
        t2 = time.perf_counter()
        out.sim_s.append(t1 - t0)
        out.item_s.append(t2 - t0)
        out.wall_s += t2 - t0
        out.errors.append(error)
        out.traces.append(trs)
        out.written.append(paths)
        out.readback.append(back)
        if not error:
            out.rounds += item.job.T * item.job.replicates
    out.ref_s.append(reference_work())
    return out


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    sha256: str = ""
    quality: list[tuple[float, float, float]] = dataclasses.field(
        default_factory=list)
    post_warmup_rounds: int = 0
    self_pair_rounds: int = 0

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)


def _csv_bytes(dr, trace, path: Path) -> bytes:
    dr.harness.write_trace_csv(trace, str(path))
    return path.read_bytes()


def verify_pass(dr, workload: Workload, items: list[Item], out: PassOutput,
                scratch: Path) -> Verdict:
    """Check every operation of a pass and hash its traces in order."""
    v = Verdict()
    sha = hashlib.sha256()
    for i, item in enumerate(items):
        op = f"{item.job.label} item {i}"
        if out.errors[i]:
            v.record(f"simulate {op}", [out.errors[i]])
            continue
        sim_problems = []
        if len(out.traces[i]) != item.job.replicates:
            sim_problems.append(f"{len(out.traces[i])} traces")
        for rep, trace in enumerate(out.traces[i]):
            if workload.write_traces:
                raw = Path(out.written[i][rep]).read_bytes()
            else:
                raw = _csv_bytes(dr, trace, scratch / "trace.csv")
            sha.update(raw)
            try:
                table = parse_trace(raw)
            except ValueError as exc:
                problem = [f"replicate {rep}: unparsable trace ({exc})"]
                sim_problems += problem
                if workload.write_traces:
                    v.record(f"write {op}", problem)
                    v.record(f"read {op}", ["written trace unparsable"])
                continue
            found = trace_problems(table, item.expect)
            sim_problems += [f"replicate {rep}: {p}" for p in found]
            v.quality.append(final_quality(table))
            post, same = self_pair_counts(table, item.expect.self_pairs_after)
            v.post_warmup_rounds += post
            v.self_pair_rounds += same
            if workload.write_traces:
                v.record(f"write {op}", shape_problems(table, item.expect))
                back = _csv_bytes(dr, out.readback[i][rep], scratch / "back.csv")
                v.record(f"read {op}", [] if back == raw
                         else [f"replicate {rep}: read-back differs"])
        v.record(f"simulate {op}", sim_problems)
    v.sha256 = sha.hexdigest()
    return v
