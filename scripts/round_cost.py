#!/usr/bin/env python3
"""In-process cost per simulated round of two source checkouts.

Example:
    python3 scripts/round_cost.py --base /path/to/parent --change .

For each algorithm and size it runs ``harness.simulate`` on one seeded
config (``--seed``, a fixed ``--gamma``) once per fresh process, base
first on the 1st, 3rd, ... repeat and change first on the others, and
keeps each side's best µs per round over ``--repeats`` processes: the
ROADMAP's north-star unit, with no benchmark tracer in the loop. The
default cases are ``maxin_elo``, ``maxin_melo`` and ``random`` at n = 20
and n = 100 with T = 5000, and at n = 500 with T = 1000 and ks = (1, 4,
10).

One more change-side run per case, after its timed run and in the same
process, wraps ``DesignTracker.update`` to count its calls and the share
whose vu = V^{-1}(e_x - e_y) had at most n/2 nonzeros (the updates that
write vu's rows only); it prints ``-`` for an algorithm without a
tracker. The wrapper lives here, not in ``src/``, and never runs in a
timed simulation.

Each side's ``src/`` is copied first, as ``ab_bench.copy_checkout``
copies it, and every process imports ``duelrank`` from its side's copy.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab_bench  # noqa: E402

ALGOS = "maxin_elo,maxin_melo,random"
SIZES = "20:5000,100:5000,500:1000:1/4/10"


def parse_sizes(text: str) -> list[tuple[int, int, tuple[int, ...]]]:
    """'20:5000,500:1000:1/4/10' -> [(20, 5000, ()), (500, 1000, (1, 4,
    10))]: n, T and the metric cutoffs ks of each case; as ``--sizes``'
    type, anything else is a usage error (exit 2)."""
    cases = []
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) not in (2, 3):
            raise argparse.ArgumentTypeError(f"bad size {part!r}: want N:T "
                                             "or N:T:K1/K2/...")
        ks = fields[2].split("/") if len(fields) == 3 else []
        try:
            cases.append((int(fields[0]), int(fields[1]),
                          tuple(int(k) for k in ks)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad size {part!r}") from exc
    return cases


def measure(algo: str, n: int, T: int, ks: tuple[int, ...], seed: int,
            gamma: float, count: bool) -> dict:
    """One timed ``harness.simulate`` of the case, in µs per round, and
    with ``count`` the tracker's update calls and how many of them had at
    most n/2 nonzeros in vu, from a second, untimed run. Runs in a child
    process that imports ``duelrank`` from one side's copy."""
    import numpy as np

    from duelrank import harness
    from duelrank.config import RunConfig
    from duelrank.tracker import DesignTracker

    cfg = RunConfig(algo=algo, n=n, T=T, ks=tuple(ks), seed=seed,
                    gamma=gamma)
    start = time.perf_counter()
    harness.simulate(cfg)
    out = {"us_per_round": 1e6 * (time.perf_counter() - start) / T}
    if count:
        calls = {"updates": 0, "sparse": 0}
        update = DesignTracker.update

        def counted(self, x, y):
            vi = self.v_inv
            calls["updates"] += 1
            calls["sparse"] += int(2 * np.count_nonzero(vi[x] - vi[y]) <= n)
            update(self, x, y)

        DesignTracker.update = counted
        try:
            harness.simulate(cfg)
        finally:
            DesignTracker.update = update
        out.update(calls)
    return out


def run_child(copy: Path, case: dict, count: bool) -> dict:
    """``measure`` in a fresh interpreter on the side's copy."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(copy / "src")}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         json.dumps({**case, "count": count})],
        cwd=copy, capture_output=True, text=True, check=False, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{copy} {case}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout)


def format_row(row: dict) -> str:
    case = f"{row['algo']} n={row['n']} T={row['T']}"
    if row["ks"]:
        case += f" ks={','.join(map(str, row['ks']))}"
    base, change = row["base_us_per_round"], row["change_us_per_round"]
    share = (f"{row['sparse']}/{row['updates']} updates "
             f"({row['sparse_share']:.1%}) with |k| <= n/2"
             if row["updates"] else "-")
    return (f"{case:34s} base {base:9.2f}  change {change:9.2f} us/round  "
            f"x{change / base:.3f}  {share}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path)
    ap.add_argument("--change", type=Path, default=Path("."))
    ap.add_argument("--algos", default=ALGOS,
                    help=f"comma-separated (default: {ALGOS})")
    ap.add_argument("--sizes", type=parse_sizes, default=parse_sizes(SIZES),
                    help=f"N:T or N:T:K1/K2/..., comma-separated "
                    f"(default: {SIZES})")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--gamma", type=float, default=1.8)
    ap.add_argument("--repeats", type=int, default=3,
                    help="fresh processes per side and case; the best counts")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(**json.loads(args.child))))
        return 0
    if args.base is None:
        ap.error("--base is required")
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    rows = []
    with tempfile.TemporaryDirectory() as parent:
        copies = {side: ab_bench.copy_checkout(getattr(args, side),
                                               Path(parent) / name)
                  for side, name in (("base", "a"), ("change", "b"))}
        for algo in args.algos.split(","):
            for n, T, ks in args.sizes:
                case = {"algo": algo, "n": n, "T": T, "ks": list(ks),
                        "seed": args.seed, "gamma": args.gamma}
                best = {"base": float("inf"), "change": float("inf")}
                for i in range(args.repeats):
                    order = ("base", "change") if i % 2 == 0 else (
                        "change", "base")
                    for side in order:
                        res = run_child(copies[side], case,
                                        count=side == "change" and i == 0)
                        best[side] = min(best[side], res["us_per_round"])
                        if "updates" in res:
                            counted = res
                updates = counted["updates"]
                row = {**case, "base_us_per_round": best["base"],
                       "change_us_per_round": best["change"],
                       "updates": updates, "sparse": counted["sparse"],
                       "sparse_share": (counted["sparse"] / updates
                                        if updates else None)}
                rows.append(row)
                print(format_row(row), flush=True)
    print(json.dumps({"repeats": args.repeats, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
