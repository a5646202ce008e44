"""Output checks on trace CSV bytes, independent of duelrank's own reader.

A trace is checked in the form ``harness.write_trace_csv`` gives it, the
form whose bytes the determinism contract fixes, so the checks hold
whatever in-memory representation the program uses for traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCORE_SLACK = 1e-12
BASE_COLUMNS = ["t", "x", "y", "outcome", "instant_regret", "cum_regret", "rr"]


def expected_header(ks) -> list[str]:
    return (BASE_COLUMNS + [f"hr@{k}" for k in ks]
            + [f"ndcg@{k}" for k in ks])


@dataclass
class Table:
    header: list[str]
    data: np.ndarray    # rows x columns, float64

    def col(self, name: str) -> np.ndarray:
        return self.data[:, self.header.index(name)]


def parse_trace(raw: bytes) -> Table:
    """Parse trace CSV bytes; raises ValueError on a malformed table."""
    lines = raw.decode("utf-8").splitlines()
    if not lines:
        raise ValueError("empty trace")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged trace rows")
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return Table(header=header, data=data)


@dataclass(frozen=True)
class Expect:
    """What one replicate's trace must satisfy."""

    T: int
    n: int
    ks: tuple[int, ...]
    r_star: np.ndarray      # true ratings from games.true_ratings
    best: int
    self_pairs_after: int | None   # rounds after which x == y is allowed


def shape_problems(table: Table, ex: Expect) -> list[str]:
    """Wrong columns or row count."""
    if table.header != expected_header(ex.ks):
        return [f"header {table.header}"]
    if table.data.shape[0] != ex.T:
        return [f"{table.data.shape[0]} rows, expected {ex.T}"]
    return []


def trace_problems(table: Table, ex: Expect) -> list[str]:
    """Every way the trace breaks its contract; empty when it is correct."""
    out = shape_problems(table, ex)
    if out:
        return out
    t, x, y = table.col("t"), table.col("x"), table.col("y")
    if not np.array_equal(t, np.arange(1, ex.T + 1)):
        out.append("round numbers are not 1..T")
    if (np.any(x != np.floor(x)) or np.any(y != np.floor(y))
            or x.min() < 0 or y.max() >= ex.n):
        out.append("pair index out of range")
        return out
    ordered = x < y
    if ex.self_pairs_after is not None:
        ordered |= (x == y) & (t > ex.self_pairs_after)
    if not ordered.all():
        out.append(f"pair not x<y at round {int(t[~ordered][0])}")
    o = table.col("outcome")
    if not np.isin(o, (0.0, 1.0)).all():
        out.append("outcome not 0/1")
    xi, yi = x.astype(int), y.astype(int)
    regret = ex.r_star[ex.best] - 0.5 * (ex.r_star[xi] + ex.r_star[yi])
    inst = table.col("instant_regret")
    if not np.allclose(inst, regret, rtol=0.0, atol=1e-12):
        out.append("instant_regret differs from true-rating recompute")
    if not np.allclose(table.col("cum_regret"), np.cumsum(inst),
                       rtol=1e-12, atol=1e-12):
        out.append("cum_regret is not the running sum")
    # NDCG of a perfect ranking can read one ulp above 1 (its DCG and its
    # normaliser are summed in different orders), hence the slack.
    scores = table.data[:, len(BASE_COLUMNS) - 1:]
    if not ((scores >= 0.0) & (scores <= 1.0 + SCORE_SLACK)).all():
        out.append("rr/hr/ndcg outside [0, 1]")
    return out


def final_quality(table: Table) -> tuple[float, float, float]:
    """Last row's cum_regret, rr and NDCG at the largest cutoff."""
    last = table.data[-1]
    ndcg_cols = [i for i, c in enumerate(table.header) if c.startswith("ndcg@")]
    ndcg = last[max(ndcg_cols, key=lambda i: int(table.header[i][5:]))]
    return (float(last[table.header.index("cum_regret")]),
            float(last[table.header.index("rr")]), float(ndcg))


def self_pair_counts(table: Table, after: int | None) -> tuple[int, int]:
    """(post-warmup rounds, of which x == y)."""
    t = table.col("t")
    post = t > (after or 0)
    same = post & (table.col("x") == table.col("y"))
    return int(post.sum()), int(same.sum())
