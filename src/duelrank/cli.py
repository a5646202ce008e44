"""Command-line surface: gen / run / sweep / report subcommands."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness
from .config import RunConfig, _convert, _field_types, parse_config
from .errors import ConfigError, DuelRankError


def add_config_flags(p: argparse.ArgumentParser, sweep=False) -> None:
    """``--<field>`` for every RunConfig field, kept as text for
    parse_config to convert; with ``sweep``, ``--grid`` and ``--workers``."""
    p.add_argument("--config", help="key=value config file ('#' comments)")
    for key in _field_types():
        p.add_argument("--" + key.replace("_", "-"), dest=key)
    if sweep:
        p.add_argument("--grid", action="append", default=[],
                       metavar="KEY=V1,V2,...",
                       help="sweep values for one config key (repeatable)")
        p.add_argument("--workers", default="1", help="worker processes")


def _overrides(args: argparse.Namespace) -> dict:
    return {k: getattr(args, k) for k in _field_types()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duelrank",
        description="Online match scheduling for Elo/mElo rating estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write the matrix CSV that run plays")
    add_config_flags(p_gen)

    p_run = sub.add_parser("run", help="simulate one configuration")
    add_config_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="grid of configurations")
    add_config_flags(p_sweep, sweep=True)

    p_rep = sub.add_parser("report", help="summarize existing trace CSVs")
    p_rep.add_argument("--traces", nargs="+", required=True)
    p_rep.add_argument("--out", help="summary JSON path (default: stdout)")
    return parser


def cmd_gen(args) -> int:
    """Write the matrix `run` plays with the same flags, as CSV."""
    cfg = parse_config(args.config, _overrides(args))
    m = harness.build_matrix(cfg)
    np.savetxt(cfg.out or sys.stdout, m.p, delimiter=",", fmt="%.17g")
    return 0


def cmd_run(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    traces, summary = harness.simulate(cfg)
    if cfg.out:
        harness.report(traces, summary, cfg.out)
    else:
        harness.write_json(summary)
    return 0


def _parse_grid(specs: list[str], field_types: dict) -> dict:
    grid: dict[str, list] = {}
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"bad --grid spec: {spec!r}", key="grid")
        key, raw = spec.split("=", 1)
        typ = field_types.get(key)
        if typ is None:
            raise ConfigError(f"unknown sweep key: {key}", key=key)
        grid[key] = [_convert(key, v, typ)
                     for v in raw.split(",") if v.strip()]
    return grid


def sweep_args(args) -> tuple[RunConfig, dict, int]:
    """``sweep``'s template, grid and workers, or a ConfigError: for a bad
    value, a flag whose key also has an axis, or the first grid point
    that does not validate. The template is validated only as a point."""
    cfg = parse_config(args.config, _overrides(args), validate=False)
    grid = _parse_grid(args.grid, _field_types())
    for key, values in grid.items():
        if values and getattr(args, key) is not None:
            raise ConfigError(f"{key} is a --grid axis; give one value as "
                              f"--grid {key}=VALUE", key=key)
    workers = _convert("workers", args.workers, int)
    if workers < 1:
        raise ConfigError("workers must be at least 1", key="workers")
    for point, point_cfg in harness.grid_points(cfg, grid):
        try:
            point_cfg.resolve()
        except ConfigError as exc:
            if not point:
                raise
            where = ", ".join(f"{k}={v}" for k, v in point.items())
            raise ConfigError(f"grid point {where}: {exc}",
                              key=exc.key) from exc
    return cfg, grid, workers


def cmd_sweep(args) -> int:
    cfg, grid, workers = sweep_args(args)
    results = harness.sweep(cfg, grid, workers)
    harness.write_json(results, f"{cfg.out}.sweep.json" if cfg.out else None)
    return 0


def cmd_report(args) -> int:
    """Rebuild the run summary, in `run`'s JSON shape, from trace CSVs."""
    traces = []
    for path in args.traces:
        try:
            traces.append(harness.read_trace_csv(path))
        except ValueError as exc:  # a malformed file, not a program fault
            raise DuelRankError(f"{path}: {exc}") from exc
    summary = harness.summarize(traces)
    harness.write_json(summary, args.out or None)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return {"gen": cmd_gen, "run": cmd_run, "sweep": cmd_sweep,
                "report": cmd_report}[args.command](args)
    except (DuelRankError, OSError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        key = getattr(exc, "key", None)
        if key:
            err["key"] = key
        sys.stderr.write(json.dumps(err) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
