"""Run configuration: every setting of a simulation, declared once.

``RunConfig`` is read from a key=value file plus overrides by
``parse_config``; the CLI offers one ``--<field>`` flag per field.
``resolve`` validates a config and fills its n-dependent defaults.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass

from .errors import ConfigError

ALGORITHMS = ("maxin_elo", "maxin_melo", "random", "rg_ucb", "dbgd", "maxinp")
BASELINES = ("random", "rg_ucb", "dbgd")  # no warmup; mElo by the melo flag

PRNG_NAME = "numpy-pcg64"


@dataclass
class RunConfig:
    """Flat configuration of one simulation (or a replicate set)."""

    algo: str = "maxin_elo"
    game: str = "elo"            # elo | noisy_elo | triangular | cyclic
    n: int = 20
    rating_scale: float = 1.0
    noise: float = 0.0
    matrix: str | None = None    # CSV path; overrides the generator
    T: int = 5000
    tau: int | None = None       # warmup rounds; defaults to round(0.7 * n)
    gamma: float = 1.0
    gamma_mode: str = "fixed"    # fixed | theoretical
    alpha: float | None = None   # defaults to tau
    eta0: float = 1.0
    k: int = 4                   # mElo half-dimension (2k features)
    melo: bool = False           # baselines' flag; resolved: run learns mElo
    delta: float = 0.2           # RG-UCB stopping confidence
    lambda_ridge: float = 1.0
    ridge: float = 1e-4          # MLE regularization
    c1: float = 0.25             # link-derivative bound for gamma schedule
    clip_eps: float = 1e-3
    seed: int = 0
    matrix_seed: int | None = None    # defaults to seed
    replicates: int = 1
    ks: tuple[int, ...] = ()          # HR@k / NDCG@k cutoffs
    out: str | None = None
    workers: int = 1

    def digest(self) -> str:
        """Identity of the experiment: every field but the output path and
        the worker count, which do not change what is computed."""
        items = []
        for f in dataclasses.fields(self):
            if f.name in ("out", "workers"):
                continue
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            items.append(f"{f.name}={v}")
        return ";".join(items) + f";prng={PRNG_NAME}"

    def resolve(self) -> RunConfig:
        """Validate; return a copy with tau, alpha and the run's melo set."""
        for key, v in vars(self).items():
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{key} must be finite", key=key)
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1", key="replicates")
        if self.n < 2:
            raise ConfigError("n must be at least 2", key="n")
        if self.T < 2:
            raise ConfigError("T must be at least 2", key="T")
        for k in self.ks:
            if not 1 <= k <= self.n:
                raise ConfigError(f"metric cutoff k={k} outside [1, n]", key="ks")
        for key in ("seed", "matrix_seed"):
            if (getattr(self, key) or 0) < 0:
                raise ConfigError(f"{key} must be non-negative", key=key)
        if self.algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm: {self.algo}", key="algo")
        tau = self.tau if self.tau is not None else max(1, round(0.7 * self.n))
        alpha = self.alpha if self.alpha is not None else float(tau)
        baseline = self.algo in BASELINES
        melo = self.algo == "maxin_melo" or (baseline and self.melo)
        cfg = dataclasses.replace(self, tau=tau, alpha=alpha, melo=melo)
        if cfg.tau < 1:
            raise ConfigError("tau must be at least 1", key="tau")
        if cfg.tau >= cfg.T and not baseline:
            raise ConfigError("warmup tau must be smaller than horizon T",
                              key="tau")
        if cfg.gamma_mode == "fixed" and cfg.gamma <= 0:
            raise ConfigError("gamma must be positive", key="gamma")
        if cfg.gamma_mode not in ("fixed", "theoretical"):
            raise ConfigError(f"unknown gamma_mode: {cfg.gamma_mode}",
                              key="gamma_mode")
        if not 0 < cfg.delta < 1:
            raise ConfigError("delta must lie in (0, 1)", key="delta")
        if not 0 < cfg.c1 <= 0.25:
            raise ConfigError("c1 must lie in (0, 0.25]", key="c1")
        if cfg.eta0 <= 0:
            raise ConfigError("eta0 must be positive", key="eta0")
        if cfg.alpha <= 0:
            raise ConfigError("alpha must be positive", key="alpha")
        if cfg.k < 0:
            raise ConfigError("k must be non-negative", key="k")
        if cfg.k < 1 and cfg.melo:
            raise ConfigError(f"mElo {cfg.algo} needs k >= 1", key="k")
        if cfg.lambda_ridge <= 0:
            raise ConfigError("lambda_ridge must be positive", key="lambda_ridge")
        if cfg.ridge <= 0:
            raise ConfigError("ridge must be positive", key="ridge")
        if cfg.rating_scale < 0:
            raise ConfigError("rating_scale must be non-negative", key="rating_scale")
        if cfg.noise < 0:
            raise ConfigError("noise must be non-negative", key="noise")
        if not 0 < cfg.clip_eps < 0.5:
            raise ConfigError("clip_eps must lie in (0, 0.5)", key="clip_eps")
        return cfg


_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def _convert(key: str, raw: str, target_type):
    try:
        if target_type is bool:
            return _BOOL_VALUES[raw.strip().lower()]
        if target_type is tuple:
            return tuple(int(x) for x in raw.split(",") if x.strip())
        return target_type(raw)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}", key=key) from exc


def _field_types() -> dict:
    """The type each RunConfig field's text converts to: X for ``X | None``,
    otherwise the bare annotation (``tuple`` for ``tuple[int, ...]``)."""
    types = {}
    for name, t in typing.get_type_hints(RunConfig).items():
        args = typing.get_args(t)
        if type(None) in args:
            t = next(a for a in args if a is not type(None))
        types[name] = typing.get_origin(t) or t
    return types


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from a key=value file plus overrides.

    Unknown keys are rejected; overrides win over file values, and None
    overrides are ignored. The result is validated but not resolved.
    """
    types = _field_types()
    values: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
                key, raw = (s.strip() for s in line.split("=", 1))
                if key not in types:
                    raise ConfigError(f"unknown config key: {key}", key=key)
                values[key] = _convert(key, raw, types[key])
    for key, v in (overrides or {}).items():
        if key not in types:
            raise ConfigError(f"unknown config key: {key}", key=key)
        if v is None:
            continue
        values[key] = _convert(key, str(v), types[key]) if isinstance(v, str) else v
    cfg = RunConfig(**values)
    cfg.resolve()
    return cfg
