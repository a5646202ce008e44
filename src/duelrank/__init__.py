"""Sample-efficient online match scheduling for Elo and mElo ratings."""

from .games import (
    WinMatrix,
    TrueRatings,
    gen_cyclic,
    gen_cyclic_dominant,
    gen_elo_game,
    gen_noisy_elo_game,
    gen_triangular,
    gen_triangular_rev,
    load_matrix,
    sample_outcome,
    true_ratings,
)
from .config import RunConfig, parse_config
from .harness import simulate, sweep
from .metrics import hit_ratio_at_k, instant_regret, ndcg_at_k, reciprocal_rank
from .ratings import (
    RatingState,
    elo_loss,
    mle_fit,
    predict_elo,
    predict_melo,
    project,
    sgd_step_elo,
    sgd_step_melo,
)
from .schedulers import MatchEnv, make_scheduler
from .tracker import DesignTracker

__version__ = "0.1.0"

__all__ = [
    "WinMatrix", "TrueRatings", "gen_cyclic", "gen_cyclic_dominant",
    "gen_elo_game", "gen_noisy_elo_game", "gen_triangular",
    "gen_triangular_rev", "load_matrix", "sample_outcome", "true_ratings",
    "RunConfig", "parse_config", "simulate", "sweep",
    "hit_ratio_at_k", "instant_regret", "ndcg_at_k", "reciprocal_rank",
    "RatingState", "elo_loss", "mle_fit", "predict_elo", "predict_melo",
    "project", "sgd_step_elo", "sgd_step_melo", "MatchEnv",
    "make_scheduler", "DesignTracker",
]
