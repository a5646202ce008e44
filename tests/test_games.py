"""Game construction, Hodge split, and outcome sampling."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelrank import games
from duelrank.errors import ConfigError, MatrixLoadError


def matrix_from_latent(latent):
    """Win matrix implied by explicit latent ratings."""
    latent = np.asarray(latent, dtype=float)
    p = games.sigmoid(latent[:, None] - latent[None, :])
    p = 0.5 * (p + (1.0 - p.T))
    np.fill_diagonal(p, 0.5)
    return games.WinMatrix(n=len(latent), p=p)


def assert_win_matrix_invariants(m, tol=1e-9):
    assert np.max(np.abs(m.p + m.p.T - 1.0)) <= tol
    assert np.max(np.abs(np.diag(m.p) - 0.5)) <= tol


class TestEloGame:
    def test_zero_scale_gives_coin_flips(self):
        m = games.gen_elo_game(2, 0.0, seed=3)
        np.testing.assert_allclose(m.p, 0.5)

    def test_sigma_of_two(self):
        # latent gap of 2 between first and last player
        m = matrix_from_latent([1.0, 0.0, -1.0])
        assert m.p[0][2] == pytest.approx(1.0 / (1.0 + np.exp(-2.0)))
        assert m.p[0][2] == pytest.approx(0.880797, abs=1e-6)

    @pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (40, 7)])
    def test_invariants(self, n, seed):
        assert_win_matrix_invariants(games.gen_elo_game(n, 1.0, seed))

    def test_too_small(self):
        with pytest.raises(ConfigError, match="need at least 2 players, got 1"):
            games.gen_elo_game(1, 1.0, 0)

    def test_latents_recovered_up_to_shift(self):
        m = games.gen_elo_game(12, 1.0, seed=5)
        rng = np.random.default_rng(5)
        latent = rng.uniform(-1.0, 1.0, size=12)
        tr = games.true_ratings(m)
        np.testing.assert_allclose(tr.r_star, latent - latent.mean(),
                                   atol=1e-9)


class TestNoisyEloGame:
    def test_zero_noise_matches_base(self):
        base = games.gen_elo_game(10, 1.0, seed=2)
        noisy = games.gen_noisy_elo_game(10, 1.0, 0.0, seed=2)
        np.testing.assert_allclose(noisy.p, base.p)

    def test_invariants(self):
        assert_win_matrix_invariants(games.gen_noisy_elo_game(20, 1.0, 0.05, 4))

    def test_mean_perturbation_scale(self):
        # mean |N(0, eps)| = eps * sqrt(2/pi); clipping barely bites at
        # rating_scale=1 so the empirical mean should sit near it
        base = games.gen_elo_game(100, 1.0, seed=9)
        noisy = games.gen_noisy_elo_game(100, 1.0, 0.1, seed=9)
        iu = np.triu_indices(100, k=1)
        mean_abs = np.mean(np.abs(noisy.p[iu] - base.p[iu]))
        expected = 0.1 * np.sqrt(2.0 / np.pi)
        assert mean_abs == pytest.approx(expected, rel=0.1)


class TestTriangular:
    def test_two_players(self):
        m = games.gen_triangular(2)
        np.testing.assert_allclose(m.p, [[0.5, 1.0], [0.0, 0.5]])

    def test_best_is_player_zero(self):
        assert games.true_ratings(games.gen_triangular(3)).best == 0

    def test_deterministic_outcomes(self):
        m = games.gen_triangular(6)
        rng = np.random.default_rng(0)
        assert all(games.sample_outcome(m, 1, 4, rng) == 1 for _ in range(50))

    def test_too_small(self):
        with pytest.raises(ConfigError, match="need at least 2 players, got 1"):
            games.gen_triangular(1)


class TestCyclic:
    def test_zero_divergence(self):
        tr = games.true_ratings(games.gen_cyclic(3))
        np.testing.assert_allclose(tr.r_star, 0.0, atol=1e-12)

    def test_rot_equals_logits(self):
        m = games.gen_cyclic(3)
        tr = games.true_ratings(m)
        a = games.logit_matrix(m)
        np.testing.assert_allclose(tr.rot, a, atol=1e-12)

    def test_invariants(self):
        assert_win_matrix_invariants(games.gen_cyclic(5))

    def test_too_small(self):
        with pytest.raises(ConfigError,
                           match="cyclic game needs at least 3 players, got 2"):
            games.gen_cyclic(2)


class TestFixedGames:
    """``triangular_rev`` and ``cyclic_dominant``: fixed games whose best
    player is the last one, n - 1."""

    @pytest.mark.parametrize("n", [4, 6, 20])
    @pytest.mark.parametrize("game", ["triangular_rev", "cyclic_dominant"])
    def test_best_is_last(self, game, n):
        matrix = getattr(games, f"gen_{game}")(n)
        assert_win_matrix_invariants(matrix)
        truth = games.true_ratings(matrix)
        assert truth.best == n - 1
        if game == "triangular_rev":  # higher index always wins
            i, j = np.indices((n, n))
            np.testing.assert_array_equal(
                matrix.p, np.where(i > j, 1.0, np.where(i < j, 0.0, 0.5)))
        else:  # every ring player trails the dominant one by logit(0.8)
            np.testing.assert_allclose(truth.r_star[-1] - truth.r_star[:-1],
                                       np.log(4.0), rtol=1e-12)

    def test_cyclic_dominant_is_acceptance_test_7_game(self, tmp_path):
        from test_acceptance import _cyclic_plus_dominant
        test_7 = np.loadtxt(_cyclic_plus_dominant(tmp_path), delimiter=",")
        np.testing.assert_array_equal(games.gen_cyclic_dominant(6).p, test_7)

    def test_cyclic_dominant_too_small(self):
        with pytest.raises(
                ConfigError,
                match="cyclic_dominant game needs at least 4 players, got 3"):
            games.gen_cyclic_dominant(3)


class TestLoadMatrix:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,0.7\n0.3,0.5\n")
        m = games.load_matrix(path)
        assert m.n == 2
        assert m.p[0][1] == 0.7

    def test_non_square(self, tmp_path):
        # an empty file and a 1x1 file hold no game either, and the empty
        # one must not warn
        path = tmp_path / "m.csv"
        for text, shape in [("0.5,0.7,0.1\n0.3,0.5,0.2\n", "2x3"), ("", "0x1"),
                            ("0.5\n", "1x1; need at least 2 players")]:
            path.write_text(text)
            with pytest.raises(MatrixLoadError,
                               match=rf"matrix in .* is {re.escape(shape)}$"):
                games.load_matrix(path)

    def test_antisymmetry_violation(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,0.7\n0.4,0.5\n")
        with pytest.raises(MatrixLoadError, match=re.escape(
                "p[i][j] + p[j][i] != 1 beyond tolerance")):
            games.load_matrix(path)

    def test_bad_diagonal(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.6,0.7\n0.3,0.4\n")
        with pytest.raises(MatrixLoadError,
                           match="diagonal entries must equal 0.5"):
            games.load_matrix(path)

    @pytest.mark.parametrize("text", ["0.5,nan\nnan,0.5\n",
                                      "0.5,1.5\n-0.5,0.5\n"])
    def test_entry_outside_unit_interval(self, tmp_path, text):
        # NaN fails every comparison, so it must not slip past the checks
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(MatrixLoadError, match=re.escape(
                f"matrix in {path}: entries must lie in [0, 1]")):
            games.load_matrix(path)

    @pytest.mark.parametrize("p", [[[0.5, np.nan], [np.nan, 0.5]],
                                   [[0.5, 1.5], [-0.5, 0.5]]])
    def test_constructor_rejects_entry_outside_unit_interval(self, p):
        # no file, so no "matrix in <path>: " prefix
        with pytest.raises(MatrixLoadError, match="^" + re.escape(
                "entries must lie in [0, 1]")):
            games.WinMatrix(n=2, p=np.array(p))

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,banana\n0.3,0.5\n")
        with pytest.raises(MatrixLoadError, match="^cannot parse "):
            games.load_matrix(path)


def random_win_matrix(n, seed):
    """Win matrix from a random antisymmetric logit matrix."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n, n))
    a = a - a.T
    p = games.sigmoid(a)
    p = 0.5 * (p + (1.0 - p.T))
    np.fill_diagonal(p, 0.5)
    return games.WinMatrix(n=n, p=p)


class TestTrueRatings:
    def test_elo_latent_exact(self):
        tr = games.true_ratings(matrix_from_latent([1.0, 0.0, -1.0]))
        np.testing.assert_allclose(tr.r_star, [1.0, 0.0, -1.0], atol=1e-9)
        np.testing.assert_allclose(tr.rot, 0.0, atol=1e-9)
        assert tr.best == 0

    @pytest.mark.parametrize("n,seed", [(3, 0), (8, 1), (30, 2)])
    def test_hodge_identity(self, n, seed):
        m = random_win_matrix(n, seed)
        a = games.logit_matrix(m)
        tr = games.true_ratings(m)
        grad = tr.r_star[:, None] - tr.r_star[None, :]
        np.testing.assert_allclose(grad + tr.rot, a, atol=1e-9)
        np.testing.assert_allclose(tr.rot, -tr.rot.T, atol=1e-9)
        np.testing.assert_allclose(tr.rot.mean(axis=1), 0.0, atol=1e-9)
        assert abs(tr.r_star.sum()) <= 1e-9

    @given(shift=st.floats(-5.0, 5.0), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_argmax_invariant_to_latent_shift(self, shift, seed):
        rng = np.random.default_rng(seed)
        latent = rng.uniform(-1.0, 1.0, size=6)
        best_a = games.true_ratings(matrix_from_latent(latent)).best
        best_b = games.true_ratings(matrix_from_latent(latent + shift)).best
        assert best_a == best_b


class TestSampleOutcome:
    def test_sure_win_and_loss(self):
        m = games.gen_triangular(4)
        rng = np.random.default_rng(0)
        assert all(games.sample_outcome(m, 0, 3, rng) == 1 for _ in range(20))
        assert all(games.sample_outcome(m, 3, 0, rng) == 0 for _ in range(20))

    def test_fair_coin_mean(self):
        m = games.gen_elo_game(2, 0.0, seed=0)
        rng = np.random.default_rng(123)
        draws = [games.sample_outcome(m, 0, 1, rng) for _ in range(100_000)]
        assert np.mean(draws) == pytest.approx(0.5, abs=0.01)

    def test_index_out_of_range(self):
        m = games.gen_triangular(3)
        with pytest.raises(IndexError):
            games.sample_outcome(m, 0, 3, np.random.default_rng(0))
