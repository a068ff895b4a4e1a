"""Tests for the brute-force oracles themselves.

The oracles validate the fast linear-algebra paths elsewhere in the
suite; here they are checked against instances whose answers are known
in closed form, and against each other for consistency.
"""

import numpy as np
import pytest

from kreinframes import KreinSpace, Subspace, WeightedFamily
from kreinframes.core import reduced_min_modulus
from kreinframes.errors import NotAFrameError
from kreinframes.fusion import optimal_bounds
from kreinframes.sampling import random_complex, rng_from_seed

from generators import random_fusion_frame, random_space
from oracles import (
    OracleConfig,
    gamma_oracle,
    projection_oracle,
    rayleigh_extremes,
)

FAST = OracleConfig(n_samples=2000, seed=0)


class TestRayleighExtremes:
    def test_within_true_bounds(self, tilted_family):
        bounds = optimal_bounds(tilted_family)
        lo, hi = rayleigh_extremes(tilted_family, 1, FAST)
        assert bounds.a_plus - 1e-9 <= lo <= hi <= bounds.b_plus + 1e-9

    def test_close_at_scale(self):
        rng = rng_from_seed(3)
        config = OracleConfig(n_samples=10000, seed=1)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(1, n))
            space = random_space(rng, n, p)
            fam = random_fusion_frame(space, rng)
            bounds = optimal_bounds(fam)
            lo, hi = rayleigh_extremes(fam, 1, config)
            scale = max(abs(bounds.a_plus), abs(bounds.b_plus))
            assert abs(lo - bounds.a_plus) < 0.05 * scale
            assert abs(hi - bounds.b_plus) < 0.05 * scale
            lo_m, hi_m = rayleigh_extremes(fam, -1, config)
            scale_m = max(abs(bounds.b_minus), abs(bounds.a_minus))
            assert abs(lo_m - bounds.b_minus) < 0.05 * scale_m
            assert abs(hi_m - bounds.a_minus) < 0.05 * scale_m

    def test_parseval_quotients_are_one(self, minkowski):
        e1 = Subspace(minkowski, [[1.0], [0.0]])
        e2 = Subspace(minkowski, [[0.0], [1.0]])
        fam = WeightedFamily(minkowski, [e1, e2], [1.0, 1.0])
        lo, hi = rayleigh_extremes(fam, 1, FAST)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)
        lo, hi = rayleigh_extremes(fam, -1, FAST)
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(-1.0, abs=1e-12)

    def test_weighted_axes_exact(self, minkowski):
        # one-dimensional spans make the quotient constant, so sampling
        # hits the exact value 4 (positive side) and -9 (negative side)
        e1 = Subspace(minkowski, [[1.0], [0.0]])
        e2 = Subspace(minkowski, [[0.0], [1.0]])
        fam = WeightedFamily(minkowski, [e1, e2], [2.0, 3.0])
        lo, hi = rayleigh_extremes(fam, 1, FAST)
        assert lo == pytest.approx(4.0, abs=1e-12)
        assert hi == pytest.approx(4.0, abs=1e-12)
        lo, hi = rayleigh_extremes(fam, -1, FAST)
        assert lo == pytest.approx(-9.0, abs=1e-12)
        assert hi == pytest.approx(-9.0, abs=1e-12)

    def test_requires_frame(self, c3):
        w = Subspace(c3, [[1.0], [0.0], [0.0]])
        fam = WeightedFamily(c3, [w], [1.0])
        with pytest.raises(NotAFrameError):
            rayleigh_extremes(fam, 1, FAST)

    def test_deterministic_per_seed(self, tilted_family):
        a = rayleigh_extremes(tilted_family, 1, OracleConfig(n_samples=500, seed=7))
        b = rayleigh_extremes(tilted_family, 1, OracleConfig(n_samples=500, seed=7))
        assert a == b

    def test_refinement_only_sharpens(self, tilted_family):
        raw = rayleigh_extremes(
            tilted_family, 1, OracleConfig(n_samples=500, seed=5, refine=False)
        )
        refined = rayleigh_extremes(
            tilted_family, 1, OracleConfig(n_samples=500, seed=5, refine=True)
        )
        assert refined[0] <= raw[0] and refined[1] >= raw[1]


class TestProjectionOracle:
    def test_axis_plane(self, c3):
        w = Subspace(c3, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(
            projection_oracle(w, [1.0, 2.0, 3.0]), [1.0, 2.0, 0.0], atol=1e-12
        )

    def test_residual_orthogonal_to_span(self, c3):
        rng = rng_from_seed(11)
        for _ in range(20):
            w = Subspace(c3, random_complex(rng, 3, 2))
            x = random_complex(rng, 3, 1).ravel()
            proj = projection_oracle(w, x)
            np.testing.assert_allclose(
                w.basis.conj().T @ (x - proj), 0.0, atol=1e-10
            )

    def test_idempotent(self, c3):
        rng = rng_from_seed(13)
        w = Subspace(c3, random_complex(rng, 3, 2))
        x = random_complex(rng, 3, 1).ravel()
        once = projection_oracle(w, x)
        np.testing.assert_allclose(projection_oracle(w, once), once, atol=1e-10)


class TestGammaOracle:
    def test_identity(self):
        assert gamma_oracle(np.eye(4), FAST) == pytest.approx(1.0, abs=1e-9)

    def test_singular_diagonal_skips_kernel(self):
        # gamma ignores the null space: for diag(3, 0, 2) it is 2, not 0
        assert gamma_oracle(np.diag([3.0, 0.0, 2.0]), FAST) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_zero_matrix(self):
        assert gamma_oracle(np.zeros((3, 3)), FAST) == 0.0

    def test_matches_svd_value_random(self):
        rng = rng_from_seed(17)
        config = OracleConfig(n_samples=4000, seed=2)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            t = random_complex(rng, m, n)
            expected = reduced_min_modulus(t)
            got = gamma_oracle(t, config)
            assert abs(got - expected) < 0.02 * expected

    def test_rectangular_tall(self):
        t = np.array([[2.0, 0.0], [0.0, 5.0], [0.0, 0.0]])
        assert gamma_oracle(t, FAST) == pytest.approx(2.0, abs=1e-9)

    def test_deterministic_per_seed(self):
        rng = rng_from_seed(19)
        t = random_complex(rng, 4, 4)
        a = gamma_oracle(t, OracleConfig(n_samples=1000, seed=3))
        b = gamma_oracle(t, OracleConfig(n_samples=1000, seed=3))
        assert a == b

    def test_accepts_operator(self, c3):
        from kreinframes import Operator

        assert gamma_oracle(Operator(c3, 2.0 * np.eye(3)), FAST) == pytest.approx(
            2.0, abs=1e-9
        )


class TestOracleConfig:
    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            OracleConfig(n_samples=0)
