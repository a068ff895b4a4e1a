"""Tests for weighted families, frame certification and bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinframes import fusion
from kreinframes import (
    FrameBounds,
    KreinSpace,
    MemberClassificationError,
    NotAFrameError,
    NotSurjectiveError,
    Subspace,
    Tolerances,
    VectorFrame,
    WeightError,
    WeightedFamily,
    analysis_operator,
    bounds_sandwich_ok,
    certify,
    coefficient_symmetry,
    converse_check,
    definite_span,
    estimate_bounds,
    frame_operator,
    frame_operator_part,
    gramian_min_modulus,
    indefinite_product,
    j_image_family,
    optimal_bounds,
    reduced_min_modulus,
    synthesis_operator,
    synthesis_part,
    vframe_optimal_bounds,
)
from kreinframes.sampling import (
    random_complex,
    random_maximal_definite_subspace,
    rng_from_seed,
)

from generators import random_fusion_frame, random_space
from oracles import OracleConfig, rayleigh_extremes


def axis_family(space, weights=(1.0, 1.0)):
    w1 = Subspace(space, [[1.0], [0.0]])
    w2 = Subspace(space, [[0.0], [1.0]])
    return WeightedFamily(space, [w1, w2], list(weights))


def parseval_family(space):
    subspaces = [Subspace(space, np.eye(space.dim)[:, [i]]) for i in range(space.dim)]
    return WeightedFamily(space, subspaces, [1.0] * space.dim)


class TestBuildFamily:
    def test_axis_partition(self, minkowski):
        fam = axis_family(minkowski)
        assert fam.signs == [1, -1]
        assert fam.plus_indices == [0]
        assert fam.minus_indices == [1]

    def test_neutral_member_rejected(self, minkowski):
        neutral = Subspace(minkowski, [[1.0], [1.0]])
        with pytest.raises(MemberClassificationError) as err:
            WeightedFamily(minkowski, [neutral], [1.0])
        assert err.value.index == 0

    def test_indefinite_member_rejected(self, c3):
        w = Subspace(c3, np.eye(3)[:, [0, 2]])
        with pytest.raises(MemberClassificationError):
            WeightedFamily(c3, [w], [1.0])

    def test_tilted_family_partition(self, tilted_family):
        assert tilted_family.signs == [1, 1, -1]

    def test_weight_validation(self, minkowski):
        w1 = Subspace(minkowski, [[1.0], [0.0]])
        with pytest.raises(WeightError):
            WeightedFamily(minkowski, [w1], [-1.0])
        with pytest.raises(WeightError):
            WeightedFamily(minkowski, [w1], [1.0, 2.0])
        with pytest.raises(WeightError):
            WeightedFamily(minkowski, [], [])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, minkowski, weight):
        w1 = Subspace(minkowski, [[1.0], [0.0]])
        with pytest.raises(WeightError, match="positive and finite"):
            WeightedFamily(minkowski, [w1], [weight])


class TestCoefficientSpace:
    def test_symmetry_is_involution(self, tilted_family):
        j2 = coefficient_symmetry(tilted_family)
        np.testing.assert_allclose(j2 @ j2, np.eye(tilted_family.total_dim))
        np.testing.assert_allclose(np.diag(j2), [1.0, 1.0, -1.0])

    def test_single_member_synthesis(self, minkowski):
        w = Subspace(minkowski, [[1.0], [0.0]])
        fam = WeightedFamily(minkowski, [w], [2.0])
        np.testing.assert_allclose(synthesis_operator(fam), [[2.0], [0.0]])

    def test_signed_ranges(self, tilted_family):
        t_plus = synthesis_part(tilted_family, 1)
        t_minus = synthesis_part(tilted_family, -1)
        m_plus = definite_span(tilted_family, 1)
        for col in t_plus.T:
            if np.linalg.norm(col) > 0:
                assert m_plus.contains(col)
        assert np.linalg.matrix_rank(t_minus) == 1

    def test_synthesis_rank_is_joint_span_dim(self):
        rng = rng_from_seed(20)
        space = random_space(rng, 5)
        fam = random_fusion_frame(space, rng)
        t = synthesis_operator(fam)
        spans = [s for s in (definite_span(fam, 1), definite_span(fam, -1)) if s]
        stacked = np.hstack([s.ortho_basis for s in spans])
        assert np.linalg.matrix_rank(t) == np.linalg.matrix_rank(stacked)

    def test_analysis_is_adjoint_between_forms(self):
        rng = rng_from_seed(21)
        space = random_space(rng, 5)
        fam = random_fusion_frame(space, rng)
        t = synthesis_operator(fam)
        t_sharp = analysis_operator(fam)
        j2 = coefficient_symmetry(fam)
        for _ in range(20):
            c = random_complex(rng, fam.total_dim)
            f = random_complex(rng, space.dim)
            lhs = np.vdot(f, space.J @ (t @ c))  # [Tc, f]
            rhs = np.vdot(t_sharp @ f, j2 @ c)  # [c, T# f]_{J2}
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))

    def test_hilbert_analysis_is_hermitian_adjoint(self, hilbert3):
        fam = parseval_family(hilbert3)
        np.testing.assert_allclose(
            analysis_operator(fam), synthesis_operator(fam).conj().T
        )


class TestFrameOperator:
    def test_parseval_identity(self, hilbert3):
        fam = parseval_family(hilbert3)
        np.testing.assert_allclose(frame_operator(fam).matrix, np.eye(3), atol=1e-12)

    def test_factorization(self):
        rng = rng_from_seed(22)
        for _ in range(5):
            space = random_space(rng, int(rng.integers(2, 7)))
            fam = random_fusion_frame(space, rng)
            s = frame_operator(fam).matrix
            tt = synthesis_operator(fam) @ analysis_operator(fam)
            np.testing.assert_allclose(s, tt, atol=1e-9)

    def test_j_selfadjoint(self):
        rng = rng_from_seed(23)
        space = random_space(rng, 5)
        fam = random_fusion_frame(space, rng)
        s = frame_operator(fam)
        np.testing.assert_allclose(s.j_adjoint().matrix, s.matrix, atol=1e-9)

    def test_parts_are_j_positive(self):
        rng = rng_from_seed(24)
        space = random_space(rng, 5)
        fam = random_fusion_frame(space, rng)
        for sign in (1, -1):
            part = frame_operator_part(fam, sign).matrix
            for _ in range(20):
                f = random_complex(rng, 5)
                val = indefinite_product(space, part @ f, f)
                assert val.real > -1e-9
                assert abs(val.imag) < 1e-9

    def test_tilted_family_operator_invertible(self, tilted_family):
        s = frame_operator(tilted_family).matrix
        assert abs(np.linalg.det(s)) > 1e-6


class TestCertify:
    def test_axis_frame(self, minkowski):
        cert = certify(axis_family(minkowski))
        assert cert.is_frame
        assert cert.positive_maximal and cert.negative_maximal

    def test_missing_side(self, minkowski):
        w1 = Subspace(minkowski, [[1.0], [0.0]])
        cert = certify(WeightedFamily(minkowski, [w1], [1.0]))
        assert not cert.is_frame
        assert cert.negative_range_dim == 0
        assert any(w.get("reason") == "dimension deficit" for w in cert.witnesses)

    def test_tilted_family_is_frame(self, tilted_family):
        cert = certify(tilted_family)
        assert cert.is_frame
        assert cert.positive_range_dim == 2
        assert cert.negative_range_dim == 1

    def test_degenerate_span_witness(self, c3):
        # two positive lines whose span contains a neutral direction
        w1 = Subspace(c3, [[1.0], [0.0], [0.0]])
        w2 = Subspace(c3, [[1.0], [0.0], [0.9]])
        w3 = Subspace(c3, [[0.0], [0.0], [1.0]])
        fam = WeightedFamily(c3, [w1, w2, w3], [1.0, 1.0, 1.0])
        cert = certify(fam)
        assert not cert.is_frame
        vec_witnesses = [w for w in cert.witnesses if "vector" in w]
        assert vec_witnesses
        v = np.asarray(vec_witnesses[0]["vector"])
        # the witness violates positivity of the positive span
        assert indefinite_product(c3, v, v).real <= 1e-9

    def test_permutation_invariance(self, tilted_family, c3):
        perm = WeightedFamily(
            c3,
            [tilted_family.subspaces[i] for i in (2, 0, 1)],
            [tilted_family.weights[i] for i in (2, 0, 1)],
        )
        a, b = certify(tilted_family), certify(perm)
        assert a.is_frame == b.is_frame
        np.testing.assert_allclose(
            a.optimal_bounds.as_tuple(), b.optimal_bounds.as_tuple(), rtol=1e-9
        )

    def test_basis_change_invariance(self, c3, tilted_family):
        rescaled = WeightedFamily(
            c3,
            [Subspace(c3, w.basis * (2.0 - 1.0j)) for w in tilted_family.subspaces],
            tilted_family.weights,
        )
        a, b = certify(tilted_family), certify(rescaled)
        np.testing.assert_allclose(
            a.optimal_bounds.as_tuple(), b.optimal_bounds.as_tuple(), rtol=1e-9
        )


class TestOptimalBounds:
    def test_parseval(self, hilbert3):
        bounds = optimal_bounds(parseval_family(hilbert3))
        assert bounds.a_minus is None and bounds.b_minus is None
        assert bounds.a_plus == pytest.approx(1.0)
        assert bounds.b_plus == pytest.approx(1.0)

    def test_weighted_axes(self, minkowski):
        bounds = optimal_bounds(axis_family(minkowski, (2.0, 3.0)))
        np.testing.assert_allclose(bounds.as_tuple(), (-9.0, -9.0, 4.0, 4.0))

    def test_not_a_frame_raises(self, minkowski):
        fam = WeightedFamily(minkowski, [Subspace(minkowski, [[1.0], [0.0]])], [1.0])
        with pytest.raises(NotAFrameError):
            optimal_bounds(fam)
        with pytest.raises(NotAFrameError):
            estimate_bounds(fam)

    def test_bracket_sampled_quotients(self):
        rng = rng_from_seed(25)
        for _ in range(5):
            space = random_space(rng, int(rng.integers(2, 7)))
            fam = random_fusion_frame(space, rng)
            bounds = optimal_bounds(fam)
            cfg = OracleConfig(n_samples=2000, seed=int(rng.integers(1 << 30)))
            lo, hi = rayleigh_extremes(fam, 1, cfg)
            assert bounds.a_plus - 1e-9 <= lo <= hi <= bounds.b_plus + 1e-9
            lo, hi = rayleigh_extremes(fam, -1, cfg)
            assert bounds.b_minus - 1e-9 <= lo <= hi <= bounds.a_minus + 1e-9

    def test_sign_ordering(self):
        rng = rng_from_seed(26)
        for _ in range(10):
            space = random_space(rng, int(rng.integers(2, 8)))
            fam = random_fusion_frame(space, rng)
            b = optimal_bounds(fam)
            assert b.b_minus <= b.a_minus < 0 < b.a_plus <= b.b_plus


class TestEstimateBounds:
    def test_whole_space_hilbert(self, hilbert3):
        fam = WeightedFamily(hilbert3, [Subspace(hilbert3, np.eye(3))], [1.0])
        est = estimate_bounds(fam)
        opt = optimal_bounds(fam)
        np.testing.assert_allclose(est.as_tuple()[2:], (1.0, 1.0))
        np.testing.assert_allclose(opt.as_tuple()[2:], (1.0, 1.0))

    def test_weighted_axes_exact(self, minkowski):
        est = estimate_bounds(axis_family(minkowski, (2.0, 3.0)))
        np.testing.assert_allclose(est.as_tuple(), (-9.0, -9.0, 4.0, 4.0))

    def test_sandwich_on_random_frames(self):
        rng = rng_from_seed(27)
        for _ in range(20):
            space = random_space(rng, int(rng.integers(2, 8)))
            fam = random_fusion_frame(space, rng)
            assert bounds_sandwich_ok(
                optimal_bounds(fam), estimate_bounds(fam), 1e-9
            )

    @settings(max_examples=16)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    def test_equal_the_two_svd_definition(self, n, seed):
        # gamma(T) and ||T|| of each side, each from its own SVD of the side's
        # columns v_i U_i: the one-SVD estimate must give the same bits
        rng = rng_from_seed(seed)
        fam = random_fusion_frame(random_space(rng, n), rng)
        est = estimate_bounds(fam)
        for sign, got in ((1, (est.a_plus, est.b_plus)), (-1, (est.a_minus, est.b_minus))):
            idx = fam.plus_indices if sign == 1 else fam.minus_indices
            t = np.hstack([fam.weights[i] * fam.subspaces[i].ortho_basis for i in idx])
            gam_g = gramian_min_modulus(definite_span(fam, sign))
            gam_t = reduced_min_modulus(t, tol=fam.space.tol)
            want = (gam_t**2 * gam_g**2, np.linalg.norm(t, 2) ** 2 / gam_g)
            assert got == (sign * want[0], sign * want[1])

    def test_sandwich_rejects_inverted_bounds(self):
        opt = FrameBounds(-4.0, -2.0, 1.0, 3.0)
        bad = FrameBounds(-3.5, -2.5, 1.5, 2.5)  # estimates strictly inside
        assert not bounds_sandwich_ok(opt, bad, 1e-9)


class TestBoundsSandwich:
    """Each inequality of bounds_sandwich_ok, one failing at a time."""

    OPT = FrameBounds(-4.0, -3.0, 1.0, 2.0)
    EST = FrameBounds(-5.0, -2.0, 0.5, 3.0)

    @pytest.mark.parametrize("optimal, estimate", [
        (OPT, EST),
        # a side absent from both is skipped
        (FrameBounds(None, None, 1.0, 2.0), FrameBounds(None, None, 0.5, 3.0)),
        (FrameBounds(-4.0, -3.0, None, None), FrameBounds(-5.0, -2.0, None, None)),
    ])
    def test_enclosing_estimates_pass(self, optimal, estimate):
        assert bounds_sandwich_ok(optimal, estimate, 1e-9)

    @pytest.mark.parametrize("optimal, estimate", [
        (OPT, FrameBounds(-5.0, -2.0, 1.5, 3.0)),  # estimate A+ above optimal A+
        (FrameBounds(-4.0, -3.0, 2.5, 2.0), EST),  # optimal A+ above optimal B+
        (OPT, FrameBounds(-5.0, -2.0, 0.5, 1.5)),  # optimal B+ above estimate B+
        (OPT, FrameBounds(-3.5, -2.0, 0.5, 3.0)),  # estimate B- above optimal B-
        (FrameBounds(-2.5, -3.0, 1.0, 2.0), EST),  # optimal B- above optimal A-
        (OPT, FrameBounds(-5.0, -3.5, 0.5, 3.0)),  # optimal A- above estimate A-
    ])
    def test_each_inequality_fails_alone(self, optimal, estimate):
        assert not bounds_sandwich_ok(optimal, estimate, 1e-9)

    @pytest.mark.parametrize("estimate", [
        FrameBounds(-5.0, -2.0, 0.0, 3.0),  # estimate A+ not positive
        FrameBounds(-5.0, -2.0, -0.0, 3.0),
        FrameBounds(-5.0, 0.0, 0.5, 3.0),  # estimate A- not negative
        FrameBounds(-5.0, -0.0, 0.5, 3.0),
    ])
    def test_inner_estimates_must_have_the_side_sign(self, estimate):
        assert not bounds_sandwich_ok(self.OPT, estimate, 1e-9)

    @pytest.mark.parametrize("factor, ok", [(1 + 0.5e-9, True), (1 + 2e-9, False)])
    def test_slack_is_relative(self, factor, ok):
        # the slack is rtol * max(1, |x|, |y|) on each comparison
        optimal = FrameBounds(-40.0, -30.0, 10.0, 20.0)
        estimate = FrameBounds(-50.0, -30.0 * factor, 10.0 * factor, 20.0 / factor)
        assert bounds_sandwich_ok(optimal, estimate, 1e-9) is ok

    @pytest.mark.parametrize("optimal, estimate", [
        (OPT, FrameBounds(-5.0, -2.0, None, None)),  # + present, then absent
        (FrameBounds(-4.0, -3.0, None, None), EST),
        (OPT, FrameBounds(None, None, 0.5, 3.0)),  # - present, then absent
        (FrameBounds(None, None, 1.0, 2.0), EST),
    ])
    def test_a_side_present_in_one_bounds_only(self, optimal, estimate):
        assert bounds_sandwich_ok(optimal, estimate, 1e-9) is False


class TestJImageFamily:
    def test_hilbert_case_unchanged(self, hilbert3):
        fam = parseval_family(hilbert3)
        image = j_image_family(fam)
        for w, iw in zip(fam.subspaces, image.subspaces):
            np.testing.assert_allclose(
                w.ortho_basis @ w.ortho_basis.conj().T,
                iw.ortho_basis @ iw.ortho_basis.conj().T,
                atol=1e-12,
            )

    def test_axis_family_invariant(self, minkowski):
        fam = axis_family(minkowski, (2.0, 3.0))
        image = j_image_family(fam)
        np.testing.assert_allclose(
            optimal_bounds(image).as_tuple(), (-9.0, -9.0, 4.0, 4.0)
        )

    def test_bounds_preserved(self, tilted_family):
        image = j_image_family(tilted_family)
        assert certify(image).is_frame
        np.testing.assert_allclose(
            optimal_bounds(image).as_tuple(),
            optimal_bounds(tilted_family).as_tuple(),
            rtol=1e-9,
        )

    def test_bounds_preserved_random(self):
        rng = rng_from_seed(28)
        for _ in range(10):
            space = random_space(rng, int(rng.integers(2, 7)))
            fam = random_fusion_frame(space, rng)
            image = j_image_family(fam)
            np.testing.assert_allclose(
                optimal_bounds(image).as_tuple(),
                optimal_bounds(fam).as_tuple(),
                rtol=1e-8,
                atol=1e-10,
            )

    @settings(max_examples=10)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    def test_bounds_preserved_property(self, n, seed):
        # J is J-unitary: it maps each signed span onto a span of the same
        # sign and keeps every frame quotient
        rng = rng_from_seed(seed)
        fam = random_fusion_frame(random_space(rng, n), rng)
        np.testing.assert_allclose(
            optimal_bounds(j_image_family(fam)).as_tuple(),
            optimal_bounds(fam).as_tuple(),
            rtol=1e-9,
        )

    def test_requires_frame(self, minkowski):
        fam = WeightedFamily(minkowski, [Subspace(minkowski, [[1.0], [0.0]])], [1.0])
        with pytest.raises(NotAFrameError):
            j_image_family(fam)


class TestConverseCheck:
    def test_axis_frame_agrees(self, minkowski):
        report = converse_check(axis_family(minkowski))
        assert report.verdict
        assert report.agrees_with_certify

    def test_not_surjective(self, c3):
        fam = WeightedFamily(c3, [Subspace(c3, [[1.0], [0.0], [0.0]])], [1.0])
        with pytest.raises(NotSurjectiveError):
            converse_check(fam)

    def test_indefinite_span_fails(self, c3):
        # positive members spanning all of C^3: the positive span is indefinite
        subspaces = [
            Subspace(c3, [[1.0], [0.0], [0.0]]),
            Subspace(c3, [[0.0], [1.0], [0.5]]),
            Subspace(c3, [[0.0], [1.0], [0.8]]),
            Subspace(c3, [[0.0], [0.0], [1.0]]),
        ]
        fam = WeightedFamily(c3, subspaces, [1.0] * 4)
        report = converse_check(fam)
        assert not report.verdict
        assert not report.positive_constants
        assert report.agrees_with_certify
        assert not certify(fam).is_frame

    def test_reuses_certify(self, tilted_family, count_calls):
        # surjectivity from the spans' dimensions, constants from the bounds
        certify(tilted_family)
        svd = count_calls(np.linalg, "svd")
        solve = count_calls(np.linalg, "solve")
        assert converse_check(tilted_family).verdict
        assert (len(svd), len(solve)) == (0, 0)

    def test_definite_side_of_non_frame(self, c3, count_calls):
        # an indefinite positive span next to a maximal uniformly negative
        # one: surjective, and the negative constants come from the quotient
        subspaces = [
            Subspace(c3, [[1.0], [0.0], [0.0]]),
            Subspace(c3, [[0.0], [1.0], [0.5]]),
            Subspace(c3, [[0.0], [1.0], [0.8]]),
            Subspace(c3, [[0.0], [0.0], [1.0]]),
        ]
        fam = WeightedFamily(c3, subspaces, [1.0] * 4)
        extremes = count_calls(fusion, "_rayleigh_extremes")
        report = converse_check(fam)
        assert report.surjective and report.negative_regular
        assert report.negative_constants
        assert not report.positive_constants
        assert not report.verdict
        assert len(extremes) == 1

    @pytest.mark.parametrize("signs, weights, tau_def, constants", [
        # (B-, A-, A+, B+) = (-16, -1, 1, 16): A > tau_def * max(1, |B|) sits
        # on its threshold at tau_def = 1/16 on both sides
        ([1, 1, -1, -1], [1.0, 4.0, 1.0, 4.0], 1.0 / 16.0, (False, False)),
        ([1, 1, -1, -1], [1.0, 4.0, 1.0, 4.0], np.nextafter(1.0 / 16.0, 0.0), (True, True)),
        # one side's bounds are 0.25 in modulus: there the threshold is tau_def
        ([1, -1], [0.5, 2.0], 0.25, (False, True)),
        ([1, -1], [0.5, 2.0], np.nextafter(0.25, 0.0), (True, True)),
        ([1, -1], [2.0, 0.5], 0.25, (True, False)),
        ([1, -1], [2.0, 0.5], np.nextafter(0.25, 0.0), (True, True)),
    ])
    def test_constants_at_the_tau_def_boundary(self, signs, weights, tau_def, constants):
        # weighted axes: each side's bounds are its smallest and largest v_i^2
        space = KreinSpace.from_signs(signs, tol=Tolerances(tau_def=tau_def))
        axes = [Subspace(space, np.eye(len(signs))[:, [i]]) for i in range(len(signs))]
        fam = WeightedFamily(space, axes, weights)
        plus = [w * w for w, s in zip(weights, signs) if s == 1]
        minus = [-w * w for w, s in zip(weights, signs) if s == -1]
        bounds = (min(minus), max(minus), min(plus), max(plus))
        assert certify(fam).optimal_bounds.as_tuple() == bounds
        report = converse_check(fam)
        assert (report.positive_constants, report.negative_constants) == constants
        assert report.positive_regular and report.negative_regular
        assert report.verdict == all(constants)

    def test_random_frames_consistent(self):
        rng = rng_from_seed(29)
        for _ in range(20):
            space = random_space(rng, int(rng.integers(2, 8)))
            fam = random_fusion_frame(space, rng)
            report = converse_check(fam)
            assert report.verdict
            assert report.agrees_with_certify


def j_orthonormal_basis(M, sign):
    """Columns e_i of M with [e_i, e_j] = sign * delta_ij."""
    u = M.ortho_basis
    g = sign * (u.conj().T @ M.space.J @ u)
    lam, q = np.linalg.eigh(0.5 * (g + g.conj().T))
    return u @ (q / np.sqrt(lam)) @ q.conj().T


class TestKnownAnswerBounds:
    """Members w_i e_i over J-orthonormal e_i of tilted maximal spans.

    For f = sum_j c_j e_j on one side, [f, f] = sign * sum |c_j|^2 and the
    frame sum is sum w_i^2 |c_i|^2, so the exact bounds of that side are
    sign * min w^2 and sign * max w^2.
    """

    @staticmethod
    def build(n, seed):
        rng = rng_from_seed(seed)
        space = random_space(rng, n, p=int(rng.integers(1, n)))
        sides = {}
        for sign in (1, -1):
            m = random_maximal_definite_subspace(space, rng, sign, max_tilt=0.9)
            e = j_orthonormal_basis(m, sign)
            w = 10.0 ** rng.uniform(-3.0, 0.0, size=e.shape[1])
            sides[sign] = (e, w)
        return space, sides

    @staticmethod
    def exact(sides):
        wp, wm = sides[1][1] ** 2, sides[-1][1] ** 2
        return FrameBounds(-wm.max(), -wm.min(), wp.min(), wp.max())

    @staticmethod
    def assert_bounds(actual, expected, rtol):
        for a, e in zip(actual.as_tuple(), expected.as_tuple()):
            assert abs(a - e) <= rtol * abs(e), (a, e)

    @settings(max_examples=16)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    def test_family_and_vector_frame_bounds(self, n, seed):
        space, sides = self.build(n, seed)
        subspaces, weights, vectors = [], [], []
        for e, w in sides.values():
            for k in range(e.shape[1]):
                subspaces.append(Subspace(space, e[:, k : k + 1]))
                # pi_W is the Euclidean projection: scale the weight by ||e||
                weights.append(w[k] * np.linalg.norm(e[:, k]))
                vectors.append(w[k] * e[:, k])
        expected = self.exact(sides)
        fam = WeightedFamily(space, subspaces, weights)
        self.assert_bounds(optimal_bounds(fam), expected, 1e-11)
        frame = VectorFrame(space, vectors)
        self.assert_bounds(vframe_optimal_bounds(frame), expected, 1e-11)

    @settings(max_examples=8)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    def test_generalized_eigh_reference(self, n, seed):
        import scipy.linalg  # test-only reference for the pencil (a, p)

        space, sides = self.build(n, seed)
        subspaces = [Subspace(space, e[:, [k]]) for e, w in sides.values() for k in range(len(w))]
        weights = np.concatenate([w for _, w in sides.values()])
        fam = WeightedFamily(space, subspaces, weights)
        b = optimal_bounds(fam)
        for sign, got in ((1, (b.a_plus, b.b_plus)), (-1, (b.b_minus, b.a_minus))):
            u = definite_span(fam, sign).ortho_basis
            a = u.conj().T @ space.J @ frame_operator_part(fam, sign).matrix @ u
            p = u.conj().T @ space.J @ u
            vals = sign * scipy.linalg.eigh(
                0.5 * (a + a.conj().T), sign * 0.5 * (p + p.conj().T), eigvals_only=True
            )
            scale = np.abs(vals).max()
            assert abs(got[0] - vals.min()) <= 1e-8 * scale
            assert abs(got[1] - vals.max()) <= 1e-8 * scale
