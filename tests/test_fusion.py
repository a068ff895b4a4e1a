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
    bounds_sandwich_ok,
    certify,
    converse_check,
    frame_operator,
    gramian,
    indefinite_product,
    j_adjoint,
    j_image_family,
    optimal_bounds,
    reduced_min_modulus,
    vframe_optimal_bounds,
)
from kreinframes.sampling import (
    random_complex,
    random_maximal_definite_subspace,
    rng_from_seed,
)

from generators import random_fusion_frame, random_space
from oracles import (
    OracleConfig,
    frame_operator_part,
    gramian_min_modulus,
    in_span,
    rayleigh_extremes,
)


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

    def test_weight_whose_square_underflows_rejected(self, minkowski):
        # v^2 of a weight below 2^-511 is subnormal; 2^-511 itself is kept
        e1, e2 = Subspace(minkowski, [[1.0], [0.0]]), Subspace(minkowski, [[0.0], [1.0]])
        with pytest.raises(WeightError, match="weight 1 underflows"):
            WeightedFamily(minkowski, [e1, e2], [1.0, np.nextafter(2.0**-511, 0.0)])
        fam = WeightedFamily(minkowski, [e1, e2], [2.0**-511] * 2)
        assert certify(fam).is_frame and optimal_bounds(fam).a_plus == 2.0**-1022


class TestCoefficientSpace:
    def test_single_member_synthesis(self, minkowski):
        w = Subspace(minkowski, [[1.0], [0.0]])
        fam = WeightedFamily(minkowski, [w], [2.0])
        np.testing.assert_allclose(fam._columns, [[2.0], [0.0]])

    def test_signed_ranges(self, tilted_family):
        cols, signs = tilted_family._columns, tilted_family._column_signs
        for col in cols[:, signs == 1].T:
            assert in_span(tilted_family.m_plus, col)
        assert np.linalg.matrix_rank(cols[:, signs == -1]) == 1

    def test_synthesis_rank_is_joint_span_dim(self):
        rng = rng_from_seed(20)
        space = random_space(rng, 5)
        fam = random_fusion_frame(space, rng)
        spans = [s for s in (fam.m_plus, fam.m_minus) if s]
        stacked = np.hstack([s.ortho_basis for s in spans])
        assert np.linalg.matrix_rank(fam._columns) == np.linalg.matrix_rank(stacked)


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
            tt = frame_operator_part(fam, 1) - frame_operator_part(fam, -1)
            np.testing.assert_allclose(s, tt, atol=1e-9)

    def test_j_selfadjoint(self):
        rng = rng_from_seed(23)
        space = random_space(rng, 5)
        fam = random_fusion_frame(space, rng)
        s = frame_operator(fam)
        np.testing.assert_allclose(j_adjoint(s).matrix, s.matrix, atol=1e-9)

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

    @settings(max_examples=10)
    @given(n=st.integers(4, 24), diagonal=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_witness_does_not_depend_on_the_basis(self, n, diagonal, seed):
        # an indefinite span, with its orthonormal basis U and with U V for a
        # random unitary V: one witness, whose largest entry is real and
        # positive.  With dim <= p, q the span meets neither canonical
        # component, so its Gramian's extreme eigenvalues are simple
        rng = rng_from_seed(seed)
        space = random_space(rng, n, p=n // 2, diagonal=diagonal)
        k = int(rng.integers(2, n // 2 + 1))
        u = np.linalg.qr(random_complex(rng, n, k))[0]
        v = np.linalg.qr(random_complex(rng, k, k))[0]
        spans = [Subspace._orthonormal(space, b) for b in (u, u @ v)]
        for sign in (1, -1):
            w, w_rotated = (fusion._degenerate_witness(m, sign) for m in spans)
            np.testing.assert_allclose(w_rotated, w, rtol=0, atol=1e-10)
            top = w[np.argmax(np.abs(w))]
            assert top.real > 0 and abs(top.imag) <= 1e-15 * top.real

    def test_span_within_rounding_of_the_light_cone(self):
        # the first line, and the span of the next two, have a Gramian
        # eigenvalue of about 1e-16 (exactly): above a tau_def of 1e-300, but
        # within rounding, where a Cholesky factor of the span's Gramian failed
        space = KreinSpace.from_signs([1, 1, -1], tol=Tolerances(tau_def=1e-300))
        lines = [
            [1.0, 0.0, 0.9999999999999998],
            [1.0, 0.7798711114410413, 1.000000000737179],
            [0.0, 1.0, 9.4525762764591e-10],
            [0.0, 0.0, 1.0],
        ]
        members = [Subspace(space, np.array([v]).T) for v in lines]
        with pytest.raises(MemberClassificationError, match="member 0"):
            WeightedFamily(space, members, np.ones(4))
        cert = certify(WeightedFamily(space, members[1:], np.ones(3)))
        assert not cert.is_frame
        assert [w["reason"] for w in cert.witnesses] == [
            "span classifies as positive_non_uniform"
        ]

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
        assert certify(fam).estimate_bounds is None

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
        est = certify(fam).estimate_bounds
        opt = optimal_bounds(fam)
        np.testing.assert_allclose(est.as_tuple()[2:], (1.0, 1.0))
        np.testing.assert_allclose(opt.as_tuple()[2:], (1.0, 1.0))

    def test_weighted_axes_exact(self, minkowski):
        est = certify(axis_family(minkowski, (2.0, 3.0))).estimate_bounds
        np.testing.assert_allclose(est.as_tuple(), (-9.0, -9.0, 4.0, 4.0))

    def test_sandwich_on_random_frames(self):
        rng = rng_from_seed(27)
        for _ in range(20):
            space = random_space(rng, int(rng.integers(2, 8)))
            fam = random_fusion_frame(space, rng)
            assert bounds_sandwich_ok(
                optimal_bounds(fam), certify(fam).estimate_bounds, 1e-9
            )

    @settings(max_examples=16)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    def test_equal_the_two_svd_definition(self, n, seed):
        # gamma(T) and ||T|| of each side from the singular values of U* T,
        # T the side's columns v_i U_i and U the span's orthonormal basis (T
        # lies in M, so T = U (U* T)), gamma(T) as the (dim M)-th, and
        # gamma(G_M) from the span's Gramian eigenvalues: the one-SVD estimate
        # must give the same bits, and agree up to rounding with gamma(T),
        # ||T|| and gamma(G_M) as reduced_min_modulus, the 2-norm of T itself
        # and gramian_min_modulus give them.  The product U* T is formed on
        # the family's own copy of T (a column selection, laid out in column
        # order), whose bits equal the stacked v_i U_i
        rng = rng_from_seed(seed)
        fam = random_fusion_frame(random_space(rng, n), rng)
        est = certify(fam).estimate_bounds
        for sign, got in ((1, (est.a_plus, est.b_plus)), (-1, (est.a_minus, est.b_minus))):
            idx = fam.plus_indices if sign == 1 else fam.minus_indices
            t = np.hstack([fam.weights[i] * fam.subspaces[i].ortho_basis for i in idx])
            np.testing.assert_array_equal(t, fusion._side_columns(fam, sign))
            t = fusion._side_columns(fam, sign)
            m = fam.m_plus if sign == 1 else fam.m_minus
            gam_g = np.abs(np.linalg.eigvalsh(gramian(m))).min()
            s = np.linalg.svd(m.ortho_basis.conj().T @ t, compute_uv=False)
            assert got == (sign * s[m.dim - 1] ** 2 * gam_g**2, sign * s[0] ** 2 / gam_g)
            gam_g = gramian_min_modulus(m)
            gam_t = reduced_min_modulus(t, tol=fam.space.tol)
            norm2 = np.linalg.norm(t, 2) ** 2
            want = (sign * gam_t**2 * gam_g**2, sign * norm2 / gam_g)
            np.testing.assert_allclose(got, want, rtol=1e-13)

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
            u = (fam.m_plus if sign == 1 else fam.m_minus).ortho_basis
            a = u.conj().T @ space.J @ frame_operator_part(fam, sign) @ u
            p = u.conj().T @ space.J @ u
            vals = sign * scipy.linalg.eigh(
                0.5 * (a + a.conj().T), sign * 0.5 * (p + p.conj().T), eigvals_only=True
            )
            scale = np.abs(vals).max()
            assert abs(got[0] - vals.min()) <= 1e-8 * scale
            assert abs(got[1] - vals.max()) <= 1e-8 * scale
