"""Tests for vector J-frames, canonical duals and the dual-bound relations."""

import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kreinframes
from kreinframes import (
    DefinitenessTransportError,
    DimensionError,
    KreinSpace,
    MemberClassificationError,
    NotAFrameError,
    RankError,
    SingularOperatorError,
    Subspace,
    Tolerances,
    VectorFrame,
    canonical_dual,
    certify,
    dual_bounds_check,
    frame_operator,
    fusion_dual_bounds_check,
    indefinite_product,
    is_j_frame,
    is_j_isometry_multiple,
    j_adjoint,
    optimal_bounds,
    vframe_optimal_bounds,
)
from kreinframes import duality, fusion
from kreinframes.cli import run_command
from kreinframes.duality import (
    fundamental_identity_sides,
    fundamental_identity_sides_batch,
)
from kreinframes.fusion import WeightedFamily, _side_verdict, _Span
from kreinframes.problem import parse_spec
from kreinframes.sampling import (
    random_complex,
    random_maximal_definite_subspace,
    rng_from_seed,
)

from generators import (
    examples,
    random_fusion_frame,
    random_j_unitary,
    random_space,
    random_unit_vector,
    random_vector_frame,
)
from oracles import (
    OracleConfig,
    as_weighted_family,
    dual_oracle,
    in_span,
    partial_frame_operator,
    rayleigh_extremes,
)


DEMO_PATH = Path(kreinframes.__file__).parent / "data" / "c3_demo.json"


def parseval_frame(n=3):
    space = KreinSpace(np.eye(n))
    return VectorFrame(space, list(np.eye(n)))


class TestVectorFrame:
    def test_signs(self, coupled_frame):
        assert coupled_frame.signs == [1, 1, -1]
        assert coupled_frame.plus_indices == [0, 1]
        assert coupled_frame.minus_indices == [2]

    def test_neutral_member_rejected(self, minkowski):
        with pytest.raises(MemberClassificationError) as err:
            VectorFrame(minkowski, [[1.0, 1.0]])
        assert "neutral" in str(err.value)

    def test_zero_member_rejected(self, minkowski):
        with pytest.raises(MemberClassificationError):
            VectorFrame(minkowski, [[0.0, 0.0]])

    @pytest.mark.parametrize("scale", [1e308, 1e-300])
    def test_signs_of_extreme_magnitudes(self, minkowski, scale):
        # [f,f] and ||f||^2 overflow or underflow unless f is scaled first;
        # a vector whose ||f||^2 underflows is refused once found not neutral
        vectors = [[scale, 0.0], [0.0, scale], [scale, 0.5 * scale]]
        if scale > 1.0:
            assert VectorFrame(minkowski, vectors).signs == [1, -1, 1]
        else:
            with pytest.raises(MemberClassificationError, match="member 0: .* underflows"):
                VectorFrame(minkowski, vectors)
        with pytest.raises(MemberClassificationError) as err:
            VectorFrame(minkowski, [[scale, scale]])
        assert str(err.value).endswith("neutral within tau_def ([f,f]/||f||^2 = 0)")

    def test_vector_whose_squared_norm_underflows_rejected(self, minkowski):
        # ||f||^2 below 2^-1022 is subnormal; at 2^-1022 the vector is kept
        small = 2.0**-511
        with pytest.raises(MemberClassificationError) as err:
            VectorFrame(minkowski, [[small, 0.0], [0.0, 0.5 * small]])
        assert (err.value.index, err.value.detail) == (1, "||f||^2 underflows to subnormal")
        frame = VectorFrame(minkowski, [[small, 0.0], [0.0, small]])
        assert vframe_optimal_bounds(frame).a_plus == 2.0**-1022

    @pytest.mark.parametrize("entry", [np.inf, np.nan, complex(0.0, -np.inf)])
    def test_non_finite_member_rejected(self, minkowski, entry):
        with pytest.raises(MemberClassificationError) as err:
            VectorFrame(minkowski, [[1.0, 0.0], [entry, 0.0], [0.0, entry]])
        assert err.value.index == 1
        assert err.value.detail == "vector has a non-finite entry"

    @pytest.mark.parametrize("vectors", [
        [[1.0, 0.5j], [0.25, 2.0], [-3.0, 1e-300]],
        [np.array([1.0, -0.0]), np.array([0.5 + 1j, 2.0])],
    ])
    def test_an_array_and_a_list_give_one_matrix(self, minkowski, vectors):
        # the columns of today's column_stack, bit for bit, C-contiguous and a
        # copy of the caller's array
        want = np.column_stack([minkowski.check_vector(v) for v in vectors])
        rows = np.array(vectors, dtype=complex)
        for given_as in (vectors, rows, np.asfortranarray(rows), list(rows)):
            m = VectorFrame(minkowski, given_as).matrix
            assert m.tobytes() == want.tobytes() and m.flags.c_contiguous
            assert not np.shares_memory(m, rows)

    @pytest.mark.parametrize("vectors", [
        [[1.0, 0.0], [0.0, 1.0, 0.0]],  # ragged
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # a wrong length
        [[[1.0], [0.0]]],  # a column, not a vector
        [1.0, 0.0],  # numbers, not vectors
        [],
        np.zeros((0, 2)),
    ])
    def test_an_array_and_a_list_word_one_error(self, minkowski, vectors):
        def error(given_as):
            with pytest.raises((DimensionError, MemberClassificationError)) as exc:
                VectorFrame(minkowski, given_as)
            return type(exc.value), str(exc.value)

        want = error(vectors)
        assert want == error(list(vectors)) == error(iter(vectors))
        if isinstance(vectors, np.ndarray) or len(set(map(np.shape, vectors))) == 1:
            assert error(np.asarray(vectors)) == want

    def test_signed_spans_recorded(self, coupled_frame):
        assert coupled_frame.m_plus.dim == 2
        assert coupled_frame.m_minus.dim == 1
        assert in_span(coupled_frame.m_minus, [0, 1, 2])


class TestVframeOperator:
    def test_parseval_identity(self):
        frame = parseval_frame()
        np.testing.assert_allclose(frame_operator(frame).matrix, np.eye(3))

    def test_minkowski_axes_identity(self, minkowski):
        frame = VectorFrame(minkowski, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            frame_operator(frame).matrix, np.eye(2), atol=1e-12
        )

    def test_j_selfadjoint_random(self):
        rng = rng_from_seed(30)
        for _ in range(10):
            space = random_space(rng, int(rng.integers(2, 7)))
            frame = random_vector_frame(space, rng)
            s = frame_operator(frame)
            np.testing.assert_allclose(j_adjoint(s).matrix, s.matrix, atol=1e-9)

    def test_agrees_with_weighted_family(self, coupled_frame):
        fam = as_weighted_family(coupled_frame)
        np.testing.assert_allclose(
            frame_operator(fam).matrix,
            frame_operator(coupled_frame).matrix,
            atol=1e-10,
        )


class TestIsJFrame:
    def test_axes(self, minkowski):
        assert is_j_frame(VectorFrame(minkowski, [[1.0, 0.0], [0.0, 1.0]]))

    def test_one_side_missing(self, minkowski):
        assert not is_j_frame(VectorFrame(minkowski, [[1.0, 0.0]]))

    def test_coupled_frame(self, coupled_frame):
        assert is_j_frame(coupled_frame)

    def test_the_package_reads_the_kept_decision(self, coupled_frame, count_calls):
        # is_j_frame is kept for outside callers only
        calls = count_calls(kreinframes.duality, "is_j_frame")
        canonical_dual(coupled_frame)
        masks, fs = np.ones((1, len(coupled_frame)), bool), np.ones((3, 1))
        fundamental_identity_sides_batch(coupled_frame, masks, fs)
        assert calls == []


class TestVframeOptimalBounds:
    def test_parseval(self):
        bounds = vframe_optimal_bounds(parseval_frame())
        assert bounds.b_minus is None and bounds.a_minus is None
        assert bounds.a_plus == pytest.approx(1.0)
        assert bounds.b_plus == pytest.approx(1.0)

    def test_weighted_axes(self, axis_frame):
        np.testing.assert_allclose(
            vframe_optimal_bounds(axis_frame).as_tuple(), (-9.0, -9.0, 4.0, 4.0)
        )

    def test_requires_frame(self, minkowski):
        with pytest.raises(NotAFrameError):
            vframe_optimal_bounds(VectorFrame(minkowski, [[1.0, 0.0]]))

    def test_bracket_sampled_quotients(self):
        rng = rng_from_seed(31)
        for _ in range(5):
            space = random_space(rng, int(rng.integers(2, 7)))
            frame = random_vector_frame(space, rng)
            bounds = vframe_optimal_bounds(frame)
            J = space.J
            for span, idx, lo, hi in (
                (frame.m_plus, frame.plus_indices, bounds.a_plus, bounds.b_plus),
                (frame.m_minus, frame.minus_indices, bounds.b_minus, bounds.a_minus),
            ):
                cols = frame.matrix[:, idx]
                for _ in range(300):
                    f = span.ortho_basis @ random_complex(rng, span.dim)
                    num = float(np.sum(np.abs(cols.conj().T @ (J @ f)) ** 2))
                    den = np.vdot(f, J @ f).real
                    q = num / den
                    assert lo - 1e-9 * (1 + abs(lo)) <= q <= hi + 1e-9 * (1 + abs(hi))


class TestCanonicalDual:
    def test_parseval_dual_is_self(self):
        frame = parseval_frame()
        dual = canonical_dual(frame)
        np.testing.assert_allclose(dual.matrix, frame.matrix, atol=1e-12)

    def test_axis_dual_vector(self, axis_frame):
        dual = canonical_dual(axis_frame)
        np.testing.assert_allclose(dual.vector(0), [0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(dual.vector(1), [0.0, 1.0 / 3.0], atol=1e-12)

    def test_reconstruction(self):
        rng = rng_from_seed(32)
        for _ in range(5):
            space = random_space(rng, int(rng.integers(2, 7)))
            frame = random_vector_frame(space, rng)
            dual = canonical_dual(frame)
            sg = np.asarray(frame.signs, dtype=float)
            for _ in range(20):
                f = random_complex(rng, space.dim)
                coeff_dual = dual.matrix.conj().T @ (space.J @ f)
                rec1 = frame.matrix @ (sg * coeff_dual.conj()).conj()
                coeff_orig = frame.matrix.conj().T @ (space.J @ f)
                rec2 = dual.matrix @ (sg * coeff_orig.conj()).conj()
                scale = 1e-9 * (1 + np.linalg.norm(f))
                assert np.linalg.norm(rec1 - f) < scale
                assert np.linalg.norm(rec2 - f) < scale

    def test_sign_transport(self):
        rng = rng_from_seed(33)
        for _ in range(10):
            space = random_space(rng, int(rng.integers(2, 7)))
            frame = random_vector_frame(space, rng)
            dual = canonical_dual(frame)
            assert dual.signs == frame.signs
            assert dual.m_plus.classify().sign == 1
            assert dual.m_minus.classify().sign == -1

    def test_dual_spans_are_j_complements(self, coupled_frame):
        # S^-1 maps each signed span onto the J-orthogonal complement of the
        # opposite one
        dual = canonical_dual(coupled_frame)
        for v_idx in range(dual.m_plus.dim):
            v = dual.m_plus.ortho_basis[:, v_idx]
            for i in coupled_frame.minus_indices:
                prod = indefinite_product(
                    coupled_frame.space, v, coupled_frame.vector(i)
                )
                assert abs(prod) < 1e-10

    def test_requires_frame(self, minkowski):
        with pytest.raises(NotAFrameError):
            canonical_dual(VectorFrame(minkowski, [[1.0, 0.0]]))

    def test_dual_that_does_not_certify_is_a_transport_error(self, axis_frame, monkeypatch):
        # the dual is decided as the half frame {2 e1} is: its negative side is empty
        half, decide = VectorFrame(axis_frame.space, [[2.0, 0.0]]), fusion._decision
        monkeypatch.setattr(fusion, "_decision", lambda F: decide(F if F is axis_frame else half))
        with pytest.raises(DefinitenessTransportError) as err:
            canonical_dual(axis_frame)
        assert str(err.value) == "canonical dual is not a J-frame: side -: dimension deficit"


class TestDualBoundsCheck:
    def test_parseval(self):
        report = dual_bounds_check(parseval_frame())
        assert report.ok
        assert report.dual.a_plus == pytest.approx(1.0)
        assert report.dual.b_plus == pytest.approx(1.0)

    def test_weighted_axes(self, axis_frame):
        report = dual_bounds_check(axis_frame)
        assert report.ok
        np.testing.assert_allclose(
            report.dual.as_tuple(),
            (-1.0 / 9.0, -1.0 / 9.0, 0.25, 0.25),
            atol=1e-12,
        )

    def test_coupled_frame_reciprocal(self, coupled_frame):
        report = dual_bounds_check(coupled_frame)
        assert report.ok
        np.testing.assert_allclose(
            report.dual.as_tuple(),
            (-1.0 / 3.0, -1.0 / 3.0, 1.0, 1.0),
            atol=1e-12,
        )

    def test_coupled_frame_own_span_bounds_differ(self, coupled_frame):
        # over the dual's own spans the quotient range is different; the
        # reciprocal relation concerns the original decomposition
        report = dual_bounds_check(coupled_frame)
        assert report.dual_own_spans.a_plus == pytest.approx(0.75)
        assert report.dual_own_spans.a_minus == pytest.approx(-0.25)

    def test_axes_own_span_bounds_coincide(self, axis_frame):
        # with J-orthogonal signed spans both readings agree
        report = dual_bounds_check(axis_frame)
        np.testing.assert_allclose(
            report.dual_own_spans.as_tuple(), report.dual.as_tuple(), atol=1e-12
        )

    def test_random_frames(self):
        rng = rng_from_seed(34)
        for _ in range(20):
            space = random_space(rng, int(rng.integers(2, 8)))
            frame = random_vector_frame(space, rng)
            report = dual_bounds_check(frame)
            assert report.ok, report.max_rel_error

    def test_one_whitening_per_span(self, coupled_frame, count_kept):
        # certify whitens the frame's two spans and the check the dual's two;
        # the dual's bounds over the frame's spans reuse the frame's whitening
        whitened = count_kept(_Span, "_whitening")
        certify(coupled_frame)
        assert whitened == [coupled_frame.m_plus, coupled_frame.m_minus]
        assert dual_bounds_check(coupled_frame).ok and len(whitened) == 4


class TestFundamentalIdentity:
    def test_empty_subset(self, coupled_frame):
        lhs, rhs = fundamental_identity_sides(coupled_frame, [], [1.0, 2.0, 3.0])
        assert abs(lhs - rhs) < 1e-9

    def test_parseval_any_subset(self):
        rng = rng_from_seed(36)
        frame = parseval_frame(4)
        for _ in range(10):
            subset = [i for i in range(4) if rng.uniform() < 0.5]
            f = random_complex(rng, 4)
            lhs, rhs = fundamental_identity_sides(frame, subset, f)
            assert abs(lhs - rhs) < 1e-9

    def test_random_triples(self):
        rng = rng_from_seed(37)
        for _ in range(20):
            space = random_space(rng, int(rng.integers(2, 8)))
            frame = random_vector_frame(space, rng)
            subset = [i for i in range(len(frame)) if rng.uniform() < 0.5]
            f = random_complex(rng, space.dim)
            lhs, rhs = fundamental_identity_sides(frame, subset, f)
            scale = 1.0 + max(abs(lhs), abs(rhs))
            assert abs(lhs - rhs) < 1e-9 * scale

    def test_out_of_range(self, coupled_frame):
        with pytest.raises(IndexError):
            fundamental_identity_sides(coupled_frame, [5], [1.0, 2.0, 3.0])

    def test_requires_frame(self, minkowski):
        with pytest.raises(NotAFrameError):
            fundamental_identity_sides(
                VectorFrame(minkowski, [[1.0, 0.0]]), [0], [1.0, 0.0]
            )


def dense_identity_side(frame, members, f, s_inv, s_members=None):
    """One side from its definition: dense S_I, explicit S^-1, member loops.

    ``s_members`` replaces the subset inside S_I only (a mutation).
    """
    J = frame.space.J
    s_i = partial_frame_operator(frame, members if s_members is None else s_members)
    s_f = s_i @ f
    duals = s_inv @ frame.matrix
    own = sum(
        frame.signs[i] * abs(np.vdot(frame.vector(i), J @ f)) ** 2 for i in members
    )
    dual = sum(
        frame.signs[i] * abs(np.vdot(duals[:, i], J @ s_f)) ** 2
        for i in range(len(frame))
    )
    return own - dual


class TestIdentityKernel:
    @settings(max_examples=12)
    @given(
        n=st.sampled_from([16, 64]),
        extra=st.integers(0, 24),
        trials=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_matches_dense_definition(self, n, extra, trials, seed):
        rng = rng_from_seed(seed)
        frame = random_vector_frame(random_space(rng, n), rng, extra=extra)
        masks = rng.uniform(size=(trials, len(frame))) < 0.5
        fs = random_complex(rng, n, trials)
        lhs, rhs = fundamental_identity_sides_batch(frame, masks, fs)
        s_inv = np.linalg.inv(frame_operator(frame).matrix)
        for t in range(trials):
            inside = np.flatnonzero(masks[t])
            outside = np.flatnonzero(~masks[t])
            want_lhs = dense_identity_side(frame, inside, fs[:, t], s_inv)
            want_rhs = dense_identity_side(frame, outside, fs[:, t], s_inv)
            scale = 1.0 + max(abs(want_lhs), abs(want_rhs))
            assert abs(lhs[t] - want_lhs) < 1e-10 * scale
            assert abs(rhs[t] - want_rhs) < 1e-10 * scale
            assert abs(lhs[t] - rhs[t]) < 1e-9 * scale

    def test_single_trial_is_the_batch(self):
        rng = rng_from_seed(38)
        frame = random_vector_frame(random_space(rng, 6), rng, extra=3)
        masks = rng.uniform(size=(5, len(frame))) < 0.5
        fs = random_complex(rng, 6, 5)
        lhs, rhs = fundamental_identity_sides_batch(frame, masks, fs)
        for t in range(5):
            one = fundamental_identity_sides(frame, np.flatnonzero(masks[t]), fs[:, t])
            # one column against a block: the same sums, other BLAS kernels
            np.testing.assert_allclose(one, (lhs[t], rhs[t]), rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_rejected(self, coupled_frame):
        with pytest.raises(DimensionError):
            fundamental_identity_sides_batch(
                coupled_frame, np.ones((1, 3), bool), np.ones((3, 2))
            )
        with pytest.raises(DimensionError):
            fundamental_identity_sides_batch(
                coupled_frame, np.ones((2, 1), bool), np.ones((3, 2))
            )

    def test_inverse_is_factored_once(self, coupled_frame):
        s_inv = coupled_frame._s_inv
        assert coupled_frame._s_inv is s_inv
        assert not s_inv.flags.writeable
        np.testing.assert_allclose(
            s_inv @ frame_operator(coupled_frame).matrix, np.eye(3), atol=1e-12
        )

    def relative_residuals(self, frame, masks, fs):
        lhs, rhs = fundamental_identity_sides_batch(frame, masks, fs)
        return np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))

    def test_perturbed_inverse_is_detected(self):
        rng = rng_from_seed(39)
        frame = random_vector_frame(random_space(rng, 16), rng, extra=8)
        masks = rng.uniform(size=(20, len(frame))) < 0.5
        fs = random_complex(rng, 16, 20)
        tau = frame.space.tol.tau_num
        assert self.relative_residuals(frame, masks, fs).max() < tau
        perturbation = 1e-6 * random_complex(rng, 16, 16)
        frame._s_inv = frame._s_inv + perturbation
        assert self.relative_residuals(frame, masks, fs).min() > tau

    def test_member_dropped_from_partial_operator_is_detected(self):
        rng = rng_from_seed(40)
        frame = random_vector_frame(random_space(rng, 16), rng, extra=8)
        s_inv = np.linalg.inv(frame_operator(frame).matrix)
        for _ in range(10):
            inside = np.flatnonzero(rng.uniform(size=len(frame)) < 0.5)
            outside = np.setdiff1d(np.arange(len(frame)), inside)
            f = random_complex(rng, 16)
            rhs = dense_identity_side(frame, outside, f, s_inv)
            lhs = dense_identity_side(frame, inside, f, s_inv, s_members=inside[:-1])
            scale = 1.0 + max(abs(lhs), abs(rhs))
            assert abs(lhs - rhs) / scale > frame.space.tol.tau_num

    def test_perturbed_inverse_fails_the_identity_task(self):
        problem = parse_spec(DEMO_PATH)
        frame = problem.vector_frames["axes_and_tilt"]
        assert run_command("identity", problem, 0, 20)["pass"] is True
        frame._s_inv = frame._s_inv + 1e-6
        report = run_command("identity", problem, 0, 20)
        assert report["pass"] is False
        assert report["results"]["identity"]["results"]["vector_frames"][
            "axes_and_tilt"
        ]["ok"] is False


class TestFusionDualBounds:
    def test_parseval_holds(self, hilbert3):
        subspaces = [Subspace(hilbert3, np.eye(3)[:, [i]]) for i in range(3)]
        fam = WeightedFamily(hilbert3, subspaces, [1.0] * 3)
        report = fusion_dual_bounds_check(fam)
        assert report.holds
        np.testing.assert_allclose(report.dual.as_tuple()[2:], (1.0, 1.0))

    def test_weighted_axes_dual_is_the_family_itself(self, minkowski):
        # the inverse frame operator maps each axis onto itself, so the
        # subspace-transport dual with unchanged weights reproduces the
        # original family; its bounds cannot be the reciprocals, and the
        # report must record that finding rather than hide it
        subspaces = [
            Subspace(minkowski, [[1.0], [0.0]]),
            Subspace(minkowski, [[0.0], [1.0]]),
        ]
        fam = WeightedFamily(minkowski, subspaces, [2.0, 3.0])
        report = fusion_dual_bounds_check(fam)
        assert report.dual_is_frame
        np.testing.assert_allclose(
            report.dual.as_tuple(), (-9.0, -9.0, 4.0, 4.0), atol=1e-12
        )
        np.testing.assert_allclose(
            report.expected.as_tuple(),
            (-1.0 / 9.0, -1.0 / 9.0, 0.25, 0.25),
            atol=1e-12,
        )
        assert not report.holds
        assert "does not hold" in report.note

    def test_random_instances_are_recorded(self):
        # the fusion-level reciprocal relation is an empirical per-instance
        # finding; the report must carry a verdict and a note either way
        rng = rng_from_seed(38)
        seen_failure = False
        for _ in range(10):
            space = random_space(rng, int(rng.integers(2, 6)))
            fam = random_fusion_frame(space, rng)
            report = fusion_dual_bounds_check(fam)
            assert report.dual_is_frame
            assert report.note
            assert report.max_rel_error is not None
            seen_failure = seen_failure or not report.holds
        # generic instances do not satisfy the reciprocal relation
        assert seen_failure

    def test_requires_frame(self, minkowski):
        fam = WeightedFamily(minkowski, [Subspace(minkowski, [[1.0], [0.0]])], [1.0])
        with pytest.raises(NotAFrameError):
            fusion_dual_bounds_check(fam)

    @pytest.mark.parametrize("members_per_side", [None, 6])
    def test_one_inverse_for_every_member(
        self, tilted_family, count_calls, members_per_side
    ):
        # the demo family, or twelve members in C^5: one inverse of S decides
        # it nonsingular without an SVD and maps all members and both spans'
        # orthonormal bases (the dual's spans are S^-1 M(+-)); nothing is
        # solved, and the only other inverses are those of the dual spans'
        # Cholesky factors, one per side for its whitening; the dual's bounds
        # over the original spans reuse theirs
        fam = tilted_family
        if members_per_side is not None:
            space = KreinSpace.from_signs([1, 1, 1, -1, -1])
            fam = random_fusion_frame(space, rng_from_seed(8), members_per_side)
        certify(fam)
        s = frame_operator(fam).matrix
        inv = count_calls(np.linalg, "inv")
        solve = count_calls(np.linalg, "solve")
        cond = count_calls(np.linalg, "cond")
        assert fusion_dual_bounds_check(fam).dual_is_frame
        assert len(inv) == 3 and np.array_equal(inv[0][0], s)
        assert len(cond) == 0 and len(solve) == 0
        for (a,) in inv[1:]:  # a dual span's lower triangular Cholesky factor
            assert a.shape in {(m.dim, m.dim) for m in (fam.m_plus, fam.m_minus)}
            assert np.array_equal(a, np.tril(a))

    @pytest.mark.parametrize("members_per_side", [None, 6])
    def test_one_whitening_per_span(self, tilted_family, count_kept, members_per_side):
        # certify whitens F's two spans and the check the dual family's two;
        # the dual's bounds over F's spans reuse F's whitening, bit for bit
        fam = tilted_family
        if members_per_side is not None:
            space = KreinSpace.from_signs([1, 1, 1, -1, -1])
            fam = random_fusion_frame(space, rng_from_seed(8), members_per_side)
        whitened = count_kept(_Span, "_whitening")
        certify(fam)
        assert whitened == [fam.m_plus, fam.m_minus]
        report = fusion_dual_bounds_check(fam)
        assert report.dual_is_frame and len(whitened) == 4
        for m in (fam.m_plus, fam.m_minus):
            del m._whitening
        again = fusion_dual_bounds_check(fam)
        assert again.dual_over_original_spans == report.dual_over_original_spans
        assert len(whitened) == 4 + 4


@pytest.mark.soundness
class TestNonsingularDecision:
    """``_nonsingular`` against the exact decision it settles without an SVD
    where it can: S is refused exactly when not cond(S) <= 1/tau_def, with
    cond's message, "exactly singular" is a zero pivot past that test, S^-1
    is LU's inverse bit for bit, no numpy warning is emitted, and a bound
    that settles S without the SVD is at least cond(S)."""

    TAUS = [1e-70, 1e-8, 1e-4, 0.15, 0.9]
    # cond_2(S) of 10, or set just below or above 1/tau_def; a zero column;
    # an inf or nan entry
    KINDS = ["well", "below", "above", "singular", "nonfinite"]

    @staticmethod
    def matrix(kind, n, tau, rng):
        u, v = (np.linalg.qr(random_complex(rng, n, n))[0] for _ in range(2))
        cond = {"below": (1 - 1e-3) / tau, "above": (1 + 1e-3) / tau}.get(kind, 10.0)
        s = (u * np.geomspace(1.0, 1.0 / cond, n)) @ v.conj().T
        s *= 10.0 ** rng.integers(-30, 31)
        if kind == "singular":
            s[:, rng.integers(n)] = 0.0
        elif kind == "nonfinite":
            s[rng.integers(n), rng.integers(n)] = rng.choice([np.inf, -np.inf, np.nan])
        return s

    @settings(max_examples=examples(60))
    @given(
        kind=st.sampled_from(KINDS),
        tau=st.sampled_from(TAUS),
        n=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_exact_decision(self, kind, tau, n, seed):
        s = self.matrix(kind, n, tau, rng_from_seed(seed))
        space = KreinSpace.from_signs([1], tol=Tolerances(tau_def=tau))
        try:
            cond = np.linalg.cond(s)
        except np.linalg.LinAlgError:  # an SVD that does not converge on nan
            cond = np.nan
        try:
            inverse = np.linalg.inv(s)
        except np.linalg.LinAlgError:
            inverse = None
        with warnings.catch_warnings(), mock.patch.object(
            np.linalg, "cond", wraps=np.linalg.cond
        ) as svd:
            warnings.simplefilter("error")
            try:
                got = fusion._nonsingular(s, space, "S")
            except SingularOperatorError as exc:
                got = str(exc)
        if not cond <= 1.0 / tau:
            assert got == f"S is numerically singular (cond = {cond:g})"
        elif inverse is None:
            assert got == "S is exactly singular"
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, inverse)
            if not svd.called:
                assert fusion._cond_bound(s, inverse) >= cond


class TestDualFailuresAtTheThreshold:
    """The failure paths of the duals, reached where rounding splits a margin.

    In exact arithmetic S^-1 maps the positive span onto the J-orthogonal
    complement of the negative one, whose Gramian margin is the negative
    span's: the dual of a frame is a frame.  With tau_def set to the dual's
    computed margin (of a dual member, or of the dual's span S^-1 M(+) on
    the Householder Q of S^-1 U(+) that the check builds), on a line (t, 1)
    whose computed margins round the dual's below the original's, the dual
    fails where the original passes.
    """

    @staticmethod
    def first_tilt(split):
        """The first t = k / 10^4 from 0.1 on at which ``split(t)`` is a tau_def."""
        for k in range(1000, 9000):
            tau = split(k / 10000)
            if tau is not None:
                return k / 10000, tau
        raise AssertionError("no tilt rounds the dual's margin below the original's")

    @staticmethod
    def family(signs, t, tau_def=Tolerances.tau_def):
        space = KreinSpace.from_signs(signs, tol=Tolerances(tau_def=tau_def))
        n = len(signs)
        lines = [np.eye(n)[:, [0]]] if n == 2 else [
            np.array([[1.0], [1.0], [0.0]]), np.array([[1.0], [-1.0], [0.0]])
        ]
        tilted = np.zeros((n, 1))
        tilted[0, 0], tilted[-1, 0] = t, 1.0
        members = [Subspace(space, b) for b in lines + [tilted]]
        return WeightedFamily(space, members, [1.0] * len(members))

    @staticmethod
    def dual_members(fam):
        """The dual members and S^-1 [U+, U-], from the check's one inverse."""
        s = frame_operator(fam).matrix
        spans = [fam.m_plus.ortho_basis, fam.m_minus.ortho_basis]
        duals = np.linalg.inv(s) @ np.hstack([w.basis for w in fam.subspaces] + spans)
        return [Subspace(fam.space, duals[:, [i]]) for i in range(len(fam))], duals[:, len(fam):]

    def test_dual_member_fails_classification(self):
        def split(t):
            fam = self.family([1, -1], t)
            tau = self.dual_members(fam)[0][0]._gram_margin()
            return tau if tau < fam.m_minus._gram_margin() else None

        t, tau = self.first_tilt(split)
        fam = self.family([1, -1], t, tau)
        assert certify(fam).is_frame
        report = fusion_dual_bounds_check(fam)
        assert not report.dual_is_frame and not report.holds
        assert report.dual is None and report.max_rel_error is None
        assert report.note.startswith("dual member failed classification: member 0: ")

    def test_dual_family_fails_certification(self):
        # two positive lines in C^3: each dual member clears the margin of
        # the dual's positive span S^-1 M(+), which the threshold then sits on
        def split(t):
            fam = self.family([1, 1, -1], t)
            members, images = self.dual_members(fam)
            q = np.linalg.qr(images[:, : fam.m_plus.dim])[0]
            tau = _Span._orthonormal(fam.space, q)._gram_margin()
            floor = min(w._gram_margin() for w in members + [fam.m_minus, fam.m_plus])
            return tau if tau < floor else None

        t, tau = self.first_tilt(split)
        fam = self.family([1, 1, -1], t, tau)
        assert certify(fam).is_frame
        report = fusion_dual_bounds_check(fam)
        assert not report.dual_is_frame and not report.holds
        assert report.note == "dual family failed frame certification"

    def test_neutral_dual_vector_is_a_transport_error(self):
        def quotient(space, f):
            # |[f, f]| and ||f||^2 of f over its largest entry, as VectorFrame tests them
            f = f / np.abs(np.concatenate([f.real, f.imag])).max()
            return abs(np.vdot(f, space.J @ f).real), np.vdot(f, f).real

        def split(t):
            space = KreinSpace.from_signs([1, -1])
            frame = VectorFrame(space, [[1.0, 0.0], [t, 1.0]])
            val, nrm2 = quotient(space, frame._s_inv @ frame.matrix[:, 0])
            tau = val / nrm2
            while not val <= tau * nrm2:
                tau = np.nextafter(tau, 1.0)
            own_val, own_nrm2 = quotient(space, frame.matrix[:, 1])
            clears = own_val > tau * own_nrm2 and frame.m_minus._gram_margin() > tau
            return tau if clears else None

        t, tau = self.first_tilt(split)
        space = KreinSpace.from_signs([1, -1], tol=Tolerances(tau_def=tau))
        frame = VectorFrame(space, [[1.0, 0.0], [t, 1.0]])
        assert is_j_frame(frame)
        with pytest.raises(DefinitenessTransportError, match="produced a neutral dual vector"):
            canonical_dual(frame)


@pytest.mark.soundness
class TestDualSpans:
    """The duals' signed spans S^-1 M(+-), one Householder QR per side of the
    images of F's spans, against ``dual_oracle``: the dual the public
    constructors build and span from its own columns.  Both duals' bounds
    over their own spans must agree with the oracle's to rtol 1e-9."""

    SIDES = {"both": None, "positive only": 1, "negative only": 0}

    @staticmethod
    def space(n, sides, rng, diagonal=False):
        p = TestDualSpans.SIDES[sides]
        return random_space(rng, n, p=None if p is None else p * n, diagonal=diagonal)

    @staticmethod
    def assert_same_spans(got, want):
        for a, b in ((got.m_plus, want.m_plus), (got.m_minus, want.m_minus)):
            assert (a is None) == (b is None)
            if a is not None:
                pa, pb = (m.ortho_basis @ m.ortho_basis.conj().T for m in (a, b))
                assert np.linalg.norm(pa - pb, 2) <= 1e-9

    @staticmethod
    def assert_bounds_close(got, want):
        for a, b in zip(got.as_tuple(), want.as_tuple()):
            assert (a is None) == (b is None)
            assert a is None or a == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("sides", SIDES)
    @settings(max_examples=examples(6))
    @given(n=st.integers(2, 64), diagonal=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_fusion_dual(self, sides, n, diagonal, seed):
        # the spans settle the members' signs here or not; either way the
        # report is the oracle's: its verdict, bounds and note
        rng = rng_from_seed(seed)
        fam = random_fusion_frame(self.space(n, sides, rng, diagonal), rng)
        # the dual family is the check's second decision
        with mock.patch.object(fusion, "_decision", wraps=fusion._decision) as decide:
            report = fusion_dual_bounds_check(fam)
        dual, want = decide.call_args.args[0], dual_oracle(fam)
        assert dual is not fam and report.dual_is_frame and certify(want).is_frame
        self.assert_same_spans(dual, want)
        self.assert_bounds_close(report.dual, optimal_bounds(want))
        holds = duality._bounds_rel_error(optimal_bounds(want), report.expected) < 1e-9
        assert report.holds == holds
        assert report.note == (
            "reciprocal relation verified on this instance" if holds
            else "reciprocal relation does not hold on this instance "
            "(empirical finding for the assumed dual construction)"
        )

    @pytest.mark.parametrize("case", ["settled", "ill-conditioned member", "loose tau_rank"])
    def test_the_sign_settle_covers_its_distance(self, count_calls, case):
        # a positive plane and a negative line 0.005 from the light cone under
        # diag(1, 1, -1): the dual spans' margin, 0.005, clears the distance
        # bound at beta 282, but not with a member basis of kappa 5.7e9 or a
        # tau_rank of 1e-4 in it, and then each member is classified.  X
        # stretches a, the weak direction of that basis, so X B_1 keeps its rank
        space = KreinSpace.from_signs(
            [1, 1, -1], tol=Tolerances(tau_rank=1e-4 if case == "loose tau_rank" else 1e-10)
        )
        a, b = np.array([1.0, 0.0, 0.995]), np.array([0.0, 1.0, 0.0])
        plane = np.column_stack([b, b + a / 4e9 if case == "ill-conditioned member" else a])
        line = np.array([[0.995], [0.0], [1.0]])
        fam = WeightedFamily(space, [Subspace(space, plane), Subspace(space, line)], [1.0, 1.0])
        certify(fam)
        eigvalsh = count_calls(np.linalg, "eigvalsh")
        report = fusion_dual_bounds_check(fam)
        assert report.dual_is_frame and 200 < fam._beta < 300
        assert len(eigvalsh) == (2 if case == "settled" else 2 + len(fam))
        self.assert_bounds_close(report.dual, optimal_bounds(dual_oracle(fam)))

    @pytest.mark.parametrize("heavy", [False, True])
    def test_a_member_past_the_rank_settle_takes_its_svd(self, count_calls, heavy):
        # a positive plane whose basis has kappa 5e9: beta kappa misses the
        # rank settle, while the spans still settle the signs, so that member
        # alone is a Subspace of X B_i, with its SVD.  A heavy line on e2 makes
        # X shrink e2 tenfold; X B_i is then rank deficient, and the report
        # is a failed dual whose note carries the RankError that Subspace
        # raises on the product the check makes
        space = KreinSpace.from_signs([1, 1, -1, -1])
        e = np.eye(4)
        plane = np.column_stack([e[:, 0], e[:, 0] + 4e-10 * e[:, 1]])
        members, weights = [Subspace(space, plane), Subspace(space, e[:, 2:])], [1.0, 1.0]
        if heavy:
            members, weights = members + [Subspace(space, e[:, [1]])], weights + [3.0]
        fam = WeightedFamily(space, members, weights)
        certify(fam)
        x = fam._s_inv
        assert 4.0 * space.tol.tau_rank * fam._beta * members[0]._cond >= 1.0
        spans = [_Span._orthonormal(space, np.linalg.qr(x @ u)[0]) for u in fam._span_bases]
        assert duality._signs_settle(fam, spans)
        svd = count_calls(np.linalg, "svd")
        if not heavy:
            assert fusion_dual_bounds_check(fam).dual_is_frame
            # the plane's SVD, then one per side for the dual's bounds and
            # for its bounds over F's spans
            assert len(svd) == 1 + 4 and np.array_equal(svd[0][0], x @ plane)
            return
        images = x @ np.hstack([*(w.basis for w in members), *fam._span_bases])
        with pytest.raises(RankError) as today:
            Subspace(space, images[:, :2])
        report = fusion_dual_bounds_check(fam)
        assert (report.dual_is_frame, report.holds, report.dual) == (False, False, None)
        assert report.note == f"dual member failed its rank check: {today.value}"
        assert str(today.value).startswith("basis matrix is rank deficient (singular values ")

    @pytest.mark.parametrize("sides", SIDES)
    @settings(max_examples=examples(6))
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    def test_canonical_dual(self, sides, n, seed):
        rng = rng_from_seed(seed)
        frame = random_vector_frame(self.space(n, sides, rng), rng)
        want = dual_oracle(frame)
        self.assert_same_spans(canonical_dual(frame), want)
        self.assert_bounds_close(dual_bounds_check(frame).dual_own_spans, optimal_bounds(want))

    def test_the_dual_spans_make_no_svd(self, count_calls):
        # twelve members in C^5: the dual's spans take one QR per side and no
        # SVD, and they settle every member's sign and S^-1's bound its rank,
        # so each member is one QR, unclassified; an SVD per side for the
        # dual's bounds and for its bounds over F's spans, and an eigvalsh
        # per dual span.  A vector frame's dual makes only the SVD per side
        # of its decided bounds
        fam = random_fusion_frame(KreinSpace.from_signs([1, 1, 1, -1, -1]), rng_from_seed(8), 6)
        certify(fam)
        svd, qr = count_calls(np.linalg, "svd"), count_calls(np.linalg, "qr")
        eigvalsh = count_calls(np.linalg, "eigvalsh")
        assert fusion_dual_bounds_check(fam).dual_is_frame
        assert (len(svd), len(qr), len(eigvalsh)) == (4, len(fam) + 2, 2)
        frame = random_vector_frame(fam.space, rng_from_seed(9))
        is_j_frame(frame)
        svd.clear(), qr.clear()
        assert is_j_frame(canonical_dual(frame))
        assert (len(svd), len(qr)) == (2, 2)


class TestAsWeightedFamily:
    def test_bounds_agree(self, coupled_frame):
        fam = as_weighted_family(coupled_frame)
        cert = certify(fam)
        assert cert.is_frame
        np.testing.assert_allclose(
            cert.optimal_bounds.as_tuple(),
            vframe_optimal_bounds(coupled_frame).as_tuple(),
            rtol=1e-9,
        )

    def test_bounds_agree_random(self):
        rng = rng_from_seed(39)
        for _ in range(10):
            space = random_space(rng, int(rng.integers(2, 7)))
            frame = random_vector_frame(space, rng)
            fam = as_weighted_family(frame)
            np.testing.assert_allclose(
                certify(fam).optimal_bounds.as_tuple(),
                vframe_optimal_bounds(frame).as_tuple(),
                rtol=1e-8,
                atol=1e-10,
            )


def side_vectors(space, rng, sign, kind):
    """Vectors of one sign whose span is maximal ("full"), uniformly definite of
    too small a dimension ("deficient"), or indefinite ("indefinite")."""
    maximal = random_maximal_definite_subspace(space, rng, sign, max_tilt=0.6)
    d = maximal.dim - (kind == "deficient")
    if d == 0:
        return []
    cols = maximal.ortho_basis[:, :d] @ random_complex(rng, d, d + 2)
    vectors = [c * rng.uniform(0.5, 2.0) for c in cols.T]
    if kind == "indefinite":
        # u +- v/2 keep the sign of u, but their span holds v of the other sign
        own, other = (
            (space.plus_basis, space.minus_basis)
            if sign == 1
            else (space.minus_basis, space.plus_basis)
        )
        u = own @ random_unit_vector(rng, own.shape[1])
        v = other @ random_unit_vector(rng, other.shape[1])
        vectors += [u + 0.5 * v, u - 0.5 * v]
    return vectors


class TestSharedSideKernel:
    """Vector frames and their rank-one families go through one side kernel."""

    KINDS = ("full", "deficient", "indefinite")

    @settings(max_examples=24)
    @given(
        n=st.integers(2, 64),
        kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vector_frame_agrees_with_its_family(self, n, kinds, seed):
        rng = rng_from_seed(seed)
        space = random_space(rng, n)
        vectors = side_vectors(space, rng, 1, kinds[0])
        vectors += side_vectors(space, rng, -1, kinds[1])
        assume(vectors)
        frame = VectorFrame(space, vectors)
        fam = as_weighted_family(frame)
        cert = certify(fam)
        sides = (
            (frame.m_plus, 1, kinds[0], cert.positive_range_dim,
             cert.positive_uniform, cert.positive_maximal),
            (frame.m_minus, -1, kinds[1], cert.negative_range_dim,
             cert.negative_uniform, cert.negative_maximal),
        )
        for m, sign, kind, dim, uniform, maximal in sides:
            v_dim, v_cls, v_maximal = _side_verdict(space, m, sign)
            v_uniform = v_cls is None or v_cls.sign == sign
            assert (v_dim, v_uniform, v_maximal) == (dim, uniform, maximal)
            assert v_maximal == (kind == "full")
            assert v_uniform == (kind != "indefinite")
        assert is_j_frame(frame) == cert.is_frame == (kinds == ("full", "full"))
        verdicts = lambda c: (
            c.is_frame, c.positive_range_dim, c.negative_range_dim, c.positive_uniform,
            c.negative_uniform, c.positive_maximal, c.negative_maximal,
        )
        assert verdicts(certify(frame)) == verdicts(cert)
        s = frame_operator(frame).matrix
        np.testing.assert_allclose(
            frame_operator(fam).matrix, s, rtol=0, atol=1e-12 * np.abs(s).max()
        )
        if cert.is_frame:
            np.testing.assert_allclose(
                cert.optimal_bounds.as_tuple(),
                vframe_optimal_bounds(frame).as_tuple(),
                rtol=1e-9,
            )

    @settings(max_examples=16)
    @given(n=st.integers(2, 64), extra=st.integers(0, 16), seed=st.integers(0, 2**32 - 1))
    def test_partial_operators_sum_to_the_frame_operator(self, n, extra, seed):
        rng = rng_from_seed(seed)
        frame = random_vector_frame(random_space(rng, n), rng, extra=extra)
        subset = np.flatnonzero(rng.uniform(size=len(frame)) < 0.5)
        rest = np.setdiff1d(np.arange(len(frame)), subset)
        s = frame_operator(frame).matrix
        total = partial_frame_operator(frame, subset) + partial_frame_operator(frame, rest)
        np.testing.assert_allclose(total, s, rtol=0, atol=1e-12 * np.abs(s).max())

    def test_overflowing_frame_operator_is_singular(self, minkowski):
        # every vector's squared norm is finite, the frame operator's entries
        # are not, and its condition number is nan; the decision's optimal
        # bound B+ = 3 * 9e153^2 overflows as well
        frame = VectorFrame(minkowski, [[9e153, 0], [9e153, 0], [9e153, 0], [0, 9e153]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert is_j_frame(frame)
            with pytest.raises(SingularOperatorError, match="cond = nan"):
                canonical_dual(frame)


class TestFamilyFunctionsTakeVectorFrames:
    """A VectorFrame is the rank-one family: the functions of fusion take it."""

    @pytest.mark.parametrize("n, seed", [(12, 0), (16, 1), (24, 2)])
    def test_optimal_bounds_against_the_rayleigh_oracle(self, n, seed):
        import scipy.linalg  # test-only reference for the side pencils

        rng = rng_from_seed(seed)
        frame = random_vector_frame(random_space(rng, n), rng, extra=2)
        bounds = certify(frame).optimal_bounds
        assert bounds.as_tuple() == vframe_optimal_bounds(frame).as_tuple()
        config = OracleConfig(n_samples=2000, seed=seed)
        sides = ((1, bounds.a_plus, bounds.b_plus), (-1, bounds.b_minus, bounds.a_minus))
        for sign, lo, hi in sides:
            scale = max(abs(lo), abs(hi))
            # sampled quotients are attained values: never outside the bounds
            o_lo, o_hi = rayleigh_extremes(frame, sign, config)
            assert lo - 1e-12 * scale <= o_lo <= o_hi <= hi + 1e-12 * scale
            # and its gradient ascent from the best samples reaches them
            assert o_lo - lo < 1e-6 * scale and hi - o_hi < 1e-6 * scale
            # the pencil of the side, solved densely
            u = frame.m_plus.ortho_basis if sign == 1 else frame.m_minus.ortho_basis
            g = u.conj().T @ frame.space.J @ frame.matrix[:, np.array(frame.signs) == sign]
            p = u.conj().T @ frame.space.J @ u
            vals = sign * scipy.linalg.eigh(
                g @ g.conj().T, sign * 0.5 * (p + p.conj().T), eigvals_only=True
            )
            assert abs(vals.min() - lo) <= 1e-9 * scale
            assert abs(vals.max() - hi) <= 1e-9 * scale

    @pytest.mark.parametrize("vectors, sides", [
        ([[1.0, 0.0], [2.0, 0.5], [0.0, 1.0]], 2),  # both signs
        ([[1.0, 0.0], [2.0, 0.5]], 1),  # no negative vector
    ])
    def test_spans_wait_for_the_decision(self, minkowski, count_calls, vectors, sides):
        # the spans wait until the decision reads them; then the positive
        # side, whose second vector is off the first, takes the SVD of its
        # columns, and the negative side, if any, settles from its one
        # column by a 1 x 1 Cholesky proof, with no SVD of R
        svd = count_calls(np.linalg, "svd")
        cholesky = count_calls(np.linalg, "cholesky")
        frame = VectorFrame(minkowski, vectors)
        assert svd == []
        is_j_frame(frame)
        assert (len(svd), len(cholesky)) == (1, sides - 1)

    @settings(max_examples=10)
    @given(n=st.integers(2, 64), c=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_bounds_scale_under_a_multiple_of_a_j_unitary(self, n, c, seed):
        # T = sqrt(c) U with U J-unitary has T# T = c I: every frame
        # quotient over the image spans is c times the original one
        rng = rng_from_seed(seed)
        space = random_space(rng, n)
        frame = random_vector_frame(space, rng)
        t = kreinframes.Operator(space, np.sqrt(c) * random_j_unitary(space, rng).matrix)
        scalar, scale = is_j_isometry_multiple(t)
        assert scalar and scale == pytest.approx(c, rel=1e-9)
        image = VectorFrame(space, (t.matrix @ frame.matrix).T)
        np.testing.assert_allclose(
            vframe_optimal_bounds(image).as_tuple(),
            c * np.array(vframe_optimal_bounds(frame).as_tuple()),
            rtol=1e-9,
        )


class TestHilbertSpecialization:
    def test_trivial_partition_reduces_to_classical(self):
        rng = rng_from_seed(40)
        space = KreinSpace(np.eye(4))
        vectors = [random_complex(rng, 4) for _ in range(6)]
        frame = VectorFrame(space, vectors)
        assert frame.signs == [1] * 6
        s = frame_operator(frame).matrix
        f_mat = frame.matrix
        np.testing.assert_allclose(s, f_mat @ f_mat.conj().T, atol=1e-10)
        assert np.linalg.eigvalsh(s)[0] > 0
        dual = canonical_dual(frame)
        np.testing.assert_allclose(
            dual.matrix, np.linalg.inv(s) @ f_mat, atol=1e-10
        )
