"""Tests for operators acting on subspaces and weighted families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinframes import (
    KreinSpace,
    Operator,
    Subspace,
    SubspaceKind,
    Tolerances,
    WeightedFamily,
)
from kreinframes.errors import (
    ClassificationError,
    HypothesisNotMetError,
    KreinFramesError,
    MemberClassificationError,
    NotSurjectiveError,
)
from kreinframes import transforms
from kreinframes.fusion import certify
from kreinframes.core import gramian
from kreinframes.sampling import (
    random_definite_subspace,
    random_maximal_definite_subspace,
    random_regular_subspace,
    random_complex,
    rng_from_seed,
)
from kreinframes.transforms import (
    alternating_signature_space,
    image_subspace,
    is_j_isometry_multiple,
    necessary_conditions_check,
    neutral_image_operator,
    preservation_report,
    preserves_definiteness_with_sign,
    preserves_maximality,
    preserves_regularity,
    projection_commutation_check,
    transform_family,
)

from generators import random_fusion_frame, random_j_unitary, random_space


@pytest.fixture
def alt4():
    return alternating_signature_space(4)


class TestImageSubspace:
    def test_identity_preserves_span(self, c3):
        v = Subspace(c3, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        img = image_subspace(Operator(c3, np.eye(3)), v)
        assert img.dim == 2
        np.testing.assert_allclose(
            img.ortho_basis @ img.ortho_basis.conj().T @ v.ortho_basis,
            v.ortho_basis,
            atol=1e-12,
        )

    def test_annihilated_subspace_gives_none(self, c3):
        t = Operator(c3, np.diag([0.0, 1.0, 1.0]))
        v = Subspace(c3, [[1.0], [0.0], [0.0]])
        assert image_subspace(t, v) is None

    def test_rank_drop(self, c3):
        t = Operator(c3, [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        v = Subspace(c3, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        img = image_subspace(t, v)
        assert img.dim == 1


class TestDefinitenessPredicate:
    def test_j_unitary_holds_on_samples(self, c3):
        rng = rng_from_seed(7)
        u = random_j_unitary(c3, rng)
        verdict = preserves_definiteness_with_sign(u, n_random=60, seed=3)
        assert verdict.holds
        assert verdict.counterexample is None
        assert verdict.samples_tested == 60
        assert "not a proof" in verdict.note

    def test_neutral_image_counterexample(self, alt4):
        t = neutral_image_operator(alt4)
        e1 = Subspace(alt4, [[1.0], [0.0], [0.0], [0.0]])
        verdict = preserves_definiteness_with_sign(t, [e1], n_random=0)
        assert not verdict.holds
        assert verdict.status == "counterexample"
        assert verdict.counterexample is e1
        assert "neutral" in verdict.detail
        # the offending image really is the neutral line through (1, 1, 0, 0)
        img = image_subspace(t, e1)
        assert img.classify().kind is SubspaceKind.NEUTRAL
        np.testing.assert_allclose(
            np.abs(img.ortho_basis.ravel()),
            np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2),
            atol=1e-12,
        )

    def test_rejects_non_definite_input(self, c3):
        t = Operator(c3, np.eye(3))
        mixed = Subspace(c3, np.eye(3))
        from kreinframes.errors import ClassificationError

        with pytest.raises(ClassificationError):
            preserves_definiteness_with_sign(t, [mixed], n_random=0)


class TestMaximalityPredicate:
    def test_j_unitary_holds_on_samples(self, c3):
        rng = rng_from_seed(11)
        u = random_j_unitary(c3, rng)
        verdict = preserves_maximality(u, n_random=60, seed=5)
        assert verdict.holds

    def test_singular_operator_counterexample(self, c3):
        t = Operator(c3, np.diag([1.0, 0.0, 1.0]))
        plane = Subspace(c3, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        verdict = preserves_maximality(t, [plane], n_random=0)
        assert not verdict.holds
        assert "not maximal" in verdict.detail


class TestRegularityPredicate:
    def test_j_unitary_holds_on_samples(self, c3):
        rng = rng_from_seed(13)
        u = random_j_unitary(c3, rng)
        verdict = preserves_regularity(u, n_random=60, seed=9)
        assert verdict.holds

    def test_neutral_image_counterexample(self, alt4):
        t = neutral_image_operator(alt4)
        e1 = Subspace(alt4, [[1.0], [0.0], [0.0], [0.0]])
        verdict = preserves_regularity(t, [e1], n_random=0)
        assert not verdict.holds
        assert "degenerate" in verdict.detail


class TestSweep:
    @pytest.mark.parametrize(
        "predicate, sampler, cols",
        [
            (preserves_definiteness_with_sign, "random_definite_subspace", [0]),
            (preserves_maximality, "random_maximal_definite_subspace", [0, 2]),
            (preserves_regularity, "random_regular_subspace", [0]),
        ],
    )
    def test_supplied_counterexample_draws_no_sample(
        self, alt4, count_calls, predicate, sampler, cols
    ):
        # the images of span{e1} and of span{e1, e3} contain the neutral (1, 1, 0, 0)
        t = neutral_image_operator(alt4)
        w = Subspace(alt4, np.eye(4)[:, cols])
        calls = count_calls(transforms, sampler)
        verdict = predicate(t, [w], n_random=50, seed=2)
        assert verdict.counterexample is w
        assert verdict.samples_tested == 1
        assert len(calls) == 0

    def test_drawn_counterexample_is_the_last_draw(self, alt4, count_calls):
        t = neutral_image_operator(alt4)
        calls = count_calls(transforms, "random_definite_subspace")
        verdict = preserves_definiteness_with_sign(t, n_random=100, seed=0)
        assert not verdict.holds
        assert len(calls) == verdict.samples_tested < 100
        # the same generator stream, drawn with the sign rule written out
        rng = rng_from_seed(0)
        for _ in range(verdict.samples_tested):
            sign = 1 if rng.uniform() < 0.5 else -1
            expected = random_definite_subspace(alt4, rng, sign)
        np.testing.assert_array_equal(verdict.counterexample.basis, expected.basis)


class TestPreservationReport:
    def test_j_unitary_all_hold(self, c3):
        rng = rng_from_seed(17)
        u = random_j_unitary(c3, rng)
        report = preservation_report(u, n_random=40, seed=1)
        assert report.definiteness_with_sign.holds
        assert report.maximality.holds
        assert report.regularity.holds

    def test_neutral_image_fails_two_predicates(self, alt4):
        t = neutral_image_operator(alt4)
        e1 = Subspace(alt4, [[1.0], [0.0], [0.0], [0.0]])
        report = preservation_report(t, [e1], n_random=0)
        assert not report.definiteness_with_sign.holds
        assert not report.regularity.holds


def one_operator_report(T, subspaces, n_random, seed):
    """preservation_report of T alone, or the library error it raises."""
    try:
        return preservation_report(T, subspaces, n_random, seed)
    except KreinFramesError as exc:
        return exc


def assert_same_report(joint, alone):
    if isinstance(alone, KreinFramesError):
        assert type(joint) is type(alone) and str(joint) == str(alone)
        return
    for field in ("definiteness_with_sign", "maximality", "regularity"):
        a, b = getattr(joint, field), getattr(alone, field)
        assert (a.status, a.detail, a.samples_tested) == (
            b.status, b.detail, b.samples_tested
        ), field
        if b.counterexample is None:
            assert a.counterexample is None
        else:
            np.testing.assert_array_equal(a.counterexample.basis, b.counterexample.basis)
            np.testing.assert_array_equal(
                a.counterexample.ortho_basis, b.counterexample.ortho_basis
            )


def mixed_operators(space, seed=3):
    """J-unitary, scaled, neutral-image, rank-deficient and zero operators."""
    u = random_j_unitary(space, rng_from_seed(seed))
    return [
        u,
        Operator(space, 2.5 * u.matrix),
        neutral_image_operator(space),
        Operator(space, np.diag([1.0, 1.0, 0.0, 0.0])),
        Operator(space, np.zeros((4, 4))),
    ]


def alt4_subspaces(space):
    """e1, span{e1, e3} (maximal positive), span{e1, e2} and a neutral line."""
    return [
        Subspace(space, np.eye(4)[:, cols])
        for cols in ([0], [0, 2], [0, 1])
    ] + [Subspace(space, [[1.0], [1.0], [0.0], [0.0]])]


class TestJointSweep:
    """One sweep per predicate for several operators gives each operator's
    one-operator result."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    @pytest.mark.parametrize("supplied", [False, True])
    def test_matches_one_operator_calls(self, alt4, seed, supplied):
        ops = mixed_operators(alt4)
        subspaces = alt4_subspaces(alt4) if supplied else []
        joint = transforms._preservation_reports(ops, subspaces, 40, seed)
        assert len(joint) == len(ops)
        for T, report in zip(ops, joint):
            assert_same_report(report, one_operator_report(T, subspaces, 40, seed))

    @pytest.mark.parametrize(
        "tol, errors",
        [
            (Tolerances(tau_def=0.15), 0),
            (Tolerances(tau_def=0.3), 1),
            (Tolerances(tau_rank=0.5), 5),
        ],
    )
    def test_errors_match_one_operator_calls(self, tol, errors):
        # tolerances past the samplers' margins: the identity's draws, or
        # every draw, raise; the other operators are refuted first
        space = alternating_signature_space(4, tol=tol)
        ops = mixed_operators(space) + [Operator(space, np.eye(4))]
        subspaces = [Subspace(space, np.eye(4)[:, [0]])]
        joint = transforms._preservation_reports(ops, subspaces, 60, 1)
        alone = [one_operator_report(T, subspaces, 60, 1) for T in ops]
        assert sum(isinstance(r, KreinFramesError) for r in alone) == errors
        for report, expected in zip(joint, alone):
            assert_same_report(report, expected)

    def test_refuted_operator_keeps_its_counterexample_past_an_error(self):
        # the neutral-image operator is refuted on e1 before the draw that
        # fails tau_def = 0.3, so only the identity gets the error
        space = alternating_signature_space(4, tol=Tolerances(tau_def=0.3))
        e1 = Subspace(space, np.eye(4)[:, [0]])
        ops = [neutral_image_operator(space), Operator(space, np.eye(4))]
        refuted, failed = transforms._preservation_reports(ops, [e1], 60, 1)
        assert isinstance(failed, ClassificationError)
        assert refuted.definiteness_with_sign.counterexample is e1
        assert refuted.maximality.samples_tested > 0

    def test_operators_that_hold_draw_each_sample_once(self, alt4, count_calls):
        ops = mixed_operators(alt4)[:2]
        samplers = (
            "random_definite_subspace",
            "random_maximal_definite_subspace",
            "random_regular_subspace",
        )
        calls = {name: count_calls(transforms, name) for name in samplers}
        reports = transforms._preservation_reports(ops, [], 25, 4)
        assert all(r.definiteness_with_sign.holds for r in reports)
        assert all(r.maximality.holds and r.regularity.holds for r in reports)
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(samplers, 25)

    @pytest.mark.parametrize(
        "field, sampler",
        [
            ("definiteness_with_sign", "random_definite_subspace"),
            ("maximality", "random_maximal_definite_subspace"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_draw_after_the_last_operator_stops(
        self, alt4, count_calls, field, sampler, seed
    ):
        ops = mixed_operators(alt4)[2:]
        calls = count_calls(transforms, sampler)
        reports = transforms._preservation_reports(ops, [], 100, seed)
        verdicts = [getattr(r, field) for r in reports]
        assert not any(v.holds for v in verdicts)
        assert len(calls) == max(v.samples_tested for v in verdicts) < 100

    def test_no_operators(self, alt4):
        assert transforms._preservation_reports([], alt4_subspaces(alt4), 10, 0) == []


PREDICATES = {
    "definiteness_with_sign": (
        transforms._signed(random_definite_subspace), transforms._check_definite
    ),
    "maximality": (
        transforms._signed(random_maximal_definite_subspace), transforms._check_maximal
    ),
    "regularity": (random_regular_subspace, transforms._check_regular),
}


def sampled_report(T, n_random, seed):
    """The three one-operator predicates, which test every image."""
    return transforms.PreservationReport(
        preserves_definiteness_with_sign(T, (), n_random, seed),
        preserves_maximality(T, (), n_random, seed),
        preserves_regularity(T, (), n_random, seed),
    )


@pytest.fixture
def alt48_ops():
    """A J-unitary operator, twice it and the neutral-image operator on C^48."""
    space = alternating_signature_space(48)
    u = random_j_unitary(space, rng_from_seed(3))
    return [u, Operator(space, 2.0 * u.matrix), neutral_image_operator(space)]


class TestCertificate:
    """T# T = c I + E settles an image check only where the check passes."""

    @settings(max_examples=40)
    @given(
        n=st.integers(2, 48),
        log_c=st.floats(-3.0, 3.0),
        boost=st.floats(0.0, 3.45),  # kappa(T) up to exp(2 * 3.45), about 1e3
        log_tau_def=st.floats(-8.0, -0.7),
        log_tau_rank=st.floats(-10.0, -2.0),
        diagonal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_settled_checks_pass(
        self, n, log_c, boost, log_tau_def, log_tau_rank, diagonal, seed
    ):
        rng = rng_from_seed(seed)
        tol = Tolerances(tau_def=10.0**log_tau_def, tau_rank=10.0**log_tau_rank)
        space = random_space(rng, n, diagonal=diagonal, tol=tol)
        t = Operator(space, 10.0 ** (log_c / 2) * random_j_unitary(space, rng, boost).matrix)
        cert = transforms._isometry_scale(t)
        c, r, norm, kappa = cert
        for draw, check in PREDICATES.values():
            for _ in range(4):
                try:
                    v = draw(space, rng)
                except KreinFramesError:
                    continue  # a basis rank deficient at this tau_rank
                settled = transforms._settles(v, cert)
                if settled:
                    assert check(t, v) is None
                # the bounds behind the certificate, on the computed image
                bound = (c * v._gram_margin() - r) / norm**2
                if not settled and (bound <= 0 or kappa * v._cond * tol.tau_rank > 0.5):
                    continue
                img = image_subspace(t, v)
                eigs = np.linalg.eigvalsh(gramian(img))
                assert img.dim == v.dim
                assert np.abs(eigs).min() > bound - 1e-9
                signs = np.sign(np.linalg.eigvalsh(gramian(v)))
                np.testing.assert_array_equal(np.sign(eigs), signs)

    @pytest.mark.parametrize(
        "tol, boost",
        [(Tolerances(tau_def=0.01), 1.5), (Tolerances(tau_rank=1e-3), 3.2)],
    )
    def test_unsettled_images_are_computed(self, count_calls, tol, boost):
        # the bound is within the safety factor of tau_def for some samples,
        # or kappa(T) kappa(V.basis) tau_rank is not far below 1 for some
        space = alternating_signature_space(48, tol=tol)
        t = Operator(space, 3.0 * random_j_unitary(space, rng_from_seed(5), boost).matrix)
        calls = count_calls(transforms, "image_subspace")
        (report,) = transforms._preservation_reports([t], [], 40, 1)
        assert 0 < len(calls) < 3 * 40
        calls.clear()
        assert_same_report(report, sampled_report(t, 40, 1))
        assert len(calls) > 0

    @pytest.mark.parametrize(
        "matrix, settles",
        [
            (np.eye(4), True),
            (neutral_image_operator(alternating_signature_space(4)).matrix, False),
            (np.zeros((4, 4)), False),
            (np.fliplr(np.eye(4)), False),  # T# T = -I
        ],
    )
    def test_only_isometry_multiples_settle(self, alt4, matrix, settles):
        cert = transforms._isometry_scale(Operator(alt4, matrix))
        for v in alt4_subspaces(alt4)[:2] + [Subspace(alt4, np.eye(4)[:, 1:3])]:
            assert transforms._settles(v, cert) is settles


class TestCertifiedSweep:
    def test_certified_operators_compute_no_image(self, alt48_ops, count_calls):
        calls = count_calls(transforms, "image_subspace")
        reports = transforms._preservation_reports(alt48_ops[:2], [], 50, 0)
        assert len(calls) == 0
        for T, report in zip(alt48_ops, reports):
            assert_same_report(report, sampled_report(T, 50, 0))

    def test_only_the_other_operator_computes_images(self, alt48_ops, count_calls):
        calls = count_calls(transforms, "image_subspace")
        reports = transforms._preservation_reports(alt48_ops, [], 50, 0)
        neutral = reports[2]
        tested = [getattr(neutral, f).samples_tested for f in PREDICATES]
        # congruence by T* J T settles each of its 50 regularity checks
        assert tested[2] == 50
        assert len(calls) == tested[0] + tested[1]
        assert all(args[0] is alt48_ops[2] for args in calls)
        for T, report in zip(alt48_ops, reports):
            assert_same_report(report, sampled_report(T, 50, 0))

    def test_maximal_draws_make_no_svd(self, alt48_ops, count_calls):
        ops = [(T, transforms._isometry_scale(T)) for T in alt48_ops]
        images = count_calls(transforms, "image_subspace")
        svds = count_calls(np.linalg, "svd")
        draw, check = PREDICATES["maximality"]
        verdicts = transforms._sweep(ops, [], 100, 0, draw, check)
        assert [v.holds for v in verdicts] == [True, True, False]
        # one SVD per image of the neutral-image operator, none per draw
        assert len(svds) == len(images) == verdicts[2].samples_tested
        v = verdicts[2].counterexample
        u = v.ortho_basis  # the reported counterexample's SVD
        assert len(svds) == len(images) + 1
        eager = Subspace(v.space, v.basis)
        np.testing.assert_array_equal(u, eager.ortho_basis)
        assert v.classify() == eager.classify()

    def test_definite_draws_make_one_svd_each(self, count_calls):
        space = alternating_signature_space(48)
        svds = count_calls(np.linalg, "svd")
        rng = rng_from_seed(0)
        drawn = [random_definite_subspace(space, rng, sign) for sign in (1, -1, 1)]
        assert len(svds) == len(drawn)

    @pytest.mark.parametrize("tau_rank, svds_per_draw", [(1e-10, 0), (0.3, 1)])
    def test_draw_defers_its_svd_while_its_rank_is_settled(
        self, count_calls, tau_rank, svds_per_draw
    ):
        # at 4 tau_rank sqrt(1 + t^2) >= 1 the draw decides its rank by the
        # SVD, as Subspace does
        space = alternating_signature_space(48, tol=Tolerances(tau_rank=tau_rank))
        svds = count_calls(np.linalg, "svd")
        rng = rng_from_seed(0)
        for _ in range(5):
            random_maximal_definite_subspace(space, rng, 1)
        assert len(svds) == 5 * svds_per_draw


    def test_settled_draws_build_no_basis(self, alt48_ops, count_calls):
        # _settles reads a draw's bounds only, so ||k||_2 waits for a check
        ops = [(T, transforms._isometry_scale(T)) for T in alt48_ops]
        norms = count_calls(np.linalg, "norm")
        for name in ("definiteness_with_sign", "maximality"):
            draw, check = PREDICATES[name]
            checked = []

            def counted(T, v):
                checked.append(T)
                return check(T, v)

            verdicts = transforms._sweep(ops[:2], [], 50, 0, draw, counted)
            assert [v.holds for v in verdicts] == [True, True]
            assert len(norms) == len(checked) == 0
            verdicts = transforms._sweep(ops, [], 50, 0, draw, counted)
            assert not verdicts[2].holds
            assert all(T is alt48_ops[2] for T in checked)
            assert len(norms) == len(checked) == verdicts[2].samples_tested
            norms.clear()


def eager_maximal_basis(space, rng, sign, max_tilt=0.8):
    """A maximal draw's basis, computed at draw time with ||k||_2 first."""
    dom, codom = space.component(sign), space.component(-sign)
    k = random_complex(rng, codom.shape[1], dom.shape[1])
    nrm = np.linalg.norm(k, 2)
    tilt = 0.0
    if nrm > 0:
        tilt = float(rng.uniform(0.0, max_tilt))
        k *= tilt / nrm
    return dom + codom @ k


def eager_definite_basis(space, rng, sign):
    """A definite draw's basis, computed at draw time: a slice of a maximal one."""
    basis = eager_maximal_basis(space, rng, sign)
    d = basis.shape[1]
    coeff = random_complex(rng, d, int(rng.integers(1, d + 1)))
    return basis @ coeff


class ZeroTilt:
    """A generator whose uniform draws are all 0.0."""

    def __init__(self, rng):
        self.rng = rng

    def uniform(self, *args):
        return 0.0

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestLazyDraws:
    """A draw's basis, built when first read, has the bits of one built at draw time."""

    @pytest.mark.parametrize("n", [2, 4, 12, 48])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "sampler, eager",
        [
            (random_maximal_definite_subspace, eager_maximal_basis),
            (random_definite_subspace, eager_definite_basis),
        ],
    )
    def test_bases_are_bit_identical(self, n, sign, sampler, eager):
        space = alternating_signature_space(n)
        rng, ref_rng = rng_from_seed(n), rng_from_seed(n)
        drawn, expected = [], []
        for _ in range(6):
            drawn.append(sampler(space, rng, sign))
            expected.append(eager(space, ref_rng, sign))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        for v, basis in reversed(list(zip(drawn, expected))):  # read last draw first
            assert v.basis.shape == basis.shape
            assert v.basis.tobytes() == basis.tobytes()
            assert not v.basis.flags.writeable

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_zero_tilt_zeroes_k(self, sign):
        space = alternating_signature_space(4)
        v = random_maximal_definite_subspace(space, ZeroTilt(rng_from_seed(0)), sign)
        assert (v._cond, v._margin) == (1.0, 1.0)
        np.testing.assert_array_equal(v.basis, space.component(sign))

    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 1e308])
    def test_nonzero_k_has_a_positive_norm(self, value):
        for k in (np.full((3, 2), complex(value, value)), np.zeros((3, 2), complex)):
            k[1, 0] = complex(value, -value)
            assert k.any() == (np.linalg.norm(k, 2) > 0)
            assert k.any() == (value != 0.0)


def congruent_cert(T):
    """The regularity sweep's certificate: _isometry_scale(T) and T* J T."""
    return (*transforms._isometry_scale(T), T.matrix.conj().T @ T.space.J @ T.matrix)


class TestCongruence:
    """T* J T settles a regularity check only where the check passes."""

    @settings(max_examples=40)
    @given(
        n=st.integers(2, 48),
        log_scale=st.floats(-3.0, 3.0),
        log_kappa=st.floats(0.0, 3.0),
        log_tau_def=st.floats(-8.0, -2.0),
        diagonal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_settled_checks_pass(self, n, log_scale, log_kappa, log_tau_def, diagonal, seed):
        rng = rng_from_seed(seed)
        space = random_space(rng, n, diagonal=diagonal, tol=Tolerances(tau_def=10.0**log_tau_def))
        # an invertible T with kappa(T) = 10^log_kappa, no J-isometry multiple
        q1, _ = np.linalg.qr(random_complex(rng, n, n))
        q2, _ = np.linalg.qr(random_complex(rng, n, n))
        s = np.logspace(0.0, -log_kappa, n) if n > 1 else np.ones(1)
        t = Operator(space, 10.0**log_scale * (q1 * s) @ q2)
        assert not is_j_isometry_multiple(t)[0]
        cert = congruent_cert(t)
        norm = cert[2]
        for _ in range(6):
            v = random_regular_subspace(space, rng)
            if not transforms._settles(v, cert):
                continue
            assert transforms._check_regular(t, v) is None
            # Ostrowski: the image's Gramian keeps |eigenvalues of U* H U| / ||T||^2
            u = v.ortho_basis
            g = u.conj().T @ cert[4] @ u
            bound = np.abs(np.linalg.eigvalsh(0.5 * (g + g.conj().T))).min() / norm**2
            img = image_subspace(t, v)
            assert img.dim == v.dim
            assert np.abs(np.linalg.eigvalsh(gramian(img))).min() > bound * (1 - 1e-9)

    def test_settles_most_draws_at_default_tolerances(self, alt48_ops):
        t = alt48_ops[2]
        cert = congruent_cert(t)
        rng = rng_from_seed(0)
        draws = [random_regular_subspace(t.space, rng) for _ in range(40)]
        assert not any(transforms._settles(v, cert[:4]) for v in draws)
        assert all(transforms._settles(v, cert) for v in draws)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize(
        "eps, degenerate",
        # the image of span{e1 + eps e2} has a Gramian of about -eps
        [(0.0, True), (1e-9, True), (3e-8, False)],
    )
    def test_near_neutral_images_fall_back(self, minkowski, scale, eps, degenerate):
        t = Operator(minkowski, scale * neutral_image_operator(minkowski).matrix)
        v = Subspace(minkowski, [[1.0], [eps]])
        assert not transforms._settles(v, congruent_cert(t))
        (report,) = transforms._preservation_reports([t], [v], 0, 0)
        assert report.regularity.holds is not degenerate
        if degenerate:
            assert report.regularity.counterexample is v
            assert report.regularity.detail == "image is degenerate"

    def test_a_regular_image_settles(self, minkowski):
        # T e2 = (1, 2), with [x, x] = -3
        t = neutral_image_operator(minkowski)
        v = Subspace(minkowski, [[0.0], [1.0]])
        assert transforms._settles(v, congruent_cert(t))
        assert transforms._check_regular(t, v) is None


class TestDefiniteSlices:
    """A definite draw is a lazy slice of its maximal graph."""

    @pytest.mark.parametrize("n", [4, 12, 48])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_bounds_hold_and_bits_match(self, n, sign):
        space = alternating_signature_space(n)
        rng = rng_from_seed(n)
        for _ in range(10):
            v = random_definite_subspace(space, rng, sign)
            assert v._ortho is None and v._classification is None
            margin, cond = v._gram_margin(), v._cond
            eager = Subspace(space, v.basis)
            assert margin <= eager._gram_margin() * (1 + 1e-12)
            assert cond >= eager._cond * (1 - 1e-12)
            np.testing.assert_array_equal(v.ortho_basis, eager.ortho_basis)
            assert v.classify() == eager.classify()
            assert v.classify().sign == sign

    def test_large_tau_rank_takes_the_exact_path(self, count_calls):
        # 4 tau_rank cond >= 1: the maximal draw and its slice each make their
        # SVD, besides the slice's coefficient SVD
        space = alternating_signature_space(12, tol=Tolerances(tau_rank=0.3))
        svds = count_calls(np.linalg, "svd")
        v = random_definite_subspace(space, rng_from_seed(0), 1)
        assert len(svds) == 3
        assert v._ortho is not None
        eager = Subspace(space, v.basis)
        np.testing.assert_array_equal(v.ortho_basis, eager.ortho_basis)
        assert v._cond == eager._cond


class TestTransformFamily:
    def test_identity_reproduces_bounds(self, tilted_family):
        family, cert = transform_family(
            Operator(tilted_family.space, np.eye(3)), tilted_family
        )
        assert cert.is_frame
        base = certify(tilted_family)
        np.testing.assert_allclose(
            cert.optimal_bounds.as_tuple(),
            base.optimal_bounds.as_tuple(),
            rtol=1e-10,
        )

    def test_scaled_j_unitary_leaves_spans_fixed(self, tilted_family):
        # scaling an operator by c does not move column spaces, so the
        # image family and its bounds agree for U and 3U
        rng = rng_from_seed(23)
        u = random_j_unitary(tilted_family.space, rng)
        scaled = Operator(tilted_family.space, 3.0 * u.matrix)
        fam_u, cert_u = transform_family(u, tilted_family)
        fam_s, cert_s = transform_family(scaled, tilted_family)
        assert cert_u.is_frame and cert_s.is_frame
        np.testing.assert_allclose(
            cert_u.optimal_bounds.as_tuple(),
            cert_s.optimal_bounds.as_tuple(),
            rtol=1e-9,
        )

    def test_j_unitary_images_certify_random(self):
        rng = rng_from_seed(29)
        for _ in range(10):
            space = rng_and_space(rng)
            fam = random_fusion_frame(space, rng)
            u = random_j_unitary(space, rng)
            _, cert = transform_family(u, fam)
            assert cert.is_frame

    def test_singular_operator_rejected(self, tilted_family):
        t = Operator(tilted_family.space, np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(NotSurjectiveError):
            transform_family(t, tilted_family)

    def test_neutral_image_member_rejected(self, alt4):
        e1 = Subspace(alt4, [[1.0], [0.0], [0.0], [0.0]])
        e2 = Subspace(alt4, [[0.0], [1.0], [0.0], [0.0]])
        e3 = Subspace(alt4, [[0.0], [0.0], [1.0], [0.0]])
        e4 = Subspace(alt4, [[0.0], [0.0], [0.0], [1.0]])
        fam = WeightedFamily(alt4, [e1, e2, e3, e4], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(MemberClassificationError):
            transform_family(neutral_image_operator(alt4), fam)


def rng_and_space(rng):
    from generators import random_space

    n = int(rng.integers(2, 5))
    p = int(rng.integers(1, n))
    return random_space(rng, n, p)


class TestProjectionCommutation:
    def test_random_regular_images(self):
        rng = rng_from_seed(31)
        for _ in range(100):
            space = rng_and_space(rng)
            t = random_j_unitary(space, rng)
            v = random_regular_subspace(space, rng)
            assert projection_commutation_check(t, v) < 1e-9

    def test_identity_operator_exact(self, c3):
        v = Subspace(c3, [[0.0], [2.0], [1.0]])
        assert projection_commutation_check(Operator(c3, np.eye(3)), v) < 1e-12


class TestJIsometryMultiple:
    def test_scalar_multiple_of_identity(self, c3):
        verdict, c = is_j_isometry_multiple(Operator(c3, 3.0 * np.eye(3)))
        assert verdict
        assert c == pytest.approx(9.0)

    def test_fundamental_symmetry(self, c3):
        verdict, c = is_j_isometry_multiple(Operator(c3, c3.J))
        assert verdict
        assert c == pytest.approx(1.0)

    def test_scaled_random_j_unitary(self, c3):
        rng = rng_from_seed(37)
        u = random_j_unitary(c3, rng)
        verdict, c = is_j_isometry_multiple(Operator(c3, 0.5 * u.matrix))
        assert verdict
        assert c == pytest.approx(0.25)

    def test_neutral_image_operator_is_not(self, alt4):
        verdict, _ = is_j_isometry_multiple(neutral_image_operator(alt4))
        assert not verdict

    @pytest.mark.parametrize("scale", [1.0, 1e-5])
    def test_scaled_neutral_image_operator_is_not(self, alt4, scale):
        t = Operator(alt4, scale * neutral_image_operator(alt4).matrix)
        verdict, _ = is_j_isometry_multiple(t)
        assert not verdict

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    def test_scaled_j_unitary_at_any_scale(self, c3, scale):
        u = random_j_unitary(c3, rng_from_seed(37))
        verdict, c = is_j_isometry_multiple(Operator(c3, scale * u.matrix))
        assert verdict
        assert c == pytest.approx(scale**2)

    def test_negative_multiple_rejected(self, c3):
        # T# T = -I has no positive scale factor
        t = Operator(c3, np.array([[0, 0, 1], [0, 1j, 0], [1, 0, 0]], dtype=complex))
        verdict, _ = is_j_isometry_multiple(t)
        assert not verdict


class TestNecessaryConditions:
    def test_j_unitary_image_decomposes(self, tilted_family):
        rng = rng_from_seed(41)
        u = random_j_unitary(tilted_family.space, rng)
        report = necessary_conditions_check(u, tilted_family)
        assert report.holds
        assert report.positive_image_dim == 2
        assert report.negative_image_dim == 1
        assert report.positive_image_maximal
        assert report.negative_image_maximal
        assert report.direct_sum

    def test_sufficient_certificate_implies_preservation(self, c3):
        # an operator certified as a J-isometry multiple must pass every
        # sampling predicate; this ties the exact certificate to the
        # refutation machinery
        rng = rng_from_seed(43)
        u = Operator(c3, 2.0 * random_j_unitary(c3, rng).matrix)
        verdict, c = is_j_isometry_multiple(u)
        assert verdict and c == pytest.approx(4.0)
        report = preservation_report(u, n_random=40, seed=2)
        assert report.definiteness_with_sign.holds
        assert report.maximality.holds
        assert report.regularity.holds

    def test_non_frame_input_rejected(self, c3):
        w = Subspace(c3, [[1.0], [0.0], [0.0]])
        fam = WeightedFamily(c3, [w], [1.0])
        with pytest.raises(HypothesisNotMetError):
            necessary_conditions_check(Operator(c3, np.eye(3)), fam)

    def test_sign_swapping_operator_is_caught(self, minkowski):
        # T swaps e1 and e2: the image family is a frame again, but the image
        # of F's positive members is negative, so over F's index sets
        # neither image span is maximal with its own sign
        e1 = Subspace(minkowski, [[1.0], [0.0]])
        e2 = Subspace(minkowski, [[0.0], [1.0]])
        fam = WeightedFamily(minkowski, [e1, e2], [1.0, 2.0])
        swap = Operator(minkowski, [[0.0, 1.0], [1.0, 0.0]])
        assert transform_family(swap, fam)[1].is_frame
        report = necessary_conditions_check(swap, fam)
        assert (report.positive_image_dim, report.negative_image_dim) == (1, 1)
        assert not report.positive_image_maximal
        assert not report.negative_image_maximal
        assert report.direct_sum
        assert not report.holds


class TestAlternatingSpace:
    def test_signature(self):
        space = alternating_signature_space(6)
        assert space.signature == (3, 3)
        np.testing.assert_allclose(space.J, np.diag([1, -1, 1, -1, 1, -1]))

    def test_too_small(self):
        with pytest.raises(ValueError):
            alternating_signature_space(1)


class TestNeutralImageOperator:
    def test_invertible(self, alt4):
        assert abs(np.linalg.det(neutral_image_operator(alt4).matrix)) > 0.5

    def test_image_of_first_axis_is_neutral(self, alt4):
        t = neutral_image_operator(alt4)
        e1 = Subspace(alt4, [[1.0], [0.0], [0.0], [0.0]])
        img = image_subspace(t, e1)
        assert img.classify().kind is SubspaceKind.NEUTRAL
