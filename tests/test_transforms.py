"""Tests for operators acting on subspaces and weighted families."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    DimensionError,
    HypothesisNotMetError,
    KreinFramesError,
    MemberClassificationError,
    NotSurjectiveError,
)
from kreinframes import sampling, transforms
from kreinframes.fusion import bounds_sandwich_ok, certify, converse_check
from kreinframes.core import _def_floor, gramian, j_adjoint
from kreinframes.sampling import (
    random_definite_subspace,
    random_maximal_definite_subspace,
    random_regular_subspace,
    random_complex,
    rng_from_seed,
)
from kreinframes.transforms import (
    image_subspace,
    is_j_isometry_multiple,
    necessary_conditions_check,
    preservation_report,
    preserves_definiteness_with_sign,
    preserves_maximality,
    preserves_regularity,
    projection_commutation_check,
    transform_family,
)

from generators import (
    alternating_signature_space,
    examples,
    neutral_image_operator,
    random_fusion_frame,
    random_j_unitary,
    random_space,
)
from oracles import gramian_min_modulus


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


class TestOperandsFromAnotherSpace:
    """An operator refuses a subspace or a family of another Krein space: with
    T = I on diag(1, -1) and V = span{e1} in diag(-1, 1), the identity would
    otherwise map a negative line onto a positive one."""

    CALLS = {
        "image_subspace": lambda T, V: image_subspace(T, V),
        "definiteness": lambda T, V: preserves_definiteness_with_sign(T, [V], n_random=0),
        "maximality": lambda T, V: preserves_maximality(T, [V], n_random=0),
        "regularity": lambda T, V: preserves_regularity(T, [V], n_random=0),
        "report": lambda T, V: preservation_report(T, [V], n_random=0),
        "transform_family": lambda T, V: transform_family(
            T, WeightedFamily(V.space, [V], [1.0])
        ),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_refused(self, call):
        T = Operator(KreinSpace.from_signs([1, -1]), np.eye(2))
        V = Subspace(KreinSpace.from_signs([-1, 1]), [[1.0], [0.0]])
        with pytest.raises(DimensionError, match=r"does not live in the operator's space$"):
            call(T, V)


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

    def test_skips_non_definite_input(self, c3):
        # a supplied subspace outside the hypothesis is not tested or counted
        t = Operator(c3, np.eye(3))
        mixed = Subspace(c3, np.eye(3))
        verdict = preserves_definiteness_with_sign(t, [mixed], n_random=0)
        assert verdict.holds
        assert verdict.samples_tested == 0

    def test_rejects_a_non_definite_draw(self):
        # under tau_def = 0.3 some definite draw on C^4 is not uniformly definite
        space = alternating_signature_space(4, tol=Tolerances(tau_def=0.3))
        with pytest.raises(ClassificationError, match="only tests uniformly definite"):
            preserves_definiteness_with_sign(Operator(space, np.eye(4)), n_random=60, seed=1)


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

    def test_rejects_a_non_maximal_draw(self):
        # under tau_def = 0.3 the first maximal draw on C^4 is not uniformly
        # definite; its image used to be reported as a counterexample
        space = alternating_signature_space(4, tol=Tolerances(tau_def=0.3))
        match = "maximality predicate only tests maximal uniformly definite subspaces"
        with pytest.raises(ClassificationError, match=match):
            preserves_maximality(Operator(space, np.eye(4)), n_random=20)


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

    def test_rejects_a_degenerate_draw(self, alt4, monkeypatch):
        # the regular draws are regular by construction, so a stub draws a neutral line
        neutral = Subspace(alt4, [[1.0], [1.0], [0.0], [0.0]])
        monkeypatch.setattr(transforms, "random_regular_subspace", lambda space, rng: neutral)
        with pytest.raises(ClassificationError, match="regularity predicate only tests regular"):
            preserves_regularity(Operator(alt4, np.eye(4)), n_random=5)


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

    def test_an_iterator_is_read_once_for_all_three_predicates(self, alt4):
        t = neutral_image_operator(alt4)
        ws = alt4_subspaces(alt4)
        report = preservation_report(t, iter(ws), 0, 0)
        assert_same_report(report, preservation_report(t, ws, 0, 0))
        assert report.maximality.counterexample is ws[1]
        assert report.regularity.samples_tested == 1


def outcome(f, *args):
    """f(*args), or the library error it raises."""
    try:
        return f(*args)
    except KreinFramesError as exc:
        return exc


def assert_same_report(report, expected):
    if isinstance(expected, KreinFramesError):
        assert type(report) is type(expected) and str(report) == str(expected)
        return
    for field in ("definiteness_with_sign", "maximality", "regularity"):
        a, b = getattr(report, field), getattr(expected, field)
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
    n = space.dim
    u = random_j_unitary(space, rng_from_seed(seed))
    return [
        u,
        Operator(space, 2.5 * u.matrix),
        neutral_image_operator(space),
        Operator(space, np.diag([1.0] * (n // 2) + [0.0] * (n - n // 2))),
        Operator(space, np.zeros((n, n))),
    ]


def alt4_subspaces(space):
    """e1, span{e1, e3} (maximal positive), span{e1, e2} and a neutral line."""
    return [
        Subspace(space, np.eye(4)[:, cols])
        for cols in ([0], [0, 2], [0, 1])
    ] + [Subspace(space, [[1.0], [1.0], [0.0], [0.0]])]


class TestOneOperatorSweeps:
    """preservation_report sweeps one operator at a time: each draws from
    its own generator, and a library error is that operator's alone."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    @pytest.mark.parametrize("supplied", [False, True])
    def test_shared_subspaces_give_each_operator_its_own_report(self, alt4, seed, supplied):
        # the supplied subspaces keep what the operators before read of them
        shared = alt4_subspaces(alt4) if supplied else []
        for T in mixed_operators(alt4):
            fresh = alt4_subspaces(alt4) if supplied else []
            assert_same_report(
                preservation_report(T, shared, 40, seed), preservation_report(T, fresh, 40, seed)
            )

    @pytest.mark.parametrize(
        "tol, errors",
        [
            (Tolerances(tau_def=0.15), []),
            # some maximal or definite draw is not uniformly definite
            (Tolerances(tau_def=0.3), [0, 1, 2, 5]),
            (Tolerances(tau_rank=0.5), [0, 1, 3, 4, 5]),  # a drawn basis is rank deficient
        ],
    )
    def test_errors_of_each_operator(self, tol, errors):
        # tolerances past the samplers' margins: the draws of some operators
        # raise; the others are refuted first
        space = alternating_signature_space(4, tol=tol)
        ops = mixed_operators(space) + [Operator(space, np.eye(4))]
        subspaces = [Subspace(space, np.eye(4)[:, [0]])]
        alone = [outcome(preservation_report, T, subspaces, 60, 1) for T in ops]
        assert [i for i, r in enumerate(alone) if isinstance(r, KreinFramesError)] == errors

    def test_an_operator_refuted_on_supplied_subspaces_draws_nothing(self, count_calls):
        # on C^2, e1 is maximal positive and N e1 = (1, 1) neutral: N is refuted
        # on e1 by all three predicates, so no draw can fail tau_def = 0.3
        space = KreinSpace.from_signs([1, -1], tol=Tolerances(tau_def=0.3))
        e1 = Subspace(space, np.eye(2)[:, [0]])
        calls = [count_calls(transforms, name) for name in SAMPLERS]
        report = preservation_report(neutral_image_operator(space), [e1], 60, 1)
        for field in PREDICATES:
            verdict = getattr(report, field)
            assert verdict.counterexample is e1 and verdict.samples_tested == 1
        assert [len(c) for c in calls] == [0, 0, 0]
        with pytest.raises(ClassificationError, match="only tests uniformly definite"):
            preservation_report(Operator(space, np.eye(2)), [e1], 60, 1)

    # at the default tau_def the three laws settle both operators, so nothing
    # is drawn; at 0.05 they settle neither, and each draws all 25 samples
    @pytest.mark.parametrize("tau_def, draws", [(None, 0), (0.05, 25)])
    def test_operators_that_hold_draw_each_sample(self, count_calls, tau_def, draws):
        tol = Tolerances() if tau_def is None else Tolerances(tau_def=tau_def)
        calls = {name: count_calls(transforms, name) for name in SAMPLERS}
        for T in mixed_operators(alternating_signature_space(4, tol=tol))[:2]:
            report = preservation_report(T, [], 25, 4)
            assert all(getattr(report, f).holds for f in PREDICATES)
            assert all(getattr(report, f).samples_tested == 25 for f in PREDICATES)
            assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(SAMPLERS, draws)
            for c in calls.values():
                c.clear()

    @pytest.mark.parametrize(
        "field, sampler",
        [
            ("definiteness_with_sign", "random_definite_subspace"),
            ("maximality", "random_maximal_definite_subspace"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_draw_after_the_counterexample(self, alt4, count_calls, field, sampler, seed):
        calls = count_calls(transforms, sampler)
        for T in mixed_operators(alt4)[2:]:
            verdict = getattr(preservation_report(T, [], 100, seed), field)
            assert not verdict.holds
            assert len(calls) == verdict.samples_tested < 100
            calls.clear()


SAMPLERS = (
    "random_definite_subspace",
    "random_maximal_definite_subspace",
    "random_regular_subspace",
)


def predicate_report(T, subspaces, n_random, seed):
    """The three preserves_* verdicts as one report, or the library error of
    the first that raises: what preservation_report gives if every entry
    point tests the same pools."""
    verdicts = []
    for predicate in (preserves_definiteness_with_sign, preserves_maximality, preserves_regularity):
        try:
            verdicts.append(predicate(T, subspaces, n_random, seed))
        except KreinFramesError as exc:
            return exc
    return transforms.PreservationReport(*verdicts)


def mixed_pool(space, rng):
    """Definite, maximal definite, indefinite regular and neutral subspaces,
    in a random order."""
    plus, minus = space.component(1)[:, :1], space.component(-1)[:, :1]
    pool = [
        random_definite_subspace(space, rng, 1),
        random_definite_subspace(space, rng, -1),
        random_maximal_definite_subspace(space, rng, 1),
        random_maximal_definite_subspace(space, rng, -1),
        random_regular_subspace(space, rng),
        Subspace(space, np.hstack([plus, minus])),  # indefinite, J-orthogonal sides
        Subspace(space, plus + minus),  # neutral
    ]
    return [pool[i] for i in rng.permutation(len(pool))]


@pytest.mark.soundness
class TestOnePoolRule:
    """Every entry point tests a supplied subspace only under the predicate
    whose hypothesis it meets: the preserves_* verdicts are the fields of
    preservation_report."""

    def test_the_identity_holds_on_every_predicate(self, alt4):
        # e1, span{e1, e3}, span{e1, e2} and a neutral line: 2 uniformly
        # definite, 1 maximal and 3 regular subspaces are tested
        identity = Operator(alt4, np.eye(4))
        pool = alt4_subspaces(alt4)
        for predicate, tested in zip(
            (preserves_definiteness_with_sign, preserves_maximality, preserves_regularity),
            (2, 1, 3),
        ):
            verdict = predicate(identity, pool, n_random=0)
            assert verdict.status == "holds-on-samples"
            assert verdict.samples_tested == tested
            assert predicate(identity, pool, n_random=10).samples_tested == tested + 10

    @pytest.mark.parametrize(
        "predicate, cols",
        [
            (preserves_maximality, [[1.0], [0.0], [0.0], [0.0]]),  # e1, not maximal
            (preserves_regularity, [[1.0], [1.0], [0.0], [0.0]]),  # a neutral line
            (preserves_definiteness_with_sign, [[1.0], [1.0], [0.0], [0.0]]),
        ],
    )
    def test_a_subspace_outside_the_hypothesis_is_skipped(self, alt4, predicate, cols):
        verdict = predicate(Operator(alt4, np.eye(4)), [Subspace(alt4, cols)], n_random=0)
        assert verdict.holds and verdict.samples_tested == 0

    @pytest.mark.parametrize("n_random", [0, 30])
    def test_each_verdict_is_the_report_field(self, alt4, n_random):
        pool = alt4_subspaces(alt4)
        for T in mixed_operators(alt4) + [Operator(alt4, np.eye(4))]:
            report = preservation_report(T, pool, n_random, 2)
            assert_same_report(predicate_report(T, pool, n_random, 2), report)

    @settings(max_examples=examples(25))
    @given(
        n=st.integers(2, 16),
        diagonal=st.booleans(),
        # up to where some definite draws fail, so that some reports are errors
        log_tau_def=st.floats(-8.0, np.log10(0.5)),
        n_random=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_verdict_is_the_report_field_on_random_spaces(
        self, n, diagonal, log_tau_def, n_random, seed
    ):
        rng = rng_from_seed(seed)
        space = random_space(rng, n, diagonal=diagonal, tol=Tolerances(tau_def=10.0**log_tau_def))
        pool = mixed_pool(space, rng)
        for T in mixed_operators(space, seed % 1000) + [Operator(space, np.eye(n))]:
            report = outcome(preservation_report, T, pool, n_random, seed)
            assert_same_report(predicate_report(T, pool, n_random, seed), report)


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
        cert = t._isometry
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
        report = preservation_report(t, [], 40, 1)
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
        cert = Operator(alt4, matrix)._isometry
        for v in alt4_subspaces(alt4)[:2] + [Subspace(alt4, np.eye(4)[:, 1:3])]:
            assert transforms._settles(v, cert) is settles


class TestCertifiedSweep:
    def test_certified_operators_compute_no_image(self, alt48_ops, count_calls):
        calls = count_calls(transforms, "image_subspace")
        reports = [preservation_report(T, [], 50, 0) for T in alt48_ops[:2]]
        assert len(calls) == 0
        for T, report in zip(alt48_ops, reports):
            assert_same_report(report, sampled_report(T, 50, 0))

    def test_only_the_other_operator_computes_images(self, alt48_ops, count_calls, monkeypatch):
        calls = count_calls(transforms, "image_subspace")
        settled, settles = [], transforms._settles

        def recorded(v, cert, signed=False):
            settled.append(settles(v, cert, signed))
            return settled[-1]

        monkeypatch.setattr(transforms, "_settles", recorded)
        reports = [preservation_report(T, [], 50, 0) for T in alt48_ops]
        neutral = reports[2]
        tested = [getattr(neutral, f).samples_tested for f in PREDICATES]
        # congruence by T* J T settles each of its 50 regularity checks, and
        # with each draw's sign some of its definiteness and maximality checks;
        # the J-unitary multiples draw nothing, so every settle is the neutral one's
        assert tested[2] == 50 and len(settled) == sum(tested)
        assert len(calls) == settled.count(False) < tested[0] + tested[1]
        assert all(args[0] is alt48_ops[2] for args in calls)
        for T, report in zip(alt48_ops, reports):
            assert_same_report(report, sampled_report(T, 50, 0))

    def test_maximal_draws_make_no_svd(self, alt48_ops, count_calls):
        certs = [T._isometry for T in alt48_ops]  # each T's SVD
        images = count_calls(transforms, "image_subspace")
        svds = count_calls(np.linalg, "svd")
        draw, check = PREDICATES["maximality"]
        verdicts = [
            transforms._sweep(T, c, [], 100, 0, draw, check) for T, c in zip(alt48_ops, certs)
        ]
        assert [v.holds for v in verdicts] == [True, True, False]
        # no SVD per image of the neutral-image operator, whose condition
        # number proves each image's rank (one QR each), and none per draw
        assert len(svds) == 0 and len(images) == verdicts[2].samples_tested
        v = verdicts[2].counterexample
        u = v.ortho_basis  # the reported counterexample's SVD
        assert len(svds) == 1
        eager = Subspace(v.space, v.basis)
        np.testing.assert_array_equal(u, eager.ortho_basis)
        assert v.classify() == eager.classify()

    def test_definite_draws_make_one_svd_each(self, count_calls):
        # none at draw time: the slice's QR waits until its basis is read, and
        # its one SVD until its orthonormal basis is
        space = alternating_signature_space(48)
        svds, qrs = count_calls(np.linalg, "svd"), count_calls(np.linalg, "qr")
        rng = rng_from_seed(0)
        drawn = [random_definite_subspace(space, rng, sign) for sign in (1, -1, 1)]
        assert len(svds) == len(qrs) == 0
        for v in drawn:
            v.basis
        assert (len(svds), len(qrs)) == (0, len(drawn))
        for v in drawn:
            v.ortho_basis
        assert (len(svds), len(qrs)) == (len(drawn), len(drawn))

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
        certs = [T._isometry for T in alt48_ops]
        norms = count_calls(np.linalg, "norm")
        for name in ("definiteness_with_sign", "maximality"):
            draw, check = PREDICATES[name]
            checked = []

            def counted(T, v):
                checked.append(T)
                return check(T, v)

            verdicts = [
                transforms._sweep(T, c, [], 50, 0, draw, counted) for T, c in zip(alt48_ops, certs)
            ]
            assert [v.holds for v in verdicts] == [True, True, False]
            assert all(T is alt48_ops[2] for T in checked)
            assert len(norms) == len(checked) == verdicts[2].samples_tested
            norms.clear()
            checked.clear()


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
    """A definite draw's basis, computed at draw time: an orthonormal slice of
    a maximal one."""
    basis = eager_maximal_basis(space, rng, sign)
    d = basis.shape[1]
    coeff = random_complex(rng, d, int(rng.integers(1, d + 1)))
    return basis @ np.linalg.qr(coeff)[0]


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
    """The sweeps' certificate: T._isometry and a function giving E* T* J T E
    in J's canonical eigenbasis E, as preservation_report forms it."""
    return (*T._isometry, lambda: T._canonical_congruence)


def random_invertible(space, rng, log_scale, log_kappa):
    """10^log_scale Q1 diag(s) Q2 with kappa = 10^log_kappa, no J-isometry multiple."""
    n = space.dim
    q1, _ = np.linalg.qr(random_complex(rng, n, n))
    q2, _ = np.linalg.qr(random_complex(rng, n, n))
    return Operator(space, 10.0**log_scale * (q1 * np.logspace(0.0, -log_kappa, n)) @ q2)


@pytest.mark.soundness
class TestCongruence:
    """T* J T settles a regularity check only where the check passes."""

    @settings(max_examples=examples(40))
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
        t = random_invertible(space, rng, log_scale, log_kappa)
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
            g = u.conj().T @ t._congruence @ u
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
    # B* H B grows with ||B||^2, and so must the floor it is held to
    @pytest.mark.parametrize("length", [1.0, 1e3])
    def test_near_neutral_images_fall_back(self, minkowski, scale, eps, degenerate, length):
        t = Operator(minkowski, scale * neutral_image_operator(minkowski).matrix)
        v = Subspace(minkowski, [[length], [length * eps]])
        assert not transforms._settles(v, congruent_cert(t))
        report = preservation_report(t, [v], 0, 0)
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

    def test_settled_draws_are_not_classified(self, alt48_ops, monkeypatch):
        # a draw is held to the predicate's hypothesis only once no settle
        # decides its check
        drawn = []

        def kept(space, rng):
            drawn.append(random_regular_subspace(space, rng))
            return drawn[-1]

        monkeypatch.setattr(transforms, "random_regular_subspace", kept)
        assert preservation_report(alt48_ops[2], [], 50, 0).regularity.holds
        assert len(drawn) == 50
        assert not any("_classification" in vars(v) for v in drawn)


class FixedUniform:
    """A generator whose uniform draws are all ``value``."""

    def __init__(self, rng, value):
        self.rng, self.value = rng, value

    def uniform(self, *args):
        return self.value

    def __getattr__(self, name):
        return getattr(self.rng, name)


SIGNED = (
    (random_definite_subspace, transforms._check_definite),
    (random_maximal_definite_subspace, transforms._check_maximal),
)


@pytest.mark.soundness
class TestSignedCongruence:
    """T* J T with a draw's sign settles a definiteness or maximality check
    only where the check passes: the image is uniformly definite of that
    sign, and the draw classifies with it."""

    @settings(max_examples=examples(40))
    @given(
        n=st.integers(2, 48),
        log_scale=st.floats(-3.0, 3.0),
        log_kappa=st.floats(0.0, 3.0),
        # a J-unitary U (I + eps E) with eps > 0 keeps most signs; 0: a random T
        eps=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
        log_tau_def=st.floats(-8.0, np.log10(0.2)),
        diagonal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_settled_checks_pass(self, n, log_scale, log_kappa, eps, log_tau_def, diagonal, seed):
        rng = rng_from_seed(seed)
        space = random_space(rng, n, diagonal=diagonal, tol=Tolerances(tau_def=10.0**log_tau_def))
        if eps == 0.0:
            t = random_invertible(space, rng, log_scale, log_kappa)
        else:
            e = random_complex(rng, n, n)
            near = random_j_unitary(space, rng).matrix @ (np.eye(n) + eps * e / np.linalg.norm(e, 2))
            t = Operator(space, 10.0**log_scale * near)
        cert = congruent_cert(t)
        floor = transforms._SAFETY * _def_floor(space, n)
        for (sampler, check), signed in zip(SIGNED, (1, 2)):
            draw = transforms._signed(sampler)
            for _ in range(4):
                v = draw(space, rng)
                if not transforms._settles(v, cert, signed):
                    continue
                assert v._sign != 0 and v.classify().sign == v._sign
                assert check(t, v) is None
                # the image's sign s: V's, or for a maximal V at p = q the other
                s = v._sign if transforms._settles(v, cert, 1) else -v._sign
                assert s == v._sign or signed == 2 and len(set(space.signature)) == 1
                # Ostrowski: s U* H U / ||T||^2 clears the floor and bounds the
                # image's signed Gramian
                u = v.ortho_basis
                g = u.conj().T @ t._congruence @ u
                bound = np.linalg.eigvalsh(s * 0.5 * (g + g.conj().T)).min() / cert[2] ** 2
                assert bound > floor * (1 - 1e-6)
                img = image_subspace(t, v)
                assert img.dim == v.dim
                assert np.linalg.eigvalsh(s * gramian(img)).min() > bound * (1 - 1e-9)

    def test_settles_most_draws_of_the_neutral_image_operator(self, alt48_ops):
        t = alt48_ops[2]
        cert = congruent_cert(t)
        rng = rng_from_seed(0)
        for sampler, check in SIGNED:
            draws = [transforms._signed(sampler)(t.space, rng) for _ in range(40)]
            assert not any(transforms._settles(v, cert[:4], True) for v in draws)
            settled = [v for v in draws if transforms._settles(v, cert, True)]
            assert len(settled) > 20
            assert all(check(t, v) is None for v in settled)

    @pytest.mark.parametrize("n", [2, 8, 48])
    def test_sign_swapping_operators_settle_maximality_only(self, n):
        # the swap e_i <-> e_(n+1-i) under diag(1, -1, ...), [[0, 1], [1, 0]] at
        # n = 2, and it after a J-unitary U: T# T = -I, so T* J T = -J maps
        # every definite subspace onto one of the other sign; the image is
        # regular, so the unsigned settle holds.  At p = q the image of a
        # maximal V is maximal of the other sign: the maximality settle
        # (signed 2) takes that sign, the definiteness one (signed 1) never
        space = alternating_signature_space(n)
        swap = Operator(space, np.fliplr(np.eye(n)))
        anti = Operator(space, swap.matrix @ random_j_unitary(space, rng_from_seed(n)).matrix)
        rng = rng_from_seed(1)
        for t in (swap, anti):
            cert = congruent_cert(t)
            assert t._isometry[0] == pytest.approx(-1.0)
            for (sampler, check), signed in zip(SIGNED, (1, 2)):
                maximal = signed == 2
                for _ in range(10):
                    v = transforms._signed(sampler)(space, rng)
                    assert v._sign != 0
                    assert not transforms._settles(v, cert, 1)
                    assert transforms._settles(v, cert, signed) is maximal
                    assert transforms._settles(v, cert)
                    assert (check(t, v) is None) is maximal
            report = preservation_report(t, [], 20, 0)
            assert_same_report(report, sampled_report(t, 20, 0))
            assert report.definiteness_with_sign.samples_tested == 1

    @pytest.mark.parametrize("n", [4, 8, 48])
    def test_draws_outside_the_hypothesis_still_raise(self, n):
        # at tau_def 0.3 some draw's margin, at least 0.22, is below tau_def;
        # I, 3 I and J keep every margin, so none refutes a draw first
        space = alternating_signature_space(n, tol=Tolerances(tau_def=0.3))
        for m in (np.eye(n), 3.0 * np.eye(n), space.J):
            with pytest.raises(ClassificationError, match="predicate only tests"):
                preservation_report(Operator(space, m), [], 100, 0)

    def test_a_draw_below_tau_def_keeps_its_check(self, monkeypatch):
        # under tau_def 0.24 a maximal draw of tilt 0.79 (sign -1, as every
        # uniform draw is 0.79) has margin 0.231 and is outside the
        # hypothesis; T maps it onto the negative axis at ||T||, so that
        # T* J T with its sign would clear 4 tau_def: its margin, below
        # 4 tau_def, withholds the sign
        space = KreinSpace.from_signs([1, -1], tol=Tolerances(tau_def=0.24))

        def fixed(seed):
            return FixedUniform(rng_from_seed(seed), 0.79)

        v = transforms._signed(random_maximal_definite_subspace)(space, fixed(0))
        assert v._sign == 0 and not v.classify().uniformly_definite
        b = v.basis[:, 0] / np.linalg.norm(v.basis[:, 0])
        perp = np.array([-b[1].conjugate(), b[0].conjugate()])
        t = Operator(space, 10.0 * np.outer([0.0, 1.0], b.conj()) + np.outer([1.0, 0.0], perp.conj()))
        cert = congruent_cert(t)
        assert not transforms._settles(v, cert, True)
        v._sign = -1
        assert transforms._settles(v, cert, True)
        # the sweeps draw the same subspace first, and definiteness raises
        monkeypatch.setattr(transforms, "rng_from_seed", fixed)
        with pytest.raises(ClassificationError, match="definiteness predicate only tests"):
            preservation_report(t, [], 10, 0)


@pytest.mark.soundness
class TestRegularDraws:
    """A regular draw is a lazy J-orthogonal sum of two graph slices whose
    margin and condition bounds hold by construction."""

    @settings(max_examples=examples(60))
    @given(
        n=st.integers(1, 48),
        data=st.data(),
        log_tau_def=st.floats(-8.0, np.log10(0.9)),
        diagonal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bounds_hold_and_draws_are_regular(self, n, data, log_tau_def, diagonal, seed):
        p = data.draw(st.integers(0, n), label="p")  # 0 and n: definite spaces
        rng = rng_from_seed(seed)
        tol = Tolerances(tau_def=10.0**log_tau_def)
        space = random_space(rng, n, p, diagonal=diagonal, tol=tol)
        for _ in range(4):
            v = random_regular_subspace(space, rng)
            assert "ortho_basis" not in vars(v) and "_classification" not in vars(v)
            margin, cond = v._gram_margin(), v._cond
            assert margin > _def_floor(space, v.dim)
            eager = Subspace(space, v.basis)
            assert eager._gram_margin() >= margin * (1 - 1e-9)
            assert eager._cond <= cond * (1 + 1e-9)
            np.testing.assert_array_equal(v.ortho_basis, eager.ortho_basis)
            assert v.classify() == eager.classify()
            assert v.classify().regular

    @pytest.mark.parametrize("p", range(5))
    def test_every_split_occurs_at_n_4(self, p):
        space = KreinSpace.from_signs([1] * p + [-1] * (4 - p))
        rng = rng_from_seed(p)
        splits = set()
        for _ in range(200):
            eigs = np.linalg.eigvalsh(gramian(random_regular_subspace(space, rng)))
            splits.add((int((eigs > 0).sum()), int((eigs < 0).sum())))
        possible = {(a, b) for a in range(p + 1) for b in range(5 - p) if a + b}
        assert splits == possible

    @pytest.mark.parametrize("n", [1, 4, 16, 48])
    @pytest.mark.parametrize("tau_def", [0.05, 0.15, 0.5, 0.9, 0.999])
    def test_draws_are_regular_under_the_space_tau_def(self, tau_def, n):
        # no rejection: every draw clears even a tau_def near 1
        space = random_space(rng_from_seed(n), n, n // 2, tol=Tolerances(tau_def=tau_def))
        rng = rng_from_seed(7)
        for _ in range(20):
            v = random_regular_subspace(space, rng)
            assert v._gram_margin() > _def_floor(space, v.dim)
            assert gramian_min_modulus(Subspace(space, v.basis)) > tau_def
            assert v.classify().regular

    @pytest.mark.parametrize("n", [2, 5, 16, 48])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_basis_is_a_j_orthogonal_sum_of_definite_slices(self, diagonal, n):
        # B*JB = diag(X*(I - K*K)X, -Y*(I - KK*)Y), sigma(B) in [1 - t, 1 + t]
        space = random_space(rng_from_seed(n), n, diagonal=diagonal)
        rng = rng_from_seed(11)
        for _ in range(10):
            v = random_regular_subspace(space, rng)
            b = v.basis
            g = b.conj().T @ space.J @ b
            a = int((np.linalg.eigvalsh(0.5 * (g + g.conj().T)) > 0).sum())
            np.testing.assert_allclose(g[:a, a:], 0.0, atol=1e-13)
            assert np.all(np.linalg.eigvalsh(g[:a, :a]) > 0)
            assert np.all(np.linalg.eigvalsh(g[a:, a:]) < 0)
            t = (1.0 - v._margin) / (1.0 + v._margin)
            s = np.linalg.svd(b, compute_uv=False)
            assert s[0] <= (1.0 + t) * (1 + 1e-12)
            assert s[-1] >= (1.0 - t) * (1 - 1e-12)

    @pytest.mark.parametrize("n", [1, 4, 16, 48])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_reading_a_basis_leaves_later_draws_alike(self, diagonal, n):
        # every random number is taken at draw time, none when basis is read
        space = random_space(rng_from_seed(n), n, n // 2, diagonal=diagonal)
        rng_read, rng_unread = rng_from_seed(13), rng_from_seed(13)
        read = [random_regular_subspace(space, rng_read).basis for _ in range(10)]
        unread = [random_regular_subspace(space, rng_unread) for _ in range(10)]
        for b, v in zip(read, unread):
            np.testing.assert_array_equal(b, v.basis)

    @pytest.mark.parametrize("n", [1, 4, 16])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_draws_in_a_definite_space_are_definite(self, sign, n):
        space = KreinSpace.from_signs([sign] * n)
        rng = rng_from_seed(n)
        for _ in range(10):
            v = random_regular_subspace(space, rng)
            assert v.classify().sign == sign
            np.testing.assert_allclose(gramian(v), sign * np.eye(v.dim), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 13, 48])
    def test_an_unread_draw_factors_nothing(self, n, count_calls):
        space = alternating_signature_space(n) if n > 1 else KreinSpace.from_signs([1])
        svds, qrs = count_calls(np.linalg, "svd"), count_calls(np.linalg, "qr")
        rng = rng_from_seed(0)
        draws = [random_regular_subspace(space, rng) for _ in range(20)]
        assert (len(svds), len(qrs)) == (0, 0)
        assert not any({"basis", "ortho_basis"} & vars(v).keys() for v in draws)

    def test_congruence_settles_make_no_svd(self, alt48_ops, count_calls):
        # the J-unitary multiples settle without the basis; T* J T settles
        # every check of the neutral-image operator on the draw's spanning
        # columns, before any QR
        certs = [congruent_cert(T) for T in alt48_ops]
        images = count_calls(transforms, "image_subspace")
        svds, qrs = count_calls(np.linalg, "svd"), count_calls(np.linalg, "qr")
        draw, check = random_regular_subspace, transforms._check_regular
        verdicts = [
            transforms._sweep(T, c, [], 100, 0, draw, check) for T, c in zip(alt48_ops, certs)
        ]
        assert [v.holds for v in verdicts] == [True, True, True]
        assert (len(images), len(svds), len(qrs)) == (0, 0, 0)


@pytest.mark.soundness
class TestDrawLaws:
    """Every definite, maximal and regular draw meets its law: kappa(basis) at
    most the law's cond and a Gramian margin at least its margin."""

    @settings(max_examples=examples(40))
    @given(
        n=st.integers(2, 48),
        data=st.data(),
        log_tau_def=st.floats(-8.0, np.log10(0.5)),
        diagonal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_lie_within_their_law(self, n, data, log_tau_def, diagonal, seed):
        # p or q = 1 as often as anything else
        p = data.draw(st.one_of(st.sampled_from([1, n - 1]), st.integers(1, n - 1)), label="p")
        rng = rng_from_seed(seed)
        space = random_space(rng, n, p, diagonal=diagonal, tol=Tolerances(tau_def=10.0**log_tau_def))
        for draw, law in (
            (transforms._signed(random_definite_subspace), sampling._maximal_law),
            (transforms._signed(random_maximal_definite_subspace), sampling._maximal_law),
            (random_regular_subspace, sampling._regular_law),
        ):
            cond, margin = law(space)
            for _ in range(4):
                v = draw(space, rng)
                assert v._cond <= cond and v._gram_margin() >= margin
                eager = Subspace(space, v.basis)
                assert eager._cond <= cond * (1 + 1e-9)
                assert eager._gram_margin() >= margin * (1 - 1e-9)

    @pytest.mark.parametrize("tau_def", [1e-8, 0.3, 0.5])
    def test_the_regular_law_is_the_draws_supremum(self, tau_def):
        # the tilt's upper limit is largest at dimension 1
        space = alternating_signature_space(16, tol=Tolerances(tau_def=tau_def))
        tilts = [sampling._regular_tilt(space, dim) for dim in range(1, 17)]
        assert tilts == sorted(tilts, reverse=True)
        assert sampling._regular_law(space) == sampling._regular_bounds(tilts[0])


def near_isometries(space, rng, cond, margin):
    """J-unitary operators U (I + eps E) on either side of the eps at which
    the bounds (cond, margin) stop settling them, by bisection."""
    u = random_j_unitary(space, rng)
    e = random_complex(rng, space.dim, space.dim)
    e /= np.linalg.norm(e, 2)

    def op(eps):
        return Operator(space, u.matrix @ (np.eye(space.dim) + eps * e))

    def settles(eps):
        return transforms._bounds_settle(space, cond, margin, op(eps)._isometry)

    lo, hi = 0.0, 1.0
    if not settles(lo) or settles(hi):
        return [op(1e-3), op(0.5)]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if settles(mid) else (lo, mid)
    return [op(lo), op(hi)]


def same_verdicts(x, y):
    if isinstance(x, KreinFramesError):
        assert type(x) is type(y) and str(x) == str(y)
        return
    assert (x.status, x.detail, x.samples_tested) == (y.status, y.detail, y.samples_tested)
    if x.counterexample is not None:
        assert x.counterexample.basis.tobytes() == y.counterexample.basis.tobytes()


@pytest.mark.soundness
class TestLawfulSweep:
    """A sweep that draws nothing where its law settles the operator gives
    the verdicts of the same sweep without the law."""

    @settings(max_examples=examples(4))
    @given(
        n=st.sampled_from([4, 8, 16]),
        chosen=st.sets(st.integers(0, 6), min_size=1),
        supplied=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # the laws settle J-unitary multiples only at the smallest tolerances
    @pytest.mark.parametrize("tau_def", [1e-8, 1e-4, 0.05, 0.15, 0.3])
    @pytest.mark.parametrize("tau_rank", [1e-10, 0.2, 0.5])
    def test_same_verdicts_as_without_the_law(self, tau_def, tau_rank, n, chosen, supplied, seed):
        space = alternating_signature_space(n, tol=Tolerances(tau_def=tau_def, tau_rank=tau_rank))
        rng = rng_from_seed(seed)
        u = random_j_unitary(space, rng)
        ops = [u, Operator(space, 3.0 * u.matrix), neutral_image_operator(space)]
        for law in (sampling._maximal_law, sampling._regular_law):
            ops += near_isometries(space, rng, *law(space))
        ops = [ops[i] for i in sorted(chosen)]
        e1 = Subspace(space, np.eye(n)[:, [0]])
        for name, law, hypothesis in (
            ("definiteness_with_sign", sampling._maximal_law, "uniformly_definite"),
            ("maximality", sampling._maximal_law, "maximal_definite"),
            ("regularity", sampling._regular_law, "regular"),
        ):
            draw, check = PREDICATES[name]
            pool = [e1] if supplied and getattr(e1.classify(), hypothesis) else []
            certs = [congruent_cert(T) if name == "regularity" else T._isometry for T in ops]
            drawn = []

            def counted(space, rng):
                drawn.append(None)
                return draw(space, rng)

            for T, cert in zip(ops, certs):
                lawful = outcome(transforms._sweep, T, cert, pool, 30, seed, counted, check, law)
                with_law, drawn[:] = len(drawn), []
                plain = outcome(transforms._sweep, T, cert, pool, 30, seed, counted, check)
                same_verdicts(lawful, plain)
                assert with_law <= len(drawn)
                drawn[:] = []

    def test_settled_operators_draw_nothing(self, alt48_ops):
        # the J-unitary multiples settle; the neutral-image operator draws to
        # its counterexample
        draw, check = PREDICATES["maximality"]
        drawn = []

        def counted(space, rng):
            drawn.append(None)
            return draw(space, rng)

        law = sampling._maximal_law
        for T, draws in zip(alt48_ops, (0, 0, None)):
            verdict = transforms._sweep(T, T._isometry, [], 100, 0, counted, check, law)
            if draws == 0:
                assert verdict.holds and verdict.samples_tested == 100 and drawn == []
            else:
                assert not verdict.holds and len(drawn) == verdict.samples_tested < 100


class RepeatedColumn:
    """A generator under which a regular draw's x repeats its first column:
    x (d x a, a the draw's last integers call) is the second of the blocks
    [k, x, y] (k c x d) that its one standard_normal call fills."""

    def __init__(self, rng, d, c):
        self.rng, self.d, self.c = rng, d, c

    def integers(self, *args):
        self.a = self.rng.integers(*args)
        return self.a

    def standard_normal(self, size):
        z = self.rng.standard_normal(size)
        at, d, a = 2 * self.c * self.d, self.d, int(self.a)
        if a > 1:
            x = z[at : at + 2 * d * a].reshape(2, d, a)  # a view
            x[..., 1] = x[..., 0]
        return z

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.soundness
class TestSpanningColumns:
    """A regularity check settles by congruence on a regular draw's Gaussian
    columns, before the QRs of its basis."""

    @settings(max_examples=examples(40))
    @given(
        n=st.integers(2, 48),
        log_scale=st.floats(-3.0, 3.0),
        log_kappa=st.floats(0.0, 3.0),
        log_tau_def=st.floats(-8.0, np.log10(0.3)),
        diagonal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_settle_implies_the_check_holds(
        self, n, log_scale, log_kappa, log_tau_def, diagonal, seed
    ):
        rng = rng_from_seed(seed)
        space = random_space(rng, n, diagonal=diagonal, tol=Tolerances(tau_def=10.0**log_tau_def))
        t = random_invertible(space, rng, log_scale, log_kappa)
        cert = congruent_cert(t)
        for _ in range(6):
            v = random_regular_subspace(space, rng)
            if not transforms._settles(v, cert):
                continue
            assert "basis" not in vars(v)  # settled before the QRs
            assert transforms._check_regular(t, v) is None
            # the columns span V
            cols = space._eigenbasis @ v._canonical()
            s = np.linalg.svd(np.hstack([cols, v.basis]), compute_uv=False)
            assert np.linalg.matrix_rank(cols) == v.dim == int((s > 1e-8 * s[0]).sum())

    @pytest.mark.parametrize("seed", range(6))
    def test_a_repeated_x_column_never_settles(self, seed):
        space = alternating_signature_space(8)
        t = neutral_image_operator(space)
        cert = congruent_cert(t)
        rng, plain_rng = RepeatedColumn(rng_from_seed(seed), *space.signature), rng_from_seed(seed)
        for _ in range(30):
            v, plain = random_regular_subspace(space, rng), random_regular_subspace(space, plain_rng)
            if int((np.linalg.eigvalsh(gramian(v)) > 0).sum()) < 2:
                continue  # fewer than two x columns: nothing repeated
            assert transforms._settles(plain, cert)
            assert not transforms._settles(v, cert)
            assert v.classify().regular and transforms._check_regular(t, v) is None


def gaussian_slice(space, rng, sign):
    """The slice maximal.basis coeff that a definite draw spans, drawn with the
    generator calls of the sampler: the maximal draw, the dimension, coeff."""
    maximal = random_maximal_definite_subspace(space, rng, sign)
    d = space.component(sign).shape[1]
    coeff = random_complex(rng, d, int(rng.integers(1, d + 1)))
    return maximal.basis @ coeff, coeff


def eager_draw(space, rng, sampler, sign):
    """(basis, spanning columns) of one draw of ``sampler`` in the original
    coordinates, built at draw time with each random_complex on its own."""
    plus, minus = space.component(1), space.component(-1)
    d, c = plus.shape[1], minus.shape[1]
    if sampler is not random_regular_subspace:
        maximal = eager_maximal_basis(space, rng, sign)
        if sampler is random_maximal_definite_subspace:
            return maximal, maximal
        coeff = random_complex(rng, maximal.shape[1], int(rng.integers(1, maximal.shape[1] + 1)))
        return maximal @ np.linalg.qr(coeff)[0], maximal @ coeff
    dim = int(rng.integers(1, space.dim + 1))
    a = int(rng.integers(max(0, dim - c), min(dim, d) + 1))
    tilt = float(rng.uniform(0.0, sampling._regular_tilt(space, dim)))
    k, x, y = (random_complex(rng, *shape) for shape in ((c, d), (d, a), (c, dim - a)))
    s = np.linalg.norm(k)
    kt = k * (tilt / s) if s > 0.0 else k

    def columns(x, y):
        return np.hstack([(plus + minus @ kt) @ x, (minus + plus @ kt.conj().T) @ y])

    return columns(np.linalg.qr(x)[0], np.linalg.qr(y)[0]), columns(x, y)


class TestCanonicalDraws:
    """A draw keeps the generator stream and the basis bits of one made with
    each random_complex on its own.  A definite or regular draw's canonical
    columns C, mapped back by J's canonical eigenbasis E, are its spanning
    columns to rounding; a maximal draw has none, as its basis serves."""

    @pytest.mark.parametrize("n", [2, 8, 48])
    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize(
        "sampler",
        [random_maximal_definite_subspace, random_definite_subspace, random_regular_subspace],
    )
    def test_draws_match_separate_generator_calls(self, sampler, diagonal, n):
        space = random_space(rng_from_seed(n), n, diagonal=diagonal)
        e = space._eigenbasis
        np.testing.assert_allclose(e.conj().T @ e, np.eye(n), rtol=0, atol=n * 1e-15)
        rng, ref_rng = rng_from_seed(n + 1), rng_from_seed(n + 1)
        for i, sign in enumerate([1, -1] * 4):
            args = () if sampler is random_regular_subspace else (sign,)
            v = sampler(space, rng, *args)
            basis, spanning = eager_draw(space, ref_rng, sampler, sign)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if i % 2:
                v.basis  # either may be built first
            if sampler is random_maximal_definite_subspace:
                assert v._canonical is None
            else:
                cols = e @ v._canonical()
                assert cols.shape == spanning.shape
                tol = n * 2.0**-52 * np.linalg.norm(spanning)
                np.testing.assert_allclose(cols, spanning, rtol=0, atol=tol)
            assert v.basis.tobytes() == basis.tobytes()


def swapped(space, m):
    """S m for the S that exchanges the canonical components of a space with
    p = q: S = E [[0, I], [I, 0]] E*, so S* J S = -J."""
    e, p = space._eigenbasis, space.signature[0]
    return e @ np.roll(e.conj().T @ m, p, axis=0)


@pytest.mark.soundness
class TestCanonicalSettle:
    """Settled in canonical coordinates, a sample passes its check: on
    operators whose T* J T is far from every c J, under a dense J.  The
    canonical g = Bc* (E* H E) Bc is B* H B, B = E Bc, to within a rounding
    bound that lies below the settle's floor."""

    @settings(max_examples=examples(30))
    @given(
        n=st.integers(2, 48),
        log_scale=st.floats(-3.0, 3.0),
        log_kappa=st.floats(0.0, 3.0),
        # after the swap of a p = q space, a near J-unitary T maps most
        # definite subspaces onto ones of the other sign
        swap=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
        log_tau_def=st.floats(-8.0, np.log10(0.2)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_settled_checks_pass(self, n, log_scale, log_kappa, swap, log_tau_def, seed):
        rng = rng_from_seed(seed)
        n -= n % 2 if swap else 0
        tol = Tolerances(tau_def=10.0**log_tau_def)
        space = random_space(rng, n, n // 2 if swap else None, tol=tol)
        if swap:
            e = random_complex(rng, n, n)
            near = random_j_unitary(space, rng).matrix @ (np.eye(n) + swap * e / np.linalg.norm(e, 2))
            t = Operator(space, 10.0**log_scale * swapped(space, near))
        else:
            t = random_invertible(space, rng, log_scale, log_kappa)
        cert = congruent_cert(t)
        # T* J T far from every c J: T's scalars settle no sample
        assume(not transforms._bounds_settle(space, 1.0, 1.0, cert))
        for name, hypothesis, signed in (
            ("definiteness_with_sign", "uniformly_definite", 1),
            ("maximality", "maximal_definite", 2),
            ("regularity", "regular", 0),
        ):
            draw, check = PREDICATES[name]
            for _ in range(4):
                v = draw(space, rng)
                e = space._eigenbasis
                bc = e.conj().T @ v.basis if v._canonical is None else v._canonical()
                g = bc.conj().T @ (cert[4]() @ bc)
                b = e @ bc
                g_original = b.conj().T @ t._congruence @ b
                fro2 = float(np.vdot(bc, bc).real)
                rounding = 16.0 * n * 2.0**-52 * cert[2] ** 2 * fro2
                assert np.linalg.norm(g - g_original, 2) <= rounding
                floor = transforms._image_floor(space, v._cond, cert)
                assert floor is None or rounding < floor * fro2
                # a draw settles on its canonical columns or on E* of its
                # basis, a supplied subspace on E* of its basis
                for w in (v, Subspace(space, v.basis)):
                    if transforms._settles(w, cert, signed):
                        assert getattr(w.classify(), hypothesis)
                        assert check(t, w) is None


@pytest.mark.soundness
class TestDefiniteSlices:
    """A definite draw is a lazy orthonormal slice of its maximal graph."""

    @settings(max_examples=examples(40))
    @given(
        n=st.integers(2, 48),
        data=st.data(),
        diagonal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_slices_span_maximal_basis_times_coeff(self, n, data, diagonal, seed):
        p = data.draw(st.one_of(st.sampled_from([1, n - 1]), st.integers(1, n - 1)), label="p")
        rng = rng_from_seed(seed)
        space = random_space(rng, n, p, diagonal=diagonal)
        rng, ref_rng = rng_from_seed(seed + 1), rng_from_seed(seed + 1)
        for sign in rng_from_seed(seed + 2).choice([1, -1], size=4):
            v = random_definite_subspace(space, rng, sign)
            spanned, coeff = gaussian_slice(space, ref_rng, sign)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            u, w = v.ortho_basis, np.linalg.svd(spanned, full_matrices=False)[0]
            # both spans round to within eps kappa(coeff) of the exact one
            tol = 1e-14 * max(100.0, np.linalg.cond(coeff))
            np.testing.assert_allclose(u @ u.conj().T, w @ w.conj().T, rtol=0, atol=tol)

    @pytest.mark.parametrize("n", [4, 12, 48])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_bounds_hold_and_bits_match(self, n, sign):
        space = alternating_signature_space(n)
        rng = rng_from_seed(n)
        for _ in range(10):
            v = random_definite_subspace(space, rng, sign)
            assert "ortho_basis" not in vars(v) and "_classification" not in vars(v)
            margin, cond = v._gram_margin(), v._cond
            eager = Subspace(space, v.basis)
            assert margin <= eager._gram_margin() * (1 + 1e-12)
            assert cond >= eager._cond * (1 - 1e-12)
            np.testing.assert_array_equal(v.ortho_basis, eager.ortho_basis)
            assert v.classify() == eager.classify()
            assert v.classify().sign == sign

    @pytest.mark.parametrize("max_tilt", [1.0, 1.5, -0.1, float("nan")])
    def test_a_tilt_outside_0_1_is_rejected(self, max_tilt):
        # at a tilt of 1 or more the margin bound (1 - t^2) / (1 + t^2) is not positive
        space = alternating_signature_space(4)
        rng = rng_from_seed(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"max_tilt must lie in \[0, 1\)"):
            random_maximal_definite_subspace(space, rng, 1, max_tilt=max_tilt)
        assert rng.bit_generator.state == state

    def test_large_tau_rank_takes_the_exact_path(self, count_calls):
        # 4 tau_rank cond >= 1: the maximal draw and its slice each make their
        # SVD, and the slice its QR
        space = alternating_signature_space(12, tol=Tolerances(tau_rank=0.3))
        svds, qrs = count_calls(np.linalg, "svd"), count_calls(np.linalg, "qr")
        v = random_definite_subspace(space, rng_from_seed(0), 1)
        assert (len(svds), len(qrs)) == (2, 1)
        assert "ortho_basis" in vars(v)
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


def t_sharp_t_scale(T):
    """c = Re tr(T# T) / n and ||T# T - c I||_2, from T# T itself."""
    g = j_adjoint(T).matrix @ T.matrix
    n = T.space.dim
    c = (complex(np.trace(g)) / n).real
    return c, float(np.linalg.norm(g - c * np.eye(n), 2))


class TestSharedCongruence:
    """One T* J T per operator gives the isometry scale and residual, and the
    preservation sweeps' certificate."""

    @pytest.mark.parametrize("n", [2, 8, 48])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_isometry_matches_t_sharp_t(self, n, diagonal):
        alt = alternating_signature_space(n)
        q = np.eye(n) if diagonal else np.linalg.qr(random_complex(rng_from_seed(n), n, n))[0]
        space = KreinSpace(q @ alt.J @ q.conj().T)
        assert (space._diag is not None) is diagonal
        u = random_j_unitary(space, rng_from_seed(n + 1)).matrix
        others = [np.fliplr(np.eye(n)), neutral_image_operator(alt).matrix, np.zeros((n, n))]
        # J-unitary, twice it, the swap, the neutral image and T = 0
        for m in [u, 2.0 * u] + [q @ a @ q.conj().T for a in others]:
            t = Operator(space, m)
            c, residual, norm, _ = t._isometry
            c_old, residual_old = t_sharp_t_scale(t)
            assert abs(c - c_old) <= 1e-12 * max(abs(c_old), norm**2)
            assert abs(residual - residual_old) <= 1e-12 * max(residual_old, norm**2)
            assert t._congruence is t._congruence and not t._congruence.flags.writeable

    def test_the_report_uses_the_operators_h(self, alt48_ops, count_calls):
        for t in alt48_ops:
            sweeps = count_calls(transforms, "_predicate_sweep")
            preservation_report(t, [], 5, 0)
            assert [args[2][4]() is t._canonical_congruence for args in sweeps] == [True] * 3
            assert not t._canonical_congruence.flags.writeable
            sweeps.clear()

    def test_e_h_e_is_formed_only_when_a_sample_needs_it(self, alt48_ops):
        # the J-unitary multiples settle by their draw laws and draw nothing
        for t, formed in zip(alt48_ops, (False, False, True)):
            preservation_report(t, [], 50, 0)
            assert ("_canonical_congruence" in vars(t)) is formed


def exact_residual(T, c):
    """||T# T - c I||_2 with T# T formed in extended precision, so that only
    the final rounding to double remains."""
    m, j = T.matrix.astype(np.clongdouble), T.space.J.astype(np.clongdouble)
    d = j @ m.conj().T @ j @ m - c * np.eye(T.space.dim)
    return float(np.linalg.norm(d.astype(complex), 2))


def eigen_verdict(T):
    """is_j_isometry_multiple's verdict from the largest |eigenvalue| of H - c J."""
    c, _, norm, _ = T._isometry
    residual = np.abs(np.linalg.eigvalsh(T._congruence - c * T.space.J)).max()
    return residual < T.space.tol.tau_num * T.space.dim * norm * norm and c > 0, c


class TestIsometryResidualBound:
    """_isometry takes ||H - c J||_F, at least ||T# T - c I||_2, where that
    passes is_j_isometry_multiple, and the largest |eigenvalue| of H - c J
    otherwise: the verdict and c are those of the eigenvalues, and the
    residual is never below the exact one beyond the rounding of forming H,
    which _image_floor's slack covers."""

    def check(self, T, count_calls, eigen):
        """T's verdict and residual, and whether _isometry took eigenvalues."""
        calls = count_calls(np.linalg, "eigvalsh")
        c, residual, norm, _ = T._isometry
        assert (len(calls) == 1) is eigen
        assert is_j_isometry_multiple(T) == eigen_verdict(T)
        n, fro2 = T.space.dim, float(np.vdot(T.matrix, T.matrix).real)
        assert residual >= exact_residual(T, c) - 4 * (n + 2) * 2.0**-52 * fro2

    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_j_unitary_multiples(self, count_calls, scale, diagonal):
        space = random_space(rng_from_seed(3), 8, diagonal=diagonal)
        u = random_j_unitary(space, rng_from_seed(4), 1.5)
        t = Operator(space, scale * u.matrix)
        self.check(t, count_calls, eigen=False)
        assert is_j_isometry_multiple(t)[0]

    @pytest.mark.parametrize("name, eigen", [("swap", False), ("neutral", True), ("zero", True)])
    def test_other_operators(self, alt4, count_calls, name, eigen):
        # T# T = -I for the swap, whose residual 0 passes; T = 0 passes nothing
        matrix = {"swap": np.fliplr(np.eye(4)), "zero": np.zeros((4, 4)),
                  "neutral": neutral_image_operator(alt4).matrix}[name]
        t = Operator(alt4, matrix)
        self.check(t, count_calls, eigen)
        assert not is_j_isometry_multiple(t)[0]

    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("where, eigen, scalar", [
        ("fro", False, True),  # eps ||D||_F at half the limit
        ("between", True, True),  # eps ||D||_2 below the limit, eps ||D||_F above
        ("two", True, False),  # eps ||D||_2 at twice the limit
    ])
    def test_perturbed_identity(self, count_calls, diagonal, where, eigen, scalar):
        # T = I + eps E has T# T - c I = eps D + O(eps^2), with D the part of
        # E + E# off the multiples of I; eps is placed by the limit / ||D||
        n = 8
        space = random_space(rng_from_seed(5), n, diagonal=diagonal)
        e = random_complex(rng_from_seed(6), n, n)
        d = space.J @ e.conj().T @ space.J + e
        d -= (np.trace(d).real / n) * np.eye(n)
        fro, two = np.linalg.norm(d), np.linalg.norm(d, 2)
        assert fro > 1.5 * two  # room for an eps between the two
        limit = space.tol.tau_num * n  # ||T||_2 = 1 + O(eps)
        eps = limit * {"fro": 0.5 / fro, "between": (fro * two) ** -0.5, "two": 2.0 / two}[where]
        t = Operator(space, np.eye(n) + eps * e)
        self.check(t, count_calls, eigen)
        assert is_j_isometry_multiple(t)[0] is scalar

    @settings(max_examples=examples(30))
    @given(
        n=st.integers(2, 48),
        log_scale=st.floats(-4.0, 4.0),
        boost=st.floats(0.0, 3.0),
        diagonal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_j_unitary_multiples(self, n, log_scale, boost, diagonal, seed):
        rng = rng_from_seed(seed)
        space = random_space(rng, n, diagonal=diagonal)
        t = Operator(space, 10.0**log_scale * random_j_unitary(space, rng, boost).matrix)
        c, residual, _, _ = t._isometry
        assert is_j_isometry_multiple(t) == eigen_verdict(t)
        fro2 = float(np.vdot(t.matrix, t.matrix).real)
        assert residual >= exact_residual(t, c) - 4 * (n + 2) * 2.0**-52 * fro2


def svd_image(T, V):
    """T(V) as image_subspace took it from the SVD of T V.basis alone."""
    return Subspace.from_spanning(T.space, T.matrix @ V.basis)


@pytest.mark.soundness
class TestImageRankRule:
    """Where kappa(T) kappa(V.basis) proves the rank of T V.basis
    (_image_slack), the image is one QR: it spans the SVD image's subspace,
    with its dimension and classification, and every check says the same;
    elsewhere it is the SVD's.  An image family whose member signs T settles
    certifies as the family of classified SVD images does."""

    @settings(max_examples=examples(30))
    @given(
        n=st.integers(2, 48),
        log_tau_rank=st.floats(-8.0, -3.0),
        # log10 kappa(T), as a share of 1 past log10 (1 / (4 tau_rank))
        share=st.floats(0.0, 1.0),
        log_scale=st.floats(-3.0, 3.0),
        diagonal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_images_match_the_svd(self, n, log_tau_rank, share, log_scale, diagonal, seed):
        rng = rng_from_seed(seed)
        tol = Tolerances(tau_rank=10.0**log_tau_rank)
        space = random_space(rng, n, diagonal=diagonal, tol=tol)
        t = random_invertible(space, rng, log_scale, share * (1.0 - log_tau_rank - np.log10(4.0)))
        supplied = [Subspace(space, random_complex(rng, n, int(rng.integers(1, n + 1))))]
        draws = [draw(space, rng) for draw, _ in PREDICATES.values() for _ in range(2)]
        for v in supplied + draws:
            kappa = t._cond * v._cond
            img, svd = image_subspace(t, v), svd_image(t, v)
            if transforms._image_slack(space, kappa) is None:
                # the SVD's, bit for bit
                assert (img is None) is (svd is None)
                if img is not None:
                    np.testing.assert_array_equal(img.ortho_basis, svd.ortho_basis)
                continue
            assert img.dim == svd.dim == v.dim
            u, w = img.ortho_basis, svd.ortho_basis
            assert np.linalg.norm(u @ u.conj().T - w @ w.conj().T, 2) <= 1e-12 * kappa
            assert img.classify().kind == svd.classify().kind
            for _, check in PREDICATES.values():
                with mock.patch.object(transforms, "image_subspace", svd_image):
                    want = check(t, v)
                assert check(t, v) == want

    @settings(max_examples=examples(30))
    @given(
        n=st.integers(2, 24),
        isometry=st.booleans(),
        log_scale=st.floats(-2.0, 2.0),
        boost=st.floats(0.0, 1.5),  # kappa(T) up to exp(3), about 20
        diagonal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_settled_families_certify_alike(self, n, isometry, log_scale, boost, diagonal, seed):
        rng = rng_from_seed(seed)
        space = random_space(rng, n, diagonal=diagonal)
        F = random_fusion_frame(space, rng)
        if isometry:
            t = Operator(space, 10.0**log_scale * random_j_unitary(space, rng, boost).matrix)
        else:
            t = random_invertible(space, rng, log_scale, boost)
        settled = all(transforms._settles(w, t._isometry, 1) for w in F.subspaces)
        try:
            family, cert = transform_family(t, F)
        except KreinFramesError as exc:
            family, cert = None, exc
        try:
            classified = WeightedFamily(space, [svd_image(t, w) for w in F.subspaces], F.weights)
            want = certify(classified)
        except KreinFramesError as exc:
            want = exc
        if family is None or isinstance(want, Exception):
            assert not settled
            assert type(cert) is type(want) and str(cert) == str(want)
            return
        assert settled is all("_classification" not in vars(w) for w in family.subspaces)
        assert family.signs == classified.signs
        assert (cert.is_frame, cert.positive_range_dim, cert.negative_range_dim) == (
            want.is_frame, want.positive_range_dim, want.negative_range_dim)
        if cert.is_frame:
            for got, expected in ((cert.optimal_bounds, want.optimal_bounds),
                                  (cert.estimate_bounds, want.estimate_bounds)):
                for a, b in zip(got.as_tuple(), expected.as_tuple()):
                    assert (a is None) is (b is None)
                    if a is not None:
                        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


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

    def test_image_family_that_is_no_frame_is_rejected(self, c3):
        # every image line keeps its sign, but the positive ones, T e1 and
        # T e2, have the Gramian [[0.19, -0.81], [-0.81, 0.19]] of eigenvalues
        # 1.0 and -0.62: the positive image span is indefinite
        fam = WeightedFamily(c3, [Subspace(c3, np.eye(3)[:, [i]]) for i in range(3)], [1.0] * 3)
        t = Operator(c3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.9, 0.9, 1.0]])
        image, cert = transform_family(t, fam)
        assert image.signs == fam.signs and not cert.is_frame
        with pytest.raises(HypothesisNotMetError, match="image family must also certify"):
            necessary_conditions_check(t, fam)

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


class TestSpanDecisions:
    """The frame's spans decide their rank once: for every certified frame the
    estimate bounds enclose the optimal ones, the frame meets the necessary
    conditions over itself, and the converse check's surjectivity agrees with
    the direct-sum test."""

    @pytest.mark.parametrize("tau_rank", [1e-10, 1e-3, 0.1, 0.3])
    def test_on_random_frames(self, tau_rank):
        rng = rng_from_seed(53)
        certified = 0
        for _ in range(60):
            n = int(rng.integers(2, 13))
            try:
                space = random_space(rng, n, tol=Tolerances(tau_rank=tau_rank))
                fam = random_fusion_frame(space, rng, max_tilt=0.95, weight_range=(1e-4, 1.0))
            except KreinFramesError:  # a member's basis is rank deficient at tau_rank
                continue
            cert = certify(fam)
            if not cert.is_frame:
                continue
            certified += 1
            tol = space.tol.tau_num
            assert bounds_sandwich_ok(cert.optimal_bounds, cert.estimate_bounds, tol)
            report = transforms._necessary_conditions(fam, fam)
            assert report.holds
            try:
                surjective = converse_check(fam).surjective
            except NotSurjectiveError:
                surjective = False
            assert surjective == report.direct_sum
        assert certified >= 10


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
