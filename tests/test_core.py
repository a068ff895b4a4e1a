"""Tests for spaces, products, projections, Gramians and angular operators."""

import dataclasses
import importlib
import pkgutil
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kreinframes import (
    ClassificationError,
    DEFAULT_TOLERANCES,
    DegenerateSubspaceError,
    DimensionError,
    KreinSpace,
    Operator,
    RankError,
    Subspace,
    SubspaceKind,
    Tolerances,
    ValidationError,
    angular_operator,
    gramian,
    indefinite_product,
    j_adjoint,
    j_projection,
    orthogonal_projection,
    reduced_min_modulus,
)
import kreinframes
from kreinframes import VectorFrame, WeightedFamily, certify, fusion
from kreinframes.cli import run_command
from kreinframes.core import (
    _SAFETY,
    Record,
    _as_matrix,
    _clears,
    _def_floor,
    _leading_span,
    _rank,
    _top_singular_floor,
)
from kreinframes.errors import MemberClassificationError, UsageError
from kreinframes.fusion import FrameBounds, FrameCertificate
from kreinframes.problem import ProblemSpec, parse_spec
from kreinframes.transforms import (
    EPISTEMIC_NOTE,
    PredicateVerdict,
    projection_commutation_check,
)
from kreinframes.sampling import (
    random_complex,
    random_definite_subspace,
    random_maximal_definite_subspace,
    random_regular_subspace,
    rng_from_seed,
)

from generators import alternating_signature_space, examples, random_space
from oracles import gramian_min_modulus, in_span, projection_oracle

W_LINE = np.array([[0.0], [1.0], [0.5]])


class TestKreinSpace:
    def test_signature(self, c3):
        assert c3.dim == 3
        assert c3.signature == (2, 1)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            KreinSpace([[1, 1], [0, -1]])

    def test_non_involutive_rejected(self):
        # a Hermitian matrix that is not an involution
        with pytest.raises(ValidationError, match="involutive"):
            KreinSpace([[2, 0], [0, 1]])

    def test_overflowing_symmetry_rejected(self):
        # J @ J overflows to nan, which must fail the involution check
        # without a warning from numpy
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="involutive"):
                KreinSpace([[1e200, 0], [0, -1]])

    def test_printed_example_matrix_rejected(self):
        bad = [[1, 0, 0], [1, 0, 0], [0, 0, -1]]
        with pytest.raises(ValidationError):
            KreinSpace(bad)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            KreinSpace(np.ones((2, 3)))

    def test_canonical_bases_diagonalize(self):
        rng = rng_from_seed(7)
        space = random_space(rng, 5, p=3)
        plus, minus = space.plus_basis, space.minus_basis
        assert plus.shape == (5, 3)
        assert minus.shape == (5, 2)
        np.testing.assert_allclose(space.J @ plus, plus, atol=1e-10)
        np.testing.assert_allclose(space.J @ minus, -minus, atol=1e-10)


@pytest.mark.soundness
class TestDiagonalSymmetry:
    """J x and x J of a diagonal J are a scaling by its diagonal, equal to the
    dense products (``==``, so but for the sign of a zero); a J with any
    nonzero off-diagonal entry takes the dense products."""

    @staticmethod
    def symmetry(kind, n, rng):
        signs = rng.choice([1.0, -1.0], n)
        if kind == "signs":
            return np.diag(signs)
        if kind == "near signs":  # entries 1 +- 1e-12
            return np.diag(signs * (1.0 + rng.choice([1e-12, -1e-12], n)))
        if kind == "complex":  # Hermitian and involutive within tau_sym
            return np.diag(signs + 1j * rng.uniform(-1e-12, 1e-12, n))
        j = np.diag(signs).astype(complex)  # "tiny off-diagonal"
        j[0, -1] = j[-1, 0] = 1e-300
        return j

    @settings(max_examples=examples(40))
    @given(
        kind=st.sampled_from(["signs", "near signs", "complex", "tiny off-diagonal"]),
        n=st.integers(2, 64),
        m=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scaling_equals_the_dense_product(self, kind, n, m, seed):
        rng = rng_from_seed(seed)
        space = KreinSpace(self.symmetry(kind, n, rng))
        assert (space._diag is None) == (kind == "tiny off-diagonal")
        x = random_complex(rng, n, m)
        v = x[:, 0].copy()
        for got, dense in (
            (space._jx(x), space.J @ x),
            (space._jx(v), space.J @ v),
            (space._jx(x.real), space.J @ x.real),
            (space._xj(x.conj().T), x.conj().T @ space.J),
        ):
            assert got.dtype == dense.dtype and np.array_equal(got, dense)

    def test_involution_check_reads_the_diagonal(self):
        # the same ||J^2 - I|| as the dense square, in O(n^2)
        for j in ([[1, 0], [0, -1 - 2e-10]], [[1 + 1e-11, 0], [0, -1]]):
            dense = np.linalg.norm(np.asarray(j, dtype=complex) @ j - np.eye(2))
            if dense <= 2e-10:
                assert KreinSpace(j)._diag is not None
            else:
                with pytest.raises(ValidationError, match="= %g" % dense):
                    KreinSpace(j)


@pytest.mark.soundness
class TestSignature:
    """The signature from round((n + tr J) / 2), or from eigvalsh when
    n ||J^2 - I||_F is not below 1 (a loose tau_sym), and the canonical bases
    from eigh, made when first read."""

    @staticmethod
    def conjugate(rng, eigenvalues, tol=DEFAULT_TOLERANCES):
        """A random unitary conjugate of diag(eigenvalues), made Hermitian."""
        q, _ = np.linalg.qr(random_complex(rng, len(eigenvalues), len(eigenvalues)))
        j = q @ np.diag(eigenvalues) @ q.conj().T
        return KreinSpace(0.5 * (j + j.conj().T), tol=tol)

    @staticmethod
    def draw(data, loose):
        """A space of signature (p, n - p) and that p: exact signs, or under
        tau_sym 1 moduli in [0.2, 0.6], where n ||J^2 - I||_F >= 1 for n >= 2."""
        n = data.draw(st.integers(2 if loose else 1, 64))
        p = data.draw(st.integers(0, n))
        rng = rng_from_seed(data.draw(st.integers(0, 2**32 - 1)))
        signs = np.concatenate([np.ones(p), -np.ones(n - p)])
        if not loose:
            return TestSignature.conjugate(rng, signs), p
        moduli = rng.uniform(0.2, 0.6, n)
        return TestSignature.conjugate(rng, signs * moduli, Tolerances(tau_sym=1.0)), p

    @settings(max_examples=examples(40))
    @given(data=st.data(), loose=st.booleans())
    def test_counts_the_positive_eigenvalues(self, data, loose):
        space, p = self.draw(data, loose)
        count = int(np.count_nonzero(np.linalg.eigvalsh(space.J) > 0))
        assert space.signature == (count, space.dim - count) == (p, space.dim - p)

    @settings(max_examples=examples(40))
    @given(data=st.data(), loose=st.booleans())
    def test_bases_are_the_eigh_eigenvectors(self, data, loose):
        # bit for bit the eigh eigenvectors, negatives first, sliced by the
        # count of positive eigh eigenvalues
        space, _ = self.draw(data, loose)
        eigval, eigvec = np.linalg.eigh(space.J)
        q = space.dim - int(np.count_nonzero(eigval > 0))
        np.testing.assert_array_equal(space.minus_basis, eigvec[:, :q])
        np.testing.assert_array_equal(space.plus_basis, eigvec[:, q:])
        assert not (space.minus_basis.flags.writeable or space.plus_basis.flags.writeable)

    def test_trace_would_round_wrong_under_a_loose_tau_sym(self, count_calls):
        j = np.diag([0.2, 0.2, 0.2, -1.0])
        assert round((4 + np.trace(j)) / 2) == 2
        eigvalsh = count_calls(np.linalg, "eigvalsh")
        space = KreinSpace(j, tol=Tolerances(tau_sym=0.5))
        assert space.signature == (3, 1) and len(eigvalsh) == 1
        assert KreinSpace.from_signs([1, 1, 1, -1]).signature == (3, 1)
        assert len(eigvalsh) == 1  # an exact involution reads its trace

    def test_a_family_document_makes_no_eigh(self, count_calls):
        # J = [[0, 1], [1, 0]] with the positive line (1, 1) and the negative
        # (1, -1): every task of "all" runs without the canonical bases
        eigh = count_calls(np.linalg, "eigh")
        doc = {
            "space": {"dim": 2, "J": [[0, 1], [1, 0]]},
            "families": {"f": {"subspaces": [[[1, 1]], [[1, -1]]], "weights": [1, 2]}},
        }
        problem = parse_spec(doc)
        report = run_command("all", problem, 0, 10)
        assert report["pass"] and report["space"]["signature"] == [1, 1]
        assert eigh == []
        plus = problem.space.plus_basis
        assert len(eigh) == 1 and problem.space.minus_basis is not None
        np.testing.assert_allclose(abs(plus[:, 0]), [2**-0.5] * 2)
        assert len(eigh) == 1


class TestIndefiniteProduct:
    def test_example_line(self, c3):
        w = np.array([0.0, 1.0, 0.5])
        assert indefinite_product(c3, w, w) == pytest.approx(0.75)

    def test_hilbert_case_is_norm(self, hilbert3):
        rng = rng_from_seed(0)
        for _ in range(5):
            x = random_complex(rng, 3)
            val = indefinite_product(hilbert3, x, x)
            assert val.imag == pytest.approx(0.0, abs=1e-12)
            assert val.real == pytest.approx(np.linalg.norm(x) ** 2)

    def test_neutral_vector(self, minkowski):
        assert indefinite_product(minkowski, [1, 1], [1, 1]) == 0

    def test_conjugate_symmetry(self, c3):
        rng = rng_from_seed(1)
        x, y = random_complex(rng, 3), random_complex(rng, 3)
        assert indefinite_product(c3, x, y) == pytest.approx(
            np.conj(indefinite_product(c3, y, x))
        )

    def test_linearity_in_first_argument(self, c3):
        rng = rng_from_seed(2)
        x, y, z = (random_complex(rng, 3) for _ in range(3))
        a = 0.3 - 1.7j
        lhs = indefinite_product(c3, a * x + y, z)
        rhs = a * indefinite_product(c3, x, z) + indefinite_product(c3, y, z)
        assert lhs == pytest.approx(rhs)

    def test_dimension_mismatch(self, c3):
        with pytest.raises(DimensionError):
            indefinite_product(c3, [1, 0], [0, 1, 0])


class TestJAdjoint:
    def test_j_is_selfadjoint(self, c3):
        t = Operator(c3, c3.J)
        np.testing.assert_allclose(j_adjoint(t).matrix, c3.J)

    def test_projection_adjoint_is_j_image_projection(self, c3):
        rng = rng_from_seed(3)
        w = Subspace(c3, random_complex(rng, 3, 2))
        jw = Subspace(c3, c3.J @ w.basis)
        lhs = j_adjoint(orthogonal_projection(w)).matrix
        np.testing.assert_allclose(lhs, orthogonal_projection(jw).matrix, atol=1e-12)

    def test_pairing_identity(self):
        rng = rng_from_seed(4)
        space = random_space(rng, 4)
        t = Operator(space, random_complex(rng, 4, 4))
        for _ in range(10):
            x, y = random_complex(rng, 4), random_complex(rng, 4)
            lhs = indefinite_product(space, t(x), y)
            rhs = indefinite_product(space, x, j_adjoint(t)(y))
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))

    def test_involution(self):
        rng = rng_from_seed(5)
        space = random_space(rng, 4)
        t = Operator(space, random_complex(rng, 4, 4))
        np.testing.assert_allclose(
            j_adjoint(j_adjoint(t)).matrix, t.matrix, atol=1e-12
        )


class TestTolerances:
    """Tolerances decide their own ranges, in the words parse_spec reports."""

    @pytest.mark.parametrize("key", ["tau_sym", "tau_rank", "tau_def", "tau_num"])
    @pytest.mark.parametrize(
        "value", [0, -1e-9, float("nan"), float("inf"), 10**400, True, "1e-9", None, 1j]
    )
    def test_not_a_positive_finite_number(self, key, value):
        with pytest.raises(ValidationError, match=rf"^{key}: expected a positive number$"):
            Tolerances(**{key: value})

    @pytest.mark.parametrize("key", ["tau_rank", "tau_def"])
    @pytest.mark.parametrize("value", [1, 1.0, 1.5])
    def test_rank_and_definiteness_below_one(self, key, value):
        message = rf"^{key}: expected a positive number below 1$"
        with pytest.raises(ValidationError, match=message):
            Tolerances(**{key: value})

    def test_other_values_are_kept(self):
        tol = Tolerances(tau_sym=2.0, tau_rank=np.float64(0.5), tau_def=1e-300, tau_num=7)
        assert (tol.tau_sym, tol.tau_rank, tol.tau_def, tol.tau_num) == (2.0, 0.5, 1e-300, 7)

    def test_values_are_kept_as_floats(self):
        assert type(Tolerances(tau_sym=1).tau_sym) is float
        assert Tolerances(tau_sym=1).tau_sym == 1.0
        tol = Tolerances(3, np.float64(0.5), tau_num=7)
        assert all(type(v) is float for v in vars(tol).values())

    @pytest.mark.parametrize(
        "args, kwargs, first",
        [
            ((), {"tau_num": -1, "tau_sym": "x"}, "tau_num"),
            ((), {"tau_sym": "x", "tau_num": -1}, "tau_sym"),
            ((1e-10, 2.0), {"tau_num": None}, "tau_rank"),  # positional values first
            ((1e-10, 1e-10), {"tau_num": 0, "tau_def": 1}, "tau_num"),
        ],
    )
    def test_the_first_fault_in_the_order_given(self, args, kwargs, first):
        with pytest.raises(ValidationError, match=rf"^{first}: "):
            Tolerances(*args, **kwargs)


class TestOperatorMatrix:
    """An operator keeps a read-only copy of its matrix, so what is derived
    from it can be kept."""

    def test_matrix_is_a_read_only_copy(self, c3):
        m = np.eye(3, dtype=complex)
        t = Operator(c3, m)
        assert t.matrix is not m and m.flags.writeable
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 2.0

    def test_singular_values_come_from_one_svd(self, c3, count_calls):
        t = Operator(c3, np.diag([1.0, 3.0, 2.0]))
        svds = count_calls(np.linalg, "svd")
        np.testing.assert_array_equal(t._svals, [3.0, 2.0, 1.0])
        assert t._svals is t._svals and not t._svals.flags.writeable
        assert len(svds) == 1


class TestOperatorIdentity:
    """Operators hold arrays, so they compare and hash by identity, as subspaces do."""

    def test_operator(self, c3):
        a, b = Operator(c3, np.eye(3)), Operator(c3, np.eye(3))
        assert a == a and a != b
        assert len({a, b, a}) == 2
        assert {a: 1}[a] == 1

    def test_angular_operator(self, c3):
        m = Subspace(c3, [[1.0, 0.0], [0.0, 1.0], [0.5, 0.0]])
        a, b = angular_operator(m, 1), angular_operator(m, 1)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a == a and a != b
        assert len({a, b}) == 2


def lazy_draw():
    """A maximal draw whose rank its bounds settle: its basis waits until read."""
    return random_maximal_definite_subspace(alternating_signature_space(12), rng_from_seed(0), 1)


# what each kept value is read from, and the factorization behind it with its
# runs: the draw's builder takes ||k||_2 once, a decision one Rayleigh
# quotient SVD per side
KEPT = {
    "a lazy draw's basis": (lambda r: lazy_draw(), "basis", (np.linalg, "norm"), 1),
    "a lazy draw's ortho_basis": (lambda r: lazy_draw(), "ortho_basis", (np.linalg, "svd"), 1),
    "a lazy draw's classification": (
        lambda r: lazy_draw(), "_classification", (np.linalg, "eigvalsh"), 1
    ),
    "an operator's J-isometry scale": (
        lambda r: Operator(r.getfixturevalue("c3"), np.diag([2.0, 1.0, 0.5])),
        "_isometry", (np.linalg, "svd"), 1,
    ),
    "a family's decision": (
        lambda r: r.getfixturevalue("tilted_family"), "_certificate",
        (fusion, "_rayleigh_extremes"), 2,
    ),
    "a vector frame's decision": (
        lambda r: r.getfixturevalue("coupled_frame"), "_certificate",
        (fusion, "_rayleigh_extremes"), 2,
    ),
    "a family's S^-1": (
        lambda r: r.getfixturevalue("tilted_family"), "_s_inv", (np.linalg, "inv"), 1
    ),
    "a vector frame's S^-1": (
        lambda r: r.getfixturevalue("coupled_frame"), "_s_inv", (np.linalg, "inv"), 1
    ),
}


class TestKeptValues:
    """Every derived value the package keeps is a cached property: absent from
    vars() until first read, then the same object on each read, made by one
    run of the factorization behind it."""

    @pytest.mark.parametrize("case", KEPT)
    def test_made_once_on_first_read(self, case, request, count_calls):
        make, name, (owner, function), runs = KEPT[case]
        obj = make(request)
        assert name not in vars(obj)
        calls = count_calls(owner, function)
        value = getattr(obj, name)
        assert vars(obj)[name] is value and getattr(obj, name) is value
        assert len(calls) == runs
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable

    def test_a_draw_drops_its_builder_once_built(self):
        v = lazy_draw()
        assert "_build" in vars(v)
        basis = v.basis
        assert "_build" not in vars(v) and v.basis is basis

    def test_values_known_up_front_are_seeded(self, c3, count_calls):
        svds = count_calls(np.linalg, "svd")
        member = Subspace(c3, W_LINE)
        assert {"basis", "ortho_basis"} <= vars(member).keys() and len(svds) == 1
        assert member.ortho_basis is vars(member)["ortho_basis"] and len(svds) == 1
        line = Subspace.from_spanning(c3, np.hstack([W_LINE, 2.0 * W_LINE]))
        assert line.basis is line.ortho_basis and len(svds) == 2

    def test_operator_and_records_stay_read_only(self, c3, tilted_family, coupled_frame):
        op = Operator(c3, np.diag([2.0, 1.0, 0.5]))
        op._isometry, op._svals
        for name in ("_isometry", "_svals", "matrix"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(op, name, None)
            with pytest.raises(AttributeError, match="read-only"):
                delattr(op, name)
        for F in (tilted_family, coupled_frame):
            cert = F._certificate
            with pytest.raises(AttributeError, match="read-only"):
                cert.is_frame = False
            # certify writes the estimate bounds into the kept record itself
            assert certify(F) is cert and cert.estimate_bounds is not None


RECORDS = """
Tolerances Classification FrameBounds FrameCertificate ConverseReport DualBoundsReport
FusionDualReport ProblemSpec PredicateVerdict PreservationReport NecessaryConditionsReport
""".split()


def package_modules():
    return [
        importlib.import_module(f"kreinframes.{info.name}")
        for info in pkgutil.iter_modules(kreinframes.__path__)
    ]


def record_types():
    return [cls for cls in Record.__subclasses__() if cls.__module__.startswith("kreinframes.")]


class TestRecords:
    """The package's value records: fields in annotation order, built by
    position or keyword, equal by value within one type, read-only."""

    def test_the_records(self):
        assert sorted(cls.__name__ for cls in record_types()) == sorted(RECORDS)
        assert all(getattr(kreinframes, name).__bases__ == (Record,) for name in RECORDS)

    def test_no_class_of_the_package_is_a_dataclass(self):
        names = [(m, v) for m in package_modules() for v in vars(m).values()]
        classes = [v for m, v in names if isinstance(v, type) and v.__module__ == m.__name__]
        assert {"Record", "Operator", "AngularOperator", *RECORDS} <= {c.__name__ for c in classes}
        assert [c.__name__ for c in classes if dataclasses.is_dataclass(c)] == []
        # and no module holds the dataclasses module or a name from it
        assert [v for _, v in names if v is dataclasses
                or getattr(v, "__module__", None) == "dataclasses"] == []

    @pytest.mark.parametrize("cls", record_types(), ids=lambda c: c.__name__)
    def test_fields_in_order(self, cls):
        # 0.5, 0.6, ...: in range for Tolerances, and any value for the others
        values = [0.5 + i / 10 for i in range(len(cls._fields))]
        by_position, by_keyword = cls(*values), cls(**dict(zip(cls._fields, values)))
        assert cls._fields == tuple(cls.__annotations__)
        assert list(vars(by_position).items()) == list(zip(cls._fields, values))
        assert list(vars(by_keyword)) == list(cls._fields)
        assert by_position == by_keyword and hash(by_position) == hash(tuple(values))
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values))
        assert repr(by_position) == f"{cls.__qualname__}({inner})"

    @pytest.mark.parametrize("cls", record_types(), ids=lambda c: c.__name__)
    def test_read_only(self, cls):
        record = cls(*[0.5] * len(cls._fields))
        for name in (*cls._fields, "other"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(record, name, 0.25)
            with pytest.raises(AttributeError, match="read-only"):
                delattr(record, name)
        assert vars(record) == dict.fromkeys(cls._fields, 0.5)

    def test_defaults(self):
        assert vars(Tolerances(1e-9, tau_num=1e-6)) == {
            "tau_sym": 1e-9, "tau_rank": 1e-10, "tau_def": 1e-8, "tau_num": 1e-6
        }
        verdict = PredicateVerdict("counterexample", None, "why", 3)
        assert verdict.note == EPISTEMIC_NOTE and not verdict.holds
        assert PredicateVerdict(*vars(verdict).values()) == verdict

    def test_mutable_defaults_are_fresh(self, c3):
        a, b = (FrameCertificate(*[True] * 7) for _ in range(2))
        assert a.witnesses == [] and a.witnesses is not b.witnesses
        a.witnesses.append({"side": "+"})
        assert b.witnesses == [] and FrameCertificate._defaults["witnesses"] == []
        assert (a.optimal_bounds, a.estimate_bounds) == (None, None)
        p, q = ProblemSpec(c3), ProblemSpec(space=c3)
        for name in ("families", "vector_frames", "operators"):
            assert getattr(p, name) == {} and getattr(p, name) is not getattr(q, name)
        assert p.tolerances == Tolerances() and p.seed is None

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((1.0, 2.0, 3.0), {}, "missing field 'b_plus'"),
            ((), {"b_minus": 1.0, "a_minus": 2.0, "a_plus": 3.0}, "missing field 'b_plus'"),
            ((1.0, 2.0, 3.0, 4.0, 5.0), {}, "takes 4 fields"),
            ((1.0, 2.0, 3.0, 4.0), {"b_upper": 5.0}, "got an unexpected or repeated field 'b_upper'"),
            ((1.0, 2.0, 3.0, 4.0), {"b_minus": 5.0}, "got an unexpected or repeated field 'b_minus'"),
        ],
        ids=["missing", "missing_keyword", "too_many", "unknown", "repeated"],
    )
    def test_bad_fields(self, args, kwargs, message):
        with pytest.raises(TypeError, match=rf"^FrameBounds\(\) {message}"):
            FrameBounds(*args, **kwargs)

    def test_equality_needs_the_same_type(self):
        class Bounds(Record):
            b_minus: float
            a_minus: float
            a_plus: float
            b_plus: float

        a = FrameBounds(-2.0, -1.0, 1.0, 2.0)
        assert a == FrameBounds(-2.0, -1.0, 1.0, 2.0) and a != FrameBounds(-2.0, -1.0, 1.0, 3.0)
        assert a != Bounds(-2.0, -1.0, 1.0, 2.0) and a != (-2.0, -1.0, 1.0, 2.0)
        assert vars(a) == vars(Bounds(-2.0, -1.0, 1.0, 2.0))
        assert len({a, FrameBounds(-2.0, -1.0, 1.0, 2.0)}) == 1

    def test_hashing_as_the_fields(self):
        assert hash(Tolerances()) == hash((1e-10, 1e-10, 1e-8, 1e-9))
        assert {Tolerances(): 1}[Tolerances()] == 1
        with pytest.raises(TypeError, match="unhashable"):  # a list field
            hash(FrameCertificate(*[True] * 7))

    def test_operators_are_read_only_and_equal_only_to_themselves(self, c3):
        t = Operator(space=c3, matrix=np.eye(3))
        m = Subspace(c3, [[1.0, 0.0], [0.0, 1.0], [0.5, 0.0]])
        k = angular_operator(m, 1)
        for obj, name in ((t, "matrix"), (t, "space"), (k, "norm"), (k, "matrix")):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(obj, name, None)
        assert t != Operator(c3, np.eye(3)) and hash(t) == object.__hash__(t)
        assert list(vars(k)) == ["matrix", "norm", "full_domain"]


class TestClassify:
    def test_positive_line(self, c3):
        cls = Subspace(c3, W_LINE).classify()
        assert cls.kind is SubspaceKind.UNIFORMLY_POSITIVE
        assert cls.regular
        assert not cls.maximal_definite

    def test_neutral_line(self, minkowski):
        cls = Subspace(minkowski, [[1.0], [1.0]]).classify()
        assert cls.kind is SubspaceKind.NEUTRAL
        assert not cls.regular

    def test_tilted_plane_maximal(self, c3):
        # {(x, y, z): z = (x + y) / 2}
        basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        cls = Subspace(c3, basis).classify()
        assert cls.kind is SubspaceKind.UNIFORMLY_POSITIVE
        assert cls.maximal_definite

    def test_indefinite(self, c3):
        cls = Subspace(c3, np.eye(3)[:, [0, 2]]).classify()
        assert cls.kind is SubspaceKind.INDEFINITE
        assert not cls.maximal_definite

    def test_positive_non_uniform(self, c3):
        # e2 plus a neutral direction: Gramian eigenvalues {1, 0}
        basis = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        cls = Subspace(c3, basis).classify()
        assert cls.kind is SubspaceKind.POSITIVE_NON_UNIFORM
        assert not cls.regular

    def test_negative_kinds(self, c3):
        cls = Subspace(c3, [[0.0], [0.0], [1.0]]).classify()
        assert cls.kind is SubspaceKind.UNIFORMLY_NEGATIVE
        assert cls.maximal_definite
        assert cls.sign == -1

    def test_rank_deficient_basis_rejected(self, c3):
        with pytest.raises(RankError):
            Subspace(c3, np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]]))

    def test_more_columns_than_the_space_rejected(self):
        # full rank 2 in C^2, but three columns are no basis
        with pytest.raises(RankError):
            Subspace(KreinSpace(np.eye(2)), [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    def test_rounding_level_eigenvalue_counts_as_zero(self):
        # the line's Gramian is 2^-52 / (2 - 2^-51), about 1.1e-16: far above a
        # tau_def of 1e-300, but within the rounding of forming U*JU
        space = KreinSpace.from_signs([1, 1, -1], tol=Tolerances(tau_def=1e-300))
        w = Subspace(space, [[1.0], [0.0], [1.0 - 2.0**-52]])
        assert w.classify().kind is SubspaceKind.NEUTRAL
        assert not w.classify().regular

    def test_rounding_level_stays_below_the_default_tau_def(self):
        # up to n = 160, the benchmark's largest documents, tau_def decides alone
        space = KreinSpace.from_signs([1] * 80 + [-1] * 80)
        assert _def_floor(space, 160) == Tolerances().tau_def

    def test_gram_extremes_recorded(self, c3):
        cls = Subspace(c3, W_LINE).classify()
        lo, hi = cls.extremal_gram_eigen
        assert lo == pytest.approx(0.6)
        assert hi == pytest.approx(0.6)

    def test_the_classification_is_kept_with_its_margin(self, c3):
        W = Subspace(c3, W_LINE)
        cls = W.classify()
        # one classification per subspace, cached with its Gramian margin
        assert cls is W.classify()
        assert W._margin == pytest.approx(0.6)


class TestRankDecision:
    TAU = DEFAULT_TOLERANCES.tau_rank

    @pytest.mark.parametrize(
        "s, rank",
        [
            ([], 0),
            ([0.0, 0.0, 0.0], 0),
            ([2.0, 1.0, 0.5], 3),
            # at the cutoff exactly a singular value counts as zero
            ([2.0, 2.0 * TAU, 0.0], 1),
            ([2.0, 2.0 * TAU * (1 + 1e-15), 0.0], 2),
        ],
    )
    def test_rank_edge_cases(self, s, rank):
        assert _rank(np.asarray(s, dtype=float), DEFAULT_TOLERANCES) == rank

    def test_non_finite_basis_rejected(self, minkowski):
        # its SVD returns nan singular values without raising
        with pytest.raises(RankError):
            Subspace(minkowski, [[np.inf, 0.0], [0.0, 1.0]])

    def test_from_spanning_factors_once(self, c3, count_calls):
        svds = count_calls(np.linalg, "svd")
        cols = [[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [1.0, 2.0, 0.0]]
        W = Subspace.from_spanning(c3, cols)
        assert len(svds) == 1
        assert W.dim == 2
        assert in_span(W, [1.0, 0.0, 1.0]) and in_span(W, [0.0, 1.0, 0.0])

    @settings(max_examples=12)
    @given(n=st.integers(2, 64), data=st.data())
    def test_span_invariant_under_change_of_basis(self, n, data):
        """Subspace(B), from_spanning(B V) for an invertible V and
        from_spanning([B, B C]) are one subspace, classified alike."""
        rng = rng_from_seed(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        k = data.draw(st.integers(1, n), label="k")
        space = random_space(rng, n)
        b = random_complex(rng, n, k)
        assume(np.linalg.cond(b) < 1e6)
        q, _ = np.linalg.qr(random_complex(rng, k, k))
        v = q * rng.uniform(0.5, 2.0, k)  # cond(V) <= 4
        c = random_complex(rng, k, data.draw(st.integers(1, 3), label="extra"))
        spans = [
            Subspace(space, b),
            Subspace.from_spanning(space, b @ v),
            Subspace.from_spanning(space, np.hstack([b, b @ c])),
        ]
        ref = spans[0]
        for W in spans:
            assert W.dim == k
            u = W.ortho_basis
            assert np.abs(u.conj().T @ u - np.eye(k)).max() < 1e-12
            proj = orthogonal_projection(W).matrix
            assert np.abs(proj - orthogonal_projection(ref).matrix).max() < 1e-10
            cls = W.classify()
            assert cls.kind is ref.classify().kind
            lo_hi = ref.classify().extremal_gram_eigen
            np.testing.assert_allclose(cls.extremal_gram_eigen, lo_hi, rtol=0, atol=1e-10)


@pytest.mark.soundness
class TestLeadingSpan:
    """A span settled from its leading columns (``_leading_span``) against the
    SVD of all its columns: the same rank, projector and class when it
    settles, and coefficients C with Q C = A to the slack; near the
    threshold tau_rank s_1, or on dependent leading columns, it refuses,
    mostly before R's singular values are bounded, and the span is the
    SVD's, bit for bit.  R's SVD runs only where the bounds without it
    (``_top_singular_floor``, ||R||_F and the Cholesky proof on R*R) do not
    settle the side."""

    TAU = DEFAULT_TOLERANCES.tau_rank
    E = np.eye(6)  # under diag(1, 1, 1, -1, -1, -1): e1..e3 positive, e4..e6 negative

    @pytest.fixture
    def space(self):
        return KreinSpace.from_signs([1, 1, 1, -1, -1, -1])

    @staticmethod
    def spans(space, a, c):
        return Subspace.from_spanning(space, a, _most=c), Subspace.from_spanning(space, a)

    def refuses(self, space, a, c, count_calls):
        svd = count_calls(np.linalg, "svd")
        assert _leading_span(a, c, space.tol) is None and svd == []
        settled, svd_span = self.spans(space, a, c)
        assert np.array_equal(settled.ortho_basis, svd_span.ortho_basis)

    @staticmethod
    def leading(a, c, tol, count_calls):
        """_leading_span's result and how many SVDs (of R) it took."""
        svd = count_calls(np.linalg, "svd")
        found = _leading_span(a, c, tol)
        return found, len(svd)

    @staticmethod
    def coefficients_hold(a, q, coeffs):
        # C = [R | Q* A_R]: Q C is A up to the slack n K eps ||A||_F
        k = q.shape[1]
        assert np.array_equal(coeffs[:, :k], np.triu(coeffs[:, :k]))
        slack = a.shape[0] * a.shape[1] * 2.0**-52 * np.linalg.norm(a)
        assert np.linalg.norm(q @ coeffs - a) <= slack + 2 * np.linalg.norm(
            a[:, k:] - q @ coeffs[:, k:])

    def settles(self, space, a, c, count_calls=None, svds=None):
        q, coeffs = _leading_span(a, c, space.tol)
        if count_calls is not None:  # and how many SVDs of R it takes
            assert self.leading(a, c, space.tol, count_calls)[1] == svds
        settled, svd_span = self.spans(space, a, c)
        assert np.array_equal(settled.ortho_basis, q) and np.array_equal(settled._coeffs, coeffs)
        assert settled.dim == svd_span.dim == min(c, a.shape[1])
        p1, p2 = (orthogonal_projection(W).matrix for W in (settled, svd_span))
        assert np.linalg.norm(p1 - p2, 2) <= 1e-12
        self.coefficients_hold(a, q, coeffs)

    @settings(max_examples=examples(24))
    @given(
        n=st.integers(2, 64), diagonal=st.booleans(), sign=st.sampled_from([1, -1]),
        extra=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
    )
    def test_a_settled_side_is_its_svd_span(self, n, diagonal, sign, extra, seed):
        # a side of c + extra columns spanning a maximal definite subspace
        rng = rng_from_seed(seed)
        space = random_space(rng, n, diagonal=diagonal)
        c = space.signature[0 if sign == 1 else 1]
        maximal = random_maximal_definite_subspace(space, rng, sign)
        a = maximal.basis @ random_complex(rng, c, c + extra) * rng.uniform(0.5, 2.0, c + extra)
        q, coeffs = _leading_span(a, c, space.tol)
        settled, svd_span = self.spans(space, a, c)
        assert np.array_equal(settled.ortho_basis, q) and settled.dim == svd_span.dim == c
        self.coefficients_hold(a, q, coeffs)
        u, s, vh = np.linalg.svd(a, full_matrices=False)  # the SVD span's C = Sigma_c V_c*
        assert np.array_equal(svd_span._coeffs, s[:c, None] * vh[:c])
        s = np.linalg.svd(a[:, :c], compute_uv=False)
        p1, p2 = (orthogonal_projection(W).matrix for W in (settled, svd_span))
        assert np.linalg.norm(p1 - p2, 2) <= 1e-12 * s[0] / s[-1]
        got, want = settled.classify(), svd_span.classify()
        assert (got.kind, got.regular, got.maximal_definite) == (
            want.kind, want.regular, want.maximal_definite
        )
        assert got.sign == sign and got.maximal_definite
        np.testing.assert_allclose(
            got.extremal_gram_eigen, want.extremal_gram_eigen, rtol=0, atol=1e-10
        )

    def test_dependent_leading_columns_refuse(self, space, count_calls):
        e = self.E
        self.refuses(space, np.column_stack([e[:, 0], 2 * e[:, 0], e[:, 1], e[:, 2]]), 3,
                     count_calls)

    @pytest.mark.parametrize("off, settled", [(1.0, False), (0.5, False), (0.01, True)])
    def test_a_column_off_the_span(self, space, count_calls, off, settled):
        # a fourth column off span{e1, e2, e3} by off * tau_rank s_1, s_1 = sqrt 2;
        # tau_rank s_1 / 2 settles without the factor _SAFETY; R = I needs no SVD
        e = self.E
        u = (e[:, 0] + e[:, 1] + e[:, 2]) / np.sqrt(3.0)
        a = np.column_stack([e[:, 0], e[:, 1], e[:, 2], u + off * self.TAU * np.sqrt(2.0) * e[:, 3]])
        if settled:
            self.settles(space, a, 3, count_calls, svds=0)
        else:
            self.refuses(space, a, 3, count_calls)

    @pytest.mark.parametrize("s_k, settled", [(1.0, False), (2.0, False), (100.0, True)])
    def test_the_smallest_singular_value_near_the_threshold(self, space, count_calls, s_k,
                                                          settled):
        # s_k = s_k * tau_rank s_1; twice tau_rank s_1 settles without _SAFETY;
        # an s_k far below sqrt(eps) s_1 takes R's SVD, which the Cholesky
        # proof on R*R cannot see
        e = self.E
        a = np.column_stack([e[:, 0], e[:, 1], s_k * self.TAU * e[:, 2]])
        if settled:
            self.settles(space, a, 3, count_calls, svds=1)
        else:
            self.refuses(space, a, 3, count_calls)

    @pytest.mark.parametrize("d, settled", [(6.0, False), (20.0, True)])
    def test_a_coupled_pair_near_the_threshold(self, space, count_calls, d, settled):
        # [e1, e1 + d tau_rank e2]: R's diagonal (1, d tau_rank) clears _SAFETY
        # tau_rank, while s_2 = d tau_rank / sqrt 2 clears _SAFETY tau_rank s_1,
        # s_1 = sqrt 2, only for d > 8; either way R's 2 x 2 SVD decides
        e = self.E
        a = np.column_stack([e[:, 0], e[:, 0] + d * self.TAU * e[:, 1]])
        if settled:
            self.settles(space, a, 3, count_calls, svds=1)
        else:
            assert self.leading(a, 3, space.tol, count_calls) == (None, 1)
            settled_span, svd_span = self.spans(space, a, 3)
            assert np.array_equal(settled_span.ortho_basis, svd_span.ortho_basis)

    @pytest.mark.parametrize("over, settled", [(0.5, False), (2.0, True)])
    def test_the_slack_at_its_edge(self, space, count_calls, over, settled):
        # [e1, d e2]: R = diag(1, d) exactly, slack = n K eps = 12 eps, and the
        # side settles once d - slack clears _SAFETY tau_rank (1 + slack)
        slack = 6 * 2 * 2.0**-52
        d = 4.0 * self.TAU * (1.0 + slack) + over * slack
        a = np.column_stack([self.E[:, 0], d * self.E[:, 1]])
        if settled:
            self.settles(space, a, 3, count_calls, svds=1)
        else:
            self.refuses(space, a, 3, count_calls)

    def test_fewer_columns_than_the_component(self, space, count_calls):
        self.settles(space, self.E[:, :2] @ np.array([[1.0, 1.0], [0.0, 1.0]]), 3,
                     count_calls, svds=0)

    def test_an_empty_component_refuses(self, space, count_calls):
        self.refuses(space, self.E[:, :2], 0, count_calls)

    @pytest.mark.parametrize("scale", [1e-150, 1e-50, 1.0, 1e50, 1e150])
    def test_the_bounds_do_not_depend_on_the_scale(self, space, count_calls, scale):
        # R is scaled by a power of two to ||R||_F in [1/2, 1) first, so R*R
        # neither under- nor overflows
        e = self.E
        a = scale * np.column_stack([e[:, 0], e[:, 1] + e[:, 0], e[:, 2], e[:, 0] - e[:, 2]])
        self.settles(space, a, 3, count_calls, svds=0)

    def test_near_its_residual_limit_a_wide_side_settles_without_r_svd(self, count_calls):
        # 48 columns of a maximal positive subspace of C^64 (c = 32), the last
        # one off it by 0.6 of tau_rank s_1(A) / _SAFETY: the power steps must
        # bound s_1(R) from below to 0.6 of it and more, which a column norm
        # of R (about half of s_1(R) here) does not
        rng = rng_from_seed(5)
        space = random_space(rng, 64, diagonal=False)
        c = space.signature[0]
        maximal = random_maximal_definite_subspace(space, rng, 1)
        a = maximal.ortho_basis @ random_complex(rng, c, 48)
        a /= np.linalg.norm(a, axis=0)
        s_1 = np.linalg.svd(a, compute_uv=False)[0]
        out = random_complex(rng, 64, 1)[:, 0]  # a unit vector orthogonal to the span
        out -= maximal.ortho_basis @ (maximal.ortho_basis.conj().T @ out)
        a[:, -1] += 0.6 * self.TAU * s_1 / _SAFETY * out / np.linalg.norm(out)
        assert np.linalg.norm(a, axis=0).max() < 0.6 * s_1
        q, coeffs = _leading_span(a, c, space.tol)
        assert self.leading(a, c, space.tol, count_calls)[1] == 0
        self.coefficients_hold(a, q, coeffs)

    @pytest.mark.parametrize("gap", [1e-12, 1e-6])
    def test_a_near_tie_at_the_top(self, count_calls, gap):
        # R's top two singular values 1 and 1 - gap, in a basis the power steps
        # must turn, next to a residual at 0.9 of tau_rank s_1 / _SAFETY
        rng = rng_from_seed(11)
        space = random_space(rng, 24, diagonal=True)
        c = space.signature[0]
        v = np.linalg.qr(random_complex(rng, c, c))[0]
        s = np.r_[1.0, 1.0 - gap, np.linspace(0.5, 0.1, c - 2)]
        a_s = space.plus_basis @ (s[:, None] * v)
        a = np.column_stack([a_s, 0.9 * self.TAU / _SAFETY * space.minus_basis[:, 0]])
        q, coeffs = _leading_span(a, c, space.tol)
        assert self.leading(a, c, space.tol, count_calls)[1] == 0
        self.coefficients_hold(a, q, coeffs)

    @pytest.mark.parametrize("part, svds", [(0.5, 1), (1.5, 0)])
    def test_the_error_of_forming_r_star_r_decides(self, space, count_calls, part, svds):
        # R = diag(1/2, 1/2, s) exactly (||R||_F in [1/2, 1), so unscaled), whose
        # R*R = diag(1/4, 1/4, s^2) rounds only in s^2: the Cholesky proof
        # needs s^2 above t^2 + delta + 2 (k + 2) eps, the formation error of
        # R*R; part of that last term alone keeps the proof from settling
        e, k, eps = self.E, 3, 2.0**-52
        slack = 6 * 3 * eps * np.sqrt(0.5)
        t = slack + _SAFETY * self.TAU * np.hypot(np.sqrt(0.5) + slack, 0.0)
        form = 2 * (k + 2) * eps
        delta = 4 * (k + 1) ** 2 * (eps * (np.hypot(0.25, 0.25) + t * t + form) + 2.0**-1074)
        s = np.sqrt(t * t + delta + part * form)
        a = np.column_stack([0.5 * e[:, 0], 0.5 * e[:, 1], s * e[:, 2]])
        assert np.linalg.qr(a)[1].diagonal().tolist() == [0.5, 0.5, s]
        self.settles(space, a, 3, count_calls, svds=svds)

    def test_the_top_floor_is_below_s_1(self):
        # the power steps' bound never exceeds s_1(r), here max |r_ii| exactly,
        # though the computed quotient ||r y|| / ||y|| alone sometimes does
        rng = rng_from_seed(3)
        over = 0
        for _ in range(400):
            k = int(rng.integers(1, 9))
            d = rng.uniform(0.1, 1.0, k) * rng.choice([1.0, -1.0], k)
            d /= 1.0000001 * np.linalg.norm(d)
            r = np.diag(d).astype(complex)
            s_1 = np.abs(d).max()
            y = r[np.argmax(np.abs(d))].conj()
            over += np.linalg.norm(r @ y) / np.linalg.norm(y) > s_1
            assert _top_singular_floor(r, np.inf) <= s_1
            assert _top_singular_floor(r, np.inf) >= s_1 * (1 - 1e-13)
        assert over > 0


class TestProjections:
    def test_orthogonal_projection_example(self, c3):
        w = Subspace(c3, W_LINE)
        x = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            orthogonal_projection(w)(x), [0.0, 1.2, 0.6], atol=1e-12
        )

    def test_j_projection_example(self, c3):
        w = Subspace(c3, W_LINE)
        x = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            j_projection(w)(x), [0.0, 2.0 / 3.0, 1.0 / 3.0], atol=1e-12
        )

    def test_projections_differ_on_example(self, c3):
        w = Subspace(c3, W_LINE)
        x = np.array([1.0, 1.0, 1.0])
        gap = np.linalg.norm(orthogonal_projection(w)(x) - j_projection(w)(x))
        assert gap > 0.5

    def test_whole_space_projection_is_identity(self, c3):
        w = Subspace(c3, np.eye(3))
        np.testing.assert_allclose(orthogonal_projection(w).matrix, np.eye(3))
        np.testing.assert_allclose(j_projection(w).matrix, np.eye(3), atol=1e-12)

    def test_hilbert_case_projections_agree(self, hilbert3):
        rng = rng_from_seed(6)
        w = Subspace(hilbert3, random_complex(rng, 3, 2))
        np.testing.assert_allclose(
            j_projection(w).matrix, orthogonal_projection(w).matrix, atol=1e-12
        )

    def test_neutral_subspace_has_no_j_projection(self, minkowski):
        w = Subspace(minkowski, [[1.0], [1.0]])
        with pytest.raises(DegenerateSubspaceError):
            j_projection(w)

    def test_projection_identities_random(self):
        rng = rng_from_seed(8)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            space = random_space(rng, n)
            w = Subspace(space, random_complex(rng, n, int(rng.integers(1, n + 1))))
            pi = orthogonal_projection(w).matrix
            np.testing.assert_allclose(pi @ pi, pi, atol=1e-9)
            np.testing.assert_allclose(pi, pi.conj().T, atol=1e-9)
            jw = Subspace(space, space.J @ w.basis)
            np.testing.assert_allclose(
                orthogonal_projection(jw).matrix, space.J @ pi @ space.J, atol=1e-9
            )
            if not w.classify().regular:
                continue
            q = j_projection(w).matrix
            np.testing.assert_allclose(q @ q, q, atol=1e-8)
            np.testing.assert_allclose(
                space.J @ q.conj().T @ space.J, q, atol=1e-8
            )

    def test_complement_projection_annihilates(self, c3):
        # (I - Q_W) x is J-orthogonal to W
        rng = rng_from_seed(9)
        w = Subspace(c3, W_LINE)
        q = j_projection(w).matrix
        for _ in range(5):
            x = random_complex(rng, 3)
            r = (np.eye(3) - q) @ x
            assert abs(indefinite_product(c3, r, w.basis[:, 0])) < 1e-10

    def test_restriction_to_own_subspace_is_identity(self):
        rng = rng_from_seed(10)
        space = random_space(rng, 5)
        w = random_definite_subspace(space, rng, 1)
        x = w.basis @ random_complex(rng, w.dim)
        np.testing.assert_allclose(orthogonal_projection(w)(x), x, atol=1e-9)
        np.testing.assert_allclose(j_projection(w)(x), x, atol=1e-8)

    def test_against_least_squares_oracle(self, c3):
        rng = rng_from_seed(11)
        w = Subspace(c3, random_complex(rng, 3, 2))
        x = random_complex(rng, 3)
        np.testing.assert_allclose(
            orthogonal_projection(w)(x), projection_oracle(w, x), atol=1e-10
        )

    @settings(max_examples=12)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    def test_j_projection_idempotent_and_j_selfadjoint(self, n, seed):
        rng = rng_from_seed(seed)
        space = random_space(rng, n)
        q = j_projection(random_regular_subspace(space, rng))
        # Q = U G^-1 U* J: its roundoff grows with ||Q||^2 <= ||G^-1||^2
        atol = 1e-12 * np.linalg.norm(q.matrix, 2) ** 2
        np.testing.assert_allclose(q.matrix @ q.matrix, q.matrix, rtol=0, atol=atol)
        np.testing.assert_allclose(j_adjoint(q).matrix, q.matrix, rtol=0, atol=atol)


def hermitian_with_eigenvalue(rng, k, scale, lam):
    """A Hermitian k x k matrix of norm about ``scale`` with an exact eigenvalue
    of modulus at most |lam|, and that eigenvalue as a Fraction.

    Rows and columns a and b agree off their 2 x 2 block [[o + lam, o], [o,
    o + lam]], so e_a - e_b is an exact eigenvector; its eigenvalue is the
    rounded o + lam minus o, or 0 when rounding moved it past |lam|.
    """
    if k == 1:
        return np.array([[complex(lam)]]), Fraction(lam)
    h = random_complex(rng, k - 1, k - 1)
    h = (h + h.conj().T) * (scale / np.linalg.norm(h, 2))
    g = h[np.ix_([*range(k - 1), k - 2], [*range(k - 1), k - 2])]
    a, b, o = k - 2, k - 1, g[k - 2, k - 2].real
    d = o + lam
    if abs(Fraction(d) - Fraction(o)) > abs(Fraction(lam)):
        d = o
    g[a, a] = g[b, b] = d
    order = rng.permutation(k)  # anywhere in the matrix, still exact
    return g[np.ix_(order, order)], Fraction(d) - Fraction(o)


@pytest.mark.soundness
class TestClears:
    """_clears(g, t) is True only when every |eigenvalue of g| exceeds t."""

    @settings(max_examples=examples(300))
    @given(
        k=st.integers(1, 48),
        log_scale=st.floats(-3.0, 3.0),
        log_ratio=st.floats(-16.0, 0.0),  # t / ||g||, down to the rounding level
        frac=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_true_with_an_eigenvalue_within_t(self, k, log_scale, log_ratio, frac, seed):
        rng = rng_from_seed(seed)
        scale = 10.0**log_scale
        t = scale * 10.0**log_ratio
        g, lam = hermitian_with_eigenvalue(rng, k, scale, frac * t)
        assert abs(lam) <= Fraction(t)
        assert not _clears(g, t)

    @settings(max_examples=examples(100))
    @given(
        k=st.integers(1, 48),
        log_scale=st.floats(-3.0, 3.0),
        log_ratio=st.floats(-4.0, -0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_true_when_every_eigenvalue_clears_twice_t(self, k, log_scale, log_ratio, seed):
        rng = rng_from_seed(seed)
        scale = 10.0**log_scale
        t = scale * 10.0**log_ratio
        q, _ = np.linalg.qr(random_complex(rng, k, k))
        lam = rng.uniform(2.0 * t, scale, k) * rng.choice([-1.0, 1.0], k)
        g = (q * lam) @ q.conj().T
        assert _clears(0.5 * (g + g.conj().T), t)

    @pytest.mark.parametrize(
        "g, t, clears",
        [
            (np.zeros((3, 3)), 0.0, False),
            (np.eye(3), 0.0, True),
            (np.eye(3), 1.0, False),
            (np.diag([2.0, -3.0]), 1.5, True),
            (np.diag([2.0, -3.0]), 2.0, False),
            (np.full((2, 2), np.nan), 0.0, False),
            (np.diag([np.inf, 1.0]), 0.5, False),
            (np.diag([1e300, 1.0]), 0.5, False),  # g g overflows: undecided
            (np.diag([1e-200, 1e-200]), 0.0, False),  # g g underflows to zero
        ],
    )
    def test_edge_cases(self, g, t, clears):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no warning about an overflow
            assert _clears(g.astype(complex), t) is clears


class TestGramian:
    def test_line_value(self, c3):
        g = gramian(Subspace(c3, W_LINE))
        np.testing.assert_allclose(g, [[0.6]], atol=1e-12)

    def test_hilbert_case_identity(self, hilbert3):
        rng = rng_from_seed(12)
        w = Subspace(hilbert3, random_complex(rng, 3, 2))
        np.testing.assert_allclose(gramian(w), np.eye(2), atol=1e-12)

    def test_plane_eigenvalues_in_unit_interval(self, c3):
        basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        eigs = np.linalg.eigvalsh(gramian(Subspace(c3, basis)))
        assert np.all(eigs > 0)
        assert np.all(eigs <= 1 + 1e-12)

    def test_definite_gramian_modulus_range(self):
        rng = rng_from_seed(13)
        for _ in range(10):
            space = random_space(rng, 5)
            sign = 1 if rng.uniform() < 0.5 else -1
            m = random_definite_subspace(space, rng, sign)
            gam = gramian_min_modulus(m)
            assert 0 < gam <= 1 + 1e-12

    def test_min_modulus_ignores_the_rank_tolerance(self):
        # Gramian eigenvalues 1/3 and 1: a coarse tau_rank must not drop 1/3
        space = KreinSpace.from_signs([1, 1, -1], tol=Tolerances(tau_rank=0.5))
        m = Subspace(space, np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]))
        gam = gramian_min_modulus(m)
        assert gam == pytest.approx(1 / 3, rel=1e-12)
        assert gam == m._gram_margin()  # the margin classify keeps on a regular W
        # ||K||^2 = (1 - gamma) / (1 + gamma), as AngularOperator states
        assert angular_operator(m, 1).norm ** 2 == pytest.approx(0.5, rel=1e-12)
        assert (1 - gam) / (1 + gam) == pytest.approx(0.5, rel=1e-12)


class TestReducedMinModulus:
    def test_identity(self):
        assert reduced_min_modulus(np.eye(4)) == pytest.approx(1.0)

    def test_singular_diagonal(self):
        assert reduced_min_modulus(np.diag([3.0, 0.0, 2.0])) == pytest.approx(2.0)

    def test_zero_operator(self):
        assert reduced_min_modulus(np.zeros((3, 3))) == 0.0

    def test_adjoint_consistency(self):
        rng = rng_from_seed(14)
        for _ in range(20):
            t = random_complex(rng, 5, 3)
            g = reduced_min_modulus(t)
            assert abs(g - reduced_min_modulus(t.conj().T)) < 1e-9
            assert abs(g * g - reduced_min_modulus(t @ t.conj().T)) < 1e-9


class TestAngularOperator:
    def test_canonical_component_has_zero_tilt(self, c3):
        m = Subspace(c3, np.eye(3)[:, :2])
        ang = angular_operator(m, 1)
        assert ang.norm == pytest.approx(0.0)
        assert ang.full_domain
        assert gramian_min_modulus(m) == pytest.approx(1.0)

    def test_tilted_line_norm(self, minkowski):
        for t in (0.1, 0.5, 0.9):
            m = Subspace(minkowski, [[1.0], [t]])
            ang = angular_operator(m, 1)
            np.testing.assert_allclose(ang.matrix, [[t]], atol=1e-12)
            assert ang.norm == pytest.approx(t)

    def test_wrong_sign_rejected(self, c3):
        m = Subspace(c3, [[0.0], [0.0], [1.0]])
        with pytest.raises(ClassificationError):
            angular_operator(m, 1)
        with pytest.raises(ClassificationError):
            angular_operator(Subspace(c3, W_LINE), -1)

    def test_non_maximal_flagged(self, c3):
        ang = angular_operator(Subspace(c3, W_LINE), 1)
        assert not ang.full_domain

    def test_norm_from_gramian_modulus(self):
        # for maximal definite M: ||K||^2 = (1 - gamma) / (1 + gamma)
        rng = rng_from_seed(15)
        for _ in range(20):
            space = random_space(rng, int(rng.integers(2, 8)))
            sign = 1 if rng.uniform() < 0.5 else -1
            p, q = space.signature
            if (sign == 1 and p == 0) or (sign == -1 and q == 0):
                continue
            m = random_maximal_definite_subspace(space, rng, sign)
            gam = gramian_min_modulus(m)
            expected = np.sqrt((1 - gam) / (1 + gam))
            assert angular_operator(m, sign).norm == pytest.approx(
                expected, abs=1e-8
            )


class TestInputChecks:
    """Each library entry point refuses the inputs it documents as invalid."""

    def test_unknown_command(self, c3):
        problem = ProblemSpec(c3)
        with pytest.raises(UsageError, match=r"^unknown command 'classfy'; choose from \("):
            run_command("classfy", problem, 0, 1)

    def test_as_matrix_needs_two_dimensions(self):
        with pytest.raises(DimensionError, match=r"^expected a matrix, got array of ndim 1$"):
            _as_matrix([1.0, 0.0])

    @pytest.mark.parametrize(
        "basis, shape", [(np.ones((2, 1)), (2, 1)), (np.ones((3, 0)), (3, 0))],
        ids=["wrong_height", "no_columns"],
    )
    def test_subspace_basis_must_fit(self, c3, basis, shape):
        with pytest.raises(DimensionError) as exc:
            Subspace(c3, basis)
        assert str(exc.value) == f"basis of shape {shape} does not fit C^3"

    def test_spanning_columns_must_fit(self):
        space = KreinSpace.from_signs([1, -1, 1])
        with pytest.raises(DimensionError) as exc:
            Subspace.from_spanning(space, np.ones((2, 1)))
        assert str(exc.value) == "columns of shape (2, 1) do not fit C^3"

    def test_operator_must_be_square_on_the_space(self, c3):
        with pytest.raises(DimensionError) as exc:
            Operator(c3, np.eye(2))
        assert str(exc.value) == "operator of shape (2, 2) does not act on C^3"

    def test_reduced_min_modulus_reads_an_operator(self, c3):
        m = np.diag([3.0, 0.0, 2.0])
        assert reduced_min_modulus(Operator(c3, m)) == reduced_min_modulus(m) == 2.0

    def test_angular_operator_sign_zero(self, c3):
        with pytest.raises(ClassificationError, match=r"^sign must be \+1 or -1$"):
            angular_operator(Subspace(c3, W_LINE), 0)

    def test_family_member_from_another_space(self, c3):
        other = KreinSpace.from_signs([1, 1, -1])
        with pytest.raises(MemberClassificationError) as exc:
            WeightedFamily(c3, [Subspace(c3, W_LINE), Subspace(other, W_LINE)], [1.0, 1.0])
        assert exc.value.index == 1
        assert str(exc.value) == "member 1: member lives in a different space"

    def test_empty_vector_frame(self, c3):
        with pytest.raises(MemberClassificationError) as exc:
            VectorFrame(c3, [])
        assert str(exc.value) == "member 0: a vector frame needs members"

    def test_maximal_draw_from_a_trivial_component(self, hilbert3):
        with pytest.raises(ValueError, match=r"^the requested canonical component is trivial$"):
            random_maximal_definite_subspace(hilbert3, rng_from_seed(0), -1)

    def test_commutation_with_a_zero_image(self, c3):
        with pytest.raises(DegenerateSubspaceError) as exc:
            projection_commutation_check(Operator(c3, np.zeros((3, 3))), Subspace(c3, W_LINE))
        assert str(exc.value) == (
            "image of V is the zero subspace; the commutation identity requires a regular image"
        )
