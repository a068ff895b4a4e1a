"""Tests for parsing, validation and serialization of problem documents."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinframes import KreinSpace, Operator, Subspace, VectorFrame, WeightedFamily
from kreinframes import problem
from kreinframes.errors import (
    MemberClassificationError,
    SchemaError,
    ValidationError,
)
from kreinframes.problem import ProblemSpec, parse_spec, serialize_spec
from kreinframes.sampling import rng_from_seed

from generators import random_fusion_frame, random_space

MINIMAL = {"space": {"dim": 2, "J": [[1, 0], [0, -1]]}}


def doc(**extra):
    d = json.loads(json.dumps(MINIMAL))
    d.update(extra)
    return d


class TestParseSources:
    def test_dict(self):
        spec = parse_spec(MINIMAL)
        assert spec.space.dim == 2
        assert spec.space.signature == (1, 1)

    def test_json_text(self):
        spec = parse_spec(json.dumps(MINIMAL))
        assert spec.space.signature == (1, 1)

    def test_path(self, tmp_path):
        p = tmp_path / "problem.json"
        p.write_text(json.dumps(MINIMAL))
        assert parse_spec(p).space.dim == 2

    def test_bundled_demo_document(self):
        import kreinframes

        from pathlib import Path

        path = Path(kreinframes.__file__).parent / "data" / "c3_demo.json"
        spec = parse_spec(path)
        assert spec.space.dim == 3
        assert "tilted_lines" in spec.families
        assert "axes_and_tilt" in spec.vector_frames
        assert spec.seed == 0

    def test_invalid_json_reports_line(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_spec("{not json")

    def test_unsupported_source(self):
        with pytest.raises(SchemaError):
            parse_spec(42)


class TestSchemaErrors:
    def test_missing_space(self):
        with pytest.raises(SchemaError, match="space"):
            parse_spec({})

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError, match="unknown top-level"):
            parse_spec(doc(extra_stuff=1))

    def test_non_object_top_level(self):
        with pytest.raises(SchemaError):
            parse_spec("[1, 2]")

    def test_bad_dim(self):
        with pytest.raises(SchemaError, match="dim"):
            parse_spec({"space": {"dim": 0, "J": [[1]]}})

    def test_boolean_is_not_a_number(self):
        with pytest.raises(SchemaError, match="boolean"):
            parse_spec({"space": {"dim": 1, "J": [[True]]}})

    def test_ragged_matrix(self):
        with pytest.raises(SchemaError, match="inconsistent"):
            parse_spec({"space": {"dim": 2, "J": [[1, 0], [0]]}})

    def test_non_symmetry_matrix_rejected(self):
        # J = [[1,0,0],[1,0,0],[0,0,-1]] is neither Hermitian nor involutive
        bad = {"space": {"dim": 3, "J": [[1, 0, 0], [1, 0, 0], [0, 0, -1]]}}
        with pytest.raises(ValidationError):
            parse_spec(bad)

    def test_complex_entries_accepted(self):
        d = {"space": {"dim": 2, "J": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]}}
        spec = parse_spec(d)
        np.testing.assert_allclose(spec.space.J, [[0, -1j], [1j, 0]])

    def test_non_finite_rejected(self):
        with pytest.raises((SchemaError, ValidationError)):
            parse_spec({"space": {"dim": 1, "J": [[float("inf")]]}})

    def test_bad_seed(self):
        with pytest.raises(SchemaError, match="seed"):
            parse_spec(doc(seed="zero"))

    def test_bad_tolerance_key(self):
        with pytest.raises(SchemaError, match="tolerance"):
            parse_spec(doc(tolerances={"tau_bogus": 1e-9}))

    @pytest.mark.parametrize("key", ["tau_sym", "tau_num"])
    def test_integer_tolerance_beyond_float64(self, key):
        message = rf"^tolerances\.{key}: expected a positive number$"
        with pytest.raises(SchemaError, match=message):
            parse_spec(doc(tolerances={key: 10**400}))

    def test_non_positive_tolerance(self):
        with pytest.raises(SchemaError):
            parse_spec(doc(tolerances={"tau_num": 0}))

    @pytest.mark.parametrize("key", ["tau_rank", "tau_def"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_tolerance(self, key, value):
        message = rf"^tolerances\.{key}: expected a positive number$"
        with pytest.raises(SchemaError, match=message):
            parse_spec(doc(tolerances={key: value}))

    @pytest.mark.parametrize("key", ["tau_rank", "tau_def"])
    @pytest.mark.parametrize("value", [1, 1.0, 2.5])
    def test_rank_tolerance_below_one(self, key, value):
        message = rf"^tolerances\.{key}: expected a positive number below 1$"
        with pytest.raises(SchemaError, match=message):
            parse_spec(doc(tolerances={key: value}))
        tolerances = parse_spec(doc(tolerances={key: 0.5})).tolerances
        assert getattr(tolerances, key) == 0.5


class TestFamilies:
    def test_parse_family(self):
        d = doc(
            families={
                "axes": {
                    "subspaces": [[[1, 0]], [[0, 1]]],
                    "weights": [2, 3],
                }
            }
        )
        spec = parse_spec(d)
        fam = spec.families["axes"]
        assert len(fam.subspaces) == 2
        assert list(fam.weights) == [2.0, 3.0]
        assert list(fam.signs) == [1, -1]

    def test_weight_count_mismatch(self):
        d = doc(
            families={"bad": {"subspaces": [[[1, 0]]], "weights": [1, 2]}}
        )
        with pytest.raises(SchemaError, match="weights"):
            parse_spec(d)

    def test_complex_weight_rejected(self):
        d = doc(
            families={"bad": {"subspaces": [[[1, 0]]], "weights": [[1, 2]]}}
        )
        with pytest.raises(SchemaError, match="real"):
            parse_spec(d)

    def test_neutral_member_names_family(self):
        d = doc(
            families={"lightcone": {"subspaces": [[[1, 1]]], "weights": [1]}}
        )
        with pytest.raises(MemberClassificationError, match="lightcone") as exc:
            parse_spec(d)
        assert str(exc.value) == (
            "member 0: family 'lightcone': member classifies as neutral; "
            "every member must be uniformly definite"
        )

    def test_more_columns_than_dim_is_located(self):
        d = {
            "space": {"dim": 2, "J": [[1, 0], [0, 1]]},
            "families": {"fam": {"subspaces": [[[1, 0], [1, 0], [0, 1]]], "weights": [1]}},
        }
        with pytest.raises(ValidationError) as exc:
            parse_spec(d)
        assert str(exc.value).startswith(
            "families.fam.subspaces[0]: basis matrix is rank deficient"
        )

    @pytest.mark.parametrize("weight", [0, -1, -0.0])
    def test_non_positive_weight_is_located(self, weight):
        d = doc(families={"fam": {"subspaces": [[[1, 0]]], "weights": [weight]}})
        with pytest.raises(ValidationError) as exc:
            parse_spec(d)
        assert str(exc.value) == (
            f"families.fam.weights: weight 0 is not positive and finite: {float(weight)}"
        )

    def test_rank_deficient_basis_is_located(self):
        d = doc(
            families={"fam": {"subspaces": [[[1, 0], [2, 0]]], "weights": [1]}}
        )
        with pytest.raises(ValidationError) as exc:
            parse_spec(d)
        assert str(exc.value).startswith(
            "families.fam.subspaces[0]: basis matrix is rank deficient"
        )

    def test_wrong_vector_length(self):
        d = doc(
            families={"bad": {"subspaces": [[[1, 0, 0]]], "weights": [1]}}
        )
        with pytest.raises(SchemaError, match="length 2"):
            parse_spec(d)


class TestVectorFramesAndOperators:
    def test_parse_vector_frame(self):
        d = doc(vector_frames={"axes": [[2, 0], [0, 3]]})
        vf = parse_spec(d).vector_frames["axes"]
        assert len(vf) == 2
        assert list(vf.signs) == [1, -1]

    def test_neutral_vector_names_frame(self):
        d = doc(vector_frames={"null": [[1, 1]]})
        with pytest.raises(MemberClassificationError, match="null") as exc:
            parse_spec(d)
        assert str(exc.value) == (
            "member 0: vector frame 'null': vector is neutral within tau_def "
            "([f,f]/||f||^2 = 0)"
        )

    def test_stacked_frame_energy_checked(self):
        # each vector's squared norm is finite, their sum is not
        vectors = [[9e153, 0], [9e153, 0], [9e153, 0], [0, 9e153]]
        with pytest.raises(ValidationError) as exc:
            parse_spec(doc(vector_frames={"vf": vectors}))
        assert str(exc.value) == "vector_frames.vf: squared norm is not finite in float64"

    def test_parse_operator(self):
        d = doc(operators={"flip": [[0, 1], [1, 0]]})
        op = parse_spec(d).operators["flip"]
        np.testing.assert_allclose(op.matrix, [[0, 1], [1, 0]])

    def test_operator_shape_checked(self):
        d = doc(operators={"bad": [[1, 0]]})
        with pytest.raises(SchemaError, match="2x2"):
            parse_spec(d)


class TestTolerances:
    def test_overrides_flow_into_space(self):
        d = doc(tolerances={"tau_def": 1e-4})
        spec = parse_spec(d)
        assert spec.tolerances.tau_def == 1e-4
        assert spec.space.tol.tau_def == 1e-4

    def test_defaults(self):
        spec = parse_spec(MINIMAL)
        assert spec.tolerances.tau_sym == 1e-10
        assert spec.tolerances.tau_num == 1e-9


class TestRoundTrip:
    def test_serialize_then_parse(self):
        d = doc(
            families={
                "axes": {"subspaces": [[[1, 0]], [[0, 1]]], "weights": [2, 3]}
            },
            vector_frames={"axes": [[2, 0], [0, 3]]},
            operators={"flip": [[0, 1], [1, 0]]},
            seed=7,
        )
        spec = parse_spec(d)
        again = parse_spec(serialize_spec(spec))
        np.testing.assert_allclose(again.space.J, spec.space.J)
        assert again.seed == 7
        assert list(again.families["axes"].weights) == [2.0, 3.0]
        np.testing.assert_allclose(
            again.vector_frames["axes"].matrix, spec.vector_frames["axes"].matrix
        )
        np.testing.assert_allclose(
            again.operators["flip"].matrix, spec.operators["flip"].matrix
        )

    def test_serialization_is_json_safe(self):
        spec = parse_spec(doc(vector_frames={"axes": [[2, 0], [0, 3]]}))
        json.dumps(serialize_spec(spec))  # must not raise

    def test_complex_entries_round_trip(self):
        d = {"space": {"dim": 2, "J": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]}}
        spec = parse_spec(d)
        again = parse_spec(serialize_spec(spec))
        np.testing.assert_allclose(again.space.J, spec.space.J)


BULK = {
    "space": {"dim": 2, "J": [[1, 0], [0, -1]]},
    "families": {"fam": {"subspaces": [[[1, 0]], [[0, 1]]], "weights": [1, 1]}},
    "vector_frames": {"vf": [[2, 0], [0, 3]]},
    "operators": {"T": [[1, 0], [0, 1]]},
}
# one entry of each section that is converted in bulk: its path and its location
SITES = [
    (("space", "J", 1, 0), "space.J[1][0]"),
    (("operators", "T", 1, 0), "operators.T[1][0]"),
    (("families", "fam", "subspaces", 1, 0, 0), "families.fam.subspaces[1][0][0]"),
    (("vector_frames", "vf", 1, 0), "vector_frames.vf[1][0]"),
    (("families", "fam", "weights", 1), "families.fam.weights[1]"),
]


def with_entry(path, value):
    d = copy.deepcopy(BULK)
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return d


def arrays(spec):
    """Every array of a parsed problem, by name."""
    out = {"J": spec.space.J}
    for name, fam in spec.families.items():
        out[f"{name}.weights"] = np.asarray(fam.weights)
        out.update({f"{name}[{i}]": w.basis for i, w in enumerate(fam.subspaces)})
    out.update({f"vf.{name}": vf.matrix for name, vf in spec.vector_frames.items()})
    out.update({f"op.{name}": op.matrix for name, op in spec.operators.items()})
    return out


def assert_bitwise_equal(got, want):
    assert got.keys() == want.keys()
    for name, a in got.items():
        b = want[name]
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def nested_list(depth):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


class TestEntries:
    """The bulk conversion accepts exactly what the entry walk accepts."""

    @pytest.mark.parametrize("path, where", SITES)
    @pytest.mark.parametrize(
        "value, error, message",
        [
            (True, SchemaError, "booleans are not numbers"),
            (False, SchemaError, "booleans are not numbers"),
            ("1", SchemaError, "expected a number or a [re, im] pair, got '1'"),
            (None, SchemaError, "expected a number or a [re, im] pair, got None"),
            ([[1, 0]], SchemaError, "expected a number or a [re, im] pair, got [[1, 0]]"),
            ([1, True], SchemaError, "expected a number or a [re, im] pair, got [1, True]"),
            (float("inf"), ValidationError, "number is not finite"),
        ],
    )
    def test_located_message(self, path, where, value, error, message):
        with pytest.raises(error) as exc:
            parse_spec(with_entry(path, value))
        assert str(exc.value) == f"{where}: {message}"

    @pytest.mark.parametrize(
        "J",
        [nested_list(990), [[list(range(100_000))]]],
        ids=["nested_990_deep", "entry_of_100000_numbers"],
    )
    def test_echoed_value_is_truncated(self, J):
        with pytest.raises(SchemaError) as exc:
            parse_spec({"space": {"dim": 1, "J": J}})
        line = f"error: {exc.value}\n"  # as the CLI writes it
        assert line.startswith(
            "error: space.J[0][0]: expected a number or a [re, im] pair, got ["
        )
        assert line.count("\n") == 1 and len(line.encode()) < 200

    @pytest.mark.parametrize("path, where", SITES)
    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), [0, 10**400]], ids=["huge", "-huge", "huge-imag"]
    )
    def test_integer_beyond_float64_is_not_finite(self, path, where, value):
        with pytest.raises(ValidationError) as exc:
            parse_spec(json.dumps(with_entry(path, value)))
        assert str(exc.value) == f"{where}: number is not finite"

    @pytest.mark.parametrize("path, where", SITES)
    def test_row_mixing_reals_and_pairs(self, path, where, count_calls):
        want = arrays(parse_spec(BULK))
        scalars = count_calls(problem, "_scalar")
        got = arrays(parse_spec(with_entry(path, lambda x: [x, 0])))
        assert scalars  # the ragged row was walked
        assert_bitwise_equal(got, want)

    def test_tuple_rows_are_left_to_the_walk(self):
        message = r"^operators\.T\[1\]: expected a non-empty row$"
        with pytest.raises(SchemaError, match=message):
            parse_spec(doc(operators={"T": [[1, 0], (0, 1)]}))

    def test_negative_zero_is_kept(self):
        spec = parse_spec(
            doc(
                operators={
                    "reals": [[-0.0, 0], [0, 1]],
                    "pairs": [[[-0.0, -0.0], [0, 0]], [[0, 0], [1, 0]]],
                    "mixed": [[-0.0, [0, -0.0]], [0, 1]],
                }
            )
        )
        reals, pairs, mixed = (op.matrix for op in spec.operators.values())
        assert np.signbit(reals[0, 0].real) and not np.signbit(reals[0, 0].imag)
        assert np.signbit(pairs[0, 0].real) and np.signbit(pairs[0, 0].imag)
        assert np.signbit(mixed[0, 0].real) and np.signbit(mixed[0, 1].imag)
        again = serialize_spec(spec)["operators"]  # a bare real would read back +0.0
        assert np.signbit(again["pairs"][0][0]).tolist() == [True, True]
        assert np.signbit(again["mixed"][0][1]).tolist() == [False, True]

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_numeric_document_skips_the_walk(self, diagonal, count_calls):
        """A family document of numbers and pairs only is converted without the walk."""
        rng = rng_from_seed(5)
        space = random_space(rng, 12, p=6, diagonal=diagonal)
        fam = random_fusion_frame(space, rng, members_per_side=3)
        pairs = lambda m: np.stack([m.real, m.imag], axis=-1).tolist()
        j = space.J.real.astype(int).tolist() if diagonal else pairs(space.J)
        d = {
            "space": {"dim": 12, "J": j},
            "families": {
                "fam": {
                    "subspaces": [pairs(w.basis.T) for w in fam.subspaces],
                    "weights": list(fam.weights),
                }
            },
            "seed": 1,
        }
        scalars = count_calls(problem, "_scalar")
        spec = parse_spec(json.dumps(d))
        assert scalars == []
        assert_bitwise_equal(arrays(spec), arrays(ProblemSpec(space, {"fam": fam})))


def _numbers(rng, kind, *shape):
    """Real or complex numbers; "mixed" ones have some exact-real entries."""
    z = rng.standard_normal(shape)
    if kind != "real":
        z = z + 1j * rng.standard_normal(shape)
    if kind == "mixed":
        z.imag[rng.random(shape) < 0.3] = 0.0
        z.imag[rng.random(shape) < 0.1] = -0.0
    z.real[rng.random(shape) < 0.1] = -0.0
    return z


def _spec(rng, n, kind) -> ProblemSpec:
    """A problem under J = diag(signs) with entries of one kind throughout."""
    p = int(rng.integers(1, n))
    signs = rng.permutation(np.r_[np.ones(p), -np.ones(n - p)])
    space = KreinSpace(np.diag(signs))
    # a J-unitary block rotation makes every entry of its kind; "mixed" keeps
    # the exact zeros and ones of the graph bases below
    u = np.eye(n, dtype=float if kind == "real" else complex)
    if kind != "mixed":
        for side in (signs > 0, signs < 0):
            q, _ = np.linalg.qr(_numbers(rng, kind, side.sum(), side.sum()))
            u[np.ix_(side, side)] = q

    def member(sign):
        """The graph of a contraction of norm <= 1/2: uniformly definite of that sign."""
        dom, codom = signs == sign, signs != sign
        d = int(rng.integers(1, min(3, dom.sum()) + 1))
        basis = np.zeros((n, d), dtype=u.dtype)
        basis[rng.choice(np.flatnonzero(dom), d, replace=False), np.arange(d)] = 1.0
        k = _numbers(rng, kind, codom.sum(), d)
        basis[codom] = 0.5 * k / max(np.linalg.norm(k, 2), 1.0)
        return u @ basis

    members = [member(s) for s in (1, -1) for _ in range(int(rng.integers(1, 3)))]
    family = WeightedFamily(
        space, [Subspace(space, b) for b in members], rng.uniform(0.5, 2.0, len(members))
    )
    vectors = np.hstack([member(s) for s in (1, -1)])
    return ProblemSpec(
        space,
        {"fam": family},
        {"vf": VectorFrame(space, list(vectors.T))},
        {"T": Operator(space, _numbers(rng, kind, n, n))},
        seed=int(rng.integers(0, 100)),
    )


def _rows_of(document):
    """Every list of rows in a document: J, operators, member columns, vectors, weights."""
    yield document["space"]["J"]
    for fam in document["families"].values():
        yield from fam["subspaces"]
        yield [fam["weights"]]
    yield from document["vector_frames"].values()
    yield from document["operators"].values()


class TestRoundTripProperty:
    @settings(max_examples=12)
    @given(
        n=st.integers(2, 64),
        kind=st.sampled_from(["real", "complex", "mixed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_serialize_then_parse_is_bit_exact(self, n, kind, seed):
        spec = _spec(rng_from_seed(seed), n, kind)
        document = serialize_spec(spec)
        again = parse_spec(json.loads(json.dumps(document)))
        assert_bitwise_equal(arrays(again), arrays(spec))
        assert (again.seed, again.tolerances) == (spec.seed, spec.tolerances)
        # the same numbers, every entry a pair (converted in bulk), then with
        # the first row of each array made ragged-mixed (walked)
        pairs = copy.deepcopy(document)
        for rows in _rows_of(pairs):
            for row in rows:
                row[:] = [e if isinstance(e, list) else [e, 0.0] for e in row]
        ragged = copy.deepcopy(pairs)
        for rows in _rows_of(ragged):
            row = rows[0]
            exact = [j for j, (_, im) in enumerate(row) if im == 0.0 and not np.signbit(im)]
            if exact:
                row[exact[0]] = row[exact[0]][0]
        assert_bitwise_equal(arrays(parse_spec(pairs)), arrays(spec))
        assert_bitwise_equal(arrays(parse_spec(ragged)), arrays(spec))
