"""Tests for parsing, validation and serialization of problem documents."""

import copy
import gc
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinframes import KreinSpace, Operator, Subspace, VectorFrame, WeightedFamily
from kreinframes import cli, problem
from kreinframes.errors import (
    MemberClassificationError,
    SchemaError,
    UsageError,
    ValidationError,
)
from kreinframes.problem import ProblemSpec, parse_spec
from kreinframes.sampling import rng_from_seed

from generators import examples, random_fusion_frame, random_space, serialize_spec

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


@pytest.fixture
def collector_state():
    """Set the cyclic collector on or off for one test; restore it after."""
    was_enabled = gc.isenabled()

    def set_state(enabled):
        (gc.enable if enabled else gc.disable)()

    yield set_state
    set_state(was_enabled)


class TestDecoding:
    # (text, the error, its message, whether decode_document accepts the text)
    CASES = {
        "decoded": (json.dumps(MINIMAL), None, None, True),
        "invalid": ("{not json", SchemaError, "invalid JSON at line 1", False),
        "missing_file": (
            "no_such_file.json", SchemaError, "no such file: 'no_such_file.json'", False
        ),
        "too_deep": (
            "[" * 100_000, SchemaError, "invalid JSON: arrays or objects nested too deeply", False
        ),
        "too_many_digits": (
            "1" * 5000, SchemaError, "number is not finite: an integer of too many digits", False
        ),
        "schema": (
            json.dumps({"space": {"dim": 0, "J": [[1]]}}),
            SchemaError, "space.dim must be a positive integer", True,
        ),
        "validation": (
            '{"space": {"dim": 1, "J": [[1e400]]}}',
            ValidationError, "space.J[0][0]: number is not finite", True,
        ),
        "member": (
            json.dumps(doc(vector_frames={"v": [[0, 0]]})),
            MemberClassificationError, "member 0: vector frame 'v': zero vector", True,
        ),
    }

    @pytest.mark.parametrize("entry", ["decode_document", "parse_spec", "cli.main"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
    @pytest.mark.parametrize("case", CASES)
    def test_collector_state_is_restored(self, capsys, collector_state, entry, enabled, case):
        text, error, message, decodes = self.CASES[case]
        collector_state(enabled)
        if entry == "cli.main":
            code = cli.main(["classify", "--spec", text])
            if error is None:
                assert code == 0
            else:
                assert code == 2
                assert capsys.readouterr().err.startswith(f"error: {message}")
        elif error is None or (decodes and entry == "decode_document"):
            kind = dict if entry == "decode_document" else ProblemSpec
            assert isinstance(getattr(problem, entry)(text), kind)
        else:
            with pytest.raises(error, match=re.escape(message)):
                getattr(problem, entry)(text)
        assert gc.isenabled() is enabled

    # tens of thousands of lists: the collector would run many times
    MANY_LISTS = {
        "decode_document": {"space": {"dim": 1, "J": [[[float(i), 0.0]] for i in range(40_000)]}},
        "parse_spec": doc(vector_frames={"v": [[[1.0, 0.0], [0.0, 0.0]]] * 20_000}),
    }

    @pytest.mark.parametrize("entry", ["decode_document", "parse_spec", "cli.main"])
    def test_no_collection_while_decoding(self, capsys, monkeypatch, collector_state, entry):
        text = json.dumps(self.MANY_LISTS.get(entry, self.MANY_LISTS["parse_spec"]))
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        def parsed(command, spec, seed, samples):  # cli.main's step after parsing
            gc.callbacks.remove(count)
            raise UsageError(f"{len(spec.vector_frames['v'])} vectors")

        monkeypatch.setattr(cli, "run_command", parsed)
        collector_state(True)
        gc.collect()
        gc.callbacks.append(count)
        try:
            if entry == "cli.main":
                assert cli.main(["classify", "--spec", text]) == 2
                assert capsys.readouterr().err == "error: 20000 vectors\n"
            else:
                result = getattr(problem, entry)(text)
        finally:
            if count in gc.callbacks:
                gc.callbacks.remove(count)
        assert started == []
        if entry == "parse_spec":
            assert len(result.vector_frames["v"]) == 20_000
        elif entry == "decode_document":
            assert len(result["space"]["J"]) == 40_000

    @pytest.mark.parametrize("length", [4096, 200_000])
    def test_long_text_is_not_probed(self, monkeypatch, length):
        def no_probe(self):
            raise AssertionError("the filesystem was probed")

        text = json.dumps(MINIMAL).ljust(length)
        with monkeypatch.context() as patch:  # pytest's own reports read Path.exists
            patch.setattr(Path, "exists", no_probe)
            document = problem.decode_document(text)
        assert len(text) == length and document == MINIMAL

    def test_shorter_text_is_probed_and_short_paths_load(self, tmp_path, count_calls):
        probes = count_calls(Path, "exists")
        text = json.dumps(MINIMAL).ljust(4095)
        assert problem.decode_document(text) == MINIMAL and len(probes) == 1
        p = tmp_path / "problem.json"
        p.write_text(json.dumps(MINIMAL))
        assert problem.decode_document(str(p)) == MINIMAL and len(probes) == 2


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
        message = r"^space\.J\[1\]: expected a vector of length 2$"
        with pytest.raises(SchemaError, match=message):
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

    def test_overflowing_basis(self):
        # each entry is finite, its square is not: every product with the basis overflows
        d = doc(families={"fam": {"subspaces": [[[1e300, 0]], [[0, 1e300]]], "weights": [1, 1]}})
        with pytest.raises(ValidationError) as exc:
            parse_spec(d)
        assert str(exc.value) == (
            "families.fam.subspaces[0]: squared norm is not finite in float64"
        )

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

    def test_malformed_row_before_overflowing_vector(self):
        # every row is read before any vector's energy is checked
        with pytest.raises(SchemaError) as exc:
            parse_spec(doc(vector_frames={"vf": [[1e200, 0], [1, 0, 0]]}))
        assert str(exc.value) == "vector_frames.vf[1]: expected a vector of length 2"

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

    def test_the_first_fault_in_document_order(self):
        d = doc(tolerances={"tau_num": -1, "tau_sym": "x"})
        with pytest.raises(SchemaError, match=r"^tolerances\.tau_num: expected a positive number$"):
            parse_spec(d)

    def test_integer_tolerances_are_floats(self):
        spec = parse_spec(doc(tolerances={"tau_sym": 1, "tau_def": 1e-4}))
        assert type(spec.tolerances.tau_sym) is float and spec.tolerances.tau_sym == 1.0


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


# one row of each two-dimensional array: its path and its location
ROWS = [
    (("space", "J", 1), "space.J[1]"),
    (("operators", "T", 1), "operators.T[1]"),
    (("families", "fam", "subspaces", 1, 0), "families.fam.subspaces[1][0]"),
    (("vector_frames", "vf", 1), "vector_frames.vf[1]"),
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

    @pytest.mark.parametrize("path, where", ROWS)
    @pytest.mark.parametrize(
        "row, message",
        [
            (lambda row: row + [0], "expected a vector of length 2"),
            ([], "expected a non-empty array"),
            (tuple, "expected a non-empty array"),
        ],
        ids=["wrong_length", "empty", "tuple"],
    )
    def test_row_level_message(self, path, where, row, message):
        with pytest.raises(SchemaError) as exc:
            parse_spec(with_entry(path, row))
        assert str(exc.value) == f"{where}: {message}"

    def test_tuple_rows_are_left_to_the_walk(self):
        message = r"^operators\.T\[1\]: expected a non-empty array$"
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


# JSON numbers, with ints that round at float64's precision and at its limit
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60),
    st.sampled_from([0, -0.0, 2**53 + 1, -(2**1024 - 2**970 - 1)]),
)
# what the walk may reject in place of a number or a pair; 2**1024 - 2**970
# rounds up to 2**1024, past the largest float64
_FAULTS = st.sampled_from(
    [True, False, None, "1", float("nan"), float("inf"), -float("inf"), 10**400,
     2**1024 - 2**970, (1.0, 2.0), [1.0], [1.0, 2.0, 3.0], [1, True],
     [[1.0, 0.0], 0.0], {}]
)


@st.composite
def _nested(draw):
    """(value, shape): lists of JSON numbers or [re, im] pairs, 1 to 3 lists
    deep, with up to two faults, tuples, ragged rows or entries of the other
    form, placed at an entry or a pair's part more often than at a row."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    pairs = draw(st.booleans())

    def build(level):
        if level == len(shape):
            return [draw(_NUMBERS), draw(_NUMBERS)] if pairs else draw(_NUMBERS)
        return [build(level + 1) for _ in range(shape[level])]

    holder = [build(0)]
    for _ in range(draw(st.integers(0, 2))):
        parent, key = holder, 0
        for _ in range(len(shape) + 1 - draw(st.integers(0, len(shape) + 1))):
            if not isinstance(parent[key], list) or not parent[key]:
                break
            parent, key = parent[key], draw(st.integers(0, len(parent[key]) - 1))
        node = parent[key]
        change = draw(st.sampled_from(["fault", "fault", "tuple", "ragged", "form"]))
        if change == "fault":  # a copy: a later change may assign into a drawn list
            parent[key] = copy.deepcopy(draw(_FAULTS))
        elif isinstance(node, list) and change == "tuple":
            parent[key] = tuple(node)
        elif isinstance(node, list) and change == "ragged":
            parent[key] = node[:-1] if draw(st.booleans()) else node + node[-1:]
        elif change == "form":
            parent[key] = node[0] if isinstance(node, list) and node else [node, 0.0]
    return holder[0], shape


def _entry_walk(value, shape):
    """Every entry as _scalar reads it, in order, or None where the walk rejects
    value: a container that is not a list of the shape's length, or an entry."""
    if not shape:
        try:
            return [problem._scalar(value, "entry")]
        except (SchemaError, ValidationError):
            return None
    if type(value) is not list or len(value) != shape[0]:
        return None
    entries = []
    for v in value:
        e = _entry_walk(v, shape[1:])
        if e is None:
            return None
        entries += e
    return entries


def _leaves(value, depth):
    return [value] if depth == 0 else [x for v in value for x in _leaves(v, depth - 1)]


@pytest.mark.soundness
class TestBulkProperty:
    @settings(max_examples=examples(300))
    @given(case=_nested())
    def test_bulk_is_the_walk_or_none(self, case):
        """_bulk builds the walk's array bit for bit, and declines exactly what
        the walk rejects and the rows that mix reals with pairs."""
        value, shape = case
        got = problem._bulk(value, shape)
        entries = _entry_walk(value, shape)
        if entries is None or len({type(x) is list for x in _leaves(value, len(shape))}) > 1:
            assert got is None
        else:
            want = np.array(entries, dtype=complex).reshape(shape)
            assert got is not None and got.dtype == want.dtype and got.shape == shape
            assert got.tobytes() == want.tobytes()
