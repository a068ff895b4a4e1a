"""Tests for parsing, validation and serialization of problem documents."""

import json

import numpy as np
import pytest

from kreinframes.errors import (
    MemberClassificationError,
    SchemaError,
    ValidationError,
)
from kreinframes.problem import parse_spec, serialize_spec

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

    def test_non_positive_tolerance(self):
        with pytest.raises(SchemaError):
            parse_spec(doc(tolerances={"tau_num": 0}))

    @pytest.mark.parametrize("key", ["tau_rank", "tau_def"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_tolerance(self, key, value):
        message = rf"^tolerances\.{key}: expected a positive number$"
        with pytest.raises(SchemaError, match=message):
            parse_spec(doc(tolerances={key: value}))

    @pytest.mark.parametrize("value", [1, 1.0, 2.5])
    def test_rank_tolerance_below_one(self, value):
        message = r"^tolerances\.tau_rank: expected a positive number below 1$"
        with pytest.raises(SchemaError, match=message):
            parse_spec(doc(tolerances={"tau_rank": value}))
        assert parse_spec(doc(tolerances={"tau_rank": 0.5})).tolerances.tau_rank == 0.5


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
