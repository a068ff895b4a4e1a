"""The names the package exports: each module's ``__all__``, and no more."""

import importlib

import pytest

import kreinframes

EXPORTED = """
AngularOperator Classification ClassificationError DEFAULT_TOLERANCES
DefinitenessTransportError DegenerateSubspaceError DimensionError FrameBounds
FrameCertificate HypothesisNotMetError KreinFramesError KreinSpace
MemberClassificationError NotAFrameError NotSurjectiveError Operator ProblemSpec
RankError SchemaError SingularOperatorError Subspace SubspaceKind Tolerances
UsageError ValidationError VectorFrame WeightError WeightedFamily
analysis_operator angular_operator as_weighted_family bounds_sandwich_ok
canonical_dual certify classify coefficient_symmetry converse_check
definite_span dual_bounds_check estimate_bounds frame_operator
frame_operator_part fusion_dual_bounds_check gramian gramian_min_modulus
image_subspace indefinite_product is_j_frame is_j_isometry_multiple j_adjoint
j_image_family j_projection necessary_conditions_check optimal_bounds
orthogonal_projection parse_spec partial_frame_operator preservation_report
preserves_definiteness_with_sign preserves_maximality preserves_regularity
projection_commutation_check reduced_min_modulus serialize_spec
synthesis_operator synthesis_part transform_family vframe_optimal_bounds
""".split()

# listed in a module's __all__ but, before the package read them from there,
# not exported by the package
FROM_ALL = """
ConverseReport DualBoundsReport FusionDualReport NecessaryConditionsReport
PredicateVerdict PreservationReport decode_document fundamental_identity_sides
fundamental_identity_sides_batch
""".split()

NOT_EXPORTED = """
alternating_signature_space neutral_image_operator rng_from_seed random_complex
random_maximal_definite_subspace random_definite_subspace random_regular_subspace
""".split()

MODULES = ["core", "duality", "fusion", "problem", "transforms"]


def test_exported_names_are_kept():
    assert len(EXPORTED) == 68
    assert [n for n in EXPORTED if not hasattr(kreinframes, n)] == []


@pytest.mark.parametrize("name", FROM_ALL)
def test_module_all_names_are_exported(name):
    assert hasattr(kreinframes, name)


@pytest.mark.parametrize("name", NOT_EXPORTED)
def test_helpers_are_not_exported(name):
    assert not hasattr(kreinframes, name)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_all_is_exported_as_itself(module):
    mod = importlib.import_module(f"kreinframes.{module}")
    assert all(getattr(kreinframes, n) is getattr(mod, n) for n in mod.__all__)
