"""Finite-dimensional Krein spaces and J-fusion frames.

Construction and classification of subspaces of an indefinite
inner-product space, certification of the J-fusion frame property with
optimal and estimated frame bounds, canonical J-dual frames, and
sampling-based checks of operator preservation properties.
"""

from .core import (
    DEFAULT_TOLERANCES,
    AngularOperator,
    Classification,
    KreinSpace,
    Operator,
    Subspace,
    SubspaceKind,
    Tolerances,
    angular_operator,
    classify,
    gramian,
    gramian_min_modulus,
    indefinite_product,
    j_adjoint,
    j_projection,
    orthogonal_projection,
    reduced_min_modulus,
)
from .duality import (
    VectorFrame,
    as_weighted_family,
    canonical_dual,
    dual_bounds_check,
    fusion_dual_bounds_check,
    is_j_frame,
    partial_frame_operator,
    vframe_optimal_bounds,
)
from .errors import (
    ClassificationError,
    DegenerateSubspaceError,
    DefinitenessTransportError,
    DimensionError,
    HypothesisNotMetError,
    KreinFramesError,
    MemberClassificationError,
    NotAFrameError,
    NotSurjectiveError,
    RankError,
    SchemaError,
    SingularOperatorError,
    UsageError,
    ValidationError,
    WeightError,
)
from .fusion import (
    FrameBounds,
    FrameCertificate,
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
    j_image_family,
    optimal_bounds,
    synthesis_operator,
    synthesis_part,
)
from .problem import ProblemSpec, parse_spec, serialize_spec
from .transforms import (
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

__version__ = "0.1.0"
