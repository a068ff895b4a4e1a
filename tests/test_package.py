"""The names the package exports: each module's ``__all__``, and no more."""

import ast
import importlib
import types
from pathlib import Path

import numpy as np
import pytest

import kreinframes

EXPORTED = """
AngularOperator Classification ClassificationError DEFAULT_TOLERANCES
DefinitenessTransportError DegenerateSubspaceError DimensionError FrameBounds
FrameCertificate HypothesisNotMetError KreinFramesError KreinSpace
MemberClassificationError NotAFrameError NotSurjectiveError Operator ProblemSpec
RankError SchemaError SingularOperatorError Subspace SubspaceKind Tolerances
UsageError ValidationError VectorFrame WeightError WeightedFamily
angular_operator bounds_sandwich_ok canonical_dual certify converse_check
dual_bounds_check frame_operator fusion_dual_bounds_check gramian
image_subspace indefinite_product is_j_frame is_j_isometry_multiple j_adjoint
j_image_family j_projection necessary_conditions_check optimal_bounds
orthogonal_projection parse_spec preservation_report
preserves_definiteness_with_sign preserves_maximality preserves_regularity
projection_commutation_check reduced_min_modulus transform_family
vframe_optimal_bounds
""".split()

# listed in a module's __all__ but, before the package read them from there,
# not exported by the package
FROM_ALL = """
ConverseReport DualBoundsReport FusionDualReport NecessaryConditionsReport
PredicateVerdict PreservationReport decode_document fundamental_identity_sides
fundamental_identity_sides_batch
""".split()

# public names that nothing in the package, its acceptance tests or the
# benchmark called, deleted from their modules; the tests' references to
# some of them are in tests/oracles.py and tests/generators.py
DELETED = {
    "core": ["classify", "gramian_min_modulus"],
    "duality": ["as_weighted_family", "partial_frame_operator"],
    "fusion": [
        "analysis_operator", "coefficient_symmetry", "definite_span", "estimate_bounds",
        "frame_operator_part", "synthesis_operator", "synthesis_part",
    ],
    "problem": ["serialize_spec"],
}

NOT_EXPORTED = """
alternating_signature_space neutral_image_operator rng_from_seed random_complex
random_maximal_definite_subspace random_definite_subspace random_regular_subspace
""".split() + [n for names in DELETED.values() for n in names]

MODULES = ["core", "duality", "fusion", "problem", "transforms"]
# the names the callers bind a kreinframes module to
MODULE_NAMES = {"kf", "kreinframes", "cli", "errors", "sampling", *MODULES}

ROOT = Path(__file__).resolve().parents[1]
# the package, its acceptance tests and the benchmark: every exported name
# must be read somewhere in these
CALLERS = [
    *sorted((ROOT / "src" / "kreinframes").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def test_exported_names_are_exact():
    assert len(EXPORTED) == 56
    public = {
        n for n, v in vars(kreinframes).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert sorted(public) == sorted(EXPORTED + FROM_ALL)


@pytest.mark.parametrize("name", FROM_ALL)
def test_module_all_names_are_exported(name):
    assert hasattr(kreinframes, name)


@pytest.mark.parametrize("name", NOT_EXPORTED)
def test_helpers_are_not_exported(name):
    assert not hasattr(kreinframes, name)


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in DELETED.items() for n in names]
)
def test_deleted_names_are_gone_from_their_module(module, name):
    assert not hasattr(importlib.import_module(f"kreinframes.{module}"), name)


def test_deleted_members_are_gone():
    space = kreinframes.KreinSpace.from_signs([1, -1])
    w = kreinframes.Subspace(space, [[1.0], [0.0]])
    family = kreinframes.WeightedFamily(space, [w], [1.0])
    operator = kreinframes.Operator(space, np.eye(2))
    assert [hasattr(w, "contains"), hasattr(operator, "j_adjoint")] == [False, False]
    assert not hasattr(family, "total_dim")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_all_is_exported_as_itself(module):
    mod = importlib.import_module(f"kreinframes.{module}")
    assert all(getattr(kreinframes, n) is getattr(mod, n) for n in mod.__all__)


def _is_module(node) -> bool:
    """Whether node is a name bound to a kreinframes module: ``kf`` or ``self.kf``."""
    if isinstance(node, ast.Name):
        return node.id in MODULE_NAMES
    return isinstance(node, ast.Attribute) and node.attr in MODULE_NAMES


def _reads(node, inside=()):
    """Every direct reference under node, except inside the function or class
    that defines it: a loaded Name, or a loaded attribute of a kreinframes
    module.  A method or record field of the same name (``W.classify()``,
    ``cert.estimate_bounds``) is not one."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = (*inside, node.name)
    name = None
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and _is_module(node.value):
        name = node.attr
    if name is not None and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, inside)


@pytest.mark.parametrize("module", MODULES)
def test_each_exported_name_has_a_caller(module):
    read = {n for path in CALLERS for n in _reads(ast.parse(path.read_text()))}
    mod = importlib.import_module(f"kreinframes.{module}")
    assert [n for n in mod.__all__ if n not in read] == []


# what reading the process environment takes: os.environ, os.environb, os.getenv
ENVIRONMENT = {"environ", "environb", "getenv"}


def test_no_module_reads_the_environment():
    # a report then depends on the command line and the document alone
    reads = []
    for path in sorted((ROOT / "src" / "kreinframes").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [node.attr] if isinstance(node, ast.Attribute) else []
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [a.name for a in node.names]
            reads += [f"{path.name}:{node.lineno}" for n in names if n in ENVIRONMENT]
    assert reads == []


def _j_products(node, owner=None):
    """Where, outside the class KreinSpace, an operand of ``@`` is an attribute
    ``.J``, or ``.J`` is bound to a name, which would hide such a product."""

    def is_j(n):
        return isinstance(n, ast.Attribute) and n.attr == "J"

    if isinstance(node, ast.ClassDef):
        owner = node.name
    if owner != "KreinSpace":
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            if is_j(node.left) or is_j(node.right):
                yield node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
            values = [node.value]
            if isinstance(node.value, ast.Tuple):
                values = node.value.elts
            if any(is_j(v) for v in values):
                yield node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _j_products(child, owner)


def test_only_the_space_multiplies_by_j():
    # every other module takes J x and x J from KreinSpace._jx and _xj, which
    # scale by J's diagonal when J is diagonal
    found = [
        f"{path.name}:{line}"
        for path in sorted((ROOT / "src" / "kreinframes").glob("*.py"))
        for line in _j_products(ast.parse(path.read_text()))
    ]
    assert found == []
    bad = "def f(space, x):\n    J = space.J\n    return x @ space.J, J\n"
    assert list(_j_products(ast.parse(bad))) == [2, 3]
