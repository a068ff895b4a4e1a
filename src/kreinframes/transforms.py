"""Operators mapping J-fusion frames to J-fusion frames.

Whether a bounded operator preserves definiteness, maximality or
regularity of subspaces is a universally quantified property; the
predicates here are sampling-based refutation procedures.  A
``holds-on-samples`` verdict is evidence, not proof, and the reports say
so explicitly.  The exact sufficient certificate for invertible operators
is :func:`is_j_isometry_multiple` (a scalar multiple of a J-isometry
preserves all three properties).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import (
    KreinSpace,
    Operator,
    Subspace,
    Tolerances,
    DEFAULT_TOLERANCES,
    _SAFETY,
    _rank,
    j_adjoint,
    j_projection,
)
from .errors import (
    ClassificationError,
    DegenerateSubspaceError,
    HypothesisNotMetError,
    KreinFramesError,
    NotSurjectiveError,
)
from .fusion import WeightedFamily, FrameCertificate, certify
from .fusion import _decide, _masked_span, _side_verdict
from .sampling import (
    random_definite_subspace,
    random_maximal_definite_subspace,
    random_regular_subspace,
    rng_from_seed,
)

__all__ = [
    "PredicateVerdict",
    "PreservationReport",
    "image_subspace",
    "preserves_definiteness_with_sign",
    "preserves_maximality",
    "preserves_regularity",
    "preservation_report",
    "transform_family",
    "projection_commutation_check",
    "is_j_isometry_multiple",
    "necessary_conditions_check",
    "NecessaryConditionsReport",
    "alternating_signature_space",
    "neutral_image_operator",
]

EPISTEMIC_NOTE = (
    "sampling-based refutation: 'holds-on-samples' is evidence over the "
    "tested subspaces, not a proof over all subspaces"
)


@dataclass(frozen=True)
class PredicateVerdict:
    status: str  # "holds-on-samples" | "counterexample"
    counterexample: Subspace | None
    detail: str
    samples_tested: int
    note: str = EPISTEMIC_NOTE

    @property
    def holds(self) -> bool:
        return self.status == "holds-on-samples"


@dataclass(frozen=True)
class PreservationReport:
    definiteness_with_sign: PredicateVerdict
    maximality: PredicateVerdict
    regularity: PredicateVerdict


def image_subspace(T: Operator, V: Subspace) -> Subspace | None:
    """Column space of T applied to V; None when the image is {0}."""
    return Subspace.from_spanning(T.space, T.matrix @ V.basis)


def _sweep(ops, subspaces, n_random, seed, draw, check) -> list:
    """Per pair (T, cert) in ``ops``, the first counterexample ``check(T, v)``
    finds in the supplied subspaces, then in ``n_random`` samples
    ``draw(space, rng)`` takes one at a time from rng_from_seed(seed).  A
    check that _settles(v, cert) decides is not made.

    Each subspace is tested on every operator that has not stopped, and none
    is drawn once all have.  A library error from a draw or from ``check``'s
    test of the subspace itself is the result of every operator still
    sweeping.
    """
    if not ops:
        return []
    out = [None] * len(ops)
    rng = rng_from_seed(seed)
    drawn = (draw(ops[0][0].space, rng) for _ in range(n_random))
    tested = 0
    try:
        for tested, v in enumerate(chain(subspaces, drawn), 1):
            for i, (T, cert) in enumerate(ops):
                skip = out[i] is not None or _settles(v, cert)
                bad = None if skip else check(T, v)
                if bad is not None:
                    out[i] = PredicateVerdict("counterexample", v, bad, tested)
            if None not in out:
                return out
    except KreinFramesError as exc:
        return [exc if r is None else r for r in out]
    held = PredicateVerdict("holds-on-samples", None, "", tested)
    return [held if r is None else r for r in out]


def _one(results):
    """The verdict of a one-operator sweep; its library error is raised."""
    (r,) = results
    if isinstance(r, KreinFramesError):
        raise r
    return r


def _signed(sampler):
    """draw(space, rng) for a sampler of one sign; the sign is drawn first."""

    def draw(space, rng):
        p, q = space.signature
        sign = 1 if (q == 0 or (p > 0 and rng.uniform() < 0.5)) else -1
        return sampler(space, rng, sign)

    return draw


def _settles(v: Subspace, cert) -> bool:
    """Whether ``cert`` = _isometry_scale(T) proves that T(V) has V's
    dimension and inertia with a Gramian margin above tau_def.  V's margin
    is then above tau_def too, so a drawn V, or one from the pools of
    _preservation_reports, passes its check and so does its image.  With
    H = T* J T appended to ``cert``, it is enough that T(V) is regular.

    With T# T = c I + E and ||E|| = r, T* J T = c J + J E.  On an
    orthonormal basis U of V, whose Gramian margin is delta, the image's
    Gramian keeps V's signs at modulus c delta - r or more (Weyl), and
    orthonormalising divides it by at most ||T||^2 (Ostrowski).  T V.basis
    has condition number at most kappa(T) kappa(V.basis).  For any T, T U =
    Q R gives the image's Gramian Q* J Q = R^-* (U* H U) R^-1, so its
    eigenvalues have modulus at least |eigenvalue of U* H U| / ||T||^2.
    """
    if cert is None:
        return False
    c, r, norm, kappa, *h = cert
    tol, kappa = v.space.tol, kappa * v._cond
    slack = 1e-13 * v.space.dim * kappa  # rounding in the image's classification
    if kappa * (_SAFETY * tol.tau_rank + slack) >= 1.0:
        return False
    floor = (_SAFETY * tol.tau_def + slack) * norm * norm
    if c > 0 and c * v._gram_margin() - r > floor:
        return True
    if not h:
        return False
    u = v.ortho_basis
    g = u.conj().T @ h[0] @ u
    return np.abs(np.linalg.eigvalsh(0.5 * (g + g.conj().T))).min() > floor


def _check_definite(T, v):
    cls = v.classify()
    if not cls.uniformly_definite:
        raise ClassificationError(
            "definiteness predicate only tests uniformly definite subspaces"
        )
    img = image_subspace(T, v)
    if img is None:
        return "image is the zero subspace"
    icls = img.classify()
    if icls.sign != cls.sign:
        return (
            f"image of a {cls.kind.value} subspace classifies as "
            f"{icls.kind.value}"
        )
    return None


def _check_maximal(T, v):
    img = image_subspace(T, v)
    if img is None:
        return "image is the zero subspace"
    icls = img.classify()
    if not icls.uniformly_definite:
        return f"image classifies as {icls.kind.value}"
    if not icls.maximal_definite:
        return (
            f"image is uniformly definite but of dimension {img.dim}, "
            "not maximal"
        )
    return None


def _check_regular(T, v):
    img = image_subspace(T, v)  # the zero subspace is trivially regular
    return None if img is None or img.classify().regular else "image is degenerate"


def preserves_definiteness_with_sign(
    T: Operator, subspaces=(), n_random: int = 200, seed: int = 0
) -> PredicateVerdict:
    """Images of uniformly definite subspaces stay definite with their sign."""
    draw = _signed(random_definite_subspace)
    return _one(_sweep([(T, None)], subspaces, n_random, seed, draw, _check_definite))


def preserves_maximality(
    T: Operator, subspaces=(), n_random: int = 200, seed: int = 0
) -> PredicateVerdict:
    """Images of maximal uniformly definite subspaces stay maximal definite."""
    draw = _signed(random_maximal_definite_subspace)
    return _one(_sweep([(T, None)], subspaces, n_random, seed, draw, _check_maximal))


def preserves_regularity(
    T: Operator, subspaces=(), n_random: int = 200, seed: int = 0
) -> PredicateVerdict:
    """Images of regular subspaces stay regular."""
    draw = random_regular_subspace
    return _one(_sweep([(T, None)], subspaces, n_random, seed, draw, _check_regular))


def preservation_report(
    T: Operator, subspaces=(), n_random: int = 200, seed: int = 0
) -> PreservationReport:
    return _one(_preservation_reports([T], subspaces, n_random, seed))


def _preservation_reports(ops, subspaces, n_random, seed) -> list:
    """preservation_report of each operator, or the library error that stopped
    it, from one sweep per predicate over the same subspaces.  An operator
    with an error runs no later predicate.  Images that _settles decides
    are not computed; for regularity it may also use T* J T."""
    definite = [s for s in subspaces if s.classify().uniformly_definite]
    maximal = [s for s in definite if s.classify().maximal_definite]
    regular = [s for s in subspaces if s.classify().regular]
    certs = [_isometry_scale(T) for T in ops]
    # and T* J T for regularity only: an invertible T that keeps both signs'
    # definiteness is a J-isometry multiple (Krein-Shmul'yan), decided without it
    congruent = [(*c, T.matrix.conj().T @ T.space.J @ T.matrix) for T, c in zip(ops, certs)]
    verdicts = [[] for _ in ops]
    for pool, draw, check, cs in (
        (definite, _signed(random_definite_subspace), _check_definite, certs),
        (maximal, _signed(random_maximal_definite_subspace), _check_maximal, certs),
        (regular, random_regular_subspace, _check_regular, congruent),
    ):
        live = [i for i, v in enumerate(verdicts) if isinstance(v, list)]
        sweeping = [(ops[i], cs[i]) for i in live]
        results = _sweep(sweeping, pool, n_random, seed, draw, check)
        for i, r in zip(live, results):
            verdicts[i] = r if isinstance(r, KreinFramesError) else verdicts[i] + [r]
    return [PreservationReport(*v) if isinstance(v, list) else v for v in verdicts]


def transform_family(
    T: Operator, F: WeightedFamily
) -> tuple[WeightedFamily, FrameCertificate]:
    """The image family {(T(W_i), v_i)} together with its certificate.

    Raises MemberClassificationError when some image is not uniformly
    definite; that is exactly a definiteness-preservation failure.
    """
    if _rank(np.linalg.svd(T.matrix, compute_uv=False), T.space.tol) < T.space.dim:
        raise NotSurjectiveError("transform requires a surjective operator")
    images = []
    for w in F.subspaces:
        img = image_subspace(T, w)
        if img is None:
            raise NotSurjectiveError("a member was annihilated by the operator")
        images.append(img)
    family = WeightedFamily(F.space, images, F.weights)
    return family, certify(family)


def projection_commutation_check(T: Operator, V: Subspace) -> float:
    """Residual of Q_V T# = Q_V T# Q_{T(V)} for a regular V with regular image."""
    q_v = j_projection(V).matrix  # raises DegenerateSubspaceError if V degenerate
    img = image_subspace(T, V)
    if img is None:
        raise DegenerateSubspaceError(
            "image of V is the zero subspace; the commutation identity "
            "requires a regular image"
        )
    q_img = j_projection(img).matrix
    lhs = q_v @ j_adjoint(T).matrix
    return float(np.linalg.norm(lhs - lhs @ q_img, 2))


def _isometry_scale(T: Operator) -> tuple[float, float, float, float]:
    """(c, ||T# T - c I||_2, ||T||_2, kappa(T)) with c the real part of
    trace(T# T) / n; kappa is inf for a singular T."""
    g = j_adjoint(T).matrix @ T.matrix
    n = T.space.dim
    c = (complex(np.trace(g)) / n).real
    residual = float(np.linalg.norm(g - c * np.eye(n), 2))
    s = np.linalg.svd(T.matrix, compute_uv=False)
    kappa = float(s[0]) / float(s[-1]) if s[-1] > 0 else float("inf")
    return c, residual, float(s[0]), kappa


def is_j_isometry_multiple(T: Operator) -> tuple[bool, float]:
    """Whether T# T = c I for a real c > 0; returns (verdict, c).

    Such operators scale the indefinite product by c and therefore preserve
    definiteness with sign, maximality and regularity exactly.  The residual
    ||T# T - c I||_2 must be below tau_num * n * ||T||_2^2, so the verdict
    does not change when T is scaled.
    """
    c, residual, norm, _ = _isometry_scale(T)
    scalar = residual < T.space.tol.tau_num * T.space.dim * norm * norm
    return scalar and c > 0, c


@dataclass(frozen=True)
class NecessaryConditionsReport:
    positive_image_dim: int
    negative_image_dim: int
    positive_image_maximal: bool
    negative_image_maximal: bool
    direct_sum: bool
    holds: bool


def necessary_conditions_check(
    T: Operator, F: WeightedFamily
) -> NecessaryConditionsReport:
    """Decomposition induced by a frame-preserving operator.

    When both F and its image family are frames, the signed image spans
    must decompose the space as a direct sum of maximal uniformly definite
    subspaces of opposite signs.
    """
    if not _decide(F).is_frame:
        raise HypothesisNotMetError("F must be a certified J-fusion frame")
    family, cert = transform_family(T, F)
    if not cert.is_frame:
        raise HypothesisNotMetError("the image family must also certify as a frame")
    return _necessary_conditions(F, family)


def _necessary_conditions(
    F: WeightedFamily, family: WeightedFamily
) -> NecessaryConditionsReport:
    """necessary_conditions_check on F's image family, both already frames."""
    # the image members spanned over F's index sets, not over the image
    # family's own signs: an operator that swaps the signs fails here
    bases = np.hstack([w.ortho_basis for w in family.subspaces])
    signs = np.repeat(F.signs, family.block_dims)
    spans = [_masked_span(F.space, bases, signs == sign) for sign in (1, -1)]
    (dim_p, _, max_p), (dim_m, _, max_m) = (
        _side_verdict(F.space, m, sign) for m, sign in zip(spans, (1, -1))
    )
    stacked = np.hstack([s.ortho_basis for s in spans if s is not None])
    rank = _rank(np.linalg.svd(stacked, compute_uv=False), F.space.tol)
    direct = rank == dim_p + dim_m == F.space.dim
    return NecessaryConditionsReport(
        dim_p, dim_m, max_p, max_m, direct, max_p and max_m and direct
    )


def alternating_signature_space(
    m: int = 4, tol: Tolerances = DEFAULT_TOLERANCES
) -> KreinSpace:
    """C^m with the alternating diagonal symmetry diag(1, -1, 1, -1, ...)."""
    if m < 2:
        raise ValueError("need at least two coordinates")
    signs = [1.0 if i % 2 == 0 else -1.0 for i in range(m)]
    return KreinSpace(np.diag(signs), tol=tol)


def neutral_image_operator(space: KreinSpace) -> Operator:
    """Invertible operator sending the first axis onto a neutral line.

    Acts as [[1, 1], [1, 2]] on the first two coordinates and as the
    identity beyond; on an alternating-signature space the image of
    span{e_1} is the neutral line span{(1, 1, 0, ...)}.
    """
    m = space.dim
    if m < 2:
        raise ValueError("need at least two coordinates")
    t = np.eye(m, dtype=complex)
    t[0, 0], t[0, 1] = 1.0, 1.0
    t[1, 0], t[1, 1] = 1.0, 2.0
    return Operator(space, t)
