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

from itertools import chain, repeat

import numpy as np

from .core import (
    Operator,
    Record,
    Subspace,
    _SAFETY,
    _clears,
    _def_floor,
    _rank,
    j_adjoint,
    j_projection,
)
from .errors import (
    ClassificationError,
    DegenerateSubspaceError,
    DimensionError,
    HypothesisNotMetError,
    NotSurjectiveError,
)
from .fusion import WeightedFamily, FrameCertificate, certify
from .fusion import _side_verdict, _signed_spans, _sum_dim
from .sampling import (
    _maximal_law,
    _regular_law,
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
]

EPISTEMIC_NOTE = (
    "sampling-based refutation: 'holds-on-samples' is evidence over the "
    "tested subspaces, not a proof over all subspaces"
)


class PredicateVerdict(Record):
    status: str  # "holds-on-samples" | "counterexample"
    counterexample: Subspace | None
    detail: str
    samples_tested: int
    note: str = EPISTEMIC_NOTE

    @property
    def holds(self) -> bool:
        return self.status == "holds-on-samples"


class PreservationReport(Record):
    definiteness_with_sign: PredicateVerdict
    maximality: PredicateVerdict
    regularity: PredicateVerdict


def _in_space_of(T: Operator, x):
    """x, a subspace or a family, when it lives in T's space (the object
    itself, as ``WeightedFamily`` requires of its members); else DimensionError."""
    if x.space is not T.space:
        raise DimensionError(f"{x!r} does not live in the operator's space")
    return x


def image_subspace(T: Operator, V: Subspace) -> Subspace | None:
    """Column space of T applied to V; None when the image is {0}."""
    return Subspace.from_spanning(T.space, T.matrix @ _in_space_of(T, V).basis)


def _sweep(
    T, cert, subspaces, n_random, seed, draw, check, law=None, signed=False
) -> PredicateVerdict:
    """The first counterexample ``check(T, v)`` finds in the supplied
    subspaces, then in ``n_random`` samples ``draw(space, rng)`` takes one at
    a time from rng_from_seed(seed).  A check that _settles(v, cert, signed)
    decides is not made.

    ``law(space)``, if given, bounds (cond, margin) every draw: when those
    bounds settle T and no draw can fail its rank, no sample is drawn, but
    each counts as tested, as it would pass.  A library error from a draw or
    from ``check`` is raised.
    """
    space = T.space
    rng = rng_from_seed(seed)
    drawn = (draw(space, rng) for _ in range(n_random))
    if law is not None and cert is not None:
        cond, margin = law(space)
        # every draw is lazy (_graph), so none can raise
        if _SAFETY * space.tol.tau_rank * cond < 1.0 and _bounds_settle(space, cond, margin, cert):
            drawn = repeat(None, n_random)
    tested = 0
    for tested, v in enumerate(chain(subspaces, drawn), 1):
        bad = None if v is None or _settles(v, cert, signed) else check(T, v)
        if bad is not None:
            return PredicateVerdict("counterexample", v, bad, tested)
    return PredicateVerdict("holds-on-samples", None, "", tested)


def _signed(sampler):
    """draw(space, rng) for a sampler of one sign; the sign is drawn first,
    and the draw keeps it as ``_sign`` where its margin bound clears the
    classification floor with _SAFETY, else 0 (see _settles)."""

    def draw(space, rng):
        p, q = space.signature
        sign = 1 if (q == 0 or (p > 0 and rng.uniform() < 0.5)) else -1
        v = sampler(space, rng, sign)
        v._sign = sign if v._margin > _SAFETY * _def_floor(space, space.dim) else 0
        return v

    return draw


def _image_floor(space, cond: float, cert) -> float | None:
    """The floor that the image's Gramian margin must clear for ``cert`` to
    settle a V with kappa(V.basis) <= cond, or None when kappa(T) cond does not
    settle the image's rank (see _settles)."""
    c, r, norm, kappa, *_ = cert
    kappa *= cond
    slack = 1e-13 * space.dim * kappa  # rounding in the image's classification
    if kappa * (_SAFETY * space.tol.tau_rank + slack) >= 1.0:
        return None
    # the floor of a Gramian of dimension n bounds that of V and T(V)
    return (_SAFETY * _def_floor(space, space.dim) + slack) * norm * norm


def _bounds_settle(space, cond: float, margin: float, cert) -> bool:
    """Whether ``cert`` settles, by its scalars alone, every V in ``space`` with
    kappa(V.basis) <= cond and Gramian margin >= margin (see _settles)."""
    floor = _image_floor(space, cond, cert)
    return floor is not None and cert[0] > 0 and cert[0] * margin - cert[1] > floor


def _settles(v: Subspace, cert, signed: bool = False) -> bool:
    """Whether ``cert`` = T._isometry proves that T(V) has V's
    dimension and inertia with a Gramian margin above tau_def (or above the
    rounding level that _def_floor puts in its place).  V's margin is then
    above it too, so a drawn V, or one from the pools of
    _predicate_sweep, passes its check and so does its image.  With
    H = T* J T appended to ``cert``, it is enough that T(V) is regular or,
    if ``signed``, uniformly definite of V's sign s: a supplied V's, or a
    draw's ``_sign``, which it keeps only where it classifies with it.

    With T# T = c I + E and ||E|| = r, T* J T = c J + J E.  On an
    orthonormal basis U of V, whose Gramian margin is delta, the image's
    Gramian keeps V's signs at modulus c delta - r or more (Weyl), and
    orthonormalising divides it by at most ||T||^2 (Ostrowski).  T V.basis
    has condition number at most kappa(T) kappa(V.basis).  For any T, T U =
    Q R gives the image's Gramian Q* J Q = R^-* (U* H U) R^-1, so its
    eigenvalues have modulus at least |eigenvalue of U* H U| / ||T||^2.  With
    columns B = U C in V in place of U, each |eigenvalue of B* H B| is at most
    ||C||_2^2 = ||B||_2^2 <= ||B||_F^2 times one of U* H U, so the floor is
    scaled by ||B||_F^2 and no SVD of B is needed; signed, all of this holds
    of s B* H B, s U* H U and s Q* J Q.  Only _clears settles, as only it
    proves the bound; what it leaves undecided is checked.  B is V's
    spanning columns where it has them: a B* H B that clears a positive
    floor is nonsingular, so B has full rank and spans V.
    """
    if cert is None:
        return False
    if _bounds_settle(v.space, v._cond, v._gram_margin(), cert):
        return True
    floor = _image_floor(v.space, v._cond, cert) if len(cert) == 5 else None
    sign = (v.classify().sign if v._sign is None else v._sign) if signed else 0
    if floor is None or signed and not sign:
        return False
    b = v.basis if v._spanning is None else v._spanning()
    g = b.conj().T @ cert[4] @ b
    g = 0.5 * (g + g.conj().T)
    floor *= float(np.vdot(b, b).real)
    return _clears(g, floor, sign)


def _check_definite(T, v):
    cls = v.classify()
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


def _predicate_sweep(k, T, cert, subspaces, n_random, seed) -> PredicateVerdict:
    """_sweep of predicate k (definiteness with sign, maximality, regularity)
    over the supplied subspaces in its hypothesis (uniformly definite,
    maximal uniformly definite, regular) only.  A draw outside the
    hypothesis that cert does not settle raises ClassificationError: it is
    no counterexample.  A definite draw keeps its maximal draw's bounds, so
    both share one law."""
    hypothesis, text, draw, check, law = (
        ("uniformly_definite", "definiteness predicate only tests uniformly definite",
         _signed(random_definite_subspace), _check_definite, _maximal_law),
        ("maximal_definite", "maximality predicate only tests maximal uniformly definite",
         _signed(random_maximal_definite_subspace), _check_maximal, _maximal_law),
        ("regular", "regularity predicate only tests regular", random_regular_subspace,
         _check_regular, _regular_law),
    )[k]

    def checked(T, v):
        if not getattr(v.classify(), hypothesis):
            raise ClassificationError(f"{text} subspaces")
        return check(T, v)

    pool = [s for s in subspaces if getattr(_in_space_of(T, s).classify(), hypothesis)]
    return _sweep(T, cert, pool, n_random, seed, draw, checked, law, k < 2)


def preserves_definiteness_with_sign(
    T: Operator, subspaces=(), n_random: int = 200, seed: int = 0
) -> PredicateVerdict:
    """Images of uniformly definite subspaces stay definite with their sign."""
    return _predicate_sweep(0, T, None, subspaces, n_random, seed)


def preserves_maximality(
    T: Operator, subspaces=(), n_random: int = 200, seed: int = 0
) -> PredicateVerdict:
    """Images of maximal uniformly definite subspaces stay maximal definite."""
    return _predicate_sweep(1, T, None, subspaces, n_random, seed)


def preserves_regularity(
    T: Operator, subspaces=(), n_random: int = 200, seed: int = 0
) -> PredicateVerdict:
    """Images of regular subspaces stay regular."""
    return _predicate_sweep(2, T, None, subspaces, n_random, seed)


def preservation_report(
    T: Operator, subspaces=(), n_random: int = 200, seed: int = 0
) -> PreservationReport:
    """The three predicates' verdicts on T, each from one _predicate_sweep;
    the first library error is raised.  Images that _settles decides, by
    T's scalars or by T* J T, are not computed.  A sweep draws nothing once
    its law's bounds settle T."""
    subspaces = list(subspaces)  # read by all three sweeps
    cert = (*T._isometry, T._congruence)
    return PreservationReport(
        *(_predicate_sweep(k, T, cert, subspaces, n_random, seed) for k in range(3))
    )


def transform_family(
    T: Operator, F: WeightedFamily
) -> tuple[WeightedFamily, FrameCertificate]:
    """The image family {(T(W_i), v_i)} together with its certificate.

    Raises MemberClassificationError when some image is not uniformly
    definite; that is exactly a definiteness-preservation failure.
    """
    _in_space_of(T, F)
    if _rank(T._svals, T.space.tol) < T.space.dim:
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


def is_j_isometry_multiple(T: Operator) -> tuple[bool, float]:
    """Whether T# T = c I for a real c > 0; returns (verdict, c).

    Such operators scale the indefinite product by c and therefore preserve
    definiteness with sign, maximality and regularity exactly.  The residual
    ||T# T - c I||_2 must be below tau_num * n * ||T||_2^2, so the verdict
    does not change when T is scaled.
    """
    c, residual, norm, _ = T._isometry
    scalar = residual < T.space.tol.tau_num * T.space.dim * norm * norm
    return scalar and c > 0, c


class NecessaryConditionsReport(Record):
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
    subspaces of opposite signs.  The spans are the images' over F's index
    sets, so the conditions assume that T keeps signs: the swap
    [[0, 1], [1, 0]] under diag(1, -1) maps every frame to a frame, and
    ``holds`` is False for it.
    """
    if not F._certificate.is_frame:
        raise HypothesisNotMetError("F must be a certified J-fusion frame")
    family, cert = transform_family(T, F)
    if not cert.is_frame:
        raise HypothesisNotMetError("the image family must also certify as a frame")
    return _necessary_conditions(F, family)


def _necessary_conditions(
    F: WeightedFamily, family: WeightedFamily
) -> NecessaryConditionsReport:
    """necessary_conditions_check on F's image family, both already frames."""
    # over F's index sets, not the image family's own signs (see above)
    if family.signs == F.signs:  # the image family's own spans, from the same SVDs
        spans = [family.m_plus, family.m_minus]
    else:
        spans = _signed_spans(F.space, family._bases(), np.repeat(F.signs, family.block_dims))
    (dim_p, _, max_p), (dim_m, _, max_m) = (
        _side_verdict(F.space, m, sign) for m, sign in zip(spans, (1, -1))
    )
    direct = _sum_dim(F.space, *spans) == dim_p + dim_m == F.space.dim
    return NecessaryConditionsReport(
        dim_p, dim_m, max_p, max_m, direct, max_p and max_m and direct
    )

