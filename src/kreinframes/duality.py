"""Vector J-frames, canonical J-dual frames and the dual-bound relations.

A vector J-frame is a finite family of non-neutral vectors whose positive
members span a maximal uniformly positive subspace and whose negative
members span a maximal uniformly negative one.  The frame operator
S f = sum_i sigma_i [f, f_i] f_i is then bijective and J-selfadjoint; the
canonical dual {S^-1 f_i} reconstructs every vector and has reciprocal
optimal bounds.  The functions of ``fusion`` take a vector frame unchanged.
"""

from __future__ import annotations

import numpy as np

from .core import _SAFETY, KreinSpace, Record, Subspace, _def_floor
from .errors import (
    DefinitenessTransportError,
    DimensionError,
    MemberClassificationError,
    NotAFrameError,
    RankError,
)
from .fusion import (
    FrameBounds,
    WeightedFamily,
    _Sides,
    _Span,
    _rayleigh_extremes,
    _span_bounds,
    optimal_bounds,
)

__all__ = [
    "VectorFrame",
    "DualBoundsReport",
    "FusionDualReport",
    "is_j_frame",
    "vframe_optimal_bounds",
    "canonical_dual",
    "dual_bounds_check",
    "fundamental_identity_sides",
    "fundamental_identity_sides_batch",
    "fusion_dual_bounds_check",
]


class VectorFrame(_Sides):
    """A finite family of non-neutral vectors with signs from [f_i, f_i]."""

    _S_NAME = "frame operator"  # as SingularOperatorError names S

    def __init__(self, space: KreinSpace, vectors):
        try:  # the vectors as the columns of one C-contiguous (n, m) matrix
            matrix = np.asarray(vectors, dtype=complex).T.copy()
        except (TypeError, ValueError):  # ragged, or an entry that is no number
            matrix = None
        if matrix is None or matrix.ndim != 2 or matrix.shape[0] != space.dim or not matrix.size:
            # the first vector that is not one of C^n, or no vector, words the error
            cols = [space.check_vector(v) for v in vectors]
            if not cols:
                raise MemberClassificationError(0, "a vector frame needs members")
            matrix = np.column_stack(cols)
        bad = np.flatnonzero(~np.isfinite(matrix).all(axis=0))
        if bad.size:
            raise MemberClassificationError(int(bad[0]), "vector has a non-finite entry")
        # each f over its largest entry: [f,f] and ||f||^2 of huge or tiny
        # entries stay finite
        scale = np.abs(np.vstack([matrix.real, matrix.imag])).max(axis=0)
        f = matrix / np.where(scale == 0.0, 1.0, scale)
        nrm2 = np.einsum("ij,ij->j", f.conj(), f).real
        vals = np.einsum("ij,ij->j", f.conj(), space._jx(f)).real
        # the floor classify puts on a family member's one-dimensional Gramian
        neutral = np.flatnonzero(np.abs(vals) <= _def_floor(space, 1) * nrm2)
        if neutral.size:  # the first offender; a zero vector is neutral too
            i = int(neutral[0])
            if scale[i] == 0.0:
                raise MemberClassificationError(i, "zero vector")
            raise MemberClassificationError(
                i, f"vector is neutral within tau_def ([f,f]/||f||^2 = {vals[i] / nrm2[i]:g})"
            )
        # ||f|| = scale sqrt(nrm2) below 2^-511: S sums f f* J, which would underflow
        tiny = np.flatnonzero(scale < 2.0**-511 / np.sqrt(nrm2))
        if tiny.size:
            raise MemberClassificationError(int(tiny[0]), "||f||^2 underflows to subnormal")
        signs = [1 if v > 0 else -1 for v in vals]
        # the vectors are the synthesis columns and span the signed sides
        super().__init__(space, signs, 1, matrix, lambda: matrix)
        self.matrix = matrix

    def __len__(self):
        return self.matrix.shape[1]

    def vector(self, i) -> np.ndarray:
        return self.matrix[:, i]

    def __repr__(self):
        return (
            f"VectorFrame({len(self)} vectors, "
            f"|I+|={len(self.plus_indices)}, |I-|={len(self.minus_indices)})"
        )


def _member_mask(F: VectorFrame, subset) -> np.ndarray:
    mask = np.zeros(len(F), dtype=bool)
    for i in (int(i) for i in subset):
        if i < 0 or i >= len(F):
            raise IndexError(f"member index {i} out of range 0..{len(F) - 1}")
        mask[i] = True
    return mask


def is_j_frame(F: VectorFrame) -> bool:
    """True when both signed spans are maximal uniformly definite (the kept decision)."""
    return F._certificate.is_frame


# the extreme values of sum_i sigma_i |[f, f_i]|^2 / [f, f] over each signed
# span; the name the benchmark probe (perfbench/worker.py) calls
vframe_optimal_bounds = optimal_bounds


def _dual(F: _Sides, given: np.ndarray, build) -> _Sides:
    """The canonical dual of F from one product S^-1 [given | U+ | U-].

    The dual's spans S^-1 M(+-) come first, by one Householder QR per side of
    S^-1 U(+-): S^-1 passed ``_nonsingular``, so S^-1 M has the dimension of
    M and no rank is decided again.  ``build(cols, spans)`` makes the dual of
    the columns S^-1 ``given``; when its members keep F's signs, those of
    each sign span S^-1 M of it, and the dual is given the spans.
    """
    k = given.shape[1]
    images = F._s_inv @ np.hstack([given, *F._span_bases])
    cut = [0 if F.m_plus is None else F.m_plus.dim]
    spans = tuple(
        _Span._orthonormal(F.space, np.linalg.qr(x)[0]) if x.shape[1] else None
        for x in np.split(images[:, k:], cut, axis=1)
    )
    dual = build(images[:, :k], spans)
    if dual.signs == F.signs:
        vars(dual)["_spans"] = spans
    return dual


def canonical_dual(F: VectorFrame) -> VectorFrame:
    """The dual frame {S^-1 f_i}; member signs must transport unchanged, and
    the dual must certify as a J-frame, else DefinitenessTransportError."""
    if not F._certificate.is_frame:
        raise NotAFrameError("canonical dual is defined for J-frames only")
    try:
        dual = _dual(F, F.matrix, lambda cols, spans: VectorFrame(F.space, cols.T))
    except MemberClassificationError as exc:
        raise DefinitenessTransportError(
            f"inverse frame operator produced a neutral dual vector: {exc}"
        ) from exc
    if dual.signs != F.signs:
        raise DefinitenessTransportError(
            "inverse frame operator changed the sign pattern: "
            f"{F.signs} -> {dual.signs}"
        )
    if not dual._certificate.is_frame:
        w = dual._certificate.witnesses[0]
        raise DefinitenessTransportError(
            f"canonical dual is not a J-frame: side {w['side']}: {w['reason']}"
        )
    return dual


class DualBoundsReport(Record):
    original: FrameBounds
    dual: FrameBounds
    dual_own_spans: FrameBounds
    expected: FrameBounds
    max_rel_error: float
    ok: bool


def _reciprocal_expected(b: FrameBounds) -> FrameBounds:
    inv = lambda x: None if x is None else 1.0 / x
    return FrameBounds(inv(b.a_minus), inv(b.b_minus), inv(b.b_plus), inv(b.a_plus))


def _bounds_rel_error(actual: FrameBounds, expected: FrameBounds) -> float:
    err = 0.0
    for a, e in zip(actual.as_tuple(), expected.as_tuple()):
        if (a is None) != (e is None):
            return float("inf")
        if a is None:
            continue
        err = max(err, abs(a - e) / max(1.0, abs(e)))
    return err


def dual_bounds_check(F: VectorFrame) -> DualBoundsReport:
    """Optimal bounds of the canonical dual against the reciprocal relation.

    The dual's bounds are taken over the original frame's signed spans: the
    dual coefficients [f, S^-1 f_i] reconstruct vectors along those spans,
    and there the positive-side quotient equals [S^-1 f, f] / [f, f], whose
    range is exactly [1/B+, 1/A+] (the compression of S^-1 to the positive
    span is the inverse of the compressed frame operator).  Over the dual's
    own spans (the J-orthogonal complements of the opposite originals) the
    reciprocal relation fails in general; those bounds are reported as
    dual_own_spans for comparison.
    """
    original = optimal_bounds(F)
    dual_frame = canonical_dual(F)
    dual_own = optimal_bounds(dual_frame)
    dual = _span_bounds(F, dual_frame, _rayleigh_extremes)
    expected = _reciprocal_expected(original)
    err = _bounds_rel_error(dual, expected)
    return DualBoundsReport(
        original, dual, dual_own, expected, err, err < F.space.tol.tau_num
    )


def fundamental_identity_sides_batch(F: VectorFrame, masks, fs):
    """Both sides (lhs, rhs) of the partial-sum identity, one entry per trial.

    Row t of the (trials x m) boolean ``masks`` selects the subset I_t and
    column t of the (n x trials) ``fs`` is the test vector f_t.  Each side
    is evaluated from its own definition, over I_t and over its complement:
    sum_{i in I} sigma_i |[f, f_i]|^2 - sum_i sigma_i |[S_I f, S^-1 f_i]|^2.
    """
    if not F._certificate.is_frame:
        raise NotAFrameError("the identity requires a J-frame")
    masks, fs = np.asarray(masks, dtype=bool), np.asarray(fs, dtype=complex)
    trials = masks.shape[0] if masks.ndim == 2 else -1
    if masks.shape != (trials, len(F)) or fs.shape != (F.space.dim, trials):
        raise DimensionError(
            f"masks {masks.shape} and vectors {fs.shape} do not fit {F!r}"
        )
    space, sigma = F.space, F._column_signs[:, None]
    c = F.matrix.conj().T @ space._jx(fs)  # c[i, t] = [f_t, f_i]
    dual_coeffs = space._xj((F._s_inv @ F.matrix).conj().T)
    sides = []
    for members in (masks.T, ~masks.T):
        s_f = F.matrix @ np.where(members, sigma * c, 0.0)  # S_I f
        own = np.where(members, sigma * np.abs(c) ** 2, 0.0).sum(axis=0)
        sides.append(own - F._column_signs @ np.abs(dual_coeffs @ s_f) ** 2)
    return sides[0], sides[1]


def fundamental_identity_sides(F: VectorFrame, subset, f) -> tuple[float, float]:
    """Both sides of the partial-sum identity for a member subset."""
    f = F.space.check_vector(f)
    mask = _member_mask(F, subset)
    lhs, rhs = fundamental_identity_sides_batch(F, mask[None, :], f[:, None])
    return float(lhs[0]), float(rhs[0])


class FusionDualReport(Record):
    dual_is_frame: bool
    original: FrameBounds
    dual: FrameBounds | None
    dual_over_original_spans: FrameBounds | None
    expected: FrameBounds
    max_rel_error: float | None
    holds: bool
    note: str


def _signs_settle(F: WeightedFamily, spans) -> bool:
    """Whether the dual spans S^-1 M(+-) prove each dual member S^-1 W_i
    uniformly definite of W_i's sign, with a margin that classify passes.

    X, the computed S^-1, has kappa(X) <= beta (X^-1 = (I + R)^-1 S, see
    ``_cond_bound``).  A member, an orthonormal basis of X B_i, is within
    delta of the span Q(+-) of its sign: n^2 eps beta kappa(B_i) for the
    product and its factorization (Higham, ASNA, §3.5 and Thm 19.4; Golub &
    Van Loan, §8.6), as much for W_i's ortho_basis U_i and for X M's QR, and
    beta sqrt(m) (tau_rank + n K eps) as U_i is a block of the K columns A of
    the m members that span M, ||A||^2 <= m: an SVD of A drops singular values
    up to tau_rank ||A|| and errs by n K eps ||A||, and a span settled from
    A's leading columns (``core._leading_span``) leaves A within ||E||_F +
    2 slack < 2 tau_rank ||A|| / _SAFETY of it, less.  A unit x of the member
    is y + e, y in Q(+-), ||e|| <= delta <= 1, so sign [x, x] >= gamma -
    4 delta for the span's margin gamma (Cauchy interlacing), which must
    clear _SAFETY times the floor of an n-dimensional Gramian (``_settles``).
    """
    beta, space, eps = F._beta, F.space, 2.0**-52
    n, kappa = space.dim, max(w._cond for w in F.subspaces)
    spread = len(F) ** 0.5 * (space.tol.tau_rank + n * F._columns.shape[1] * eps)
    floor = _SAFETY * _def_floor(space, n) + 4.0 * beta * (3 * n * n * eps * kappa + spread)
    return all(M is None or (M.classify().sign == sign and M._margin > floor)
               for M, sign in zip(spans, (1, -1)))


def fusion_dual_bounds_check(F: WeightedFamily) -> FusionDualReport:
    """Reciprocal-bounds check for the dual family {(S^-1 W_i, v_i)}.

    The result is an empirical per-instance finding: the dual family is
    certified on its spans S^-1 M(+-) (``_dual``), and a certification
    failure is reported as a counterexample rather than raised.  Spans that
    settle the signs (``_signs_settle``) leave every member unclassified, and
    one whose rank beta settles (``Subspace._graph``'s rule) is the QR of S^-1 B_i.
    """
    cert = F._certificate
    if not cert.is_frame:
        raise NotAFrameError("fusion dual check requires a certified frame")
    original = cert.optimal_bounds
    expected = _reciprocal_expected(original)
    cuts = np.cumsum(F.block_dims)[:-1]

    def build(cols, spans):
        blocks = np.split(cols, cuts, axis=1)
        if F._beta is None or not _signs_settle(F, spans):
            return WeightedFamily(F.space, [Subspace(F.space, b) for b in blocks], F.weights)
        rank = _SAFETY * F.space.tol.tau_rank * F._beta
        members = [Subspace._orthonormal(F.space, np.linalg.qr(b)[0]) if rank * w._cond < 1.0
                   else Subspace(F.space, b) for w, b in zip(F.subspaces, blocks)]
        return WeightedFamily._with_signs(F.space, members, F.weights, F.signs)

    try:
        dual = _dual(F, np.hstack([w.basis for w in F.subspaces]), build)
        failure = "" if dual._certificate.is_frame else "dual family failed frame certification"
    except MemberClassificationError as exc:
        failure = f"dual member failed classification: {exc}"
    except RankError as exc:  # S^-1 B_i lost the rank of B_i
        failure = f"dual member failed its rank check: {exc}"
    if failure:
        return FusionDualReport(False, original, None, None, expected, None, False, failure)
    dual_bounds = dual._certificate.optimal_bounds
    over_original = _span_bounds(F, dual, _rayleigh_extremes)
    err = _bounds_rel_error(dual_bounds, expected)
    holds = err < F.space.tol.tau_num
    note = (
        "reciprocal relation verified on this instance"
        if holds
        else "reciprocal relation does not hold on this instance "
        "(empirical finding for the assumed dual construction)"
    )
    return FusionDualReport(
        True, original, dual_bounds, over_original, expected, err, holds, note
    )
