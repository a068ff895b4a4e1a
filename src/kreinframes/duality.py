"""Vector J-frames, canonical J-dual frames and the dual-bound relations.

A vector J-frame is a finite family of non-neutral vectors whose positive
members span a maximal uniformly positive subspace and whose negative
members span a maximal uniformly negative one.  The frame operator
S f = sum_i sigma_i [f, f_i] f_i is then bijective and J-selfadjoint; the
canonical dual {S^-1 f_i} reconstructs every vector and has reciprocal
optimal bounds.  The functions of ``fusion`` take a vector frame unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KreinSpace, Operator, Subspace
from .errors import (
    DefinitenessTransportError,
    DimensionError,
    MemberClassificationError,
    NotAFrameError,
    SingularOperatorError,
)
from .fusion import (
    FrameBounds,
    WeightedFamily,
    _decide,
    _rayleigh_extremes,
    _set_sides,
    _signed_operator,
    _span_bounds,
    frame_operator,
    optimal_bounds,
)

__all__ = [
    "VectorFrame",
    "DualBoundsReport",
    "FusionDualReport",
    "partial_frame_operator",
    "is_j_frame",
    "vframe_optimal_bounds",
    "canonical_dual",
    "dual_bounds_check",
    "fundamental_identity_sides",
    "fundamental_identity_sides_batch",
    "fusion_dual_bounds_check",
    "as_weighted_family",
]


class VectorFrame:
    """A finite family of non-neutral vectors with signs from [f_i, f_i]."""

    def __init__(self, space: KreinSpace, vectors):
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
        vals = np.einsum("ij,ij->j", f.conj(), space.J @ f).real
        neutral = np.flatnonzero(np.abs(vals) <= space.tol.tau_def * nrm2)
        if neutral.size:  # the first offender; a zero vector is neutral too
            i = int(neutral[0])
            if scale[i] == 0.0:
                raise MemberClassificationError(i, "zero vector")
            raise MemberClassificationError(
                i, f"vector is neutral within tau_def ([f,f]/||f||^2 = {vals[i] / nrm2[i]:g})"
            )
        signs = [1 if v > 0 else -1 for v in vals]
        # the vectors are the synthesis columns and span the signed sides
        _set_sides(self, space, signs, 1, matrix, matrix)
        self.matrix = matrix
        self._s_inv = None  # S^-1, see _inverse_frame_operator

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


def partial_frame_operator(F: VectorFrame, subset) -> Operator:
    """S restricted to a member subset; S_I1 + S_I1c = S by construction."""
    mask = _member_mask(F, subset)
    return _signed_operator(F.space, F.matrix[:, mask], F._column_signs[mask])


def is_j_frame(F: VectorFrame) -> bool:
    """True when both signed spans are maximal uniformly definite (the kept decision)."""
    return _decide(F).is_frame


# the extreme values of sum_i sigma_i |[f, f_i]|^2 / [f, f] over each signed
# span; the name the benchmark probe (perfbench/worker.py) calls
vframe_optimal_bounds = optimal_bounds


def _nonsingular(factor, s: np.ndarray, space: KreinSpace, what: str, *rhs):
    """factor(s, *rhs) for an S with cond(S) <= 1/tau_def; else SingularOperatorError."""
    cond = np.linalg.cond(s)
    if not cond <= 1.0 / space.tol.tau_def:  # "not <=" so that nan fails too
        raise SingularOperatorError(
            f"{what} is numerically singular (cond = {cond:g})"
        )
    try:
        return factor(s, *rhs)
    except np.linalg.LinAlgError as exc:  # a zero pivot, past a tiny tau_def
        raise SingularOperatorError(f"{what} is exactly singular") from exc


def _inverse_frame_operator(F: VectorFrame) -> np.ndarray:
    # factored once per frame and kept on it: the frame's matrix is read-only
    if F._s_inv is None:
        s = frame_operator(F).matrix
        F._s_inv = _nonsingular(np.linalg.inv, s, F.space, "frame operator")
        F._s_inv.flags.writeable = False
    return F._s_inv


def canonical_dual(F: VectorFrame) -> VectorFrame:
    """The dual frame {S^-1 f_i}; member signs must transport unchanged."""
    if not is_j_frame(F):
        raise NotAFrameError("canonical dual is defined for J-frames only")
    duals = _inverse_frame_operator(F) @ F.matrix
    try:
        dual = VectorFrame(F.space, duals.T)
    except MemberClassificationError as exc:
        raise DefinitenessTransportError(
            f"inverse frame operator produced a neutral dual vector: {exc}"
        ) from exc
    if dual.signs != F.signs:
        raise DefinitenessTransportError(
            "inverse frame operator changed the sign pattern: "
            f"{F.signs} -> {dual.signs}"
        )
    return dual


@dataclass(frozen=True)
class DualBoundsReport:
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
    if not is_j_frame(F):
        raise NotAFrameError("the identity requires a J-frame")
    masks, fs = np.asarray(masks, dtype=bool), np.asarray(fs, dtype=complex)
    trials = masks.shape[0] if masks.ndim == 2 else -1
    if masks.shape != (trials, len(F)) or fs.shape != (F.space.dim, trials):
        raise DimensionError(
            f"masks {masks.shape} and vectors {fs.shape} do not fit {F!r}"
        )
    J, sigma = F.space.J, F._column_signs[:, None]
    c = F.matrix.conj().T @ (J @ fs)  # c[i, t] = [f_t, f_i]
    dual_coeffs = (_inverse_frame_operator(F) @ F.matrix).conj().T @ J
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


@dataclass(frozen=True)
class FusionDualReport:
    dual_is_frame: bool
    original: FrameBounds
    dual: FrameBounds | None
    dual_over_original_spans: FrameBounds | None
    expected: FrameBounds
    max_rel_error: float | None
    holds: bool
    note: str


def fusion_dual_bounds_check(F: WeightedFamily) -> FusionDualReport:
    """Reciprocal-bounds check for the dual family {(S^-1 W_i, v_i)}.

    The result is an empirical per-instance finding: the dual family is
    certified from scratch, and a certification failure is reported as a
    counterexample rather than raised.
    """
    cert = _decide(F)
    if not cert.is_frame:
        raise NotAFrameError("fusion dual check requires a certified frame")
    s = frame_operator(F).matrix
    original = cert.optimal_bounds
    expected = _reciprocal_expected(original)
    # one factorization of S for every member's basis
    bases = np.hstack([w.basis for w in F.subspaces])
    dual_bases = _nonsingular(np.linalg.solve, s, F.space, "fusion frame operator", bases)
    blocks = np.split(dual_bases, np.cumsum(F.block_dims)[:-1], axis=1)
    try:
        dual_subspaces = [Subspace(F.space, b) for b in blocks]
        dual_family = WeightedFamily(F.space, dual_subspaces, F.weights)
    except MemberClassificationError as exc:
        return FusionDualReport(
            False, original, None, None, expected, None, False,
            f"dual member failed classification: {exc}",
        )
    dual_cert = _decide(dual_family)
    if not dual_cert.is_frame:
        return FusionDualReport(
            False, original, None, None, expected, None, False,
            "dual family failed frame certification",
        )
    dual_bounds = dual_cert.optimal_bounds
    over_original = _span_bounds(F, dual_family, _rayleigh_extremes)
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


def as_weighted_family(F: VectorFrame) -> WeightedFamily:
    """One-dimensional family equivalent of a vector frame.

    Weights ||f_i|| make the weighted projection sums coincide with the
    vector-frame coefficient sums, so bounds and certification agree.
    """
    subspaces = [
        Subspace(F.space, F.matrix[:, i : i + 1]) for i in range(len(F))
    ]
    weights = [float(np.linalg.norm(F.matrix[:, i])) for i in range(len(F))]
    return WeightedFamily(F.space, subspaces, weights)
