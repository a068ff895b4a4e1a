"""Weighted families of subspaces and J-fusion frame certification.

A weighted family {(W_i, v_i)} with every member uniformly definite splits
its index set into a positive and a negative part.  The family is a
J-fusion frame when the span of the positive members is maximal uniformly
positive and the span of the negative members is maximal uniformly
negative; certification computes both verdicts together with the optimal
frame bounds (from the singular values of each side's whitened synthesis
factor) and the singular-value based bound estimates.

A vector frame is the rank-one family of its vectors with weight 1: it
shares the family's representation and goes through every function here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    KreinSpace,
    Operator,
    Subspace,
    _rank,
    _smallest_nonzero,
    gramian,
    gramian_min_modulus,
)
from .errors import (
    MemberClassificationError,
    NotAFrameError,
    NotSurjectiveError,
    WeightError,
)

__all__ = [
    "WeightedFamily",
    "FrameBounds",
    "FrameCertificate",
    "ConverseReport",
    "coefficient_symmetry",
    "synthesis_operator",
    "synthesis_part",
    "analysis_operator",
    "frame_operator",
    "frame_operator_part",
    "definite_span",
    "certify",
    "optimal_bounds",
    "estimate_bounds",
    "bounds_sandwich_ok",
    "j_image_family",
    "converse_check",
]


class WeightedFamily:
    """A finite family {(W_i, v_i)} of uniformly definite weighted subspaces."""

    def __init__(self, space: KreinSpace, subspaces, weights):
        subspaces = list(subspaces)
        weights = [float(w) for w in weights]
        if not subspaces:
            raise WeightError("a weighted family needs at least one member")
        if len(weights) != len(subspaces):
            raise WeightError(
                f"{len(subspaces)} subspaces but {len(weights)} weights"
            )
        signs = []
        for i, (w, v) in enumerate(zip(subspaces, weights)):
            if not 0.0 < v < np.inf:  # "not" so that nan fails too
                raise WeightError(f"weight {i} is not positive and finite: {v}")
            if w.space is not space:
                raise MemberClassificationError(i, "member lives in a different space")
            cls = w.classify()
            if not cls.uniformly_definite:
                raise MemberClassificationError(
                    i, f"member classifies as {cls.kind.value}; "
                    "every member must be uniformly definite",
                )
            signs.append(cls.sign)
        self.subspaces = subspaces
        self.weights = weights
        self.block_dims = [w.dim for w in subspaces]
        self.total_dim = sum(self.block_dims)
        bases = np.hstack([w.ortho_basis for w in subspaces])
        columns = np.hstack([v * w.ortho_basis for w, v in zip(subspaces, weights)])
        _set_sides(self, space, signs, self.block_dims, columns, bases)

    def __len__(self):
        return len(self.subspaces)

    def members(self):
        return list(zip(self.subspaces, self.weights))

    def __repr__(self):
        return (
            f"WeightedFamily({len(self)} members, "
            f"|I+|={len(self.plus_indices)}, |I-|={len(self.minus_indices)})"
        )


def _set_sides(F, space: KreinSpace, signs, block_dims, columns, bases) -> None:
    """Give F the read-only synthesis columns T, their signs, each sign's
    member indices and the spans M(+-) of the unweighted columns ``bases``;
    member i has sign signs[i] and block_dims[i] columns."""
    F.space = space
    F.signs = signs
    F.plus_indices = [i for i, s in enumerate(signs) if s == 1]
    F.minus_indices = [i for i, s in enumerate(signs) if s == -1]
    F._column_signs = np.repeat(np.asarray(signs, dtype=float), block_dims)
    F._columns = columns
    F._columns.flags.writeable = False
    F.m_plus = _masked_span(space, bases, F._column_signs == 1)
    F.m_minus = _masked_span(space, bases, F._column_signs == -1)
    F._certificate = None


def _masked_span(space: KreinSpace, cols: np.ndarray, mask) -> Subspace | None:
    """Span of the columns ``mask`` selects; None when it selects none."""
    return Subspace.from_spanning(space, cols[:, mask]) if mask.any() else None


def coefficient_symmetry(F: WeightedFamily) -> np.ndarray:
    """Block-diagonal sign symmetry of the stacked coefficient space."""
    return np.diag(F._column_signs)


def synthesis_operator(F: WeightedFamily) -> np.ndarray:
    """n x K matrix whose i-th block is v_i times an orthonormal basis of W_i."""
    return F._columns.copy()


def synthesis_part(F: WeightedFamily, sign: int) -> np.ndarray:
    """Synthesis restricted to the blocks of one sign (other blocks zeroed)."""
    t = synthesis_operator(F)
    t[:, F._column_signs != sign] = 0.0
    return t


def analysis_operator(F: WeightedFamily) -> np.ndarray:
    """J2 T* J: the adjoint of the synthesis between [.,.]_J2 and [.,.]."""
    t = synthesis_operator(F)
    return coefficient_symmetry(F) @ t.conj().T @ F.space.J


def _signed_operator(space: KreinSpace, cols: np.ndarray, d) -> Operator:
    """T D T* J from synthesis columns T = ``cols`` and the diagonal d of D."""
    return Operator(space, (cols * d) @ (cols.conj().T @ space.J))


def frame_operator(F: WeightedFamily) -> Operator:
    """S = sum_i sigma_i v_i^2 pi_{W_i} J = T J2 T* J, from the synthesis T."""
    return _signed_operator(F.space, F._columns, F._column_signs)


def frame_operator_part(F: WeightedFamily, sign: int) -> Operator:
    """Unsigned partial sum over one side: sum_{I_sign} v_i^2 pi_{W_i} J.

    Both parts are J-positive operators; the frame operator is their
    difference S = S(+) - S(-).
    """
    return _signed_operator(F.space, _side_columns(F, sign), 1.0)


def definite_span(F: WeightedFamily, sign: int) -> Subspace | None:
    """M(sign): span of all members of one sign; None when that side is empty."""
    return F.m_plus if sign == 1 else F.m_minus


@dataclass(frozen=True)
class FrameBounds:
    """(B-, A-, A+, B+); a side is None when its index set is empty."""

    b_minus: float | None
    a_minus: float | None
    a_plus: float | None
    b_plus: float | None

    def as_tuple(self):
        return (self.b_minus, self.a_minus, self.a_plus, self.b_plus)

    def side(self, sign: int):
        """One side's bounds in ascending order: (A+, B+) for +1, (B-, A-) for -1."""
        return (self.a_plus, self.b_plus) if sign == 1 else (self.b_minus, self.a_minus)


@dataclass
class FrameCertificate:
    is_frame: bool
    positive_range_dim: int
    negative_range_dim: int
    positive_uniform: bool
    negative_uniform: bool
    positive_maximal: bool
    negative_maximal: bool
    optimal_bounds: FrameBounds | None = None
    estimate_bounds: FrameBounds | None = None
    witnesses: list = field(default_factory=list)


def _side_columns(F: WeightedFamily, sign: int) -> np.ndarray:
    """T_sign: the synthesis columns of the members of one sign."""
    return F._columns[:, F._column_signs == sign]


def _side_verdict(space: KreinSpace, M: Subspace | None, sign: int):
    """(dim, classification or None, maximal) of the side of one sign with span M.

    A side is maximal when its span is maximal uniformly definite of that
    sign, or when it is empty (M is None) and the canonical component of
    that sign is {0}.  This is the paper's condition, one side at a time:
    a family is a J-frame exactly when both of its sides are maximal.
    """
    if M is None:
        return 0, None, space.component(sign).shape[1] == 0
    cls = M.classify()
    return M.dim, cls, cls.maximal_definite and cls.sign == sign


def _rayleigh_extremes(space, M: Subspace, cols: np.ndarray, sign: int):
    """Extreme values of [S f, f] / [f, f] over a uniformly definite M.

    S = T T* J is the unsigned operator of one side's synthesis columns
    T = ``cols``.  With U = M.ortho_basis and f = U x, [S f, f] = x* a x and
    [f, f] = x* p x, where a = G G* with G = U* J T, and p = U* J U.  As M is
    uniformly definite of the given sign, L L* = sign * p is a Cholesky
    factorization, and the quotient's values are sign * s^2 over the
    singular values s of L^-1 G, zero-padded to dim M when T has fewer
    columns.  Taking them from the factor, not from L^-1 a L^-*, keeps the
    smallest bound accurate relative to itself.  Raises
    numpy.linalg.LinAlgError when sign * p is not positive definite.
    """
    u = M.ortho_basis
    uj = (space.J @ u).conj().T  # U* J, as J is Hermitian
    p = uj @ u
    chol = np.linalg.cholesky(sign * 0.5 * (p + p.conj().T))
    s2 = np.linalg.svd(np.linalg.solve(chol, uj @ cols), compute_uv=False) ** 2
    lo = float(s2[-1]) if s2.size == M.dim else 0.0
    return (sign * lo, sign * float(s2[0]))[::sign]  # ascending, as FrameBounds.side


def _estimate_extremes(space, M: Subspace, cols: np.ndarray, sign: int):
    """gamma(T)^2 gamma(G_M)^2 and ||T||^2 / gamma(G_M), signed, from one SVD of T."""
    s = np.linalg.svd(cols, compute_uv=False)
    gam_g = gramian_min_modulus(M)
    lo = _smallest_nonzero(s, space.tol) ** 2 * gam_g**2
    with np.errstate(over="ignore"):  # B overflows to inf for a large enough weight
        hi = s[0] ** 2 / gam_g
    return (sign * lo, sign * hi)[::sign]  # ascending, as FrameBounds.side


def _span_bounds(F, G, extremes) -> FrameBounds:
    """Bounds of G's synthesis columns over F's signed spans, a side at a time.

    ``extremes(space, M, cols, sign)`` gives a side's extremes in ascending
    order, as ``FrameBounds.side``; a side whose span M is None has none."""
    plus, minus = (
        (None, None) if m is None else extremes(F.space, m, _side_columns(G, sign), sign)
        for m, sign in ((F.m_plus, 1), (F.m_minus, -1))
    )
    return FrameBounds(*minus, *plus)


def _degenerate_witness(M: Subspace, want_sign: int):
    """A unit vector of M witnessing the classification failure."""
    eigval, eigvec = np.linalg.eigh(gramian(M))
    # worst offender: smallest eigenvalue for a positive side, largest for
    # a negative side
    j = 0 if want_sign == 1 else len(eigval) - 1
    w = M.ortho_basis @ eigvec[:, j]
    return w / np.linalg.norm(w)


def _decide(F: WeightedFamily) -> FrameCertificate:
    """The frame decision of F, made once and kept on it: the verdict, the
    witnesses and, for a frame, the optimal bounds (no estimate bounds)."""
    if F._certificate is not None:
        return F._certificate
    witnesses = []

    def side(sign):
        m, label = definite_span(F, sign), "+" if sign == 1 else "-"
        dim, cls, maximal = _side_verdict(F.space, m, sign)
        uniform = cls is None or cls.sign == sign
        if not uniform:
            witnesses.append(
                {
                    "side": label,
                    "reason": f"span classifies as {cls.kind.value}",
                    "vector": _degenerate_witness(m, sign),
                }
            )
        elif not maximal:
            witnesses.append(
                {
                    "side": label,
                    "reason": "dimension deficit",
                    "dim": dim,
                    "required": F.space.component(sign).shape[1],
                }
            )
        return dim, uniform, maximal

    pos_dim, pos_uniform, pos_maximal = side(1)
    neg_dim, neg_uniform, neg_maximal = side(-1)
    is_frame = pos_maximal and neg_maximal
    cert = FrameCertificate(
        is_frame=is_frame,
        positive_range_dim=pos_dim,
        negative_range_dim=neg_dim,
        positive_uniform=pos_uniform,
        negative_uniform=neg_uniform,
        positive_maximal=pos_maximal,
        negative_maximal=neg_maximal,
        witnesses=witnesses,
    )
    if is_frame:
        cert.optimal_bounds = _span_bounds(F, F, _rayleigh_extremes)
    F._certificate = cert
    return cert


def certify(F: WeightedFamily) -> FrameCertificate:
    """Decide the J-fusion frame property and fill bounds and witnesses: the
    kept decision of ``_decide``, plus a frame's estimate bounds."""
    cert = _decide(F)
    if cert.is_frame and cert.estimate_bounds is None:
        cert.estimate_bounds = _span_bounds(F, F, _estimate_extremes)
    return cert


def optimal_bounds(F: WeightedFamily) -> FrameBounds:
    cert = _decide(F)
    if not cert.is_frame:
        raise NotAFrameError("family is not a J-fusion frame; no optimal bounds")
    return cert.optimal_bounds


def estimate_bounds(F: WeightedFamily) -> FrameBounds:
    cert = certify(F)
    if not cert.is_frame:
        raise NotAFrameError("family is not a J-fusion frame; no bound estimates")
    return cert.estimate_bounds


def j_image_family(F: WeightedFamily) -> WeightedFamily:
    """The family {(J(W_i), v_i)}; a frame again, with identical bounds."""
    if not _decide(F).is_frame:
        raise NotAFrameError("J-image family is defined for frames only")
    images = [Subspace(F.space, F.space.J @ w.basis) for w in F.subspaces]
    return WeightedFamily(F.space, images, F.weights)


def bounds_sandwich_ok(
    optimal: FrameBounds, estimate: FrameBounds, rtol: float
) -> bool:
    """Estimate bounds must enclose the optimal ones on each present side."""

    def leq(x, y):
        slack = rtol * max(1.0, abs(x), abs(y))
        return x <= y + slack

    ok = True
    for sign in (1, -1):
        opt, est = optimal.side(sign), estimate.side(sign)
        a_opt, a_est = opt[::sign][0], est[::sign][0]  # A, the bound nearer zero
        if (a_opt is None) != (a_est is None):
            return False
        if a_opt is not None:
            ok = (ok and sign * a_est > 0 and leq(est[0], opt[0])
                  and leq(opt[0], opt[1]) and leq(opt[1], est[1]))
    return bool(ok)


@dataclass(frozen=True)
class ConverseReport:
    surjective: bool
    positive_regular: bool
    negative_regular: bool
    positive_constants: bool
    negative_constants: bool
    verdict: bool
    agrees_with_certify: bool


def converse_check(F: WeightedFamily) -> ConverseReport:
    """Frame test from the converse direction, on what ``certify`` factored.

    On its own it tests three things: that the synthesis operator is
    surjective, that each signed span is regular, and that the frame
    inequality admits constants of the correct sign on each side (positive
    Rayleigh extremes on the positive span, negative on the negative span).
    Surjectivity is read from the spans: when both sides are uniformly
    definite of their own sign they meet only in {0}, so the rank is
    dim M+ + dim M-; otherwise it is the rank of both spans' orthonormal
    bases side by side.  A certified frame's constants are its optimal
    bounds.  Whenever the verdict holds both sides are maximal, so
    ``agrees_with_certify`` holds by construction; it stays for the report.
    """
    tol = F.space.tol
    cert = _decide(F)
    if cert.positive_uniform and cert.negative_uniform:
        rank = cert.positive_range_dim + cert.negative_range_dim
    else:
        spans = [m.ortho_basis for m in (F.m_plus, F.m_minus) if m is not None]
        rank = _rank(np.linalg.svd(np.hstack(spans), compute_uv=False), tol)
    if rank < F.space.dim:
        raise NotSurjectiveError(
            f"synthesis operator has rank {rank} < {F.space.dim}"
        )
    bounds = cert.optimal_bounds

    def side_checks(sign):
        m = definite_span(F, sign)
        _, cls, maximal = _side_verdict(F.space, m, sign)
        if cls is None:
            return maximal, maximal
        if cls.sign != sign:
            # quotient changes sign or degenerates: no valid constants
            return cls.regular, False
        if bounds is None:  # a definite side of a non-frame
            extremes = _rayleigh_extremes(F.space, m, _side_columns(F, sign), sign)
        else:
            extremes = bounds.side(sign)
        inner, outer = extremes[::sign]  # (A, B): A is the bound nearer zero
        return cls.regular, sign * inner > tol.tau_def * max(1.0, abs(outer))

    pos_reg, pos_ok = side_checks(1)
    neg_reg, neg_ok = side_checks(-1)
    verdict = pos_reg and neg_reg and pos_ok and neg_ok
    return ConverseReport(
        surjective=True,
        positive_regular=pos_reg,
        negative_regular=neg_reg,
        positive_constants=pos_ok,
        negative_constants=neg_ok,
        verdict=verdict,
        agrees_with_certify=cert.is_frame if verdict else True,
    )
