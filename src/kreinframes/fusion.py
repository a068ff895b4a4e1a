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

from functools import cached_property

import numpy as np

from .core import (
    KreinSpace,
    Operator,
    Record,
    Subspace,
    _frozen,
    _rank,
    gramian,
)
from .errors import (
    MemberClassificationError,
    NotAFrameError,
    NotSurjectiveError,
    SingularOperatorError,
    WeightError,
)

__all__ = [
    "WeightedFamily",
    "FrameBounds",
    "FrameCertificate",
    "ConverseReport",
    "frame_operator",
    "certify",
    "optimal_bounds",
    "bounds_sandwich_ok",
    "j_image_family",
    "converse_check",
]


class _Sides:
    """Both family kinds: the read-only synthesis columns T, their signs, each
    sign's member indices and, through ``bases()``, the unweighted columns
    whose spans are M(+-); member i has sign signs[i] and block_dims[i]
    columns.  The signed spans, the frame decision and S^-1 are cached
    properties, so a dual can be given S^-1 M(+-)."""

    def __init__(self, space: KreinSpace, signs, block_dims, columns, bases):
        self.space = space
        self.signs = signs
        self.plus_indices = [i for i, s in enumerate(signs) if s == 1]
        self.minus_indices = [i for i, s in enumerate(signs) if s == -1]
        self._column_signs = np.repeat(np.asarray(signs, dtype=float), block_dims)
        self._columns = _frozen(columns)
        self._bases = bases

    _spans = cached_property(lambda F: _signed_spans(F.space, F._bases(), F._column_signs))
    _certificate = cached_property(lambda F: _decision(F))
    # S^-1 from ``_nonsingular``, made once: the columns are read-only; and
    # _beta >= cond_2(S), the bound that passed S there, if one did
    _s_inv = cached_property(
        lambda F: _frozen(_nonsingular(frame_operator(F).matrix, F.space, F._S_NAME, F))
    )
    _beta = None
    m_plus = property(lambda self: self._spans[0])
    m_minus = property(lambda self: self._spans[1])
    # the spans' orthonormal bases U(+-), as the duals take them
    _span_bases = property(lambda self: [m.ortho_basis for m in self._spans if m is not None])


class _Span(Subspace):
    """A signed span: it keeps U* J, which its Gramian reads, and L, the
    Cholesky factor of its Gramian times its sign; Rayleigh quotients read both."""

    _uj = cached_property(Subspace._uj.fget)
    _chol = cached_property(lambda M: np.linalg.cholesky(M.classify().sign * gramian(M)))


class WeightedFamily(_Sides):
    """A finite family {(W_i, v_i)} of uniformly definite weighted subspaces."""

    _S_NAME = "fusion frame operator"  # as SingularOperatorError names S

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
            if v < 2.0**-511:  # S holds v^2, which is then subnormal
                raise WeightError(f"weight {i} underflows: its square is subnormal: {v}")
            if w.space is not space:
                raise MemberClassificationError(i, "member lives in a different space")
            cls = w.classify()
            if not cls.uniformly_definite:
                raise MemberClassificationError(
                    i, f"member classifies as {cls.kind.value}; "
                    "every member must be uniformly definite",
                )
            signs.append(cls.sign)
        self._assemble(space, subspaces, weights, signs)

    @classmethod
    def _with_signs(cls, space: KreinSpace, subspaces, weights, signs) -> "WeightedFamily":
        """A family of known signs and checked weights (a dual's): no check."""
        return cls.__new__(cls)._assemble(space, subspaces, list(weights), list(signs))

    def _assemble(self, space, subspaces, weights, signs):
        self.subspaces = subspaces
        self.weights = weights
        self.block_dims = [w.dim for w in subspaces]
        columns = np.hstack([v * w.ortho_basis for w, v in zip(subspaces, weights)])
        bases = lambda: np.hstack([w.ortho_basis for w in subspaces])
        super().__init__(space, signs, self.block_dims, columns, bases)
        return self

    def __len__(self):
        return len(self.subspaces)

    def members(self):
        return list(zip(self.subspaces, self.weights))

    def __repr__(self):
        return (
            f"WeightedFamily({len(self)} members, "
            f"|I+|={len(self.plus_indices)}, |I-|={len(self.minus_indices)})"
        )


def _signed_spans(space: KreinSpace, cols: np.ndarray, signs: np.ndarray) -> tuple:
    """(M+, M-), the spans of the columns of each sign; None for a sign no column has.

    Each side is first settled from its leading columns, up to the dimension
    of its sign's canonical component (``core._leading_span``): a uniformly
    definite span has no more.  A side that does not settle, a deficit or an
    indefinite side among them, takes the SVD of all its columns."""
    return tuple(
        _Span.from_spanning(space, cols[:, m], _most=c) if m.any() else None
        for m, c in zip((signs == 1, signs == -1), space.signature)
    )


def frame_operator(F: WeightedFamily) -> Operator:
    """S = sum_i sigma_i v_i^2 pi_{W_i} J = T J2 T* J, from the synthesis T."""
    cols = F._columns
    return Operator(F.space, (cols * F._column_signs) @ F.space._xj(cols.conj().T))


def _cond_bound(s: np.ndarray, x: np.ndarray) -> float:
    """beta >= cond_2(S) from a computed inverse X of S, or inf.

    With R = SX - I, S^-1 = X (I + R)^-1, so whenever rho >= ||R||_F is
    below 1, cond_2(S) <= ||S||_F ||X||_F / (1 - rho) (Higham, ASNA, ch. 14).
    rho adds to the computed ||SX - I||_F a bound on the rounding of the
    product (ch. 3), and beta a margin for the rounding of the norms.  An
    inf or nan entry, or rho >= 1, gives inf.
    """
    slack = 4 * (len(s) + 2) * np.finfo(float).eps
    with np.errstate(all="ignore"):
        scale = np.linalg.norm(s) * np.linalg.norm(x)
        rho = np.linalg.norm(s @ x - np.eye(len(s))) + slack * scale
        return scale * (1.0 + slack) / (1.0 - rho) if rho < 1.0 else np.inf


def _nonsingular(s: np.ndarray, space: KreinSpace, what: str, owner=None) -> np.ndarray:
    """S^-1 for an S with cond(S) <= 1/tau_def; else SingularOperatorError.

    The one LU inverse X passes S without an SVD when beta = ``_cond_bound(S,
    X)`` is at most 1/tau_def, and ``owner`` (S's frame or family), if given,
    keeps beta as ``_beta``.  Otherwise, or on a zero pivot, the exact cond(S)
    decides, and a zero pivot that passes it is "exactly singular"."""
    limit = 1.0 / space.tol.tau_def
    try:
        x = np.linalg.inv(s)
    except np.linalg.LinAlgError:  # a zero pivot
        x = None
    beta = np.inf if x is None else _cond_bound(s, x)
    if beta <= limit:
        if owner is not None:
            owner._beta = beta
        return x
    try:
        cond = np.linalg.cond(s)
    except np.linalg.LinAlgError:  # the SVD of a nan entry may not converge
        cond = np.nan
    if not cond <= limit:  # "not <=" so that nan fails too
        raise SingularOperatorError(f"{what} is numerically singular (cond = {cond:g})")
    if x is None:  # past a tiny tau_def
        raise SingularOperatorError(f"{what} is exactly singular")
    return x


class FrameBounds(Record):
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


class FrameCertificate(Record):
    is_frame: bool
    positive_range_dim: int
    negative_range_dim: int
    positive_uniform: bool
    negative_uniform: bool
    positive_maximal: bool
    negative_maximal: bool
    optimal_bounds: FrameBounds | None = None
    estimate_bounds: FrameBounds | None = None
    witnesses: list = []


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
        return 0, None, space.signature[0 if sign == 1 else 1] == 0
    cls = M.classify()
    return M.dim, cls, cls.maximal_definite and cls.sign == sign


def _rayleigh_extremes(M: Subspace, cols: np.ndarray, sign: int):
    """Extreme values of [S f, f] / [f, f] over a uniformly definite M.

    S = T T* J is the unsigned operator of one side's synthesis columns
    T = ``cols``.  With U = M.ortho_basis and f = U x, [S f, f] = x* a x and
    [f, f] = x* p x, where a = G G* with G = U* J T, and p = U* J U.  As M is
    uniformly definite of the given sign, its classified sign, L L* = sign * p
    is a Cholesky factorization, and the quotient's values are sign * s^2 over the
    singular values s of L^-1 G, zero-padded to dim M when T has fewer
    columns.  Taking them from the factor, not from L^-1 a L^-*, keeps the
    smallest bound accurate relative to itself.  Raises
    numpy.linalg.LinAlgError when sign * p is not positive definite.  U* J
    and L are the ones the span M keeps (``_Span``): the dual checks read F's
    spans again, with the dual's columns.
    """
    s2 = np.linalg.svd(np.linalg.solve(M._chol, M._uj @ cols), compute_uv=False) ** 2
    lo = float(s2[-1]) if s2.size == M.dim else 0.0
    return (sign * lo, sign * float(s2[0]))[::sign]  # ascending, as FrameBounds.side


def _estimate_extremes(M: Subspace, cols: np.ndarray, sign: int):
    """gamma(T)^2 gamma(G_M)^2 and ||T||^2 / gamma(G_M), signed, from one SVD
    of U* T, U = M.ortho_basis: T = ``cols`` lies in M, so T = U (U* T), and
    as T spans M, gamma(T) is the (dim M)-th singular value of U* T; gamma(G_M)
    is the Gramian margin ``classify`` keeps on the definite M."""
    s = np.linalg.svd(M.ortho_basis.conj().T @ cols, compute_uv=False)
    gam_g = M._gram_margin()
    with np.errstate(over="ignore"):  # a bound overflows to inf for a large enough weight
        lo = s[M.dim - 1] ** 2 * gam_g**2
        hi = s[0] ** 2 / gam_g
    return (sign * lo, sign * hi)[::sign]  # ascending, as FrameBounds.side


def _span_bounds(F, G, extremes) -> FrameBounds:
    """Bounds of G's synthesis columns over F's signed spans, a side at a time.

    ``extremes(M, cols, sign)`` gives a side's extremes in ascending
    order, as ``FrameBounds.side``; a side whose span M is None has none."""
    plus, minus = (
        (None, None) if m is None else extremes(m, _side_columns(G, sign), sign)
        for m, sign in ((F.m_plus, 1), (F.m_minus, -1))
    )
    return FrameBounds(*minus, *plus)


def _degenerate_witness(M: Subspace, want_sign: int):
    """A unit vector of M witnessing the classification failure, with its
    first entry of largest modulus real and positive: then the witness does
    not depend on which orthonormal basis M has."""
    eigval, eigvec = np.linalg.eigh(gramian(M))
    # worst offender: smallest eigenvalue for a positive side, largest for
    # a negative side
    j = 0 if want_sign == 1 else len(eigval) - 1
    w = M.ortho_basis @ eigvec[:, j]
    top = w[np.argmax(np.abs(w))]
    return w * (top.conjugate() / abs(top)) / np.linalg.norm(w)


def _decision(F: WeightedFamily) -> FrameCertificate:
    """The frame decision of F, made afresh; read it as ``F._certificate``."""
    witnesses = []

    def side(sign):
        m, label = F._spans[sign < 0], "+" if sign == 1 else "-"
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
                    "required": F.space.signature[0 if sign == 1 else 1],
                }
            )
        return dim, uniform, maximal

    pos_dim, pos_uniform, pos_maximal = side(1)
    neg_dim, neg_uniform, neg_maximal = side(-1)
    is_frame = pos_maximal and neg_maximal
    return FrameCertificate(
        is_frame, pos_dim, neg_dim, pos_uniform, neg_uniform, pos_maximal, neg_maximal,
        optimal_bounds=_span_bounds(F, F, _rayleigh_extremes) if is_frame else None,
        witnesses=witnesses,
    )


def certify(F: WeightedFamily) -> FrameCertificate:
    """The kept decision ``F._certificate`` (verdict, witnesses, optimal bounds), with
    a frame's estimate bounds written into it once, past its read-only guard."""
    cert = F._certificate
    if cert.is_frame and cert.estimate_bounds is None:
        vars(cert)["estimate_bounds"] = _span_bounds(F, F, _estimate_extremes)
    return cert


def optimal_bounds(F: WeightedFamily) -> FrameBounds:
    cert = F._certificate
    if not cert.is_frame:
        raise NotAFrameError("family is not a J-fusion frame; no optimal bounds")
    return cert.optimal_bounds


def j_image_family(F: WeightedFamily) -> WeightedFamily:
    """The family {(J(W_i), v_i)}; a frame again, with identical bounds."""
    if not F._certificate.is_frame:
        raise NotAFrameError("J-image family is defined for frames only")
    images = [Subspace(F.space, F.space._jx(w.basis)) for w in F.subspaces]
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


class ConverseReport(Record):
    surjective: bool
    positive_regular: bool
    negative_regular: bool
    positive_constants: bool
    negative_constants: bool
    verdict: bool
    agrees_with_certify: bool


def _sum_dim(space: KreinSpace, m_plus: Subspace | None, m_minus: Subspace | None) -> int:
    """dim(M+ + M-) for a positive and a negative span, either None: the sum of
    their dimensions when each is uniformly definite of its sign, as they then
    meet only in {0}, else the rank of their orthonormal bases side by side."""
    spans = [(m, sign) for m, sign in ((m_plus, 1), (m_minus, -1)) if m is not None]
    if all(m.classify().sign == sign for m, sign in spans):
        return sum(m.dim for m, _ in spans)
    stacked = np.hstack([m.ortho_basis for m, _ in spans])
    return _rank(np.linalg.svd(stacked, compute_uv=False), space.tol)


def converse_check(F: WeightedFamily) -> ConverseReport:
    """Frame test from the converse direction, on what ``certify`` factored.

    On its own it tests three things: that the synthesis operator is
    surjective, that each signed span is regular, and that the frame
    inequality admits constants of the correct sign on each side (positive
    Rayleigh extremes on the positive span, negative on the negative span).
    Surjectivity is read from the spans: the synthesis rank is dim(M+ + M-)
    (``_sum_dim``).  A certified frame's constants are its optimal bounds.
    Whenever the verdict holds both sides are maximal, so
    ``agrees_with_certify`` holds by construction; it stays for the report.
    """
    cert = F._certificate
    rank = _sum_dim(F.space, F.m_plus, F.m_minus)
    if rank < F.space.dim:
        raise NotSurjectiveError(
            f"synthesis operator has rank {rank} < {F.space.dim}"
        )
    bounds = cert.optimal_bounds

    def side_checks(sign):
        m = F._spans[sign < 0]
        _, cls, maximal = _side_verdict(F.space, m, sign)
        if cls is None:
            return maximal, maximal
        if cls.sign != sign:
            # quotient changes sign or degenerates: no valid constants
            return cls.regular, False
        if bounds is None:  # a definite side of a non-frame
            extremes = _rayleigh_extremes(m, _side_columns(F, sign), sign)
        else:
            extremes = bounds.side(sign)
        inner, outer = extremes[::sign]  # (A, B): A is the bound nearer zero
        return cls.regular, sign * inner > F.space.tol.tau_def * max(1.0, abs(outer))

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
