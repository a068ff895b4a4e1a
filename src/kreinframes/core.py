"""Krein-space primitives.

A finite-dimensional Krein space is a complex coordinate space equipped with
a fundamental symmetry ``J`` (Hermitian involution).  The indefinite inner
product is ``[x, y] = <Jx, y>`` where ``<.,.>`` is the standard Hermitian
product, linear in the first argument and conjugate-linear in the second.

This module provides the space and subspace types, subspace classification
by definiteness, orthogonal and J-orthogonal projections, compressed
Gramians, the reduced minimum modulus, and angular (graph) operators of
definite subspaces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassificationError,
    DegenerateSubspaceError,
    DimensionError,
    RankError,
    ValidationError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "KreinSpace",
    "Subspace",
    "SubspaceKind",
    "Classification",
    "Operator",
    "AngularOperator",
    "indefinite_product",
    "j_adjoint",
    "classify",
    "orthogonal_projection",
    "j_projection",
    "gramian",
    "gramian_min_modulus",
    "reduced_min_modulus",
    "angular_operator",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical decision thresholds.

    tau_sym   structural identities required of inputs (J Hermitian, J^2 = I)
    tau_rank  rank decisions, relative to the largest singular value
    tau_def   definiteness / regularity decisions on Gramian eigenvalues
    tau_num   relative residual allowed for computed identities
    """

    tau_sym: float = 1e-10
    tau_rank: float = 1e-10
    tau_def: float = 1e-8
    tau_num: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()

_SAFETY = 4.0  # how far a bound must clear a threshold to settle a decision


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


class KreinSpace:
    """Complex coordinate space with a fundamental symmetry.

    The symmetry may be any Hermitian involution, not necessarily diagonal;
    the canonical positive/negative components are obtained from its
    eigendecomposition and exposed as ``plus_basis`` / ``minus_basis``, or
    by sign as ``component(sign)``.
    """

    def __init__(self, J, tol: Tolerances = DEFAULT_TOLERANCES):
        J = _as_matrix(J)
        n = J.shape[0]
        if J.shape != (n, n):
            raise DimensionError(f"J must be square, got shape {J.shape}")
        # "not <=" so that an overflow to inf or nan fails the checks too,
        # without numpy's warning about it
        with np.errstate(over="ignore", invalid="ignore"):
            asym = np.linalg.norm(J - J.conj().T)
            if not asym <= tol.tau_sym * max(1.0, np.linalg.norm(J)):
                raise ValidationError("J is not Hermitian: ||J - J*|| = %g" % asym)
            res = np.linalg.norm(J @ J - np.eye(n))
            if not res <= tol.tau_sym * n:
                raise ValidationError("J is not involutive: ||J^2 - I|| = %g" % res)
        eigval, eigvec = np.linalg.eigh(J)
        p = int(np.count_nonzero(eigval > 0))
        q = n - p
        self.J = J
        self.J.flags.writeable = False
        self.dim = n
        self.signature = (p, q)
        self.tol = tol
        # eigh returns ascending eigenvalues: negatives first
        self.minus_basis = eigvec[:, :q].copy()
        self.plus_basis = eigvec[:, q:].copy()
        self.minus_basis.flags.writeable = False
        self.plus_basis.flags.writeable = False

    @classmethod
    def from_signs(cls, signs, tol: Tolerances = DEFAULT_TOLERANCES) -> "KreinSpace":
        """Space with a diagonal symmetry built from a +-1 sign pattern."""
        return cls(np.diag(np.asarray(signs, dtype=float)), tol=tol)

    def component(self, sign: int) -> np.ndarray:
        """Orthonormal basis of the canonical component of one sign (+1 or -1)."""
        return self.plus_basis if sign == 1 else self.minus_basis

    def check_vector(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=complex)
        if v.shape != (self.dim,):
            raise DimensionError(
                f"vector of shape {v.shape} does not live in C^{self.dim}"
            )
        return v

    def __repr__(self):
        return f"KreinSpace(dim={self.dim}, signature={self.signature})"


def indefinite_product(space: KreinSpace, x, y) -> complex:
    """[x, y] = <Jx, y>, linear in x and conjugate-linear in y."""
    x = space.check_vector(x)
    y = space.check_vector(y)
    return complex(np.vdot(y, space.J @ x))


class SubspaceKind(enum.Enum):
    UNIFORMLY_POSITIVE = "uniformly_positive"
    POSITIVE_NON_UNIFORM = "positive_non_uniform"
    NEUTRAL = "neutral"
    NEGATIVE_NON_UNIFORM = "negative_non_uniform"
    UNIFORMLY_NEGATIVE = "uniformly_negative"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class Classification:
    kind: SubspaceKind
    regular: bool
    maximal_definite: bool
    extremal_gram_eigen: tuple[float, float]

    @property
    def uniformly_definite(self) -> bool:
        return self.kind in (
            SubspaceKind.UNIFORMLY_POSITIVE,
            SubspaceKind.UNIFORMLY_NEGATIVE,
        )

    @property
    def sign(self) -> int:
        """+1 / -1 for uniformly definite subspaces, 0 otherwise."""
        if self.kind is SubspaceKind.UNIFORMLY_POSITIVE:
            return 1
        if self.kind is SubspaceKind.UNIFORMLY_NEGATIVE:
            return -1
        return 0


class Subspace:
    """A subspace given by a full-column-rank basis matrix.

    ``ortho_basis`` caches an orthonormal basis of the same column space
    (left singular vectors of the basis matrix).
    """

    def __init__(self, space: KreinSpace, basis):
        basis = _as_matrix(basis)
        if basis.shape[0] != space.dim or basis.shape[1] < 1:
            raise DimensionError(
                f"basis of shape {basis.shape} does not fit C^{space.dim}"
            )
        u, s, _ = np.linalg.svd(basis, full_matrices=False)
        if _rank(s, space.tol) < basis.shape[1]:  # more columns than dim are dependent
            raise RankError(
                "basis matrix is rank deficient (singular values %s)" % s
            )
        self._set(space, basis, u.copy(), float(s[0]) / float(s[-1]))

    def _set(self, space: KreinSpace, basis: np.ndarray, ortho_basis, cond: float):
        self.space = space
        self._basis = basis  # or a function that builds it on first read (_graph)
        self._ortho = ortho_basis  # None until ortho_basis is first read
        for m in (basis, ortho_basis):
            if isinstance(m, np.ndarray):
                m.flags.writeable = False
        # kappa(basis), and the smallest |Gramian eigenvalue| once classified;
        # _graph sets bounds on both instead
        self._cond, self._margin = cond, None
        self._classification: Classification | None = None

    @classmethod
    def from_spanning(cls, space: KreinSpace, vectors) -> "Subspace | None":
        """Subspace spanned by possibly dependent columns; None for the zero span."""
        u, s, _ = np.linalg.svd(_as_matrix(vectors), full_matrices=False)
        r = _rank(s, space.tol)
        if r == 0:
            return None
        W, u = cls.__new__(cls), u[:, :r].copy()
        W._set(space, u, u, 1.0)
        return W

    @classmethod
    def _graph(cls, space: KreinSpace, basis, cond: float, margin: float) -> "Subspace":
        """Subspace(space, basis()) for ``basis``, a function that builds the basis
        of a graph of an angular operator (or of its restriction), given an
        upper bound ``cond`` on kappa(basis()) and a lower bound ``margin`` on
        the smallest |Gramian eigenvalue|.

        While the first bound settles the rank, basis() waits until ``basis``
        is read, and the SVD and the classification until ``ortho_basis`` or
        ``classify`` is.
        """
        if _SAFETY * space.tol.tau_rank * cond < 1.0:
            W = cls.__new__(cls)
            W._set(space, basis, None, cond)
        else:
            W = cls(space, basis())
        W._margin = margin
        return W

    @property
    def basis(self) -> np.ndarray:
        if callable(self._basis):
            self._basis = self._basis()
            self._basis.flags.writeable = False
        return self._basis

    @property
    def ortho_basis(self) -> np.ndarray:
        if self._ortho is None:
            u = np.linalg.svd(self.basis, full_matrices=False)[0].copy()
            u.flags.writeable = False
            self._ortho = u
        return self._ortho

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def classify(self) -> Classification:
        if self._classification is None:
            self._classification, self._margin = _classify(self)
        return self._classification

    def _gram_margin(self) -> float:
        """The smallest |Gramian eigenvalue|, or a lower bound (see _graph)."""
        if self._margin is None:
            self.classify()
        return self._margin

    def contains(self, x) -> bool:
        """Whether x lies in W within relative residual tau_num."""
        v = self.space.check_vector(x)
        res = v - self.ortho_basis @ (self.ortho_basis.conj().T @ v)
        return np.linalg.norm(res) <= self.space.tol.tau_num * max(1.0, np.linalg.norm(v))

    def __repr__(self):
        return f"Subspace(dim={self.dim} in C^{self.space.dim})"


def classify(W: Subspace) -> Classification:
    """Definiteness class of a subspace from its compressed Gramian U*JU."""
    return W.classify()


def _classify(W: Subspace) -> tuple[Classification, float]:
    """classify(W) and the smallest |eigenvalue| of its Gramian."""
    tol = W.space.tol
    g = gramian(W)
    eigs = np.linalg.eigvalsh(g)
    lo, hi = float(eigs[0]), float(eigs[-1])
    has_pos = hi > tol.tau_def
    has_neg = lo < -tol.tau_def
    near_zero = np.abs(eigs) <= tol.tau_def
    if has_pos and has_neg:
        kind = SubspaceKind.INDEFINITE
    elif has_pos:
        kind = (
            SubspaceKind.POSITIVE_NON_UNIFORM
            if near_zero.any()
            else SubspaceKind.UNIFORMLY_POSITIVE
        )
    elif has_neg:
        kind = (
            SubspaceKind.NEGATIVE_NON_UNIFORM
            if near_zero.any()
            else SubspaceKind.UNIFORMLY_NEGATIVE
        )
    else:
        kind = SubspaceKind.NEUTRAL
    margin = float(np.abs(eigs).min())
    regular = margin > tol.tau_def
    p, q = W.space.signature
    if kind is SubspaceKind.UNIFORMLY_POSITIVE:
        maximal = W.dim == p
    elif kind is SubspaceKind.UNIFORMLY_NEGATIVE:
        maximal = W.dim == q
    else:
        maximal = False
    return Classification(kind, regular, maximal, (lo, hi)), margin


@dataclass(frozen=True)
class Operator:
    """A linear operator on a Krein space, stored as its matrix."""

    space: KreinSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        n = self.space.dim
        if m.shape != (n, n):
            raise DimensionError(f"operator of shape {m.shape} does not act on C^{n}")
        object.__setattr__(self, "matrix", m)

    def __call__(self, x) -> np.ndarray:
        return self.matrix @ self.space.check_vector(x)

    def j_adjoint(self) -> "Operator":
        return j_adjoint(self)


def j_adjoint(T: Operator) -> Operator:
    """T# = J T* J, the adjoint with respect to [.,.]."""
    J = T.space.J
    return Operator(T.space, J @ T.matrix.conj().T @ J)


def orthogonal_projection(W: Subspace) -> Operator:
    """Euclidean-orthogonal projection onto W."""
    u = W.ortho_basis
    return Operator(W.space, u @ u.conj().T)


def j_projection(W: Subspace) -> Operator:
    """J-orthogonal projection Q_W = B (B*JB)^-1 B* J onto a regular W.

    Raises DegenerateSubspaceError when W is not regular; the J-projection
    exists exactly for regular (projectively complete) subspaces.
    """
    if not W.classify().regular:
        raise DegenerateSubspaceError(
            "subspace is degenerate (Gramian eigenvalue within tau_def of 0); "
            "no J-orthogonal projection exists"
        )
    u = W.ortho_basis
    J = W.space.J
    g = u.conj().T @ J @ u
    q = u @ np.linalg.solve(g, u.conj().T @ J)
    return Operator(W.space, q)


def gramian(W: Subspace) -> np.ndarray:
    """Compressed Gramian U*JU of W in its orthonormal-basis coordinates."""
    u = W.ortho_basis
    g = u.conj().T @ W.space.J @ u
    return 0.5 * (g + g.conj().T)


def gramian_min_modulus(W: Subspace) -> float:
    """gamma(G_W): smallest nonzero singular value of the compressed Gramian."""
    return reduced_min_modulus(gramian(W), tol=W.space.tol)


def reduced_min_modulus(T, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Smallest nonzero singular value of T; 0.0 for the zero operator.

    Singular values at or below tau_rank (relative to the largest) count as
    zero.  Equals inf of ||Tx|| over unit x orthogonal to the null space.
    """
    if isinstance(T, Operator):
        T = T.matrix
    return _smallest_nonzero(np.linalg.svd(_as_matrix(T), compute_uv=False), tol)


def _rank(s: np.ndarray, tol: Tolerances) -> int:
    """Numerical rank: the count of descending singular values s above tau_rank * s[0]."""
    return int(np.count_nonzero(s > tol.tau_rank * s[0])) if s.size and s[0] > 0.0 else 0


def _smallest_nonzero(s: np.ndarray, tol: Tolerances) -> float:
    """Smallest of the descending singular values s above tau_rank * s[0], or 0.0."""
    r = _rank(s, tol)
    return float(s[r - 1]) if r else 0.0


@dataclass(frozen=True)
class AngularOperator:
    """Graph representation of a definite subspace over a canonical component.

    For a positive M, every x in M decomposes as x = x+ + K x+ with x+ in
    the canonical positive component; ``matrix`` holds K in the coordinates
    of the canonical eigenbases.  ``full_domain`` is True when the domain of
    K is the whole canonical component (equivalently, M is maximal).

    For a maximal M of sign sigma, with s the singular values of K
    zero-padded to dim M, sigma * G_M has spectrum (1 - s^2) / (1 + s^2);
    hence ``norm`` obeys ||K||^2 = (1 - gamma) / (1 + gamma) with
    gamma = ``gramian_min_modulus(M)``.
    """

    matrix: np.ndarray
    norm: float
    full_domain: bool


def angular_operator(M: Subspace, sign: int) -> AngularOperator:
    """Angular operator of a uniformly definite subspace.

    ``sign`` selects the reference component: +1 represents M as a graph
    over the canonical positive component, -1 over the negative one.  The
    subspace must be uniformly definite with that sign.

    When M is maximal, ||K||^2 = (1 - gamma) / (1 + gamma) with
    gamma = gramian_min_modulus(M); ``AngularOperator`` gives the spectrum
    identity behind it.
    """
    cls = M.classify()
    if sign not in (1, -1):
        raise ClassificationError("sign must be +1 or -1")
    if cls.sign != sign:
        raise ClassificationError(
            f"subspace classifies as {cls.kind.value}; "
            f"angular operator with sign {sign:+d} requires uniform definiteness "
            "of the same sign"
        )
    space = M.space
    dom, codom = space.component(sign), space.component(-sign)
    b = M.ortho_basis
    bd = dom.conj().T @ b  # domain components, injective on a definite M
    bc = codom.conj().T @ b
    k = bc @ np.linalg.pinv(bd, rcond=space.tol.tau_rank)
    norm = float(np.linalg.svd(k, compute_uv=False)[0]) if k.size else 0.0
    full = M.dim == dom.shape[1]
    return AngularOperator(k, norm, full)
