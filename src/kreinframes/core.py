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
import sys
from functools import cached_property

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
    "orthogonal_projection",
    "j_projection",
    "gramian",
    "reduced_min_modulus",
    "angular_operator",
]


class Record:
    """A read-only value record: its fields are its class's annotations, in
    order (``_fields``), and a class value is a field's default, copied per
    instance when it is a list or a dict.  It is built by position or keyword,
    equals a record of its own type with equal fields, hashes by its fields,
    and ``vars()`` gives exactly its fields, in order."""

    _fields, _defaults = (), {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs):
        state, name = self.__dict__, type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} fields")
        state.update(zip(self._fields, args))
        for f in self._fields[len(args):]:
            if f in kwargs:
                state[f] = kwargs.pop(f)
            elif f in self._defaults:
                d = self._defaults[f]
                state[f] = d.copy() if isinstance(d, (list, dict)) else d
            else:
                raise TypeError(f"{name}() missing field {f!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected or repeated field {[*kwargs][0]!r}")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        inner = ", ".join(f"{f}={v!r}" for f, v in vars(self).items())
        return f"{type(self).__qualname__}({inner})"


class Tolerances(Record):
    """Numerical decision thresholds.

    tau_sym   structural identities required of inputs (J Hermitian, J^2 = I)
    tau_rank  rank decisions, relative to the largest singular value
    tau_def   definiteness / regularity decisions on Gramian eigenvalues
              (never below their rounding level, see _def_floor)
    tau_num   relative residual allowed for computed identities
    """

    tau_sym: float = 1e-10
    tau_rank: float = 1e-10
    tau_def: float = 1e-8
    tau_num: float = 1e-9

    def __init__(self, *args, **kwargs):
        """Each given value, in the order given, must be a positive finite
        number, below 1 for tau_rank and tau_def; it is kept as a float."""
        super().__init__(*args, **kwargs)
        state = self.__dict__
        for name in (*self._fields[: len(args)], *kwargs):
            value = state[name]
            # "<= max" so that a nan, an infinity and an integer beyond float64 fail too
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0 < value <= sys.float_info.max):
                raise ValidationError(f"{name}: expected a positive number")
            # at 1 or more every basis is rank deficient (tau_rank), or every
            # subspace neutral, as orthonormal Gramians lie in [-1, 1] (tau_def)
            if name in ("tau_rank", "tau_def") and value >= 1:
                raise ValidationError(f"{name}: expected a positive number below 1")
            state[name] = float(value)


DEFAULT_TOLERANCES = Tolerances()

_SAFETY = 4.0  # how far a bound must clear a threshold to settle a decision


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


class KreinSpace:
    """Complex coordinate space with a fundamental symmetry.

    The symmetry may be any Hermitian involution, not necessarily diagonal.
    eigh reads the Hermitian H of J's lower triangle, ||H - J||_F <= a =
    ||J - J*||_F, so ||H^2 - I||_2 <= e = ||J^2 - I||_F + (2 ||J||_F + a) a
    and each eigenvalue of H is within e of +-1: when n e < 1, the
    signature's p is round((n + Re tr J) / 2) exactly, else (a loose tau_sym)
    eigvalsh counts it.  The canonical components, from H's eigh, wait until
    ``plus_basis``, ``minus_basis`` or ``component(sign)`` is read.  Every
    product with J is ``_jx`` (J x) or ``_xj`` (x J), for a J with no nonzero
    off-diagonal entry a scaling by its diagonal: the dense product's entries
    have one nonzero term, so it equals them but for the sign of a zero.
    """

    def __init__(self, J, tol: Tolerances = DEFAULT_TOLERANCES):
        J = _as_matrix(J)
        n = J.shape[0]
        if J.shape != (n, n):
            raise DimensionError(f"J must be square, got shape {J.shape}")
        # "not <=" so that an overflow to inf or nan fails the checks too,
        # without numpy's warning about it
        with np.errstate(over="ignore", invalid="ignore"):
            asym, norm = np.linalg.norm(J - J.conj().T), np.linalg.norm(J)
            if not asym <= tol.tau_sym * max(1.0, norm):
                raise ValidationError("J is not Hermitian: ||J - J*|| = %g" % asym)
            self.J, diag = J, J.diagonal()
            self._diag = diag if np.count_nonzero(J) == np.count_nonzero(diag) else None
            res = np.linalg.norm(self._jx(J) - np.eye(n))
            if not res <= tol.tau_sym * n:
                raise ValidationError("J is not involutive: ||J^2 - I|| = %g" % res)
        if n * (res + (2.0 * norm + asym) * asym) < 1.0:
            p = round((n + float(np.trace(J).real)) / 2)
        else:
            p = int(np.count_nonzero(np.linalg.eigvalsh(J) > 0))
        _frozen(J)
        self.dim = n
        self.signature = (p, n - p)
        self.tol = tol

    @cached_property
    def _components(self) -> tuple:
        # eigh's eigenvalues ascend: (minus_basis, plus_basis)
        eigvec, q = np.linalg.eigh(self.J)[1], self.signature[1]
        return _frozen(eigvec[:, :q].copy()), _frozen(eigvec[:, q:].copy())

    minus_basis = property(lambda self: self._components[0])
    plus_basis = property(lambda self: self._components[1])

    @classmethod
    def from_signs(cls, signs, tol: Tolerances = DEFAULT_TOLERANCES) -> "KreinSpace":
        """Space with a diagonal symmetry built from a +-1 sign pattern."""
        return cls(np.diag(np.asarray(signs, dtype=float)), tol=tol)

    def _jx(self, x: np.ndarray) -> np.ndarray:
        """J x, for a vector or a matrix x (see the class docstring)."""
        d = self._diag
        return self.J @ x if d is None else (d[:, None] if x.ndim == 2 else d) * x

    def _xj(self, x: np.ndarray) -> np.ndarray:
        """x J, for a matrix x (see the class docstring)."""
        return x @ self.J if self._diag is None else x * self._diag

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
    return complex(np.vdot(y, space._jx(x)))


class SubspaceKind(enum.Enum):
    UNIFORMLY_POSITIVE = "uniformly_positive"
    POSITIVE_NON_UNIFORM = "positive_non_uniform"
    NEUTRAL = "neutral"
    NEGATIVE_NON_UNIFORM = "negative_non_uniform"
    UNIFORMLY_NEGATIVE = "uniformly_negative"
    INDEFINITE = "indefinite"


_SIGNS = {SubspaceKind.UNIFORMLY_POSITIVE: 1, SubspaceKind.UNIFORMLY_NEGATIVE: -1}


class Classification(Record):
    kind: SubspaceKind
    regular: bool
    maximal_definite: bool
    extremal_gram_eigen: tuple[float, float]

    @property
    def uniformly_definite(self) -> bool:
        return self.kind in _SIGNS

    @property
    def sign(self) -> int:
        """+1 / -1 for uniformly definite subspaces, 0 otherwise."""
        return _SIGNS.get(self.kind, 0)


class Subspace:
    """A subspace given by a full-column-rank basis matrix.

    ``ortho_basis``, an orthonormal basis of the same column space (left singular
    vectors of the basis matrix), and the classification are cached properties.
    """

    # _cond is kappa(basis) and _margin the smallest |Gramian eigenvalue| once
    # classified, or bounds on both; _spanning: see _graph; _sign: transforms._signed
    _margin = _spanning = _sign = None

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
        u, cond = _frozen(u.copy()), float(s[0]) / float(s[-1])
        vars(self).update(space=space, _cond=cond, basis=_frozen(basis), ortho_basis=u)

    @classmethod
    def from_spanning(cls, space: KreinSpace, vectors, _most=None) -> "Subspace | None":
        """Subspace spanned by possibly dependent columns; None for the zero span.

        ``_most``, if given, is the dimension c of a canonical component:
        the span is first tried from its leading columns (``_leading_span``),
        and their SVD decides only where that does not settle."""
        vectors = _as_matrix(vectors)
        if vectors.shape[0] != space.dim:
            raise DimensionError(f"columns of shape {vectors.shape} do not fit C^{space.dim}")
        if _most is not None and (q := _leading_span(vectors, _most, space.tol)) is not None:
            return cls._orthonormal(space, q)
        u, s, _ = np.linalg.svd(vectors, full_matrices=False)
        r = _rank(s, space.tol)
        return cls._orthonormal(space, u[:, :r].copy()) if r else None

    @classmethod
    def _orthonormal(cls, space: KreinSpace, u: np.ndarray) -> "Subspace":
        """The subspace whose basis and ortho_basis are the orthonormal u."""
        W = cls.__new__(cls)
        vars(W).update(space=space, _cond=1.0, basis=_frozen(u), ortho_basis=u)
        return W

    @classmethod
    def _graph(
        cls, space: KreinSpace, basis, cond: float, margin: float, spanning=None
    ) -> "Subspace":
        """Subspace(space, basis()) for ``basis``, a function that builds the basis
        of a graph of an angular operator, of a slice of one or of a J-orthogonal
        sum of two slices, given an upper bound ``cond`` on kappa(basis()) and
        a lower bound ``margin`` on the smallest |Gramian eigenvalue|.
        ``spanning``, if given, builds cheaper columns in the subspace that span
        it whenever they are independent.

        While the first bound settles the rank, the subspace keeps ``basis``
        as its builder: the cached property ``basis`` calls it on first read
        and drops it, and the SVD and the classification wait until
        ``ortho_basis`` or ``classify`` is read.
        """
        if _SAFETY * space.tol.tau_rank * cond < 1.0:
            W = cls.__new__(cls)
            vars(W).update(space=space, _cond=cond, _build=basis)
        else:
            W = cls(space, basis())
        W._margin, W._spanning = margin, spanning
        return W

    @cached_property
    def basis(self) -> np.ndarray:
        # runs only for a lazy _graph draw, whose builder is dropped once used
        basis = _frozen(self._build())
        del self._build
        return basis

    @cached_property
    def ortho_basis(self) -> np.ndarray:
        return _frozen(np.linalg.svd(self.basis, full_matrices=False)[0].copy())

    @property
    def _uj(self) -> np.ndarray:
        """U* J for U = ``ortho_basis``, made on each read (``fusion._Span`` keeps it)."""
        return self.space._xj(self.ortho_basis.conj().T)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def _classification(self) -> Classification:
        """classify(), from the compressed Gramian; its smallest |eigenvalue| is _margin."""
        eigs = np.linalg.eigvalsh(gramian(self))
        floor = _def_floor(self.space, eigs.size)
        lo, hi = float(eigs[0]), float(eigs[-1])
        has_pos = hi > floor
        has_neg = lo < -floor
        self._margin = float(np.abs(eigs).min())  # in place of a bound from _graph
        regular = self._margin > floor  # no eigenvalue is near zero
        if has_pos and has_neg:
            kind = SubspaceKind.INDEFINITE
        elif has_pos:
            kind = SubspaceKind["UNIFORMLY_POSITIVE" if regular else "POSITIVE_NON_UNIFORM"]
        elif has_neg:
            kind = SubspaceKind["UNIFORMLY_NEGATIVE" if regular else "NEGATIVE_NON_UNIFORM"]
        else:
            kind = SubspaceKind.NEUTRAL
        sign = _SIGNS.get(kind, 0)  # a maximal one has the dimension of its sign's component
        maximal = sign != 0 and self.dim == self.space.signature[0 if sign == 1 else 1]
        return Classification(kind, regular, maximal, (lo, hi))

    def classify(self) -> Classification:
        return self._classification

    def _gram_margin(self) -> float:
        """The smallest |Gramian eigenvalue|, or a lower bound (see _graph)."""
        if self._margin is None:
            self.classify()
        return self._margin

    def __repr__(self):
        return f"Subspace(dim={self.dim} in C^{self.space.dim})"


class Operator:
    """A linear operator on a Krein space, stored as its matrix; equal only to itself.

    The operator and its matrix are read-only, so what is derived from them, the
    singular values and the J-isometry scale, is a cached property: computed
    once, kept on the operator and never stale.
    """

    __setattr__, __delattr__ = Record.__setattr__, Record.__delattr__

    def __init__(self, space: KreinSpace, matrix):
        m = _as_matrix(matrix).copy()  # the caller's array stays writeable
        n = space.dim
        if m.shape != (n, n):
            raise DimensionError(f"operator of shape {m.shape} does not act on C^{n}")
        vars(self).update(space=space, matrix=_frozen(m))

    @cached_property
    def _svals(self) -> np.ndarray:
        """The singular values of the matrix, descending, from its one SVD."""
        return _frozen(np.linalg.svd(self.matrix, compute_uv=False))

    @cached_property
    def _congruence(self) -> np.ndarray:
        """H = T* J T, from one product with J; T# T = J H."""
        return _frozen(self.space._xj(self.matrix.conj().T) @ self.matrix)

    @cached_property
    def _isometry(self) -> tuple[float, float, float, float]:
        """(c, ||T# T - c I||_2, ||T||_2, kappa(T)) with c the real part of
        trace(T# T) / n; kappa is inf for a singular T.  T# T - c I =
        J (H - c J) with J unitary, so the residual is the largest
        |eigenvalue| of the Hermitian H - c J."""
        h, space = self._congruence, self.space
        c = (complex(np.trace(space._jx(h))) / space.dim).real
        residual = float(np.abs(np.linalg.eigvalsh(h - c * space.J)).max())
        s = self._svals
        kappa = float(s[0]) / float(s[-1]) if s[-1] > 0 else float("inf")
        return c, residual, float(s[0]), kappa

    def __call__(self, x) -> np.ndarray:
        return self.matrix @ self.space.check_vector(x)


def j_adjoint(T: Operator) -> Operator:
    """T# = J T* J, the adjoint with respect to [.,.]."""
    space = T.space
    return Operator(space, space._xj(space._jx(T.matrix.conj().T)))


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
    u, uj = W.ortho_basis, W._uj
    return Operator(W.space, u @ np.linalg.solve(uj @ u, uj))


def gramian(W: Subspace) -> np.ndarray:
    """Compressed Gramian U*JU of W in its orthonormal-basis coordinates."""
    g = W._uj @ W.ortho_basis
    return 0.5 * (g + g.conj().T)


def reduced_min_modulus(T, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Smallest nonzero singular value of T; 0.0 for the zero operator.

    Singular values at or below tau_rank (relative to the largest) count as
    zero.  Equals inf of ||Tx|| over unit x orthogonal to the null space.
    """
    if isinstance(T, Operator):
        T = T.matrix
    s = np.linalg.svd(_as_matrix(T), compute_uv=False)
    r = _rank(s, tol)
    return float(s[r - 1]) if r else 0.0


def _rank(s: np.ndarray, tol: Tolerances) -> int:
    """Numerical rank: the count of descending singular values s above tau_rank * s[0]."""
    return int(np.count_nonzero(s > tol.tau_rank * s[0])) if s.size and s[0] > 0.0 else 0


def _leading_span(a: np.ndarray, c: int, tol: Tolerances) -> np.ndarray | None:
    """Q, an orthonormal basis of the span of the n x K columns A = ``a``, when
    its first k = min(K, n, c) columns A_S settle that ``_rank`` of A's
    singular values is k; else None, and the caller takes A's SVD.

    A uniformly definite span has at most the dimension c of its sign's
    canonical component, so a side of a frame spans exactly c dimensions,
    most often with its first c columns.  One Householder QR A_S = Q R and
    the residual E = A_R - Q (Q* A_R) of the other columns A_R decide.
    Householder QR is backward stable column by column (Higham, ASNA,
    Thm 19.4): k reflectors applied to all K columns factor A + D exactly,
    ||D||_F <= g ||A||_F with g = c' n K u for a small constant c'; the
    leading block is R and the trailing block has the norm of E (formed
    with the computed Q, which is orthonormal to the same order, ibid.
    §19.3), and the k x k SVD of R errs by k^2 u ||R||.  With c' = 2, so
    g = n K eps, slack = n K eps ||A||_F bounds all three.  Then
    lo = s_1(R) - slack <= s_1(A) <= hi = hypot(s_1(R) + slack, ||A_R||_F);
    s_k(A) >= s_k(A_S) >= s_min(R) - slack (interlacing), and s_(k+1)(A)
    is at most the distance ||E||_F + slack of A from the rank-k matrix
    Q Q* A (Eckart-Young).  The side settles when the first clears
    _SAFETY tau_rank hi and the second stays below tau_rank lo / _SAFETY:
    both are then _SAFETY from the threshold tau_rank s_1(A), far beyond
    the rounding of an SVD of A, whose rank would be k.  The diagonal of R
    (min |R_ii| >= s_min(R), max |R_ii| <= s_1(R) <= ||A_S||_F + slack)
    and E refuse most sides before the k x k SVD, so a refusal adds at
    most that SVD to the SVD of A.
    """
    n, K = a.shape
    k = min(K, n, c)
    if k == 0:
        return None
    # a huge or tiny A makes a bound inf, nan or 0: the side then refuses
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        a_s, a_r = a[:, :k], a[:, k:]
        lead, rest = float(np.linalg.norm(a_s)), float(np.linalg.norm(a_r))
        slack, tau = n * K * 2.0**-52 * float(np.hypot(lead, rest)), tol.tau_rank
        q, r = np.linalg.qr(a_s)
        d = np.abs(r.diagonal())
        if not d.min() - slack > _SAFETY * tau * np.hypot(d.max() + slack, rest):
            return None
        e = float(np.linalg.norm(a_r - q @ (q.conj().T @ a_r))) + slack
        if not e < tau * lead / _SAFETY:
            return None
        s = np.linalg.svd(r, compute_uv=False)
        lo, hi = s[0] - slack, np.hypot(s[0] + slack, rest)
        if s[-1] - slack > _SAFETY * tau * hi and e < tau * lo / _SAFETY:
            return q
    return None


def _def_floor(space: KreinSpace, k: int) -> float:
    """The modulus at or below which an eigenvalue of a k-dimensional Gramian
    U*JU in C^n counts as zero: tau_def, or its rounding level if larger.
    Forming U*JU errs by about n eps, and a Cholesky factor of a k x k
    Gramian exists once 20 k^1.5 eps cond <= 1 (Higham, ASNA, Thm 10.7), so
    a smaller eigenvalue is indistinguishable from zero."""
    return max(space.tol.tau_def, 20.0 * k**1.5 * space.dim * 2.0**-52)


def _clears(g: np.ndarray, t: float, sign: int = 0) -> bool:
    """True only if every eigenvalue of the exactly Hermitian g has modulus
    above t, or for a ``sign`` s of +-1 every eigenvalue of s g is above t;
    False leaves it undecided.

    True means a Cholesky factor of g g - (t^2 + delta) I (or s g -
    (t + delta) I) exists.  With f = ||g||_F, forming g g errs by at most
    1.5 (k + 2) eps f^2 in norm (s g - (t + delta) I by eps (f + t + delta)),
    and a computed factor is one of the matrix plus an error of norm at most
    k (k + 1) eps times its own (Higham, ASNA, §3.6 and §10.1, complex
    arithmetic included); delta is twice their sum, plus the underflow of
    k^2 products, so the exact g^2 - t^2 I (or s g - t I) is positive definite.
    """
    k = g.shape[0]
    # an overflow or a nan leaves a factor that is not finite, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        f2 = float(np.vdot(g, g).real)
        m, shift, scale = (sign * g, t, f2**0.5 + t) if sign else (g @ g, t * t, f2 + t * t)
        delta = 4.0 * (k + 1) ** 2 * (2.0**-52 * scale + 2.0**-1074)
        try:
            r = np.linalg.cholesky(m - (shift + delta) * np.eye(k))
        except np.linalg.LinAlgError:
            return False
        return bool(np.isfinite(r).all())


class AngularOperator:
    """Graph representation of a definite subspace over a canonical component.

    For a positive M, every x in M decomposes as x = x+ + K x+ with x+ in
    the canonical positive component; ``matrix`` holds K in the coordinates
    of the canonical eigenbases.  ``full_domain`` is True when the domain of
    K is the whole canonical component (equivalently, M is maximal).

    For a maximal M of sign sigma, with s the singular values of K
    zero-padded to dim M, sigma * G_M has spectrum (1 - s^2) / (1 + s^2);
    hence ``norm`` obeys ||K||^2 = (1 - gamma) / (1 + gamma) with gamma
    the Gramian margin ``classify`` keeps, the smallest |eigenvalue| of G_M.
    """

    __setattr__, __delattr__ = Record.__setattr__, Record.__delattr__

    def __init__(self, matrix: np.ndarray, norm: float, full_domain: bool):
        vars(self).update(matrix=matrix, norm=norm, full_domain=full_domain)


def angular_operator(M: Subspace, sign: int) -> AngularOperator:
    """Angular operator of a uniformly definite subspace.

    ``sign`` selects the reference component: +1 represents M as a graph
    over the canonical positive component, -1 over the negative one.  The
    subspace must be uniformly definite with that sign.

    When M is maximal, ||K||^2 = (1 - gamma) / (1 + gamma) with gamma the
    Gramian margin ``classify`` keeps; ``AngularOperator`` gives the
    spectrum identity behind it.
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
