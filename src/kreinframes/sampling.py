"""Seeded random generators for the subspaces the preservation predicates test.

Used by the sampling-based preservation predicates, the reference oracles
and the test suite.  Everything is deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from .core import KreinSpace, Subspace, _def_floor

__all__ = [
    "rng_from_seed",
    "random_complex",
    "random_maximal_definite_subspace",
    "random_definite_subspace",
    "random_regular_subspace",
]


def rng_from_seed(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_complex(rng: np.random.Generator, *shape) -> np.ndarray:
    # one call fills the real halves first, as two calls would, into one array
    z = np.empty(shape, complex)
    z.real, z.imag = rng.standard_normal((2, *shape))
    return z


_MAX_TILT = 0.8  # the largest ||K||_2 of a maximal or regular draw


def _maximal_bounds(tilt: float) -> tuple[float, float]:
    """(kappa(basis), Gramian margin) bounds of a maximal draw of a given tilt."""
    return float(np.sqrt(1.0 + tilt * tilt)), (1.0 - tilt * tilt) / (1.0 + tilt * tilt)


def _regular_tilt(space: KreinSpace, dim: int) -> float:
    """The supremum of a regular draw's tilt, at which its margin is the
    definiteness floor; the largest at dim 1, as the floor grows with dim."""
    f = _def_floor(space, dim)
    return min(_MAX_TILT, (1.0 - f) / (1.0 + f))


def _regular_bounds(tilt: float) -> tuple[float, float]:
    """(kappa(basis), Gramian margin) bounds of a regular draw of a given tilt."""
    margin = (1.0 - tilt) / (1.0 + tilt)
    return 1.0 / margin, margin


def _maximal_law(space: KreinSpace) -> tuple[float, float]:
    """Bounds (cond, margin) on every maximal or definite draw at the default
    tilt: the bounds at the tilt's supremum, as they are monotone in the
    tilt, in floating point too."""
    return _maximal_bounds(_MAX_TILT)


def _regular_law(space: KreinSpace) -> tuple[float, float]:
    """Bounds (cond, margin) on every random_regular_subspace draw in space."""
    return _regular_bounds(_regular_tilt(space, 1))


def random_maximal_definite_subspace(
    space: KreinSpace,
    rng: np.random.Generator,
    sign: int,
    max_tilt: float = _MAX_TILT,
) -> Subspace:
    """Maximal uniformly definite subspace from a random angular operator.

    The graph of an operator with spectral norm below ``max_tilt`` = t < 1
    is uniformly definite by construction: its compressed Gramian has
    eigenvalues of modulus above (1 - t^2) / (1 + t^2), 0.22 at t = 0.8, and
    basis* basis = I + K* K bounds kappa(basis) by sqrt(1 + t^2).  These
    bounds come from t alone: ||K||_2 (an SVD of K) and the basis product
    wait until the basis is read, and its SVD until its orthonormal basis
    is (``Subspace._graph``).  A t outside [0, 1) raises ValueError.
    """
    if not 0.0 <= max_tilt < 1.0:  # also a NaN
        raise ValueError(f"max_tilt must lie in [0, 1), got {max_tilt}")
    dom, codom = space.component(sign), space.component(-sign)
    d, c = dom.shape[1], codom.shape[1]
    if d == 0:
        raise ValueError("the requested canonical component is trivial")
    k = random_complex(rng, c, d)
    # a nonzero k has ||k||_2 > 0: LAPACK scales k before its SVD
    tilt = float(rng.uniform(0.0, max_tilt)) if k.any() else 0.0
    cond, margin = _maximal_bounds(tilt)

    def basis():  # k scaled to norm tilt, also when tilt is 0.0
        return dom + codom @ (k * (tilt / np.linalg.norm(k, 2)) if k.any() else k)

    return Subspace._graph(space, basis, cond, margin)


def random_definite_subspace(
    space: KreinSpace, rng: np.random.Generator, sign: int
) -> Subspace:
    """Uniformly definite subspace: a random slice of a random maximal one.

    The slice spans maximal.basis coeff for a Gaussian coeff, on the basis
    maximal.basis Q with coeff = QR.  Q has orthonormal columns, so the
    slice keeps both of the maximal draw's bounds: kappa(basis) is at most
    kappa(maximal.basis), and the margin bound holds by Cauchy interlacing.
    The bases, the QR and the SVDs wait until read, as in a maximal draw;
    its canonical columns E* maximal.basis coeff span it when independent.
    """
    maximal = random_maximal_definite_subspace(space, rng, sign)
    d = space.component(sign).shape[1]  # maximal.dim would build its basis
    coeff = random_complex(rng, d, int(rng.integers(1, d + 1)))
    return Subspace._graph(
        space, lambda: maximal.basis @ np.linalg.qr(coeff)[0], maximal._cond, maximal._margin,
        lambda: space._eigenbasis.conj().T @ (maximal.basis @ coeff),
    )


def random_regular_subspace(space: KreinSpace, rng: np.random.Generator) -> Subspace:
    """Regular subspace: a slice of a random maximal positive graph plus a
    slice of its J-orthogonal complement, so that it classifies as regular.

    With D, C the canonical positive and negative bases and a c x d K with
    ||K||_2 <= t < 1, the graphs {x + Kx} and {y + K* y} are J-orthogonal, and
    for orthonormal X (d x a) and Y (c x b) the basis B = [(D + CK) X,
    (C + DK*) Y] = [D C] (I + [[0, K*], [K, 0]]) diag(X, Y) has singular
    values in [1 - t, 1 + t] and B*JB = diag(X*(I - K*K)X, -Y*(I - KK*)Y).
    Its compressed Gramian's eigenvalues have modulus at least
    (1 - t^2) / (1 + t)^2 = (1 - t) / (1 + t) (Ostrowski), and kappa(B) is at
    most the inverse.  t is drawn below the maximal draws' 0.8 and below
    (1 - f) / (1 + f), f the definiteness floor, so the margin clears f.  K
    is scaled by ||K||_F >= ||K||_2, without an SVD.  K, x and y are drawn at
    once, one standard_normal call taking what three random_complex calls
    would; B and the QRs x = X R, y = Y R' wait until the basis is read.  Its
    canonical columns [[x, K* y], [Kx, y]] span it when they are independent.
    """
    plus, minus = space.component(1), space.component(-1)
    d, c = plus.shape[1], minus.shape[1]
    dim = int(rng.integers(1, space.dim + 1))
    a = int(rng.integers(max(0, dim - c), min(dim, d) + 1))  # dim - a <= c
    tilt = float(rng.uniform(0.0, _regular_tilt(space, dim)))
    z, at = rng.standard_normal(2 * (c * d + d * a + c * (dim - a))), 0
    k, x, y = (np.empty(shape, complex) for shape in ((c, d), (d, a), (c, dim - a)))
    for w in (k, x, y):  # as random_complex fills each, in turn
        w.real, w.imag = z[at : at + 2 * w.size].reshape(2, *w.shape)
        at += 2 * w.size
    kt = k * (tilt / s) if (s := np.linalg.norm(k)) > 0.0 else k  # a definite space's k is 0

    def basis():
        qx, qy = np.linalg.qr(x)[0], np.linalg.qr(y)[0]
        return np.hstack([(plus + minus @ kt) @ qx, (minus + plus @ kt.conj().T) @ qy])

    def canonical():  # [[x, K* y], [Kx, y]]
        bc = np.empty((d + c, dim), complex)
        bc[:d, :a], bc[d:, a:], bc[d:, :a], bc[:d, a:] = x, y, kt @ x, kt.conj().T @ y
        return bc

    return Subspace._graph(space, basis, *_regular_bounds(tilt), canonical)
