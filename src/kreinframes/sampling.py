"""Seeded random generators for the subspaces the preservation predicates test.

Used by the sampling-based preservation predicates, the reference oracles
and the test suite.  Everything is deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from .core import _SAFETY, KreinSpace, Subspace, _clears, _def_floor
from .errors import KreinFramesError

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
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_maximal_definite_subspace(
    space: KreinSpace,
    rng: np.random.Generator,
    sign: int,
    max_tilt: float = 0.8,
) -> Subspace:
    """Maximal uniformly definite subspace from a random angular operator.

    The graph of an operator with spectral norm below ``max_tilt`` = t < 1
    is uniformly definite by construction: its compressed Gramian has
    eigenvalues of modulus above (1 - t^2) / (1 + t^2), 0.22 at t = 0.8, and
    basis* basis = I + K* K bounds kappa(basis) by sqrt(1 + t^2).  These
    bounds come from t alone: ||K||_2 (an SVD of K) and the basis product
    wait until the basis is read, and its SVD until its orthonormal basis
    is (``Subspace._graph``).
    """
    dom, codom = space.component(sign), space.component(-sign)
    d, c = dom.shape[1], codom.shape[1]
    if d == 0:
        raise ValueError("the requested canonical component is trivial")
    k = random_complex(rng, c, d)
    # a nonzero k has ||k||_2 > 0: LAPACK scales k before its SVD
    tilt = float(rng.uniform(0.0, max_tilt)) if k.any() else 0.0
    cond = float(np.sqrt(1.0 + tilt * tilt))
    margin = (1.0 - tilt * tilt) / (1.0 + tilt * tilt)

    def basis():  # k scaled to norm tilt, also when tilt is 0.0
        return dom + codom @ (k * (tilt / np.linalg.norm(k, 2)) if k.any() else k)

    return Subspace._graph(space, basis, cond, margin)


def random_definite_subspace(
    space: KreinSpace, rng: np.random.Generator, sign: int
) -> Subspace:
    """Uniformly definite subspace: a random slice of a random maximal one.

    The slice keeps the maximal one's margin bound (Cauchy interlacing), and
    kappa(basis) is at most kappa(maximal.basis) kappa(coeff), from one SVD
    of coeff; the bases and their SVDs wait until read, as in a maximal draw.
    """
    maximal = random_maximal_definite_subspace(space, rng, sign)
    d = space.component(sign).shape[1]  # maximal.dim would build its basis
    dim = int(rng.integers(1, d + 1))
    coeff = random_complex(rng, d, dim)
    s = np.linalg.svd(coeff, compute_uv=False)
    cond = maximal._cond * s[0] / s[-1]  # inf, so the exact path, if s[-1] is 0
    return Subspace._graph(space, lambda: maximal.basis @ coeff, cond, maximal._margin)


# the n from which a QR draw is as fast as an SVD one or faster (one BLAS thread)
_QR_MIN_DIM = 14


def random_regular_subspace(space: KreinSpace, rng: np.random.Generator) -> Subspace:
    """Random subspace with Gramian eigenvalues above t in modulus, where t is
    1e-3 or the definiteness floor if larger, so that it classifies as regular.

    May be indefinite; rejection-samples up to 200 bases of one random
    dimension until the margin holds.  In C^n with n >= _QR_MIN_DIM a basis
    whose QR decides the margin is accepted without an SVD (_qr_draw); every
    other one is decided as Subspace(space, basis)._gram_margin() > t, so
    each draw keeps the bits and the random numbers of that test.
    """
    n = space.dim
    dim = int(rng.integers(1, n + 1))
    t = max(1e-3, _def_floor(space, dim))
    for _ in range(200):
        b = random_complex(rng, n, dim)
        w = _qr_draw(space, b, t) if n >= _QR_MIN_DIM else None
        if w is None:
            w = Subspace(space, b)
            if not w._gram_margin() > t:
                continue
        return w
    raise KreinFramesError(
        f"no regular subspace of dimension {dim} with Gramian margin above "
        f"{t:g} in 200 attempts"
    )


def _qr_draw(space: KreinSpace, b: np.ndarray, t: float) -> Subspace | None:
    """Subspace(space, b), with bounds in place of its SVD, when b = QR shows
    that its Gramian margin clears t by 16 slacks; None otherwise.

    Householder QR and the SVD give orthonormal bases of spans at most
    c n dim eps kappa(b) apart (Higham, ASNA, ch. 19), so the eigenvalues of
    Gramians on them are a few times that close; slack = 16 n dim eps kappa
    covers the small constants, with kappa(b) = kappa(R) <= ||R||_F ||R^-1||_F.
    Within 16 slacks of t, and wherever 4 tau_rank kappa >= 1, the SVD
    decides.  An accepted b has t + 16 slack below ||Q* J Q|| <= 1, which
    bounds kappa too, so the SVD would find its full rank as well.
    """
    n, dim = b.shape
    q, r = np.linalg.qr(b)
    try:
        cond = float(np.linalg.norm(r) * np.linalg.norm(np.linalg.inv(r)))
    except np.linalg.LinAlgError:  # an exactly singular R
        return None
    if not _SAFETY * space.tol.tau_rank * cond < 1.0:
        return None
    w = Subspace._graph(space, b, cond, t)  # its rank settled: no SVD
    w._qr = (q, 16.0 * n * dim * 2.0**-52 * cond)
    g, slack = w._compress(space.J)
    return w if _clears(g, t + 16.0 * slack) else None
