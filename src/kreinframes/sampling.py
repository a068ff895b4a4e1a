"""Seeded random generators for the subspaces the preservation predicates test.

Used by the sampling-based preservation predicates, the reference oracles
and the test suite.  Everything is deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from .core import KreinSpace, Subspace

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


def random_regular_subspace(space: KreinSpace, rng: np.random.Generator) -> Subspace:
    """Random subspace with Gramian eigenvalues above 1e-3 in modulus.

    May be indefinite; rejection-samples up to 200 bases of one random
    dimension until the regularity margin holds.
    """
    n = space.dim
    dim = int(rng.integers(1, n + 1))
    for _ in range(200):
        w = Subspace(space, random_complex(rng, n, dim))
        if w._gram_margin() > 1e-3:
            return w
    raise RuntimeError("failed to sample a regular subspace")
