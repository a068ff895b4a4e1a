"""Seeded random generators for spaces, subspaces, operators and frames.

Used by the sampling-based preservation predicates, the reference oracles
and the test suite.  Everything is deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from .core import KreinSpace, Operator, Subspace, Tolerances, DEFAULT_TOLERANCES, gramian
from .duality import VectorFrame
from .fusion import WeightedFamily

__all__ = [
    "rng_from_seed",
    "random_unit_vector",
    "random_complex",
    "random_space",
    "random_maximal_definite_subspace",
    "random_definite_subspace",
    "random_regular_subspace",
    "random_j_unitary",
    "random_fusion_frame",
    "random_vector_frame",
]


def rng_from_seed(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_complex(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = random_complex(rng, n)
    return v / np.linalg.norm(v)


def random_space(
    rng: np.random.Generator,
    n: int,
    p: int | None = None,
    diagonal: bool = False,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> KreinSpace:
    """Space with a random Hermitian involution of signature (p, n-p)."""
    if p is None:
        p = int(rng.integers(1, n))
    signs = np.concatenate([np.ones(p), -np.ones(n - p)])
    if diagonal:
        return KreinSpace(np.diag(signs), tol=tol)
    q, _ = np.linalg.qr(random_complex(rng, n, n))
    j = q @ np.diag(signs) @ q.conj().T
    j = 0.5 * (j + j.conj().T)
    # exact involution up to roundoff; re-symmetrize is enough at n <= 8
    return KreinSpace(j, tol=tol)


def random_maximal_definite_subspace(
    space: KreinSpace,
    rng: np.random.Generator,
    sign: int,
    max_tilt: float = 0.8,
) -> Subspace:
    """Maximal uniformly definite subspace from a random angular operator.

    The graph of an operator with spectral norm below ``max_tilt`` = t < 1
    is uniformly definite by construction: its compressed Gramian has
    eigenvalues of modulus above (1 - t^2) / (1 + t^2), 0.22 at t = 0.8.
    """
    if sign == 1:
        dom, codom = space.plus_basis, space.minus_basis
    else:
        dom, codom = space.minus_basis, space.plus_basis
    d, c = dom.shape[1], codom.shape[1]
    if d == 0:
        raise ValueError("the requested canonical component is trivial")
    k = random_complex(rng, c, d)
    nrm = np.linalg.norm(k, 2)
    if nrm > 0:
        k *= (float(rng.uniform(0.0, max_tilt)) / nrm)
    return Subspace(space, dom + codom @ k)


def random_definite_subspace(
    space: KreinSpace, rng: np.random.Generator, sign: int
) -> Subspace:
    """Uniformly definite subspace: a random slice of a random maximal one."""
    maximal = random_maximal_definite_subspace(space, rng, sign)
    d = maximal.dim
    dim = int(rng.integers(1, d + 1))
    coeff = random_complex(rng, d, dim)
    return Subspace(space, maximal.basis @ coeff)


def random_regular_subspace(space: KreinSpace, rng: np.random.Generator) -> Subspace:
    """Random subspace with Gramian eigenvalues above 1e-3 in modulus.

    May be indefinite; rejection-samples up to 200 bases of one random
    dimension until the regularity margin holds.
    """
    n = space.dim
    dim = int(rng.integers(1, n + 1))
    for _ in range(200):
        w = Subspace(space, random_complex(rng, n, dim))
        if np.abs(np.linalg.eigvalsh(gramian(w))).min() > 1e-3:
            return w
    raise RuntimeError("failed to sample a regular subspace")


def random_j_unitary(
    space: KreinSpace, rng: np.random.Generator, generator_norm: float = 1.0
) -> Operator:
    """J-unitary operator exp(JH) with H skew-Hermitian of bounded norm."""
    import scipy.linalg  # test-time dependency; kept off the runtime import path

    h = random_complex(rng, space.dim, space.dim)
    h = 0.5 * (h - h.conj().T)
    nrm = np.linalg.norm(h, 2)
    if nrm > 0:
        h *= generator_norm / nrm
    return Operator(space, scipy.linalg.expm(space.J @ h))


def _side_members(space, rng, sign, count, max_tilt):
    """Subspaces of one sign whose sum spans a full maximal definite subspace."""
    maximal = random_maximal_definite_subspace(space, rng, sign, max_tilt)
    d = maximal.dim
    for _ in range(200):
        dims = [int(rng.integers(1, d + 1)) for _ in range(count)]
        coeffs = [random_complex(rng, d, k) for k in dims]
        if np.linalg.matrix_rank(np.hstack(coeffs)) == d:
            return [Subspace(space, maximal.basis @ c) for c in coeffs]
    # fallback: one member carrying the whole maximal subspace
    return [maximal] + [
        Subspace(space, maximal.basis @ random_complex(rng, d, 1))
        for _ in range(count - 1)
    ]


def random_fusion_frame(
    space: KreinSpace,
    rng: np.random.Generator,
    members_per_side: int | None = None,
    max_tilt: float = 0.6,
    weight_range: tuple[float, float] = (0.5, 2.0),
) -> WeightedFamily:
    """A certified J-fusion frame with random members and weights."""
    p, q = space.signature
    subspaces = []
    for sign, count_dim in ((1, p), (-1, q)):
        if count_dim == 0:
            continue
        count = members_per_side or int(rng.integers(1, 4))
        subspaces.extend(_side_members(space, rng, sign, count, max_tilt))
    weights = [float(rng.uniform(*weight_range)) for _ in subspaces]
    return WeightedFamily(space, subspaces, weights)


def random_vector_frame(
    space: KreinSpace,
    rng: np.random.Generator,
    extra: int = 1,
    max_tilt: float = 0.6,
    scale_range: tuple[float, float] = (0.5, 2.0),
) -> VectorFrame:
    """A vector J-frame: each signed span is a full maximal definite subspace."""
    p, q = space.signature
    vectors = []
    for sign, d in ((1, p), (-1, q)):
        if d == 0:
            continue
        maximal = random_maximal_definite_subspace(space, rng, sign, max_tilt)
        for _ in range(200):
            coeff = random_complex(rng, d, d + extra)
            if np.linalg.matrix_rank(coeff) == d:
                break
        cols = maximal.basis @ coeff
        for i in range(cols.shape[1]):
            vectors.append(cols[:, i] * float(rng.uniform(*scale_range)))
    return VectorFrame(space, vectors)
