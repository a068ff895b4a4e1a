"""Seeded random spaces, operators and frames for the test suite, and the
document writer its parse round-trips read.

Only the tests use these; scipy is a test dependency.  The runtime samplers
stay in ``kreinframes.sampling``.
"""

import numpy as np
import scipy.linalg
from hypothesis import settings

from kreinframes import KreinSpace, Operator, Subspace, VectorFrame, WeightedFamily
from kreinframes.core import DEFAULT_TOLERANCES, Tolerances
from kreinframes.sampling import random_complex, random_maximal_definite_subspace


def examples(n: int) -> int:
    """n Hypothesis examples, scaled with the loaded profile's max_examples
    over its default of 100: n under tier-1's deterministic profile, ten times
    n under the randomized one (conftest.py)."""
    return max(1, n * settings.default.max_examples // 100)


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


def random_j_unitary(
    space: KreinSpace, rng: np.random.Generator, generator_norm: float = 1.0
) -> Operator:
    """J-unitary operator exp(JH) with H skew-Hermitian of bounded norm."""
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


def alternating_signature_space(
    m: int = 4, tol: Tolerances = DEFAULT_TOLERANCES
) -> KreinSpace:
    """C^m with the alternating diagonal symmetry diag(1, -1, 1, -1, ...)."""
    if m < 2:
        raise ValueError("need at least two coordinates")
    signs = [1.0 if i % 2 == 0 else -1.0 for i in range(m)]
    return KreinSpace(np.diag(signs), tol=tol)


def neutral_image_operator(space: KreinSpace) -> Operator:
    """Invertible operator sending the first axis onto a neutral line.

    Acts as [[1, 1], [1, 2]] on the first two coordinates and as the
    identity beyond; on an alternating-signature space the image of
    span{e_1} is the neutral line span{(1, 1, 0, ...)}.
    """
    m = space.dim
    if m < 2:
        raise ValueError("need at least two coordinates")
    t = np.eye(m, dtype=complex)
    t[0, 0], t[0, 1] = 1.0, 1.0
    t[1, 0], t[1, 1] = 1.0, 2.0
    return Operator(space, t)


def _num(z: complex):
    # a bare real parses with imaginary part +0.0, so -0.0 stays a pair
    return z.real if z.imag == 0.0 and not np.signbit(z.imag) else [z.real, z.imag]


def _matrix_doc(m: np.ndarray):
    return [[_num(complex(v)) for v in row] for row in np.asarray(m)]


def serialize_spec(spec) -> dict:
    """Normalized document for a parsed problem; parse(serialize(x)) == x."""
    doc = {
        "space": {"dim": spec.space.dim, "J": _matrix_doc(spec.space.J)},
    }
    if spec.families:
        doc["families"] = {
            name: {
                "subspaces": [_matrix_doc(w.basis.T) for w in fam.subspaces],
                "weights": list(fam.weights),
            }
            for name, fam in spec.families.items()
        }
    if spec.vector_frames:
        doc["vector_frames"] = {
            name: _matrix_doc(vf.matrix.T) for name, vf in spec.vector_frames.items()
        }
    if spec.operators:
        doc["operators"] = {
            name: _matrix_doc(op.matrix) for name, op in spec.operators.items()
        }
    doc["tolerances"] = dict(vars(spec.tolerances))
    if spec.seed is not None:
        doc["seed"] = spec.seed
    return doc
