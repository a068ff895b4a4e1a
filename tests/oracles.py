"""Independent brute-force checkers used by the test suite.

None of these call the implementation path they validate: the Rayleigh
oracle samples quotients directly instead of solving the pencil, the
projection oracle is a least-squares solve, the gamma oracle combines
random search over the row space with solve-based inverse iteration
(no SVD), and the dual oracle builds the canonical dual through the public
constructors, which span its sides from its own columns.  They are slow by
design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from kreinframes.core import Operator, Subspace
from kreinframes.duality import VectorFrame
from kreinframes.errors import NotAFrameError
from kreinframes.fusion import (
    WeightedFamily,
    certify,
    definite_span,
    frame_operator,
    frame_operator_part,
)
from kreinframes.sampling import random_complex, rng_from_seed

__all__ = [
    "OracleConfig", "rayleigh_extremes", "projection_oracle", "gamma_oracle", "dual_oracle"
]


@dataclass(frozen=True)
class OracleConfig:
    n_samples: int = 10000
    seed: int = 0
    tolerance: float = 1e-9
    refine: bool = True

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")


def _quotients(a: np.ndarray, p: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Generalized Rayleigh quotients c*Ac / c*Pc for a batch of columns."""
    num = np.einsum("ij,ik,kj->j", coeffs.conj(), a, coeffs).real
    den = np.einsum("ij,ik,kj->j", coeffs.conj(), p, coeffs).real
    return num / den


def _ascend(a, p, c0, minimize, steps=2000):
    """The quotient reached by gradient ascent (descent when ``minimize``)
    from c0 on the unit sphere.

    Directions are Polak-Ribiere conjugate gradients.  Along c + t d the
    quotient is stationary where a quadratic in t vanishes, so each step
    goes to the better of its two roots; it stops when that no longer helps.
    """
    sign = -1.0 if minimize else 1.0
    c = c0 / np.linalg.norm(c0)
    d = g_old = None
    for _ in range(steps):
        ac, pc = a @ c, p @ c
        num, den = np.vdot(c, ac).real, np.vdot(c, pc).real
        g = sign * (ac - num / den * pc) / den
        if not g.any():
            break  # a stationary point
        beta = 0.0 if g_old is None else np.vdot(g, g - g_old).real / np.vdot(g_old, g_old).real
        d = g if beta <= 0.0 else g + beta * d
        ad, pd = a @ d, p @ d
        cad, dad = np.vdot(c, ad).real, np.vdot(d, ad).real
        cpd, dpd = np.vdot(c, pd).real, np.vdot(d, pd).real
        q2, q1, q0 = dad * cpd - cad * dpd, dad * den - num * dpd, cad * den - num * cpd
        # its roots r / q2 and q0 / r, without cancellation
        r = -0.5 * (q1 + np.copysign(np.sqrt(max(q1 * q1 - 4.0 * q2 * q0, 0.0)), q1))
        t = np.array([r / q2 if q2 else 0.0, q0 / r if r else 0.0])
        cand = c[:, None] + d[:, None] * t
        vals = sign * _quotients(a, p, cand)
        j = int(np.argmax(vals))
        if not vals[j] > sign * num / den:
            break
        c, g_old = cand[:, j] / np.linalg.norm(cand[:, j]), g
    return _quotients(a, p, c[:, None])[0]


def rayleigh_extremes(
    F: WeightedFamily, sign: int, config: OracleConfig = OracleConfig()
) -> tuple[float, float]:
    """Sampled extremes of the frame quotient over the signed span.

    Draws unit coefficient vectors in the span, evaluates
    sum v_i^2 [pi_{W_i} J f, f] / [f, f] directly, and (optionally)
    sharpens both extremes by gradient ascent from the best samples.  Never
    solves an eigenproblem.
    """
    if not certify(F).is_frame:
        raise NotAFrameError("the Rayleigh oracle requires a certified frame")
    m = definite_span(F, sign)
    if m is None:
        raise NotAFrameError(f"the side {sign:+d} is empty")
    u = m.ortho_basis
    k = u.shape[1]
    space = F.space
    s_part = frame_operator_part(F, sign).matrix
    a = u.conj().T @ (space.J @ s_part) @ u
    a = 0.5 * (a + a.conj().T)
    p = u.conj().T @ space.J @ u
    p = 0.5 * (p + p.conj().T)
    rng = rng_from_seed(config.seed)
    coeffs = random_complex(rng, k, config.n_samples)
    coeffs /= np.linalg.norm(coeffs, axis=0, keepdims=True)
    vals = _quotients(a, p, coeffs)
    lo_i, hi_i = int(np.argmin(vals)), int(np.argmax(vals))
    lo, hi = float(vals[lo_i]), float(vals[hi_i])
    if config.refine:
        lo = min(lo, _ascend(a, p, coeffs[:, lo_i], minimize=True))
        hi = max(hi, _ascend(a, p, coeffs[:, hi_i], minimize=False))
    return lo, hi


def projection_oracle(W, x) -> np.ndarray:
    """Euclidean-nearest point of W to x, via a least-squares solve."""
    x = W.space.check_vector(x)
    coeff, *_ = np.linalg.lstsq(W.basis, x, rcond=None)
    return W.basis @ coeff


def gamma_oracle(T, config: OracleConfig = OracleConfig()) -> float:
    """Reduced minimum modulus by minimizing ||Tx|| over the row space.

    The null-space complement comes from a pivoted QR factorization of T*;
    random sampling provides candidates and solve-based inverse iteration
    on the restricted normal matrix drives the minimum down.  No singular
    value decomposition is involved.
    """
    if isinstance(T, Operator):
        T = T.matrix
    t = np.asarray(T, dtype=complex)
    q, r, _ = scipy.linalg.qr(t.conj().T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return 0.0
    rank = int(np.count_nonzero(diag > 1e-10 * diag[0]))
    if rank == 0:
        return 0.0
    basis = q[:, :rank]  # orthonormal basis of the row space
    b = t @ basis
    rng = rng_from_seed(config.seed)
    coeffs = random_complex(rng, rank, config.n_samples)
    coeffs /= np.linalg.norm(coeffs, axis=0, keepdims=True)
    norms = np.linalg.norm(b @ coeffs, axis=0)
    j = int(np.argmin(norms))
    best = float(norms[j])
    if config.refine:
        # inverse iteration on B*B, started from the best sample
        normal = b.conj().T @ b
        x = coeffs[:, j]
        for _ in range(50):
            x = np.linalg.solve(normal, x)
            x /= np.linalg.norm(x)
        best = min(best, float(np.linalg.norm(b @ x)))
    return best


def dual_oracle(F):
    """The canonical dual of a frame F, built through the public constructors:
    the WeightedFamily of the members S^-1 W_i with F's weights, one solve per
    member, or the VectorFrame of the vectors S^-1 f_i.  Its signed spans are
    the constructor's SVDs of the dual's own columns, not S^-1 M(+-)."""
    s = frame_operator(F).matrix
    if isinstance(F, VectorFrame):
        return VectorFrame(F.space, np.linalg.solve(s, F.matrix).T)
    members = [Subspace(F.space, np.linalg.solve(s, w.basis)) for w in F.subspaces]
    return WeightedFamily(F.space, members, F.weights)
