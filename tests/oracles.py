"""Independent brute-force checkers used by the test suite.

None of these call the implementation path they validate: the Rayleigh
oracle samples quotients directly instead of solving the pencil, over the
spans and the partial frame operators it builds from each member's own
basis, the projection oracle is a least-squares solve, the gamma oracle
combines random search over the row space with solve-based inverse
iteration (no SVD), and the dual oracle builds the canonical dual through
the public constructors, which span its sides from its own columns.  They
are slow by design.  The references at the end are the tests' own
definitions of quantities the package does not export.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from kreinframes.core import Operator, Subspace, _def_floor, gramian
from kreinframes.duality import VectorFrame
from kreinframes.errors import NotAFrameError
from kreinframes.fusion import WeightedFamily, certify, frame_operator
from kreinframes.sampling import random_complex, rng_from_seed

__all__ = [
    "OracleConfig", "rayleigh_extremes", "frame_operator_part", "projection_oracle",
    "in_span", "gamma_oracle", "dual_oracle", "gramian_min_modulus",
    "partial_frame_operator", "as_weighted_family", "identity_trials",
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


def _side(F, sign: int) -> list:
    """(B_i, v_i) of each member of one sign: a family's member bases and
    weights, or a vector frame's vectors f_i, each the line it spans with
    weight ||f_i||.  A uniformly definite B_i has the sign of tr(B_i* J B_i)."""
    if isinstance(F, VectorFrame):
        members = [(F.matrix[:, [i]], np.linalg.norm(F.matrix[:, i])) for i in range(len(F))]
    else:
        members = list(zip((w.basis for w in F.subspaces), F.weights))
    J = F.space.J
    return [(b, v) for b, v in members if np.trace(b.conj().T @ J @ b).real * sign > 0]


def frame_operator_part(F, sign: int) -> np.ndarray:
    """S(sign) = sum over the members of one sign of v_i^2 B_i (B_i* B_i)^-1 B_i* J,
    from each member's own basis B_i."""
    s = np.zeros((F.space.dim, F.space.dim), dtype=complex)
    for b, v in _side(F, sign):
        s += v**2 * b @ np.linalg.solve(b.conj().T @ b, b.conj().T)
    return s @ F.space.J


def rayleigh_extremes(
    F: WeightedFamily, sign: int, config: OracleConfig = OracleConfig()
) -> tuple[float, float]:
    """Sampled extremes of the frame quotient over the signed span.

    Draws unit coefficient vectors in the span, the column space of the
    side's stacked member bases, evaluates sum v_i^2 [pi_{W_i} J f, f] / [f, f]
    directly, and (optionally) sharpens both extremes by gradient ascent
    from the best samples.  Solves no eigenproblem of the quotient: the only
    factorization is the SVD behind ``scipy.linalg.orth``.
    """
    if not certify(F).is_frame:
        raise NotAFrameError("the Rayleigh oracle requires a certified frame")
    side = _side(F, sign)
    if not side:
        raise NotAFrameError(f"the side {sign:+d} is empty")
    u = scipy.linalg.orth(np.hstack([b for b, _ in side]))
    k = u.shape[1]
    space = F.space
    s_part = frame_operator_part(F, sign)
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


def in_span(W, x, tol: float = 1e-9) -> bool:
    """Whether x lies in W within relative residual tol (the default tau_num),
    measured against ``projection_oracle``."""
    x = W.space.check_vector(x)
    return np.linalg.norm(x - projection_oracle(W, x)) <= tol * max(1.0, np.linalg.norm(x))


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


def gramian_min_modulus(W: Subspace) -> float:
    """gamma(G_W): the smallest |eigenvalue| of the compressed Gramian that
    classify does not count as zero, or 0.0 when there is none; for a regular
    W, the margin classify keeps.
    """
    m = np.abs(np.linalg.eigvalsh(gramian(W)))
    m = m[m > _def_floor(W.space, m.size)]
    return float(m.min()) if m.size else 0.0


def partial_frame_operator(F: VectorFrame, subset) -> np.ndarray:
    """S_I = sum_{i in I} sigma_i f_i f_i* J over a member subset, one member at a time."""
    s = np.zeros((F.space.dim, F.space.dim), dtype=complex)
    for i in subset:
        s += F.signs[i] * np.outer(F.vector(i), F.vector(i).conj())
    return s @ F.space.J


def as_weighted_family(F: VectorFrame) -> WeightedFamily:
    """One-dimensional family equivalent of a vector frame.

    Weights ||f_i|| make the weighted projection sums coincide with the
    vector-frame coefficient sums, so bounds and certification agree.
    """
    subspaces = [Subspace(F.space, F.matrix[:, i : i + 1]) for i in range(len(F))]
    weights = [float(np.linalg.norm(F.matrix[:, i])) for i in range(len(F))]
    return WeightedFamily(F.space, subspaces, weights)


def identity_trials(rng: np.random.Generator, trials: int, m: int, n: int):
    """The identity task's (masks, fs), drawn a trial at a time: its subset of
    the m members from m uniform draws below 1/2, then its test vector in
    C^n from ``random_complex``."""
    masks = np.empty((trials, m), dtype=bool)
    fs = np.empty((n, trials), dtype=complex)
    for t in range(trials):
        masks[t] = rng.uniform(size=m) < 0.5
        fs[:, t] = random_complex(rng, n)
    return masks, fs
