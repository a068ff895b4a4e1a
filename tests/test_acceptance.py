"""Top-level acceptance checks.

Each test exercises one end-to-end property at its stated tolerance and
prints a single PASS/FAIL line so the whole gate can be read at a glance.
Criterion 8 relates the angular operator K of a maximal uniformly definite
subspace M of sign sigma to gamma = gamma(G_M).  The relation is squared:
sigma * G_M has spectrum (1 - s^2) / (1 + s^2) over the singular values s of
K (zero-padded to dim M), so ||K||^2 = (1 - gamma) / (1 + gamma).  The linear
form ||K|| = (1 - gamma) / (1 + gamma) is false; the test's docstring gives a
counterexample.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kreinframes
from kreinframes import (
    KreinSpace,
    Operator,
    Subspace,
    VectorFrame,
)
from kreinframes.core import (
    angular_operator,
    gramian,
    indefinite_product,
    j_adjoint,
    j_projection,
    orthogonal_projection,
    reduced_min_modulus,
)
from kreinframes.duality import dual_bounds_check, fundamental_identity_sides
from kreinframes.fusion import (
    bounds_sandwich_ok,
    certify,
    j_image_family,
    optimal_bounds,
)
from kreinframes.sampling import (
    random_complex,
    random_maximal_definite_subspace,
    random_regular_subspace,
    rng_from_seed,
)
from kreinframes.transforms import (
    image_subspace,
    necessary_conditions_check,
    preserves_definiteness_with_sign,
    projection_commutation_check,
    transform_family,
)

from generators import (
    alternating_signature_space,
    neutral_image_operator,
    random_fusion_frame,
    random_j_unitary,
    random_space,
    random_vector_frame,
)
from oracles import OracleConfig, gamma_oracle, rayleigh_extremes

DEMO = Path(kreinframes.__file__).parent / "data" / "c3_demo.json"


def announce(capsys, number: int, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def random_small_space(rng, diagonal=False):
    n = int(rng.integers(2, 9))
    p = int(rng.integers(1, n))
    return random_space(rng, n, p, diagonal=diagonal)


def test_criterion_01_projection_example(capsys):
    space = KreinSpace.from_signs([1, 1, -1])
    w = Subspace(space, [[0.0], [1.0], [0.5]])
    x = np.array([1.0, 1.0, 1.0])
    orthogonal_projection(w)  # warm-up outside the timed region
    j_projection(w)
    start = time.perf_counter()
    pi_x = orthogonal_projection(w).matrix @ x
    q_x = j_projection(w).matrix @ x
    elapsed = time.perf_counter() - start
    ok = (
        np.allclose(pi_x, [0.0, 1.2, 0.6], atol=1e-12)
        and np.allclose(q_x, [0.0, 2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
        and np.linalg.norm(pi_x - q_x) > 0.5
        and elapsed < 1e-3
    )
    announce(capsys, 1, "projection example", ok)


def test_criterion_02_projection_adjoint_identities(capsys):
    rng = rng_from_seed(2026)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(100):
        space = random_small_space(rng)
        n = space.dim
        w = random_regular_subspace(space, rng)
        pi = orthogonal_projection(w).matrix
        jw = Subspace(space, space.J @ w.basis)
        pi_jw = orthogonal_projection(jw).matrix
        worst = max(worst, np.linalg.norm(pi_jw - space.J @ pi @ space.J, 2))
        q = j_projection(w)
        worst = max(worst, np.linalg.norm(q.matrix @ q.matrix - q.matrix, 2))
        worst = max(worst, np.linalg.norm(j_adjoint(q).matrix - q.matrix, 2))
        t = Operator(space, random_complex(rng, n, n))
        worst = max(
            worst, np.linalg.norm(j_adjoint(j_adjoint(t)).matrix - t.matrix, 2)
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    announce(capsys, 2, "projection and adjoint identities", ok)


def test_criterion_03_gamma_consistency(capsys):
    rng = rng_from_seed(3033)
    config = OracleConfig(n_samples=1500, seed=5)
    worst = 0.0
    worst_rel = 0.0
    start = time.perf_counter()
    for _ in range(100):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        t = random_complex(rng, m, n)
        g = reduced_min_modulus(t)
        worst = max(worst, abs(g - reduced_min_modulus(t.conj().T)))
        worst = max(worst, abs(g * g - reduced_min_modulus(t @ t.conj().T)))
        worst_rel = max(worst_rel, abs(gamma_oracle(t, config) - g) / g)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and worst_rel < 0.02 and elapsed < 5.0
    announce(capsys, 3, "reduced minimum modulus consistency", ok)


def _twenty_frames():
    rng = rng_from_seed(404)
    return [random_fusion_frame(random_small_space(rng), rng) for _ in range(20)]


def test_criterion_04_certification_and_bounds(capsys):
    start = time.perf_counter()
    ok = True
    for idx, fam in enumerate(_twenty_frames()):
        cert = certify(fam)
        ok = ok and cert.is_frame
        bounds = cert.optimal_bounds
        config = OracleConfig(n_samples=10000, seed=idx, refine=False)
        lo, hi = rayleigh_extremes(fam, 1, config)
        slack = 1e-9 * (1.0 + max(abs(bounds.a_plus), abs(bounds.b_plus)))
        ok = ok and bounds.a_plus - slack <= lo and hi <= bounds.b_plus + slack
        lo, hi = rayleigh_extremes(fam, -1, config)
        slack = 1e-9 * (1.0 + max(abs(bounds.a_minus), abs(bounds.b_minus)))
        ok = ok and bounds.b_minus - slack <= lo and hi <= bounds.a_minus + slack
        ok = ok and bounds_sandwich_ok(
            bounds, cert.estimate_bounds, fam.space.tol.tau_num
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    announce(capsys, 4, "certification, sampled quotients, estimate sandwich", ok)


def test_criterion_05_symmetry_image_family(capsys):
    ok = True
    for fam in _twenty_frames():
        base = optimal_bounds(fam)
        image = j_image_family(fam)
        cert = certify(image)
        ok = ok and cert.is_frame
        scale = max(abs(v) for v in base.as_tuple())
        diff = max(
            abs(a - b)
            for a, b in zip(cert.optimal_bounds.as_tuple(), base.as_tuple())
        )
        ok = ok and diff < 1e-9 * scale
    announce(capsys, 5, "image family under the fundamental symmetry", ok)


def test_criterion_06_dual_bounds_reciprocity(capsys):
    rng = rng_from_seed(606)
    ok = True
    for _ in range(20):
        frame = random_vector_frame(random_small_space(rng), rng)
        report = dual_bounds_check(frame)
        ok = ok and report.ok and report.max_rel_error < 1e-9
    space = KreinSpace.from_signs([1, -1])
    axis = VectorFrame(space, [[2.0, 0.0], [0.0, 3.0]])
    report = dual_bounds_check(axis)
    expected = (-1.0 / 9.0, -1.0 / 9.0, 0.25, 0.25)
    ok = ok and all(
        abs(a - b) < 1e-12 for a, b in zip(report.dual.as_tuple(), expected)
    )
    announce(capsys, 6, "canonical dual bounds reciprocity", ok)


def test_criterion_07_fundamental_identity(capsys):
    rng = rng_from_seed(707)
    ok = True
    for _ in range(100):
        frame = random_vector_frame(random_small_space(rng), rng)
        subset = [i for i in range(len(frame)) if rng.uniform() < 0.5]
        f = random_complex(rng, frame.space.dim)
        lhs, rhs = fundamental_identity_sides(frame, subset, f)
        scale = max(abs(lhs), abs(rhs))
        ok = ok and abs(lhs - rhs) < 1e-9 * (1.0 + scale)
    announce(capsys, 7, "fundamental identity", ok)


def test_criterion_08_angular_norm_linear_formula(capsys):
    """||K|| = sqrt((1 - gamma) / (1 + gamma)) for a maximal definite M.

    M is the graph {x + Kx : x in H_sigma} with ||K|| < 1.  For the singular
    pairs (v_i, s_i) of K the vectors v_i + K v_i are orthogonal and
    J-orthogonal, with sigma [y, y] / ||y||^2 = (1 - s_i^2) / (1 + s_i^2), so
    that is the spectrum of sigma * G_M and
    gamma = (1 - ||K||^2) / (1 + ||K||^2).
    The linear form ||K|| = (1 - gamma) / (1 + gamma) is false: the line
    through (1, t) in C^2 with J = diag(1, -1) has ||K|| = t, while
    (1 - gamma) / (1 + gamma) = t^2.
    """
    rng = rng_from_seed(808)
    ok = True
    for _ in range(20):
        space = random_small_space(rng)
        sign = 1 if rng.uniform() < 0.5 or space.signature[1] == 0 else -1
        m = random_maximal_definite_subspace(space, rng, sign)
        ang = angular_operator(m, sign)
        g_m = gramian(m)
        g = reduced_min_modulus(g_m, tol=space.tol)
        ok = ok and abs(ang.norm - np.sqrt((1.0 - g) / (1.0 + g))) < 1e-8
        s = np.zeros(m.dim)
        sv = np.linalg.svd(ang.matrix, compute_uv=False)
        s[: sv.size] = sv
        expected = np.sort((1.0 - s**2) / (1.0 + s**2))
        spectrum = np.linalg.eigvalsh(sign * g_m)
        ok = ok and np.max(np.abs(spectrum - expected)) < 1e-8
    announce(capsys, 8, "angular norm linear formula", ok)


def test_criterion_09_operator_transforms(capsys):
    ok = True

    # (a) the truncation-style operator produces a neutral image with an
    # exact neutral witness along (1, 1, 0, 0)
    space = alternating_signature_space(4)
    op = neutral_image_operator(space)
    e1 = Subspace(space, [[1.0], [0.0], [0.0], [0.0]])
    verdict = preserves_definiteness_with_sign(op, [e1], n_random=0)
    ok = ok and verdict.status == "counterexample"
    witness = op.matrix @ np.array([1.0, 0.0, 0.0, 0.0])
    ok = ok and np.array_equal(witness, [1.0, 1.0, 0.0, 0.0])
    ok = ok and indefinite_product(space, witness, witness) == 0.0

    # (b) scalar multiples of random J-unitaries transform certified frames
    # into certified frames, and (d) the induced decomposition holds
    rng = rng_from_seed(909)
    for _ in range(20):
        base = random_small_space(rng)
        fam = random_fusion_frame(base, rng)
        scale = float(rng.uniform(0.5, 2.0))
        op = Operator(base, scale * random_j_unitary(base, rng).matrix)
        try:
            _, cert = transform_family(op, fam)
        except Exception:
            ok = False
            continue
        ok = ok and cert.is_frame
        if cert.is_frame:
            ok = ok and necessary_conditions_check(op, fam).holds

    # (c) commutation of J-projections with the J-adjoint across the image
    count = 0
    while count < 100:
        base = random_small_space(rng)
        t = Operator(base, random_complex(rng, base.dim, base.dim))
        v = random_regular_subspace(base, rng)
        img = image_subspace(t, v)
        if img is None or not img.classify().regular:
            continue
        count += 1
        ok = ok and projection_commutation_check(t, v) < 1e-9
    announce(capsys, 9, "operator transform properties", ok)


def test_criterion_10_cli_determinism(capsys):
    cmd = [
        sys.executable,
        "-m",
        "kreinframes.cli",
        "all",
        "--spec",
        str(DEMO),
        "--seed",
        "0",
        "--samples",
        "50",
    ]
    # the child imports kreinframes from this checkout, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(kreinframes.__file__).parent.parent)}
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
        and json.loads(first.stdout)["pass"] is True
    )
    announce(capsys, 10, "deterministic command-line reports", ok)
