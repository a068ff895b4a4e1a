"""Seeded problem documents for the benchmark workloads.

Uses numpy only and never imports ``kreinframes``: the program under test
sees nothing but the JSON text made here.  Every workload draws its run's
documents from a fixed pool of documents, one pool per document class, so
that references recorded once (``record.py``) cover every workload seed.
The workload seed only decides which pool documents fill the run's slots.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

GENERATOR_VERSION = 1
DEMO_PATH = os.path.join("src", "kreinframes", "data", "c3_demo.json")
CLI_DEFAULT_SAMPLES = 200

# Slot patterns fix each run's mix of document classes, so every seed runs
# the same kinds of work in the same proportions.
SLOTS = {
    # 1 in 10 invalid: a rank-deficient basis and a schema error per 20,
    # early enough that every run reaches both
    "cli_small": ["demo", "n4", "n6", "n4", "rankdef"] + ["n6", "n4"] * 4
    + ["schema"] + ["n6", "n4"] * 3,
    # half diagonal J, half not; one document in four is a non-frame.  The
    # in-process sets hold more documents than a worker process runs (see
    # run.SEGMENTS), so no document repeats within a process.
    "fusion_docs": ["frame_diag", "frame_full", "frame_diag", "nonframe_full",
                    "frame_full", "frame_diag", "nonframe_diag", "frame_full"] * 2,
    "vframe_docs": ["diag", "full"] * 8,
    "preserve_docs": ["alt"] * 8,
}
POOL_PER_CLASS = {
    "cli_small": {"demo": 1, "n4": 16, "n6": 16, "schema": 3, "rankdef": 3},
    "fusion_docs": {"frame_diag": 10, "frame_full": 10,
                    "nonframe_diag": 4, "nonframe_full": 4},
    "vframe_docs": {"diag": 12, "full": 12},
    "preserve_docs": {"alt": 16},
}
SAMPLES = {
    "cli_small": CLI_DEFAULT_SAMPLES,
    "fusion_docs": CLI_DEFAULT_SAMPLES,
    "vframe_docs": 50,
    "preserve_docs": 100,
}
WORKLOADS = tuple(SLOTS)


@dataclass(frozen=True)
class Doc:
    cls: str
    k: int
    text: str

    @property
    def id(self) -> str:
        return f"{self.cls}-{self.k}"

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rows(m: np.ndarray) -> list:
    """Rows of a complex matrix as lists of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [list(map(list, zip(re, im)))
            for re, im in zip(m.real.tolist(), m.imag.tolist())]


def _columns(m: np.ndarray) -> list:
    return _rows(np.asarray(m).T)


def _symmetry(rng, n: int, p: int, diagonal: bool):
    """(J as JSON rows, plus basis, minus basis) of signature (p, n - p)."""
    signs = np.r_[np.ones(p), -np.ones(n - p)]
    if diagonal:
        eye = np.eye(n)
        return [[int(v) for v in row] for row in np.diag(signs)], eye[:, :p], eye[:, p:]
    q, _ = np.linalg.qr(_cplx(rng, n, n))
    j = q @ np.diag(signs) @ q.conj().T
    return _rows(0.5 * (j + j.conj().T)), q[:, :p], q[:, p:]


def _maximal(rng, dom, codom, tilt: float) -> np.ndarray:
    """Basis of the graph of an angular operator of norm ``tilt`` < 1."""
    k = _cplx(rng, codom.shape[1], dom.shape[1])
    k *= tilt / np.linalg.norm(k, 2)
    return dom + codom @ k


def _dims(rng, count: int, total: int, lo: int, hi: int) -> list[int]:
    """``count`` member dimensions in [lo, hi] with a fixed sum."""
    dims = rng.integers(lo, hi + 1, count)
    while dims.sum() != total:
        i = int(rng.integers(count))
        step = 1 if dims.sum() < total else -1
        if lo <= dims[i] + step <= hi:
            dims[i] += step
    return [int(d) for d in dims]


def _side(rng, basis, dims, span_dim: int) -> list[np.ndarray]:
    """Members inside a ``span_dim``-dimensional part of a maximal subspace."""
    basis = basis @ _cplx(rng, basis.shape[1], span_dim)
    return [basis @ _cplx(rng, span_dim, d) for d in dims]


def _family(rng, plus, minus, per_side: int, dims_total, dim_range, deficit=0):
    p, q = plus.shape[1], minus.shape[1]
    members = []
    for sign, count_dim in ((1, p), (-1, q)):
        dom, codom = (plus, minus) if sign == 1 else (minus, plus)
        basis = _maximal(rng, dom, codom, float(rng.uniform(0.3, 0.6)))
        span_dim = count_dim - (deficit if sign == 1 else 0)
        lo, hi = dim_range
        dims = _dims(rng, per_side, dims_total(count_dim), lo, min(hi, span_dim))
        members += _side(rng, basis, dims, span_dim)
    weights = [float(w) for w in rng.uniform(0.5, 2.0, len(members))]
    return {"subspaces": [_columns(m) for m in members], "weights": weights}


def _vectors(rng, plus, minus, per_side: int) -> list:
    vectors = []
    for dom, codom in ((plus, minus), (minus, plus)):
        basis = _maximal(rng, dom, codom, float(rng.uniform(0.3, 0.6)))
        cols = basis @ _cplx(rng, dom.shape[1], per_side)
        cols *= rng.uniform(0.5, 2.0, per_side)
        vectors += _columns(cols)
    return vectors


def _j_unitary(rng, j: np.ndarray, scale: float) -> np.ndarray:
    """Cayley transform (I - A)^-1 (I + A) of the J-skew A = J H, H skew."""
    h = _cplx(rng, *j.shape)
    h = 0.5 * (h - h.conj().T)
    a = j @ h * (scale / np.linalg.norm(h, 2))
    eye = np.eye(j.shape[0])
    return np.linalg.solve(eye - a, eye + a)


def _j_matrix(rows) -> np.ndarray:
    return np.array(
        [[complex(*v) if isinstance(v, list) else v for v in row] for row in rows],
        dtype=complex,
    )


def _small(rng, n: int, doc_seed: int) -> dict:
    p = int(rng.integers(1, n))
    j_rows, plus, minus = _symmetry(rng, n, p, diagonal=bool(rng.integers(2)))
    family = _family(
        rng, plus, minus, per_side=2,
        dims_total=lambda d: d + 1, dim_range=(1, max(1, n // 2)),
    )
    op = _j_unitary(rng, _j_matrix(j_rows), 0.5)
    return {
        "space": {"dim": n, "J": j_rows},
        "families": {"fam": family},
        "vector_frames": {"vf": _vectors(rng, plus, minus, per_side=n)},
        "operators": {"u": _rows(op)},
        "seed": doc_seed,
    }


def _make(workload: str, cls: str, k: int) -> dict | str:
    tag = WORKLOADS.index(workload)
    cls_tag = sorted(POOL_PER_CLASS[workload]).index(cls)
    rng = np.random.default_rng([GENERATOR_VERSION, tag, cls_tag, k])
    doc_seed = 1000 * tag + 100 * cls_tag + k
    if workload == "cli_small":
        if cls == "demo":
            with open(DEMO_PATH) as fh:
                return fh.read()
        doc = _small(rng, 6 if cls == "n6" else 4, doc_seed)
        if cls == "schema":
            doc["families"]["fam"]["weights"].append(1.0)
        elif cls == "rankdef":
            first = doc["families"]["fam"]["subspaces"][0]
            doc["families"]["fam"]["subspaces"][0] = [first[0], list(first[0])]
        return doc
    if workload == "fusion_docs":
        n, p = 160, 80
        j_rows, plus, minus = _symmetry(rng, n, p, diagonal=cls.endswith("diag"))
        family = _family(
            rng, plus, minus, per_side=16, dims_total=lambda d: 120,
            dim_range=(1, 12), deficit=8 if cls.startswith("nonframe") else 0,
        )
        return {"space": {"dim": n, "J": j_rows}, "families": {"fam": family},
                "seed": doc_seed}
    if workload == "vframe_docs":
        n, p = 64, 32
        j_rows, plus, minus = _symmetry(rng, n, p, diagonal=cls == "diag")
        return {"space": {"dim": n, "J": j_rows},
                "vector_frames": {"vf": _vectors(rng, plus, minus, per_side=64)},
                "seed": doc_seed}
    if workload == "preserve_docs":
        # alternating_signature_space(48): J = diag(1, -1, 1, -1, ...)
        n = 48
        signs = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
        eye = np.eye(n)
        plus, minus = eye[:, signs > 0], eye[:, signs < 0]
        family = _family(
            rng, plus, minus, per_side=2,
            dims_total=lambda d: d + int(rng.integers(0, 5)), dim_range=(8, 20),
        )
        j = np.diag(signs)
        neutral = np.eye(n)
        neutral[:2, :2] = [[1.0, 1.0], [1.0, 2.0]]
        return {
            "space": {"dim": n, "J": [[int(v) for v in row] for row in j]},
            "families": {"fam": family},
            "operators": {
                "j_unitary": _rows(_j_unitary(rng, j, 0.5)),
                "neutral_image": [[float(v) for v in row] for row in neutral],
                "scaled_j_unitary": _rows(2.0 * _j_unitary(rng, j, 0.5)),
            },
            "seed": doc_seed,
        }
    raise ValueError(f"unknown workload {workload!r}")


def make_doc(workload: str, cls: str, k: int) -> Doc:
    doc = _make(workload, cls, k)
    text = doc if isinstance(doc, str) else json.dumps(doc)
    return Doc(cls, k, text)


def pool(workload: str) -> list[tuple[str, int]]:
    """Every (class, index) the workload can draw, in a fixed order."""
    return [(cls, k) for cls, count in POOL_PER_CLASS[workload].items()
            for k in range(count)]


def doc_set(workload: str, seed: int) -> list[Doc]:
    """The run's documents: one pool document per slot, chosen by ``seed``."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed % 2**64])
    picks = {cls: list(rng.permutation(count))
             for cls, count in POOL_PER_CLASS[workload].items()}
    docs = []
    for cls in SLOTS[workload]:
        docs.append(make_doc(workload, cls, int(picks[cls].pop(0))))
    return docs
