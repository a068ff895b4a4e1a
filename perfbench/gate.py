"""Correctness gate: compare a document's outcome with its recorded reference.

An outcome is ``{"exit": int, "traceback": bool, "report": dict | None}``:
the CLI exit code (0 pass, 1 failed verdict, 2 document error), whether a
traceback escaped, and the JSON report.  Every key, verdict, count and
string must match exactly; every float must match to a relative 1e-9.
Two kinds of float get a scale beyond their own size, because exact
arithmetic makes them (or some of their entries) zero and any change of
algorithm leaves ~1e-16 there instead:

- entries of a vector (``VECTOR_KEYS``: witnesses, projector probes) match
  to 1e-9 relative to the vector's largest entry;
- residuals (``RESIDUAL_KEYS``: identity residuals, reciprocal-relation
  errors) match to a relative 1e-9 or an absolute 1e-10, far below the
  1e-9 tolerance the program checks them against.

Two report fields are not unique in exact arithmetic, so they are compared
through canonical forms instead of raw floats:

- ``ortho_basis`` (an orthonormal basis of a subspace) through its
  projector applied to a fixed probe vector, which any basis of the same
  subspace reproduces;
- unit witness vectors (``PHASE_FREE`` keys) up to one unit phase, which an
  eigenvector or normalised image is only determined up to.

Standard library only, so ``run.py`` can check the gate itself before any
worker starts.
"""

from __future__ import annotations

import copy
import json

REL = 1e-9
RESIDUAL_ABS = 1e-10
RESIDUAL_KEYS = {"max_rel_error", "max_relative_residual"}
PHASE_FREE = {"vector", "witness", "image_witness"}
VECTOR_KEYS = PHASE_FREE | {"projector_probe"}
MAX_MISMATCHES = 5


def canonical(obj):
    """The report with every ``ortho_basis`` replaced by its projector probe."""
    if isinstance(obj, dict):
        return {
            ("projector_probe" if k == "ortho_basis" else k):
            (_projector_probe(v) if k == "ortho_basis" else canonical(v))
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [canonical(v) for v in obj]
    return obj


def _projector_probe(rows) -> list:
    u = [[complex(*z) for z in row] for row in rows]
    n, k = len(u), len(u[0])
    x = [complex(1.0, (i + 1) / n) for i in range(n)]
    c = [sum(u[i][j].conjugate() * x[i] for i in range(n)) for j in range(k)]
    px = [sum(u[i][j] * c[j] for j in range(k)) for i in range(n)]
    return [[z.real, z.imag] for z in px]


def _close(a: float, b: float, scale: float, floor: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b), scale) + floor


def _vector_scale(v) -> float:
    """The largest entry of a vector of [re, im] pairs (0 for anything else)."""
    try:
        return max((abs(complex(*z)) for z in v), default=0.0)
    except TypeError:
        return 0.0


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _phase_aligned(ref: list, live: list):
    """``live`` times the unit phase that best aligns it with ``ref``."""
    try:
        a = [complex(*z) for z in ref]
        b = [complex(*z) for z in live]
    except TypeError:
        return live
    inner = sum(x * y.conjugate() for x, y in zip(a, b))
    if len(a) != len(b) or abs(inner) == 0.0:
        return live
    phase = inner / abs(inner)
    return [[(phase * y).real, (phase * y).imag] for y in b]


def diff(ref, live, path: str = "$", out: list | None = None,
         scale: float = 0.0, floor: float = 0.0) -> list[str]:
    """Mismatches between a reference and a live value (empty when equal).

    ``scale`` and ``floor`` widen the float tolerance below a vector or
    residual key (see the module docstring).
    """
    out = [] if out is None else out
    if len(out) >= MAX_MISMATCHES:
        return out
    if _is_number(ref) and _is_number(live):
        if isinstance(ref, int) and isinstance(live, int):
            if ref != live:
                out.append(f"{path}: {ref} != {live}")
        elif not _close(float(ref), float(live), scale, floor):
            out.append(f"{path}: {ref!r} != {live!r}")
    elif isinstance(ref, dict) and isinstance(live, dict):
        if set(ref) != set(live):
            out.append(f"{path}: keys {sorted(set(ref) ^ set(live))} differ")
            return out
        for k in sorted(ref):
            v = live[k]
            if k in PHASE_FREE and isinstance(v, list):
                v = _phase_aligned(ref[k], v)
            diff(ref[k], v, f"{path}.{k}", out,
                 scale=_vector_scale(ref[k]) if k in VECTOR_KEYS else scale,
                 floor=RESIDUAL_ABS if k in RESIDUAL_KEYS else floor)
    elif isinstance(ref, list) and isinstance(live, list):
        if len(ref) != len(live):
            out.append(f"{path}: length {len(ref)} != {len(live)}")
            return out
        for i, (r, v) in enumerate(zip(ref, live)):
            diff(r, v, f"{path}[{i}]", out, scale, floor)
    elif type(ref) is not type(live) or ref != live:
        out.append(f"{path}: {ref!r} != {live!r}")
    return out


def outcome(exit_code: int, stdout: str, stderr: str) -> dict:
    """The gate's view of one CLI run (or its in-process equivalent)."""
    try:
        report = json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        report = {"unparsable_stdout": stdout[:200]}
    return {
        "exit": exit_code,
        "traceback": "Traceback (most recent call last)" in stderr,
        "report": report,
    }


def reproduces_known_defect(ref: dict, result: dict) -> bool:
    """Whether an outcome is its document's recorded known defect, unchanged."""
    return (bool(ref.get("known_defect")) and result["exit"] == ref["exit"]
            and result["traceback"] == ref["traceback"] and result["report"] is None)


def check(ref: dict, result: dict) -> list[str]:
    """Reasons an outcome fails against its document's reference record.

    A reference marked ``known_defect`` records what the program did when
    the reference was taken, which breaks the CLI contract.  Such a document
    passes only once the program meets the contract (``contract_exit`` and
    no traceback); until then the recorded defect is reported as one, and
    any other outcome as a plain failure.
    """
    if ref.get("known_defect"):
        if result["exit"] == ref["contract_exit"] and not result["traceback"]:
            return []
        if reproduces_known_defect(ref, result):
            return [f"known defect: {ref['known_defect']}"]
        return [f"exit {result['exit']} (traceback: {result['traceback']}) is neither "
                f"the CLI contract's exit {ref['contract_exit']} nor the recorded known defect"]
    reasons = []
    if result["traceback"]:
        reasons.append("a traceback escaped")
    if result["exit"] != ref["exit"]:
        reasons.append(f"exit {result['exit']} != reference {ref['exit']}")
    if (ref["report"] is None) != (result["report"] is None):
        reasons.append("report presence differs from the reference")
    elif ref["report"] is not None:
        reasons += diff(ref["report"], canonical(result["report"]))
    return reasons


def self_check(ref: dict) -> list[str]:
    """Problems with the gate, found by feeding it known-bad outcomes.

    ``ref`` must be a passing frame document whose report carries optimal
    bounds.  The gate must accept the reference itself and a 1e-15 relative
    change of a bound, and must reject the largest or the smallest bound
    scaled by (1 + 1e-6), a flipped verdict and an outcome whose stderr
    showed a traceback.
    """
    stdout = json.dumps(ref["report"])
    good = outcome(ref["exit"], stdout, "")
    problems = []

    def bound_holder(report):
        for block in report["results"]["bounds"]["results"].values():
            for entry in block.values():
                if isinstance(entry, dict) and "optimal" in entry:
                    return entry["optimal"]
        raise ValueError("reference has no optimal bounds")

    def scaled(factor, pick=max):
        o = copy.deepcopy(good)
        holder = bound_holder(o["report"])
        key = pick((k for k, v in holder.items() if _is_number(v) and v != 0),
                   key=lambda k: abs(holder[k]))
        holder[key] *= factor
        return o

    flipped = copy.deepcopy(good)
    flipped["report"]["pass"] = not flipped["report"]["pass"]
    traceback = outcome(ref["exit"], stdout, "Traceback (most recent call last):\n")
    for name, result, want_fail in (
        ("unchanged report", good, False),
        ("bound scaled by 1 + 1e-15", scaled(1 + 1e-15), False),
        ("largest bound scaled by 1 + 1e-6", scaled(1 + 1e-6), True),
        ("smallest bound scaled by 1 + 1e-6", scaled(1 + 1e-6, min), True),
        ("flipped verdict", flipped, True),
        ("traceback on stderr", traceback, True),
    ):
        if bool(check(ref, result)) != want_fail:
            problems.append(f"gate {'accepted' if want_fail else 'rejected'} {name}")
    return problems

