"""Command-line interface: certificate reports over problem documents.

Reports are deterministic: identical (document, seed, tolerances) produce
byte-identical JSON.  The JSON report goes to stdout and a short
human-readable summary to stderr; exit status is 0 when every requested
verdict passes, 1 on a failed verdict, 2 on usage or document errors.
"""

from __future__ import annotations

import argparse
import enum
import json
import sys
import zlib

import numpy as np

from . import __version__
from .core import Record, Subspace, Tolerances
from .duality import (
    dual_bounds_check,
    fusion_dual_bounds_check,
    fundamental_identity_sides_batch,
)
from .errors import (
    DefinitenessTransportError,
    KreinFramesError,
    MemberClassificationError,
    NotSurjectiveError,
    SchemaError,
    SingularOperatorError,
    UsageError,
    ValidationError,
)
from .fusion import bounds_sandwich_ok, certify, converse_check, optimal_bounds
from .problem import ProblemSpec, _collector_paused, decode_document, parse_spec
from .sampling import rng_from_seed
from .transforms import (
    _necessary_conditions,
    is_j_isometry_multiple,
    preservation_report,
    transform_family,
)

_MAX_SAMPLES = 100000  # the identity task allocates a row per sample up front


def _jsonable(obj):
    """Report payloads to JSON-safe structures; complex becomes [re, im].

    Raises TypeError for a type no report holds, rather than writing its
    repr, which can embed an address and so change from run to run.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):  # np.float64 too
        return obj if np.isfinite(obj) else repr(float(obj))  # "inf", not numpy's repr
    if isinstance(obj, np.ndarray) and np.iscomplexobj(obj):
        # each entry's [re, im] in one numpy step; no report holds a real array
        return np.stack((obj.real, obj.imag), axis=-1).tolist()
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, Subspace):
        return {"dim": obj.dim, "ortho_basis": _jsonable(obj.ortho_basis)}
    if isinstance(obj, Record):
        return {f: _jsonable(getattr(obj, f)) for f in obj._fields}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"no JSON form for a report value of type {type(obj).__name__}")


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _by_name(section: dict, entry):
    """{name: report} over a problem section in name order, and whether every
    entry passed; entry(name, value) gives one entry's (report, passed)."""
    out, ok = {}, True
    for name in sorted(section):
        out[name], passed = entry(name, section[name])
        ok = ok and passed
    return out, ok


def _families_and_frames(problem: ProblemSpec, family, vframe):
    families, families_ok = _by_name(problem.families, family)
    frames, frames_ok = _by_name(problem.vector_frames, vframe)
    return {"families": families, "vector_frames": frames}, families_ok and frames_ok


def _task_classify(problem: ProblemSpec, seed, samples):
    def family(name, fam):
        members = [
            {"dim": w.dim, "weight": v, **vars(w.classify())} for w, v in fam.members()
        ]
        return {"members": members, "signs": fam.signs}, True

    def vframe(name, vf):
        return {"signs": vf.signs, "count": len(vf)}, True

    return _families_and_frames(problem, family, vframe)


def _task_certify(problem: ProblemSpec, seed, samples):
    def family(name, fam):
        cert = certify(fam)
        report = vars(cert).copy()  # bounds and transform reuse the cached cert
        try:
            report["converse"] = converse_check(fam)
        except NotSurjectiveError as exc:
            report["converse"] = {"error": str(exc)}
        return report, cert.is_frame

    def vframe(name, vf):
        verdict = vf._certificate.is_frame
        return {"is_frame": verdict}, verdict

    return _families_and_frames(problem, family, vframe)


def _task_bounds(problem: ProblemSpec, seed, samples):
    def family(name, fam):
        cert = certify(fam)
        if not cert.is_frame:
            return {"error": "not a J-fusion frame"}, False
        bounds = {"optimal": cert.optimal_bounds, "estimate": cert.estimate_bounds}
        sandwich = bounds_sandwich_ok(*bounds.values(), fam.space.tol.tau_num)
        return {**bounds, "sandwich_ok": sandwich}, sandwich

    def vframe(name, vf):
        if not vf._certificate.is_frame:
            return {"error": "not a J-frame"}, False
        return {"optimal": optimal_bounds(vf)}, True

    return _families_and_frames(problem, family, vframe)


def _task_dual(problem: ProblemSpec, seed, samples):
    def family(name, fam):
        # the fusion-level reciprocal relation is recorded per instance and
        # does not gate the exit status
        try:
            return {**vars(fusion_dual_bounds_check(fam)), "advisory": True}, True
        except KreinFramesError as exc:
            return {"advisory": True, "error": str(exc)}, True

    def vframe(name, vf):
        if not vf._certificate.is_frame:
            return {"error": "not a J-frame"}, False
        try:
            report = dual_bounds_check(vf)
        except (SingularOperatorError, DefinitenessTransportError) as exc:
            return {"error": str(exc)}, False
        return report, report.ok

    return _families_and_frames(problem, family, vframe)


def _task_identity(problem: ProblemSpec, seed, samples):
    index = {name: i for i, name in enumerate(sorted(problem.vector_frames))}

    def vframe(name, vf):
        if not vf._certificate.is_frame:
            return {"error": "not a J-frame"}, False
        rng = rng_from_seed([seed, zlib.crc32(name.encode()), index[name]])
        trials = max(1, samples)
        # every trial's subset draw, then its test vector's real and imaginary
        # parts, in the generator's order, each into its own row
        u = np.empty((trials, len(vf)))
        z = np.empty((trials, 2, vf.space.dim))
        for t in range(trials):
            rng.random(out=u[t])
            rng.standard_normal(out=z[t])
        masks = u < 0.5
        fs = np.ascontiguousarray((z[:, 0] + 1j * z[:, 1]).T)
        try:
            lhs, rhs = fundamental_identity_sides_batch(vf, masks, fs)
        except SingularOperatorError as exc:
            return {"error": str(exc)}, False
        # relative to each trial's analysis energy sum_i |[f, f_i]|^2, which
        # scales as the sides' terms do; two sides that are exactly 0 agree
        energy = (np.abs(vf.matrix.conj().T @ vf.space._jx(fs)) ** 2).sum(axis=0)
        scale = np.maximum(energy, np.maximum(np.abs(lhs), np.abs(rhs)))
        rel = np.divide(np.abs(lhs - rhs), scale, out=np.zeros(trials), where=scale > 0)
        frame_ok = bool(np.all(rel < vf.space.tol.tau_num))
        return {
            "trials": trials, "max_relative_residual": float(rel.max()), "ok": frame_ok
        }, frame_ok

    out, ok = _by_name(problem.vector_frames, vframe)
    return {"vector_frames": out}, ok


def _task_transform(problem: ProblemSpec, seed, samples):
    def operator(op_name, op):
        def family(fam_name, fam):
            try:
                image, cert = transform_family(op, fam)
            except MemberClassificationError as exc:
                witness = _unit(op.matrix @ fam.subspaces[exc.index].basis[:, 0])
                return {"is_frame": False, "error": str(exc), "witness": witness}, False
            except NotSurjectiveError as exc:
                return {"is_frame": False, "error": str(exc)}, False
            report = {"certificate": cert}
            if cert.is_frame and certify(fam).is_frame:
                # the hypotheses of necessary_conditions_check, checked above
                report["necessary_conditions"] = _necessary_conditions(fam, image)
            return report, cert.is_frame

        scalar, c = is_j_isometry_multiple(op)
        families, ok = _by_name(problem.families, family)
        return {"j_isometry_multiple": scalar, "isometry_scale": c, "families": families}, ok

    out, ok = _by_name(problem.operators, operator)
    return {"operators": out}, ok


def _task_preserve(problem: ProblemSpec, seed, samples):
    families = problem.families
    supplied = [w for name in sorted(families) for w in families[name].subspaces]

    def operator(name, op):
        try:
            report = preservation_report(op, supplied, samples, seed)
        except KreinFramesError as exc:
            # an override can make a sample rank deficient or outside its hypothesis
            return {"error": str(exc)}, False
        out = {}
        for field, verdict in vars(report).items():
            out[field] = {k: getattr(verdict, k) for k in ("status", "samples_tested", "note")}
            if (v := verdict.counterexample) is not None:
                out[field]["counterexample"] = {
                    "subspace": v,
                    "detail": verdict.detail,
                    "image_witness": _unit(op.matrix @ v.basis[:, 0]),
                }
        return out, all(verdict.holds for verdict in vars(report).values())

    out, ok = _by_name(problem.operators, operator)
    return {"operators": out}, ok


_TASKS = {
    "classify": _task_classify,
    "certify": _task_certify,
    "bounds": _task_bounds,
    "dual": _task_dual,
    "identity": _task_identity,
    "transform": _task_transform,
    "preserve": _task_preserve,
}

COMMANDS = (*_TASKS, "all")


def run_command(command: str, problem: ProblemSpec, seed: int, samples: int) -> dict:
    """Build the certificate report for one command (or 'all')."""
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}; choose from {COMMANDS}")
    names = list(_TASKS) if command == "all" else [command]
    if command == "all":
        if not problem.operators:
            names = [n for n in names if n not in ("transform", "preserve")]
        if not problem.vector_frames:
            names = [n for n in names if n != "identity"]
    results = {}
    passed = True
    for name in names:
        res, ok = _TASKS[name](problem, seed, samples)
        results[name] = {"results": res, "pass": ok}
        passed = passed and ok
    return _jsonable({
        "tool": "kreinframes",
        "version": __version__,
        "command": command,
        "seed": seed,
        "samples": samples,
        "tolerances": problem.tolerances,
        "space": {"dim": problem.space.dim, "signature": problem.space.signature},
        "results": results,
        "pass": passed,
    })


def _summary_lines(report: dict) -> list[str]:
    lines = [
        f"kreinframes {report['version']} | command={report['command']} "
        f"seed={report['seed']} dim={report['space']['dim']} "
        f"signature={tuple(report['space']['signature'])}"
    ]
    for name, block in report["results"].items():
        lines.append(f"  {name}: {'PASS' if block['pass'] else 'FAIL'}")
    lines.append(f"overall: {'PASS' if report['pass'] else 'FAIL'}")
    return lines


def _resolve_seed(args, problem: ProblemSpec) -> int:
    """--seed, else the document's seed, else 0."""
    seed = args.seed if args.seed is not None else problem.seed
    if seed is not None and seed < 0:  # numpy's generators take no negative seed
        raise UsageError(f"the seed must be non-negative, got {seed}")
    return 0 if seed is None else seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinframes",
        description="Certify J-fusion frames over finite-dimensional Krein spaces.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--spec", required=True, help="path to a problem JSON document")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--samples", type=int, default=200, help="samples for sampling-based checks"
    )
    for name in Tolerances._fields:  # --tol-sym sets tau_sym, and so on
        parser.add_argument("--tol-" + name[4:], type=float, default=None)
    return parser


@_collector_paused
def _load(args) -> ProblemSpec:
    """The --spec document, --tol-* overrides merged, parsed with the collector paused."""
    doc = decode_document(args.spec)
    overrides = {k: getattr(args, "tol_" + k[4:]) for k in Tolerances._fields}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    tolerances = doc.get("tolerances", {})
    if overrides and isinstance(tolerances, dict):
        # a malformed document keeps its own tolerances for parse_spec to reject
        doc["tolerances"] = {**tolerances, **overrides}
    return parse_spec(doc)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.samples < 1:
            raise UsageError(f"--samples must be at least 1, got {args.samples}")
        if args.samples > _MAX_SAMPLES:
            raise UsageError(f"--samples must be at most {_MAX_SAMPLES}, got {args.samples}")
        problem = _load(args)
        seed = _resolve_seed(args, problem)
        report = run_command(args.command, problem, seed, args.samples)
    except (SchemaError, ValidationError, UsageError, MemberClassificationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    sys.stderr.write("\n".join(_summary_lines(report)) + "\n")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
