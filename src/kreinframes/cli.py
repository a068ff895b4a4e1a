"""Command-line interface: certificate reports over problem documents.

Reports are deterministic: identical (document, seed, tolerances) produce
byte-identical JSON.  The JSON report goes to stdout and a short
human-readable summary to stderr; exit status is 0 when every requested
verdict passes, 1 on a failed verdict, 2 on usage or document errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import os
import sys
import zlib

import numpy as np

from . import __version__
from .core import Subspace
from .duality import (
    dual_bounds_check,
    fusion_dual_bounds_check,
    fundamental_identity_sides_batch,
    is_j_frame,
)
from .errors import (
    DefinitenessTransportError,
    KreinFramesError,
    MemberClassificationError,
    NotAFrameError,
    NotSurjectiveError,
    SchemaError,
    SingularOperatorError,
    UsageError,
    ValidationError,
)
from .fusion import bounds_sandwich_ok, certify, converse_check, optimal_bounds
from .problem import ProblemSpec, decode_document, parse_spec
from .sampling import random_complex, rng_from_seed
from .transforms import (
    _necessary_conditions,
    _preservation_reports,
    is_j_isometry_multiple,
    transform_family,
)

COMMANDS = (
    "classify",
    "certify",
    "bounds",
    "dual",
    "identity",
    "transform",
    "preserve",
    "all",
)

SEED_ENV_VAR = "KREIN_FRAMES_SEED"


def _jsonable(obj):
    """Report payloads to JSON-safe structures; complex becomes [re, im].

    Raises TypeError for a type no report holds, rather than writing its
    repr, which can embed an address and so change from run to run.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):  # np.float64 too
        return obj if np.isfinite(obj) else repr(float(obj))  # "inf", not numpy's repr
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):  # each entry's [re, im], in one numpy step
            return np.stack((obj.real, obj.imag), axis=-1).tolist()
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, Subspace):
        return {"dim": obj.dim, "ortho_basis": _jsonable(obj.ortho_basis)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"no JSON form for a report value of type {type(obj).__name__}")


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _sorted_items(d):
    return sorted(d.items(), key=lambda kv: kv[0])


def _task_classify(problem: ProblemSpec, seed, samples):
    out = {"families": {}, "vector_frames": {}}
    for name, fam in _sorted_items(problem.families):
        members = []
        for w, v in fam.members():
            cls = w.classify()
            members.append(
                {
                    "dim": w.dim,
                    "weight": v,
                    "kind": cls.kind,
                    "regular": cls.regular,
                    "maximal_definite": cls.maximal_definite,
                    "extremal_gram_eigen": cls.extremal_gram_eigen,
                }
            )
        out["families"][name] = {"members": members, "signs": fam.signs}
    for name, vf in _sorted_items(problem.vector_frames):
        out["vector_frames"][name] = {"signs": vf.signs, "count": len(vf)}
    return out, True


def _task_certify(problem: ProblemSpec, seed, samples):
    out = {"families": {}, "vector_frames": {}}
    ok = True
    for name, fam in _sorted_items(problem.families):
        cert = certify(fam)
        # copies, as bounds and transform reuse the cached cert; a witness is
        # normalised as (n, 2) [re, im] pairs to keep the bits it reports
        entry = {**vars(cert), "witnesses": [
            {**w, "vector": _unit(np.stack((w["vector"].real, w["vector"].imag), -1))}
            if "vector" in w else w
            for w in cert.witnesses
        ]}
        try:
            entry["converse"] = converse_check(fam)
        except NotSurjectiveError as exc:
            entry["converse"] = {"error": str(exc)}
        out["families"][name] = entry
        ok = ok and cert.is_frame
    for name, vf in _sorted_items(problem.vector_frames):
        verdict = is_j_frame(vf)
        out["vector_frames"][name] = {"is_frame": verdict}
        ok = ok and verdict
    return out, ok


def _task_bounds(problem: ProblemSpec, seed, samples):
    out = {"families": {}, "vector_frames": {}}
    ok = True
    for name, fam in _sorted_items(problem.families):
        cert = certify(fam)
        if not cert.is_frame:
            out["families"][name] = {"error": "not a J-fusion frame"}
            ok = False
            continue
        sandwich = bounds_sandwich_ok(
            cert.optimal_bounds, cert.estimate_bounds, fam.space.tol.tau_num
        )
        out["families"][name] = {
            "optimal": cert.optimal_bounds,
            "estimate": cert.estimate_bounds,
            "sandwich_ok": sandwich,
        }
        ok = ok and sandwich
    for name, vf in _sorted_items(problem.vector_frames):
        if not is_j_frame(vf):
            out["vector_frames"][name] = {"error": "not a J-frame"}
            ok = False
            continue
        out["vector_frames"][name] = {"optimal": optimal_bounds(vf)}
    return out, ok


def _task_dual(problem: ProblemSpec, seed, samples):
    out = {"vector_frames": {}, "families": {}}
    ok = True
    for name, vf in _sorted_items(problem.vector_frames):
        try:
            if not is_j_frame(vf):
                raise NotAFrameError("not a J-frame")
            report = dual_bounds_check(vf)
        except (NotAFrameError, SingularOperatorError, DefinitenessTransportError) as exc:
            out["vector_frames"][name] = {"error": str(exc)}
            ok = False
            continue
        out["vector_frames"][name] = report
        ok = ok and report.ok
    for name, fam in _sorted_items(problem.families):
        try:
            report = fusion_dual_bounds_check(fam)
        except KreinFramesError as exc:
            out["families"][name] = {"advisory": True, "error": str(exc)}
            continue
        # the fusion-level reciprocal relation is recorded per instance and
        # does not gate the exit status
        out["families"][name] = {**vars(report), "advisory": True}
    return out, ok


def _task_identity(problem: ProblemSpec, seed, samples):
    out = {}
    ok = True
    for idx, (name, vf) in enumerate(_sorted_items(problem.vector_frames)):
        if not is_j_frame(vf):
            out[name] = {"error": "not a J-frame"}
            ok = False
            continue
        rng = rng_from_seed([seed, zlib.crc32(name.encode()), idx])
        trials = max(1, samples)
        # every trial's subset, then its test vector, in the generator's order
        masks = np.empty((trials, len(vf)), dtype=bool)
        fs = np.empty((vf.space.dim, trials), dtype=complex)
        for t in range(trials):
            masks[t] = rng.uniform(size=len(vf)) < 0.5
            fs[:, t] = random_complex(rng, vf.space.dim)
        try:
            lhs, rhs = fundamental_identity_sides_batch(vf, masks, fs)
        except SingularOperatorError as exc:
            out[name] = {"error": str(exc)}
            ok = False
            continue
        rel = np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))
        frame_ok = bool(np.all(rel < vf.space.tol.tau_num))
        out[name] = {
            "trials": trials, "max_relative_residual": float(rel.max()), "ok": frame_ok
        }
        ok = ok and frame_ok
    return {"vector_frames": out}, ok


def _task_transform(problem: ProblemSpec, seed, samples):
    out = {}
    ok = True
    for op_name, op in _sorted_items(problem.operators):
        scalar, c = is_j_isometry_multiple(op)
        entry = {"j_isometry_multiple": scalar, "isometry_scale": c, "families": {}}
        for fam_name, fam in _sorted_items(problem.families):
            try:
                image, cert = transform_family(op, fam)
            except MemberClassificationError as exc:
                entry["families"][fam_name] = {
                    "is_frame": False,
                    "error": str(exc),
                    "witness": _unit(op.matrix @ fam.subspaces[exc.index].basis[:, 0]),
                }
                ok = False
                continue
            except NotSurjectiveError as exc:
                entry["families"][fam_name] = {"is_frame": False, "error": str(exc)}
                ok = False
                continue
            fam_entry = {"certificate": cert}
            if cert.is_frame and certify(fam).is_frame:
                # the hypotheses of necessary_conditions_check, checked above
                fam_entry["necessary_conditions"] = _necessary_conditions(fam, image)
            entry["families"][fam_name] = fam_entry
            ok = ok and cert.is_frame
        out[op_name] = entry
    return {"operators": out}, ok


def _task_preserve(problem: ProblemSpec, seed, samples):
    out = {}
    ok = True
    supplied = [w for fam in problem.families.values() for w in fam.subspaces]
    ops = _sorted_items(problem.operators)
    reports = _preservation_reports([op for _, op in ops], supplied, samples, seed)
    for (op_name, op), report in zip(ops, reports):
        if isinstance(report, KreinFramesError):
            # an override can make a sample rank deficient or not uniformly definite
            out[op_name] = {"error": str(report)}
            ok = False
            continue
        entry = {}
        for field in ("definiteness_with_sign", "maximality", "regularity"):
            verdict = getattr(report, field)
            v_entry = {
                "status": verdict.status,
                "samples_tested": verdict.samples_tested,
                "note": verdict.note,
            }
            if verdict.counterexample is not None:
                v = verdict.counterexample
                v_entry["counterexample"] = {
                    "subspace": v,
                    "detail": verdict.detail,
                    "image_witness": _unit(op.matrix @ v.basis[:, 0]),
                }
            entry[field] = v_entry
            ok = ok and verdict.holds
        out[op_name] = entry
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
    seed = args.seed if args.seed is not None else problem.seed
    env = os.environ.get(SEED_ENV_VAR)
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
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
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--tol-sym", type=float, default=None)
    parser.add_argument("--tol-rank", type=float, default=None)
    parser.add_argument("--tol-def", type=float, default=None)
    parser.add_argument("--tol-num", type=float, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.samples < 1:
            raise UsageError(f"--samples must be at least 1, got {args.samples}")
        doc = decode_document(args.spec)
        overrides = {
            "tau_sym": args.tol_sym,
            "tau_rank": args.tol_rank,
            "tau_def": args.tol_def,
            "tau_num": args.tol_num,
        }
        overrides = {k: v for k, v in overrides.items() if v is not None}
        tolerances = doc.get("tolerances", {}) if isinstance(doc, dict) else None
        if overrides and isinstance(tolerances, dict):
            # a malformed document keeps its own tolerances for parse_spec to reject
            doc["tolerances"] = {**tolerances, **overrides}
        problem = parse_spec(doc)
        seed = _resolve_seed(args, problem)
        report = run_command(args.command, problem, seed, args.samples)
    except (SchemaError, ValidationError, UsageError, MemberClassificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = "\n".join(_summary_lines(report))
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        sys.stderr.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
