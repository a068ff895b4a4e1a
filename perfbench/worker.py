"""Benchmark worker: one process that sets up a workload and runs it.

``run.py`` starts it with OPENBLAS_NUM_THREADS=1 and PYTHONPATH=src, from
the root of a checkout::

    python perfbench/worker.py gen   WORKLOAD SEED DIR
    python perfbench/worker.py run   WORKLOAD SEED DIR --seconds S --cpu C --offset K
    python perfbench/worker.py trace WORKLOAD SEED DIR --seconds S --cpu C

``gen`` writes the seed's documents to DIR and checks them against the
references.  ``run`` and ``trace`` pin themselves, and so the CLI processes
they start, to CPU C, list the documents, import the program, run one
untimed warm-up document and print ``READY <json>``.  After a ``GO`` line
on stdin they measure for S seconds and print ``RESULT <json>``.  ``run``
starts at document K of the cycle and warms up on the document before it,
so no document repeats within the process unless it runs a whole cycle.
READY reports when the import ended and when the warm-up started and
ended, on the system-wide monotonic clock ``time.perf_counter`` reads, so
that ``run.py`` can scale each phase of the set-up by the host-speed
samples taken during it (see kernel.py).  Numpy and the references are
loaded only after timing: before ``READY`` the worker does little but what
the program's own start-up needs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import zlib

import gate
import refs
from tracer import TASKS, Tracer

CHILD_TIMEOUT_S = 60
# written by ``gen`` beside the documents: samples per document, generator version
META = "meta.json"


def _doc_paths(directory: str) -> list[str]:
    names = sorted(n for n in os.listdir(directory) if n != META and n.endswith(".json"))
    return [os.path.join(directory, n) for n in names]


def generate(workload: str, seed: int, directory: str) -> None:
    import docs

    known = refs.load(workload)["docs"]
    for i, doc in enumerate(docs.doc_set(workload, seed)):
        ref = known.get(doc.id)
        if ref is None or ref["sha256"] != doc.sha256:
            sys.exit(f"error: document {doc.id} does not match its reference; "
                     "re-record the references with perfbench/record.py")
        with open(os.path.join(directory, f"{i:03d}_{doc.id}.json"), "w") as fh:
            fh.write(doc.text)
    with open(os.path.join(directory, META), "w") as fh:
        json.dump({"samples": docs.SAMPLES[workload],
                   "generator_version": docs.GENERATOR_VERSION}, fh)


class CliRunner:
    """One `python -m kreinframes.cli all --spec FILE` process per document."""

    @staticmethod
    def load(path: str) -> str:
        return path

    def __call__(self, path: str) -> tuple[int, str, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "kreinframes.cli", "all", "--spec", path],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def peak_rss_kb() -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


class InProcessRunner:
    """What ``kreinframes.cli.main`` does after import, on document text."""

    def __init__(self, samples: int):
        from kreinframes import cli, errors, problem

        self.cli, self.parse_spec, self.samples = cli, problem.parse_spec, samples
        # the exceptions cli.main turns into exit 2
        self.handled = (errors.SchemaError, errors.ValidationError,
                        errors.UsageError, errors.MemberClassificationError, OSError)

    @staticmethod
    def load(path: str) -> str:
        with open(path) as fh:
            return fh.read()

    def seed(self, problem) -> int:
        return problem.seed if problem.seed is not None else 0

    def __call__(self, text: str) -> tuple[int, str, str]:
        try:
            problem = self.parse_spec(text)
            report = self.cli.run_command("all", problem, self.seed(problem), self.samples)
        except self.handled as exc:
            return 2, "", f"error: {exc}\n"
        except Exception:
            return 1, "", traceback.format_exc()
        out = json.dumps(report, indent=2, sort_keys=True) + "\n"
        return (0 if report["pass"] else 1), out, ""

    @staticmethod
    def peak_rss_kb() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def environment(workload: str, seed: int | None, generator_version: int) -> dict:
    import importlib.metadata
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_set_by": "OPENBLAS_NUM_THREADS=1 in the environment of "
                               "every process the benchmark starts",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "warm_up": "one untimed document per worker process before timing: "
                   "the one before the process's first timed document in the cycle",
        "workload": workload,
        "workload_seed": seed,
        "generator_version": generator_version,
    }


class Outputs:
    """Distinct (document, output) pairs of a run, gated once after timing."""

    def __init__(self):
        self.seen: dict[tuple, tuple] = {}
        self.counts: dict[tuple, int] = {}

    def add(self, doc_id: str, raw: tuple[int, str, str]) -> None:
        key = (doc_id, raw[0], hash(raw[1]), hash(raw[2]))
        self.seen.setdefault(key, raw)
        self.counts[key] = self.counts.get(key, 0) + 1

    def gate(self, known: dict) -> tuple[int, int, list]:
        """(failed runs, of them the recorded known defect, reasons per output)."""
        failed, defect, reasons = 0, 0, []
        for key, raw in self.seen.items():
            ref, result = known[key[0]], gate.outcome(*raw)
            why = gate.check(ref, result)
            if why:
                failed += self.counts[key]
                is_defect = gate.reproduces_known_defect(ref, result)
                defect += self.counts[key] if is_defect else 0
                reasons.append({"doc": key[0], "runs": self.counts[key], "why": why,
                                "known_defect": is_defect})
        return failed, defect, reasons


def _doc_id(path: str) -> str:
    return os.path.basename(path)[4:-len(".json")]


def timed(run, items, offset: int, warm_id: str, seconds: float, outputs: Outputs) -> dict:
    """Closed loop, one client: the next document starts when one ends.

    ``starts`` holds each document's start on the monotonic clock.
    ``repeats`` counts documents this process had already run (the warm-up
    included); a content-keyed cache could skip work on those.
    """
    latencies, starts, doc_ids = [], [], []
    seen, repeats = {warm_id}, 0
    deadline = time.perf_counter() + seconds
    i = offset
    while True:
        doc_id, path = items[i % len(items)]
        arg = run.load(path)
        t0 = time.perf_counter()
        raw = run(arg)
        t1 = time.perf_counter()
        starts.append(t0)
        latencies.append(t1 - t0)
        doc_ids.append(doc_id)
        repeats += doc_id in seen
        seen.add(doc_id)
        outputs.add(doc_id, raw)
        i += 1
        if t1 >= deadline:
            return {"latencies": latencies, "starts": starts, "doc_ids": doc_ids,
                    "repeats": repeats}


# --- traced run -------------------------------------------------------------


def _importtime_scipy_and_total(stderr: str) -> tuple[float, float]:
    """Cumulative import seconds of kreinframes and of its outermost scipy.* imports."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total = scipy = 0
    ancestors: list[tuple[int, bool]] = []
    # importtime prints children before parents; walk parents first
    for depth, cumulative, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        inside_scipy = any(s for _, s in ancestors)
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside_scipy:
            scipy += cumulative
        if name == "kreinframes":
            total = cumulative
        ancestors.append((depth, is_scipy or inside_scipy))
    return total / 1e6, scipy / 1e6


def child_probes(repeats: int = 3) -> dict:
    interp, imports, scipy = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CHILD_TIMEOUT_S)
        interp.append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import kreinframes"],
            check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        total, sci = _importtime_scipy_and_total(proc.stderr)
        imports.append(total)
        scipy.append(sci)
    return {
        "cli.interpreter_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "cli.import_scipy_s": statistics.median(scipy),
    }


class TracedDocs:
    """In-process documents with spans around the calls into each module.

    Spans are recorded only here, around public functions called from
    outside the package.  A document's own spans (``problem.*``,
    ``cli.task.*``, ``cli.serialize``) partition it; the module probes
    that follow re-run single layers on fresh objects under a separate
    ``probe`` root, so they never count toward the document's time.
    """

    def __init__(self, runner: InProcessRunner, tracer: Tracer):
        import kreinframes as kf
        from kreinframes import sampling

        self.kf, self.sampling = kf, sampling
        self.runner, self.tr = runner, tracer
        self.handled = runner.handled

    def run(self, doc_id: str, text: str) -> tuple[int, str, str]:
        try:
            return self._run(doc_id, text)
        except self.handled as exc:
            return 2, "", f"error: {exc}\n"
        except Exception:
            return 1, "", traceback.format_exc()

    def _run(self, doc_id: str, text: str) -> tuple[int, str, str]:
        tr, cli = self.tr, self.runner.cli
        with tr.span("doc", doc_id):
            with tr.span("problem.json_decode", doc_id, module="problem"):
                decoded = json.loads(text)
            with tr.span("problem.parse", doc_id, module="problem", expected=self.handled):
                problem = self.runner.parse_spec(decoded)
            seed = self.runner.seed(problem)
            blocks = {}
            for task in TASKS:
                with tr.span(f"cli.task.{task}", doc_id, module="cli"):
                    blocks[task] = cli.run_command(task, problem, seed, self.runner.samples)
            # the tasks `all` runs on this problem (see cli.run_command)
            names = [t for t in TASKS
                     if not (t in ("transform", "preserve") and not problem.operators)
                     and not (t == "identity" and not problem.vector_frames)]
            report = dict(blocks["classify"], command="all")
            report["results"] = {t: blocks[t]["results"][t] for t in names}
            report["pass"] = all(report["results"][t]["pass"] for t in names)
            with tr.span("cli.serialize", doc_id):
                out = json.dumps(report, indent=2, sort_keys=True) + "\n"
        tr.count("problem.entries", doc_id, _entries(decoded))
        with tr.span("probe", doc_id):
            self.probe(doc_id, problem, seed)
        return (0 if report["pass"] else 1), out, ""

    def call(self, name: str, doc_id: str, fn, *args):
        """``fn(*args)`` in a span; a library error counts as expected and gives None."""
        try:
            with self.tr.span(name, doc_id, module=name.split(".")[0],
                              expected=self.kf.KreinFramesError):
                return fn(*args)
        except self.kf.KreinFramesError:
            return None

    def probe(self, doc_id, problem, seed) -> None:
        kf, call, samples = self.kf, self.call, self.runner.samples
        space = problem.space
        families = {}
        for name, fam in sorted(problem.families.items()):
            members = []
            for w in fam.subspaces:
                w2 = call("core.subspace", doc_id, kf.Subspace, space, w.basis)
                call("core.classify", doc_id, w2.classify)
                members.append(w2)
            families[name] = call("fusion.family", doc_id, kf.WeightedFamily,
                                  space, members, fam.weights)
        for fam in families.values():
            call("fusion.certify", doc_id, kf.certify, fam)
            call("fusion.converse", doc_id, kf.converse_check, fam)
            call("duality.fusion_dual", doc_id, kf.fusion_dual_bounds_check, fam)
        for idx, (name, vf) in enumerate(sorted(problem.vector_frames.items())):
            self.probe_vframe(doc_id, vf, name, idx, seed, samples)
        for _, op in sorted(problem.operators.items()):
            self.probe_operator(doc_id, op, families, samples, seed)
        if problem.operators:
            self.probe_draws(doc_id, space, samples, seed)

    def probe_vframe(self, doc_id, vf, name, idx, seed, samples) -> None:
        kf, call, space = self.kf, self.call, vf.space
        for cols in (vf.plus_indices, vf.minus_indices):
            if cols:
                w = call("core.subspace", doc_id, kf.Subspace.from_spanning,
                         space, vf.matrix[:, cols])
                call("core.classify", doc_id, w.classify)
        vf2 = call("duality.vframe", doc_id, kf.VectorFrame,
                   space, [vf.vector(i) for i in range(len(vf))])
        if not call("duality.is_j_frame", doc_id, kf.is_j_frame, vf2):
            return
        call("duality.vframe_bounds", doc_id, kf.vframe_optimal_bounds, vf2)
        call("duality.canonical_dual", doc_id, kf.canonical_dual, vf2)
        call("duality.dual_check", doc_id, kf.dual_bounds_check, vf2)
        # the identity task's own trial draws (cli._task_identity)
        rng = self.sampling.rng_from_seed([seed, zlib.crc32(name.encode()), idx])
        for _ in range(max(1, samples)):
            subset = [i for i in range(len(vf2)) if rng.uniform() < 0.5]
            f = self.sampling.random_complex(rng, space.dim)
            call("duality.identity_trial", doc_id,
                 kf.duality.fundamental_identity_sides, vf2, subset, f)

    def probe_operator(self, doc_id, op, families, samples, seed) -> None:
        kf, call, tr = self.kf, self.call, self.tr
        call("transforms.isometry", doc_id, kf.is_j_isometry_multiple, op)
        for fam in families.values():
            image = call("transforms.transform_family", doc_id, kf.transform_family, op, fam)
            if image is not None and image[1].is_frame and kf.certify(fam).is_frame:
                call("transforms.necessary", doc_id, kf.necessary_conditions_check, op, fam)
        supplied = [w for fam in families.values() for w in fam.subspaces]
        # the pools of kreinframes.transforms.preservation_report
        definite = [s for s in supplied if s.classify().uniformly_definite]
        pools = {
            "definiteness": (kf.preserves_definiteness_with_sign, definite),
            "maximality": (kf.preserves_maximality,
                           [s for s in definite if s.classify().maximal_definite]),
            "regularity": (kf.preserves_regularity,
                           [s for s in supplied if s.classify().regular]),
        }
        for label, (predicate, pool) in pools.items():
            verdict = call(f"transforms.preserve_{label}", doc_id,
                           predicate, op, pool, samples, seed)
            if verdict is None:
                continue
            tr.count("transforms.samples_tested", doc_id, verdict.samples_tested)
            tr.count("transforms.samples_requested", doc_id, len(pool) + samples)

    def probe_draws(self, doc_id, space, samples, seed) -> None:
        """The preservation predicates' seeded random pools, drawn alone."""
        s = self.sampling
        p, q = space.signature

        def signed(draw):
            rng = s.rng_from_seed(seed)
            for _ in range(samples):
                sign = 1 if (q == 0 or (p > 0 and rng.uniform() < 0.5)) else -1
                draw(space, rng, sign)

        def regular():
            rng = s.rng_from_seed(seed)
            for _ in range(samples):
                s.random_regular_subspace(space, rng)

        self.call("sampling.draw", doc_id, signed, s.random_definite_subspace)
        self.call("sampling.draw", doc_id, signed, s.random_maximal_definite_subspace)
        self.call("sampling.draw", doc_id, regular)


def _entries(obj) -> int:
    """Scalar entries the parser converts; a [re, im] pair is one entry."""
    if isinstance(obj, dict):
        return sum(_entries(v) for v in obj.values())
    if isinstance(obj, list):
        if len(obj) == 2 and all(isinstance(v, (int, float)) for v in obj):
            return 1
        return sum(_entries(v) for v in obj)
    return 1 if isinstance(obj, (int, float)) and not isinstance(obj, bool) else 0


def traced(runner: InProcessRunner, items, seconds: float, outputs: Outputs,
           tracer: Tracer) -> dict:
    """Each document once untraced and once traced, until SECONDS have passed.

    Pairing the two runs of a document keeps a drift of the host's speed
    from passing for tracing overhead; alternating which of the two runs
    first cancels what the first run leaves the second (such as memory
    already taken from the system).
    """
    probes = child_probes()
    docs_traced = TracedDocs(runner, tracer)
    untraced = []
    deadline = time.perf_counter() + seconds
    n = 0

    def plain(doc_id, text):
        t0 = time.perf_counter()
        raw = runner(text)
        untraced.append(time.perf_counter() - t0)
        outputs.add(doc_id, raw)

    while True:
        doc_id, path = items[n % len(items)]
        text = runner.load(path)
        tracer.count("problem.doc_bytes", doc_id, len(text.encode()))
        if n % 2 == 0:
            plain(doc_id, text)
        outputs.add(doc_id, docs_traced.run(doc_id, text))
        if n % 2 == 1:
            plain(doc_id, text)
        n += 1
        if time.perf_counter() >= deadline and n >= 2:
            return {"probes": probes, "untraced_s": untraced, "traced_docs": n}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("gen", "run", "trace"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("directory")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--cpu", type=int, default=0)
    parser.add_argument("--offset", type=int, default=0)
    args = parser.parse_args(argv)
    workload = args.workload
    if args.mode == "gen":
        generate(workload, args.seed, args.directory)
        return 0
    os.sched_setaffinity(0, {args.cpu})
    with open(os.path.join(args.directory, META)) as fh:
        meta = json.load(fh)
    if workload == "cli_small" and args.mode == "run":
        runner = CliRunner()
    else:
        runner = InProcessRunner(meta["samples"])
    items = [(_doc_id(p), p) for p in _doc_paths(args.directory)]
    warm_id, warm_path = items[(args.offset - 1) % len(items)]
    imported_at = time.perf_counter()
    warm_arg = runner.load(warm_path)
    t0 = time.perf_counter()
    runner(warm_arg)
    ready = {"imported_at": imported_at, "warm_up_at": t0,
             "warm_up_s": time.perf_counter() - t0}
    print("READY " + json.dumps(ready), flush=True)
    sys.stdin.readline()  # GO
    outputs = Outputs()
    if args.mode == "run":
        result = timed(runner, items, args.offset, warm_id, args.seconds, outputs)
    else:
        tracer = Tracer()
        result = traced(runner, items, args.seconds, outputs, tracer)
        result["trace"] = tracer.export()
    known = refs.load(workload)["docs"]
    result["failed"], result["known_defect_runs"], result["failures"] = outputs.gate(known)
    result["known_defect_docs"] = sorted(
        {doc_id for doc_id, _ in items if known[doc_id].get("known_defect")})
    result["doc_set"] = [doc_id for doc_id, _ in items]
    result["peak_rss_kb"] = runner.peak_rss_kb()
    result["environment"] = dict(
        environment(workload, args.seed, meta["generator_version"]), pinned_cpu=args.cpu)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
