"""kreinframes benchmark: one run of one workload.

Run from the root of a kreinframes checkout::

    python3 perfbench/run.py --workload fusion_docs --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  An end-to-end run is SEGMENTS worker
processes in turn, each set up, timed and gated on its own; together they
run the workload's documents as one cycle.  End-to-end times are scaled to
a reference host speed, measured by a host-speed sampler (kernel.py) that
shares the workers' CPU; their wall-clock values print as ``wall_*``.
``--workload all`` runs every workload in turn.  The run prints a table of
every metric with its unit and the correctness gate's verdict, and as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts the documents the correctness gate fails, less those that reproduce
a defect recorded in the references (``known_defect``); those are counted
apart, in the table's ``failed_ratio`` and the record's
``known_defect_runs``.  The full record (environment, latencies, gate
failures, spans) is written to ``.perfbench_out/``.

Load model: closed loop, one client, single process.  This process starts
every worker with OPENBLAS_NUM_THREADS=1 and PYTHONPATH=src and imports
neither numpy nor the program itself.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import gate
import refs
import tracer
from kernel import Sampler

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
KERNEL = os.path.join(HERE, "kernel.py")
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
OUT_DIR = ".perfbench_out"
# Worker processes per end-to-end run, each timed for an equal share of the
# run's seconds: setup_s is the median of their set-ups, which the run's
# documents surround, and no worker runs long enough to repeat a document.
SEGMENTS = 5
# The sampler kernel's CPU time at the reference host speed: about its median
# on the 2-vCPU x86_64 machine the baseline was measured on.  It only fixes
# the scale of the scaled times and cancels in every comparison between runs.
REFERENCE_SAMPLE_S = 0.0015
# a phase with fewer samples inside it is scaled by this many nearest ones
MIN_SAMPLES = 5
WORKER_TIMEOUT_S = 150
# a run, set-ups included, must end well within three minutes
RUN_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.path.abspath("src")
    # documents carry their own seed; an inherited CLI seed must not override it
    env.pop("KREIN_FRAMES_SEED", None)
    return env


class Worker:
    """A worker process, started and waited for until it reports READY.

    ``ready`` holds when the worker had imported the program and when its
    warm-up document started and how long it took, on the monotonic clock
    that perf_counter reads in every process alike.
    """

    def __init__(self, args: list[str], pass_fds=()):
        self.launched_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, *args], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=child_env(), pass_fds=pass_fds,
        )
        for line in self.proc.stdout:
            if line.startswith("READY "):
                self.ready = json.loads(line[len("READY "):])
                return
        self.close()
        raise RuntimeError(f"{args[0]} worker exited during set-up "
                           f"(exit {self.proc.returncode})")

    def go(self) -> None:
        self.proc.stdin.write("GO\n")
        self.proc.stdin.flush()

    def result(self) -> dict:
        for line in self.proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
                self.close()
                return result
        self.close()
        raise RuntimeError(f"worker exited without a result (exit {self.proc.returncode})")

    def close(self) -> None:
        try:
            self.proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc.stdin.close()


def _tail(values: list[float]) -> float:
    """The highest percentile with at least 10 values beyond it (11th largest)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def scaled(start: float, end: float, samples: list) -> tuple[float, float]:
    """(scaled seconds, host speed) of work that ran from ``start`` to ``end``.

    The work shared its CPU with the sampler: the sampler's busy time inside
    the interval is taken off, and the rest is multiplied by the host's
    speed, the reference kernel time over the mean of the samples taken
    during the work (or of the MIN_SAMPLES nearest ones, for short work).
    """
    busy = sum(max(0.0, min(e, end) - max(s, start)) for s, e, _ in samples)
    cpu = [c for s, e, c in samples if start <= (s + e) / 2 <= end]
    if len(cpu) < MIN_SAMPLES:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda x: abs((x[0] + x[1]) / 2 - middle))
        cpu = [c for _, _, c in nearest[:MIN_SAMPLES]]
    speed = REFERENCE_SAMPLE_S / statistics.fmean(cpu)
    return (end - start - busy) * speed, speed


def end_to_end(segments: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics of a run's workers, scaled to the reference speed.

    Every document, and each of a set-up's two phases (launch to imported
    program, then the warm-up document), is scaled by the samples taken
    during it (see ``scaled``).  The wall-clock values, the sampler's share
    included, are kept as ``wall_*``.
    """
    lat, docs, speed, setups, setup_wall = [], [], [], [], []
    for seg in segments:
        samples = seg["samples"]
        for t0, t in zip(seg["starts"], seg["latencies"]):
            doc, v = scaled(t0, t0 + t, samples)
            lat.append(t)
            docs.append(doc)
            speed.append(v)
        imported, _ = scaled(seg["launched_at"], seg["imported_at"], samples)
        warm, _ = scaled(seg["warm_up_at"], seg["warm_up_at"] + seg["warm_up_s"], samples)
        setups.append(imported + warm)
        setup_wall.append(seg["imported_at"] - seg["launched_at"] + seg["warm_up_s"])
    n, failed = len(lat), sum(seg["failed"] for seg in segments)
    defect = sum(seg["known_defect_runs"] for seg in segments)
    repeats = sum(seg["repeats"] for seg in segments)
    busy = sum(s[1] - s[0] for seg in segments for s in seg["samples"])
    span = segments[-1]["samples"][-1][1] - segments[0]["launched_at"]
    metrics = {
        "setup_s": statistics.median(setups),
        "docs_per_s": n / sum(docs),
        "latency_p50_s": statistics.median(docs),
        "latency_tail_s": _tail(docs),
        "failed_ratio": failed / n,
        "peak_rss_mb": max(seg["peak_rss_kb"] for seg in segments) / 1024,
        "wall_setup_s": statistics.median(setup_wall),
        "wall_docs_per_s": n / sum(lat),
        "wall_latency_p50_s": statistics.median(lat),
        "wall_latency_tail_s": _tail(lat),
        "host_speed": statistics.median(speed),
        "sampler_share": busy / span,
        "repeated_docs": repeats,
    }
    notes = {
        "setup_s": f"median of {len(setups)} scaled set-ups: "
                   + ", ".join(f"{t:.3f}" for t in setups),
        "latency_tail_s": (f"p{100 * (n - 10) / n:.1f}, 11th slowest of {n} documents"
                           if n >= 11 else f"slowest of only {n} documents"),
        "failed_ratio": f"{failed} of {n} documents, {defect} of them the recorded known "
                        f"defect; known-defect documents in the set: "
                        f"{segments[0]['known_defect_docs'] or 'none'}",
        "host_speed": "median over documents of reference / mean sampled kernel time",
        "sampler_share": "share of the run's time the sampler took from the workers' CPU",
        "repeated_docs": "timed documents a worker process had already run",
    }
    return metrics, notes


UNITS = {"setup_s": "s", "docs_per_s": "1/s", "latency_p50_s": "s",
         "latency_tail_s": "s", "failed_ratio": "ratio", "peak_rss_mb": "MB",
         "wall_setup_s": "s", "wall_docs_per_s": "1/s", "wall_latency_p50_s": "s",
         "wall_latency_tail_s": "s", "host_speed": "ratio", "sampler_share": "ratio",
         "repeated_docs": "count"}


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S} s")


def _segments(workload: str, seed: int, seconds: float, directory: str, cpu: int,
              procs: list) -> list[dict]:
    """SEGMENTS workers in turn, with the host-speed sampler on their CPU."""
    sampler_proc = subprocess.Popen([sys.executable, KERNEL, str(cpu)], stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, text=True, env=child_env())
    procs.append(sampler_proc)
    sampler = Sampler(sampler_proc.stdin, sampler_proc.stdout)
    sampler.dump()  # answers once it is sampling
    segments, offset = [], 0
    for _ in range(SEGMENTS):
        w = Worker(["run", workload, str(seed), directory, "--seconds", str(seconds / SEGMENTS),
                    "--cpu", str(cpu), "--offset", str(offset)])
        procs.append(w.proc)
        w.go()
        seg = w.result()
        seg.update(w.ready, launched_at=w.launched_at, samples=sampler.dump())
        segments.append(seg)
        offset += len(seg["latencies"])
    sampler_proc.stdin.close()
    sampler_proc.wait(timeout=WORKER_TIMEOUT_S)
    sampler_proc.stdout.close()
    return segments


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    cpu = min(os.sched_getaffinity(0))
    procs: list[subprocess.Popen] = []
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        subprocess.run([sys.executable, WORKER, "gen", workload, str(seed), directory],
                       env=child_env(), check=True, timeout=WORKER_TIMEOUT_S)
        if trace:
            w = Worker(["trace", workload, str(seed), directory, "--seconds", str(seconds),
                        "--cpu", str(cpu)])
            procs.append(w.proc)
            w.go()
            result = w.result()
            metrics, self_s = tracer.layer_metrics(result["trace"], result["untraced_s"])
            metrics.update(result["probes"])
            units, notes = tracer.LAYER_METRICS, {}
            result["self_s_per_doc"] = self_s
            attempted, failed = 2 * result["traced_docs"], result["failed"]
            defect, failures = result["known_defect_runs"], result["failures"]
            record = result
        else:
            segments = _segments(workload, seed, seconds, directory, cpu, procs)
            metrics, notes = end_to_end(segments)
            units = UNITS
            attempted = sum(len(seg["latencies"]) for seg in segments)
            failed = sum(seg["failed"] for seg in segments)
            defect = sum(seg["known_defect_runs"] for seg in segments)
            failures = [f for seg in segments for f in seg["failures"]]
            record = {"environment": segments[0]["environment"], "failures": failures,
                      "segments": segments}
    finally:
        signal.alarm(0)
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": all(f["known_defect"] for f in failures),
        "attempted": attempted, "failed": failed - defect, "known_defect_runs": defect,
        "metrics": metrics, "units": units, "notes": notes, "record": record,
    }


def print_table(run: dict) -> None:
    env = run["record"]["environment"]
    print(f"== {run['workload']}  seed={run['seed']}  seconds={run['seconds']:g}  "
          f"trace={run['trace']}")
    print("   environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in run["metrics"].items():
        shown = "n/a (layer not reached)" if value is None else f"{value:.6g}"
        note = run["notes"].get(name)
        print(f"   {name:36s} {shown:>14s} {run['units'][name]:6s}"
              f"{'  ' + note if note else ''}")
    verdict = "pass" if run["correct"] else "FAIL"
    print(f"   correctness gate: {verdict}; {run['failed']} of {run['attempted']} "
          f"documents failed, and {run['known_defect_runs']} reproduced the recorded "
          "known defect")
    for f in run["record"]["failures"]:
        print(f"     {f['doc']} ({f['runs']} runs): {'; '.join(f['why'])}")


def result_line(run: dict, names: list[str]) -> dict:
    missing = [n for n in names if run["metrics"].get(n) is None]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {n: {"value": run["metrics"][n], "unit": run["units"][n]} for n in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "kreinframes", "cli.py")):
        print("error: run from the root of a kreinframes checkout "
              "(src/kreinframes is missing)", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    chosen = workloads if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(workloads):
        parser.error(f"--workload must be one of {workloads} or all")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    lines = {}
    for workload in chosen:
        problems = gate.self_check(_frame_reference(workload))
        if problems:
            print(f"error: the correctness gate does not bite: {problems}", file=sys.stderr)
            return 3
        try:
            run = run_one(workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, TimeoutError, subprocess.SubprocessError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        with open(os.path.join(OUT_DIR, f"{workload}-seed{args.seed}-trace{args.trace}.json"),
                  "w") as fh:
            json.dump(run, fh)
        print_table(run)
        lines[workload] = result_line(run, names)
    print(json.dumps(lines[chosen[0]] if len(chosen) == 1 else lines))
    return 0


def _frame_reference(workload: str) -> dict:
    """A reference document with optimal bounds, for the gate's self-check."""
    for ref in refs.load(workload)["docs"].values():
        report = ref["report"] or {}
        bounds = report.get("results", {}).get("bounds", {}).get("results", {})
        if any("optimal" in e for block in bounds.values() for e in block.values()):
            return ref
    raise RuntimeError(f"no reference of {workload} carries optimal bounds")


if __name__ == "__main__":
    sys.exit(main())
