"""Record the reference outcome of every pool document of the workloads.

Run from the root of a checkout, on the commit whose outputs become the
references (the correctness gate then holds later commits to them)::

    python3 perfbench/record.py [WORKLOAD ...]

A document whose run lets a traceback escape breaks the CLI contract (exit
2 on a document error, never a traceback).  It is recorded as a known
defect: the gate keeps counting it as failed until the contract holds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

import docs
import gate
import refs
import run
from worker import CliRunner, InProcessRunner, environment


def record(workload: str) -> dict:
    cli = workload == "cli_small"
    runner = CliRunner() if cli else InProcessRunner(docs.SAMPLES[workload])
    records = {}
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for cls, k in docs.pool(workload):
            doc = docs.make_doc(workload, cls, k)
            arg = doc.text
            if cli:
                arg = os.path.join(tmp, f"{doc.id}.json")
                with open(arg, "w") as fh:
                    fh.write(doc.text)
            raw = runner(arg)
            outcome = gate.outcome(*raw)
            rec = {
                "sha256": doc.sha256,
                "exit": outcome["exit"],
                "traceback": outcome["traceback"],
                "report": None if outcome["report"] is None else gate.canonical(outcome["report"]),
            }
            if outcome["traceback"]:
                last = raw[2].strip().splitlines()[-1]
                rec["known_defect"] = (f"exit {raw[0]} with a traceback ({last}); "
                                       "the CLI contract is exit 2 without one")
                rec["contract_exit"] = 2
            records[doc.id] = rec
            print(f"{workload} {doc.id}: exit {rec['exit']}"
                  f"{' KNOWN DEFECT' if outcome['traceback'] else ''}", flush=True)
    return records


def main(argv: list[str]) -> int:
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        # record under the environment the benchmark's own processes use
        os.execve(sys.executable, [sys.executable, __file__, *argv], run.child_env())
    os.makedirs(run.OUT_DIR, exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    for workload in argv or docs.WORKLOADS:
        refs.save(workload, {
            "generator_version": docs.GENERATOR_VERSION,
            "recorded_at_commit": commit.stdout.strip() or None,
            "environment": environment(workload, None, docs.GENERATOR_VERSION),
            "docs": record(workload),
        })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
