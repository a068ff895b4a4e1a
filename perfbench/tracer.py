"""In-memory spans and counters for the traced run, and the per-layer metrics.

A span is ``[name, start, end, parent, doc]`` with ``parent`` the index of
the enclosing span (or None).  Spans are kept in memory and written out by
``run.py`` when the run ends.  A span's self time is its duration minus the
durations of its children.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "problem", "core", "fusion", "duality", "transforms", "sampling")
TASKS = ("classify", "certify", "bounds", "dual", "identity", "transform", "preserve")
# every per-layer metric, with its unit; None where a workload's documents
# never reach the layer (e.g. transforms on documents without operators)
LAYER_METRICS = {
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.import_scipy_s": "s",
    **{f"cli.task.{t}_s": "s" for t in TASKS},
    "cli.serialize_s": "s",
    "problem.json_decode_s": "s", "problem.parse_s": "s",
    "problem.entries": "count", "problem.doc_bytes": "count",
    "core.subspace_s": "s", "core.subspace_calls": "count", "core.classify_s": "s",
    "fusion.family_s": "s", "fusion.certify_s": "s", "fusion.converse_s": "s",
    "duality.fusion_dual_s": "s",
    "duality.vframe_s": "s", "duality.is_j_frame_s": "s",
    "duality.vframe_bounds_s": "s", "duality.canonical_dual_s": "s",
    "duality.dual_check_s": "s", "duality.identity_trial_s": "s",
    "duality.identity_trials": "count",
    "transforms.isometry_s": "s", "transforms.transform_family_s": "s",
    "transforms.necessary_s": "s",
    "transforms.preserve_definiteness_s": "s", "transforms.preserve_maximality_s": "s",
    "transforms.preserve_regularity_s": "s",
    "transforms.samples_tested": "count", "transforms.samples_requested": "count",
    "transforms.sample_use_ratio": "ratio",
    "sampling.draw_s": "s",
    **{f"{m}.errors.{kind}": "count" for m in MODULES for kind in ("expected", "unexpected")},
    "trace.docs_per_s_ratio": "ratio", "trace.partition_share": "ratio",
}
# counts of spans per document, reported as counts
SPAN_COUNTS = {"core.subspace_calls": "core.subspace",
               "duality.identity_trials": "duality.identity_trial"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: list[tuple[str, str, float]] = []
        self.errors = {m: {"expected": 0, "unexpected": 0} for m in MODULES}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, doc: str, module: str | None = None, expected=()):
        """Time the block; count an exception escaping it against ``module``."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None, doc])
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        except Exception as exc:
            if module is not None:
                kind = "expected" if isinstance(exc, expected) else "unexpected"
                self.errors[module][kind] += 1
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def count(self, name: str, doc: str, value: float) -> None:
        self.counters.append((name, doc, value))

    def export(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "errors": self.errors}


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(trace: dict, untraced_s: list[float]) -> tuple[dict, dict]:
    """(per-layer metrics, self seconds per document by span name).

    ``untraced_s`` holds the untraced run of each traced document, in the
    same order; tracing overhead compares the two.
    """
    spans = trace["spans"]
    durations: dict[str, list[float]] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        durations.setdefault(name, []).append(end - start)
        if parent is not None:
            child_time[parent] += end - start
    docs = [i for i, s in enumerate(spans) if s[0] == "doc"]
    n_docs = max(1, len(docs))
    self_s: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i]) / n_docs

    metrics = {name: None for name in LAYER_METRICS}
    for name, values in durations.items():
        if f"{name}_s" in metrics:
            metrics[f"{name}_s"] = _median(values)
    probes = [i for i, s in enumerate(spans) if s[0] == "probe"]
    for metric, span_name in SPAN_COUNTS.items():
        per_probe = dict.fromkeys(probes, 0)
        for name, _, _, parent, _ in spans:
            if name == span_name:
                per_probe[parent] += 1
        if any(per_probe.values()):
            metrics[metric] = _median(list(per_probe.values()))
    per_doc_counters: dict[str, list] = {}
    totals: dict[str, float] = {}
    for name, doc, value in trace["counters"]:
        per_doc_counters.setdefault(name, []).append(value)
        totals[name] = totals.get(name, 0) + value
    for name in ("problem.entries", "problem.doc_bytes"):
        metrics[name] = _median(per_doc_counters.get(name, []))
    if totals.get("transforms.samples_requested"):
        metrics["transforms.samples_tested"] = totals["transforms.samples_tested"] / n_docs
        metrics["transforms.samples_requested"] = totals["transforms.samples_requested"] / n_docs
        metrics["transforms.sample_use_ratio"] = (
            totals["transforms.samples_tested"] / totals["transforms.samples_requested"])
    for module, kinds in trace["errors"].items():
        for kind, n in kinds.items():
            metrics[f"{module}.errors.{kind}"] = n
    traced_s = sum(spans[i][2] - spans[i][1] for i in docs)
    if docs and traced_s > 0:
        # traced docs_per_s over untraced docs_per_s, on the same documents
        metrics["trace.docs_per_s_ratio"] = sum(untraced_s) / traced_s
    if docs:
        metrics["trace.partition_share"] = _median(
            [child_time[i] / (spans[i][2] - spans[i][1]) for i in docs])
    return metrics, self_s
