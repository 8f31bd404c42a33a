"""Spans around occupal's public functions, recorded from outside the program.

`Tracer.install` replaces every binding of each timed function in every
loaded occupal module -- `pipeline` imports its helpers by name, so patching
the defining module alone would miss the calls that matter.  Spans
(name, start, end, parent, root) are kept in memory; `layer_metrics` turns
one round's spans into self times and counts.  A span is recorded only
inside a root span opened by `Tracer.root`, so correctness checks that call
the same functions between timed operations leave no trace.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from contextlib import contextmanager

# (module, function, metric stem, name of the self-time metric)
TIMED = (
    ("mdp", "value_iteration", "mdp.value_iteration", "mdp.value_iteration_s"),
    ("mdp", "occupancy_of_policy", "mdp.occupancy", "mdp.occupancy_s"),
    ("features", "build_feature_matrix", "features.build", "features.build_s"),
    ("expert", "sample_trajectories", "expert.sample", "expert.sample_s"),
    ("expert", "save_trajectories", "expert.save", "expert.save_s"),
    ("expert", "load_trajectories", "expert.load", "expert.load_s"),
    ("expert", "empirical_feature_expectation", "expert.estimate", "expert.estimate_s"),
    ("sgd", "run_sgd_al", "sgd.train", "sgd.train_s"),
    ("extraction", "extraction_report", "extraction.report", "extraction.report_s"),
    ("extraction", "evaluate_theta", "extraction.evaluate", "extraction.evaluate_s"),
    ("baseline", "exact_al_solve", "baseline.simplex", "baseline.simplex_s"),
    ("baseline", "subgradient_solve", "baseline.subgradient", "baseline.subgradient_s"),
    ("pipeline", "run_experiment", "pipeline.run_experiment", "pipeline.self_s"),
    ("pipeline", "_write_trace_csv", "pipeline.trace_csv", "pipeline.trace_csv_s"),
    ("pipeline", "_dump_json", "pipeline.json", "pipeline.json_s"),
)

# work done, summed over calls by _work_counts
COUNTS = {
    "sgd.steps": "count",
    "expert.transitions": "count",
    "expert.trajectories_mb": "MB",
    "pipeline.artifact_mb": "MB",
}

_MB = 1024.0 * 1024.0


def _work_counts(stem, args, result):
    """Work done by one call, read from its arguments and result."""
    if stem == "sgd.train":
        return {"sgd.steps": args[0].iterations}
    if stem == "expert.sample":
        return {"expert.transitions": result.shape[0] * result.shape[1]}
    if stem == "expert.save":
        return {"expert.trajectories_mb": os.path.getsize(args[0]) / _MB}
    if stem == "pipeline.run_experiment":
        sizes = sum(os.path.getsize(path) for path in result.values())
        return {"pipeline.artifact_mb": sizes / _MB}
    return {}


def per_layer_names():
    """Every per-layer metric a traced run reports, with its unit."""
    names = {}
    for _, _, stem, self_name in TIMED:
        names[self_name] = "s"
        names[f"{stem}.calls"] = "count"
    names.update(COUNTS)
    names.update({"sgd.us_per_step": "us", "trace.overhead_s": "s"})
    return names


class Tracer:
    """Records spans of the TIMED functions once `install()` has run."""

    def __init__(self):
        self.spans = []  # (stem, start, end, span id, parent id, root id)
        self.counts = {}
        self._stack = []
        self._ids = itertools.count()
        self._patched = []

    def install(self):
        loaded = [mod for name, mod in sorted(sys.modules.items())
                  if name == "occupal" or name.startswith("occupal.")]
        for module_name, func_name, stem, _ in TIMED:
            original = getattr(sys.modules[f"occupal.{module_name}"], func_name)
            wrapper = self._wrap(stem, original)
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, stem, original):
        def traced(*args, **kwargs):
            if not self._stack:
                return original(*args, **kwargs)
            with self.root(stem):
                result = original(*args, **kwargs)
            for name, value in _work_counts(stem, args, result).items():
                self.counts[name] = self.counts.get(name, 0) + value
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def root(self, name):
        """Open a span.  Timed functions record spans only while one is open."""
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else span_id
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((name, start, end, span_id, parent, root))

    def layer_metrics(self):
        """Self time and call count per timed function, plus work counts."""
        child_time = {}
        for _, start, end, _, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self_time, calls = {}, {}
        for stem, start, end, span_id, _, _ in self.spans:
            self_time[stem] = (
                self_time.get(stem, 0.0) + (end - start) - child_time.get(span_id, 0.0)
            )
            calls[stem] = calls.get(stem, 0) + 1
        metrics = {}
        for _, _, stem, self_name in TIMED:
            metrics[self_name] = self_time.get(stem, 0.0)
            metrics[f"{stem}.calls"] = calls.get(stem, 0)
        for name in COUNTS:
            metrics[name] = self.counts.get(name, 0)
        steps = metrics["sgd.steps"]
        metrics["sgd.us_per_step"] = 1e6 * metrics["sgd.train_s"] / steps if steps else 0.0
        return metrics
