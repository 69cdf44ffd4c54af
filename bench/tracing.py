"""Spans and counts around the public functions of each robustht module.

`install` replaces each traced function with a wrapper, both on its home
module and on every module that imported the name directly (for example
`robustht.engine.noise_block` beside `robustht.rng.noise_block`), so the
program runs unchanged while every call is recorded. Spans live in memory
as (name, start, end, parent) and are written out once, at the end of the
run. A span's self time is its duration minus that of its direct
children; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

import robustht.analysis
import robustht.attacks
import robustht.classifiers
import robustht.cli
import robustht.configs
import robustht.engine
import robustht.numerics
import robustht.rng

# (span name, home module, attribute, modules that imported it by name)
_SPANNED = [
    ("rng.noise_block", robustht.rng, "noise_block",
     (robustht.engine, robustht.attacks, robustht.analysis)),
    ("attacks.heuristic_agnostic_attack", robustht.attacks, "heuristic_agnostic_attack",
     (robustht.engine,)),
    ("attacks.brute_force_attack_oracle", robustht.attacks, "brute_force_attack_oracle",
     (robustht.cli,)),
    ("engine.run_experiment", robustht.engine, "run_experiment", (robustht.cli,)),
    ("analysis.sigma_for_target_error", robustht.analysis, "sigma_for_target_error",
     (robustht.engine, robustht.cli)),
    ("analysis.clt_error", robustht.analysis, "clt_error", (robustht.engine, robustht.cli)),
    ("analysis.cost_difference_moments", robustht.analysis, "cost_difference_moments",
     (robustht.cli,)),
    ("configs.figure_recipe", robustht.configs, "figure_recipe", ()),
    ("cli.main", robustht.cli, "main", ()),
]

# calls of a few microseconds: a span would distort them, so only count
_COUNTED = [
    ("numerics.truncated_gaussian_moment", robustht.numerics, "truncated_gaussian_moment",
     (robustht.analysis,)),
    ("numerics.q_function", robustht.numerics, "q_function",
     (robustht.analysis, robustht.configs)),
]

_DECIDERS = {
    "glrt": robustht.classifiers.GlrtClassifier,
    "min-distance": robustht.classifiers.MinDistanceClassifier,
    "prl": robustht.classifiers.PairwiseRobustLinearClassifier,
}
CLASSIFIER_KINDS = tuple(_DECIDERS)


class Tracer:
    """In-memory span and count recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.noise_keys: set[tuple] = set()
        self.paused = False

    def span(self, name: str, fn, count=None):
        """Wrap fn so that each call records a span and, via count, counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, home, attr, importers in _SPANNED:
            wrapped = self.span(name, getattr(home, attr), _EXTRA_COUNTS.get(name))
            for owner in (home, *importers):
                self._patch(owner, attr, wrapped)
        for name, home, attr, importers in _COUNTED:
            wrapped = self.counter(name, getattr(home, attr))
            for owner in (home, *importers):
                self._patch(owner, attr, wrapped)
        for kind, cls in _DECIDERS.items():
            wrapped = self.span(f"classifiers.{kind}.decide", cls.decide_batch,
                                _decide_count(kind))
            self._patch(cls, "decide_batch", wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def mark(self) -> tuple[int, Counter]:
        """Position to later summarise everything recorded after it."""
        return len(self.spans), Counter(self.counts)

    def summary_since(self, mark) -> dict:
        """Durations, self times and counts recorded since `mark`, by span name."""
        first, counts_before = mark
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans[first:]:
            if parent >= first:
                child_time[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans[first:], start=first):
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        return {"total": dict(total), "self": dict(self_time), "counts": dict(counts)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _noise_count(tracer, args, result):
    tracer.counts["rng.normals"] += result.size
    # a draw is identified by its arguments (seed, block, rows, dim)
    if args not in tracer.noise_keys:
        tracer.noise_keys.add(args)
        tracer.counts["rng.noise_block.distinct"] += 1


def _engine_count(tracer, args, result):
    # one trial cell = one trial of one Monte Carlo row for one true class
    config = args[0]
    classes = 1 if config.true_class is not None else config.resolved_model().num_classes
    rows = sum(1 for row in result.rows if row["method"] == robustht.engine.METHOD_MONTE_CARLO)
    tracer.counts["engine.trial_cells"] += config.trials * rows * classes


def _decide_count(kind):
    def count(tracer, args, result):
        classifier, x = args[0], args[1]
        shape = np.shape(x)
        rows = 1 if len(shape) == 1 else shape[0]
        model = classifier.model
        tracer.counts[f"classifiers.{kind}.decide.rows"] += rows
        tracer.counts[f"classifiers.{kind}.row_class_coords"] += (
            rows * model.num_classes * model.dim)

    return count


_EXTRA_COUNTS = {
    "rng.noise_block": _noise_count,
    "engine.run_experiment": _engine_count,
}
