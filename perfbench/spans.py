"""Spans and counters around the package's layer boundaries, from outside.

The tracer replaces module attributes with wrappers at every call site a
task goes through.  ``adapt`` and ``cli`` import their callees by name, so a
function is wrapped both in its defining module and where it was imported;
a call inside the defining module (``build_flat`` calling
``flat_successors``, ``load_model`` calling ``parse_model``) goes through the
defining module's attribute.

A span records its name, start, end, parent span and task id.  Spans are
kept in memory; ``write`` saves them when the run ends.  The hot functions
``evaluate``, ``SBSystem.sat`` and ``flat_successors`` get counters, not
spans.  Nothing is recorded outside a task.  Sizes of results (states,
edges, pairs) are counted by ``count_sizes`` after the task, so their cost
is not charged to any span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from sbcheck import adapt, cli, ctl, flatten, kripke, model

TASK = "task"  # the root span of a task; its self time is benchmark glue


def _size_of_flat(res, counts):
    counts["flatten.states"] += res.n_states
    counts["flatten.transitions"] += res.n_transitions


def _size_of_kripke(res, counts):
    counts["kripke.edges"] += res.n_edges


def _size_of_lasso(res, counts):
    counts["ctl.evidence.states"] += len(res.prefix) + len(res.cycle)


def _size_of_path(res, counts):
    counts["ctl.evidence.states"] += len(res)


def _size_of_rules(res, counts):
    counts["model.expand_rules.states"] += len(res.states)


def _size_of_relation(res, counts):
    if res is not None:
        counts["adapt.relation_pairs"] += len(res)


# (span name, modules holding the callable, size counter)
SPANS = (
    ("cli.run", (cli,), None),
    ("model.load_model", (model, cli), None),
    ("model.parse_model", (model,), None),
    ("model.expand_rules", (model,), _size_of_rules),
    ("model.validate", (model, cli), None),
    ("flatten.build_flat", (flatten, adapt), _size_of_flat),
    ("kripke.to_kripke", (kripke, adapt), _size_of_kripke),
    ("ctl.sat_set", (ctl, adapt, cli), None),
    ("ctl.witness_eg", (ctl, adapt), _size_of_lasso),
    ("ctl.counterexample_ag", (ctl, adapt), _size_of_path),
    ("adapt.check_weak", (adapt,), None),
    ("adapt.check_strong", (adapt,), None),
    ("adapt.weak_relation", (adapt,), _size_of_relation),
    ("adapt.greatest_strong_relation", (adapt,), _size_of_relation),
    ("adapt.strong_relation", (adapt,), _size_of_relation),
    ("adapt.is_weak_adaptation", (adapt,), None),
    ("adapt.is_strong_adaptation", (adapt,), None),
)


class Tracer:
    """Spans and counters of the tasks run while it is installed."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent, task)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.tasks = 0
        self._task = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._sized: list[tuple] = []  # (size counter, result) of the last task

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, size):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._task is None:
                return fn(*args, **kwargs)
            counts = tracer.counts
            counts[name + ".calls"] += 1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1]
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer._task)
            if size is not None:
                tracer._sized.append((size, res))
            return res

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._task is not None:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_sat(self, fn):
        """``SBSystem.sat`` calls, and those that had to evaluate."""
        tracer = self

        def sat(system, q, phi):
            if tracer._task is None:
                return fn(system, q, phi)
            counts = tracer.counts
            before = counts["constraints.evaluate.calls"]
            res = fn(system, q, phi)
            counts["model.sat.calls"] += 1
            if counts["constraints.evaluate.calls"] != before:
                counts["model.sat.misses"] += 1
            return res

        return sat

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every call site; ``uninstall`` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owners, size in SPANS:
            attr = name.split(".")[1]
            wrapper = self._span(name, getattr(owners[0], attr), size)
            for owner in owners:
                self._replace(owner, attr, wrapper)
        # model.evaluate is the package's only call site of evaluate outside
        # its own recursion, so this counts top-level evaluations
        self._replace(model, "evaluate",
                      self._counted("constraints.evaluate.calls", model.evaluate))
        counted = self._counted("flatten.flat_successors.calls", flatten.flat_successors)
        self._replace(flatten, "flat_successors", counted)
        self._replace(adapt, "flat_successors", counted)
        self._replace(model.SBSystem, "sat", self._counted_sat(model.SBSystem.sat))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def task(self, task_id: int):
        """Record one task under a root span."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack = [idx]
        self._task = task_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._task = None
            self._stack = []
            self.spans[idx] = (TASK, start, end, None, task_id)
            self.tasks += 1

    def count_sizes(self):
        """Count the sizes of the last task's results, outside its spans."""
        for size, res in self._sized:
            size(res, self.counts)
        self._sized.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def task_times(self) -> dict[int, float]:
        return {task: end - start
                for name, start, end, _, task in self.spans if name == TASK}

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task"],
                       "spans": self.spans}, fh)
