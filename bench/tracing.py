"""Span recording around calls into pdqp's layers, installed from outside.

The solver modules bind imported names (``from .kkt import
solve_base_primal``), so a wrapper must replace the name in every module
that holds it, not only in the module that defines it.  ``install``
does that for each target that exists in the tree being measured and
returns a handle that puts the originals back.  Nothing here runs unless
the benchmark is started with ``--trace 1``.

A span is ``(name, start, end, parent, solve)``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``solve`` the id of the solve
that caused it.  Spans are kept in memory and reduced once a pass ends.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("model", "kkt", "primal", "dual", "steps", "driver", "cli", "oracle")

# (layer, function as defined in pdqp.<layer>, span name).  The span name
# differs from the function name only where the function is private or
# is a method.
TARGETS = (
    ("model", "__post_init__", "model.validate"),
    ("model", "check_optimality", "model.check_optimality"),
    ("kkt", "_factor_symmetric_indefinite", "kkt.factorize"),
    ("kkt", "factor_kb", "kkt.factor_kb"),
    ("kkt", "solve_base_primal", "kkt.solve_base_primal"),
    ("kkt", "solve_intermediate_primal", "kkt.solve_intermediate_primal"),
    ("kkt", "find_soc_basis", "kkt.find_soc_basis"),
    ("kkt", "solve_boundary_point", "kkt.solve_boundary_point"),
    ("primal", "solve_primal", "primal.solve_primal"),
    ("primal", "primal_base", "primal.primal_base"),
    ("primal", "primal_intermediate", "primal.primal_intermediate"),
    ("dual", "solve_dual", "dual.solve_dual"),
    ("dual", "dual_base", "dual.dual_base"),
    ("dual", "dual_intermediate", "dual.dual_intermediate"),
    ("steps", "ratio_test", "steps.ratio_test"),
    ("steps", "make_trace_record", "steps.make_trace_record"),
    ("driver", "standardize", "driver.standardize"),
    ("driver", "init_shifts", "driver.init_shifts"),
    ("driver", "solve_standard", "driver.solve_standard"),
    ("driver", "solve_pdqp", "driver.solve_pdqp"),
    ("cli", "parse_problem", "cli.parse_problem"),
    ("cli", "run", "cli.run"),
    ("oracle", "enumerate_solve", "oracle.enumerate_solve"),
)
SPAN_NAMES = tuple(t[2] for t in TARGETS)

# One span of these is one subiteration; their (StepResult, Direction)
# return value gives the step length.
STEP_SPANS = ("primal.primal_base", "primal.primal_intermediate",
              "dual.dual_base", "dual.dual_intermediate")
DIRECTION_SOLVES = ("kkt.solve_base_primal", "kkt.solve_intermediate_primal")
ROOT = "bench.solve"


class SpanRecorder:
    """Collects spans of one single-threaded process."""

    def __init__(self):
        self.spans: list = []
        # family ("primal" / "dual") -> [steps, zero-length steps]
        self.zero_steps: dict[str, list[int]] = {"primal": [0, 0],
                                                 "dual": [0, 0]}
        self._stack: list[int] = []
        self._solve = -1

    def wrap(self, name: str, fn):
        rec = self
        family = name.split(".")[0] if name in STEP_SPANS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack
            idx = len(rec.spans)
            rec.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec.spans[idx] = (name, t0, t1, parent, rec._solve)
            if family is not None:
                tally = rec.zero_steps[family]
                tally[0] += 1
                tally[1] += out[0].alpha == 0.0
            return out
        return traced

    @contextmanager
    def solve(self, solve_id: int):
        """Root span of one solve; every span opened inside belongs to it."""
        self._solve = solve_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT, t0, t1, -1, solve_id)
            self._solve = -1


class Installed:
    """Handle for installed wrappers; ``remove`` restores the originals."""

    def __init__(self, patched, missing):
        self.patched = patched
        self.missing = missing

    def remove(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []


def install(recorder: SpanRecorder) -> Installed:
    """Wrap every target function in every pdqp module that binds it.

    Targets the measured tree does not define are listed in ``missing``
    and report zero calls, so a later refactor that removes a function
    does not stop the traced run.
    """
    modules = [importlib.import_module("pdqp")]
    modules += [importlib.import_module(f"pdqp.{layer}") for layer in LAYERS]
    model = importlib.import_module("pdqp.model")
    patched, missing = [], []
    for layer, attr, name in TARGETS:
        if attr == "__post_init__":
            owner = getattr(model, "QpProblem")
            original = owner.__dict__.get(attr)
            if original is None:
                missing.append(name)
                continue
            setattr(owner, attr, recorder.wrap(name, original))
            patched.append((owner, attr, original))
            continue
        original = getattr(importlib.import_module(f"pdqp.{layer}"), attr, None)
        if original is None:
            missing.append(name)
            continue
        wrapper = recorder.wrap(name, original)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, wrapper)
                patched.append((mod, attr, original))
    return Installed(patched, missing)


def reduce_spans(spans) -> dict:
    """Per-span-name calls and self time, plus the per-solve checks.

    Self time is a span's duration minus the durations of its children;
    spans of one thread nest, so children never overlap each other.
    Returns ``{"by_name": {name: [calls, self_s]}, "solve_self":
    {solve: sum of self times}, "root": {solve: root duration},
    "direction_solves": [...], "nesting_errors": int}``.
    """
    n = len(spans)
    child_time = [0.0] * n
    child_dirs = [0] * n
    nesting_errors = 0
    for name, t0, t1, parent, _ in spans:
        if parent < 0:
            continue
        _, p0, p1, _, _ = spans[parent]
        if t0 < p0 or t1 > p1:
            nesting_errors += 1
        child_time[parent] += t1 - t0
        if name in DIRECTION_SOLVES:
            child_dirs[parent] += 1
    by_name: dict[str, list] = {}
    solve_self: dict[int, float] = {}
    root: dict[int, float] = {}
    step_dirs = {"primal": [], "dual": []}
    for i, (name, t0, t1, parent, solve) in enumerate(spans):
        own = (t1 - t0) - child_time[i]
        entry = by_name.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += own
        solve_self[solve] = solve_self.get(solve, 0.0) + own
        if name == ROOT:
            root[solve] = t1 - t0
        if name in STEP_SPANS:
            step_dirs[name.split(".")[0]].append(child_dirs[i])
    return {"by_name": by_name, "solve_self": solve_self, "root": root,
            "step_direction_solves": step_dirs,
            "nesting_errors": nesting_errors}
