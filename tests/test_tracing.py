"""The benchmark's tracer (``bench/tracing.py``) finds what it wraps.

A target it cannot find reports zero calls, so a renamed step or
direction function would silently zero the per-layer
``zero_step_share`` and ``direction_solves_per_subiter``.
"""

from pdqp import SolveConfig, solve_standard
from tracing import (DIRECTION_SOLVES, STEP_SPANS, TARGETS, SpanRecorder,
                     install)


def test_tracer_targets_are_defined():
    # kkt._factor_symmetric_indefinite is gone: K_B is factored by
    # kkt.factor_kb alone, and kkt.factorize stays listed until the
    # benchmark drops it.
    handle = install(SpanRecorder())
    try:
        assert handle.missing == ["kkt.factorize"]
        wrapped = {attr for _, attr, _ in handle.patched}
        assert wrapped == {attr for _, attr, name in TARGETS
                           if name != "kkt.factorize"}
    finally:
        handle.remove()


def test_step_and_direction_spans_are_reached(suite500):
    # Defined is not enough: a step or KKT solve called by a name the
    # tracer does not rebind records no span.  Over the first 20 suite500
    # problems under both two-stage strategies, every step span and both
    # direction solves record calls, and the step spans count exactly the
    # subiterations the solves report.  The stage spans count the stage
    # logs, and the optimality checks one per solve and one more per
    # optimal solve, so that the driver reaches each stage and check by
    # the name the tracer rebinds.
    recorder = SpanRecorder()
    handle = install(recorder)
    try:
        sols = [solve_standard(p, SolveConfig(strategy=strategy))
                for p in suite500[:20]
                for strategy in ("primal-first", "dual-first")]
    finally:
        handle.remove()
    stages = ("primal.solve_primal", "dual.solve_dual",
              "model.check_optimality")
    calls = {name: 0 for name in STEP_SPANS + DIRECTION_SOLVES + stages}
    for name, *_ in recorder.spans:
        if name in calls:
            calls[name] += 1
    assert all(calls.values()), calls
    assert sum(calls[name] for name in STEP_SPANS) \
        == sum(sol.subiterations for sol in sols)
    assert calls["primal.solve_primal"] + calls["dual.solve_dual"] \
        == sum(len(sol.stage_log) for sol in sols)
    assert calls["model.check_optimality"] \
        == len(sols) + sum(sol.status == "optimal" for sol in sols)
