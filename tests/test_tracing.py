"""The benchmark's tracer (``bench/tracing.py``) finds what it wraps.

A target it cannot find reports zero calls, so a renamed step or
direction function would silently zero the per-layer
``zero_step_share`` and ``direction_solves_per_subiter``.
"""

from tracing import TARGETS, SpanRecorder, install


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
