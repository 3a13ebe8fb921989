"""pdqp benchmark: one workload per process, end-to-end or traced.

    python3 bench/run_bench.py --workload suite500 --seed 1 --seconds 10 --trace 0
    python3 bench/run_bench.py --workload ladder --seed 1 --seconds 10 --trace 1

Run from anywhere inside a checkout; the solver is imported from the
checkout's ``src/``.  A run sets up the workload three times (set-up time
is the median), then solves every instance of the workload in
ceil(``--seconds`` / the workload's ``pass_seconds``) whole passes,
checks every answer against its reference, and prints one detail line
followed by the result line ``{"correct", "attempted", "failed",
"metrics"}``.

Timings are scaled to a reference host speed measured by a fixed probe
between solves (``hostspeed.py``; solve timings only on workloads whose
solve times follow it); the detail line gives them unscaled.

``--trace 0`` reports the end-to-end metrics and installs no wrappers.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, plus the tracing overhead between the two.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("suite500", "ladder", "lowrank", "mixed-bounds"))
    ap.add_argument("--seed", type=int, required=True,
                    help="sets the order in which each pass visits instances")
    ap.add_argument("--seconds", type=float, required=True,
                    help="sets the pass count, ceil(seconds / pass_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads() -> list[dict]:
    """Thread count and build string of every OpenBLAS loaded in-process."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return []
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}",
                              None)
                if get is None:
                    continue
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}",
                                 None)
                build = ""
                if config is not None:
                    config.restype = ctypes.c_char_p
                    build = config().decode()
                found.append({"lib": Path(path).name, "threads": int(get()),
                              "config": build})
    return found


def runtime_env(args, seeds: dict) -> dict:
    import numpy
    import scipy
    import platform
    blas = blas_threads()
    busy = [b for b in blas if b["threads"] != 1]
    if busy:
        raise SystemExit(f"BLAS reports more than one thread: {busy}; "
                         "the benchmark needs single-threaded BLAS")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "env": {k: os.environ.get(k) for k in BLAS_ENV},
            "order_seed": args.seed, "instance_seeds": seeds}


def tail(samples_ms: list[float]):
    """Highest listed percentile with at least ten samples beyond it."""
    import numpy as np
    n = len(samples_ms)
    for pct in TAIL_PERCENTILES:
        beyond = int(n - np.ceil(n * pct / 100.0))
        if beyond >= 10:
            return {"value": float(np.percentile(samples_ms, pct)),
                    "percentile": pct, "beyond": beyond, "samples": n}
    return None


def run_pass(workload, cases, order, speed, recorder=None):
    """Solve every case once in ``order``, sampling the host's speed
    between solves.  Returns per-case outcomes (an Outcome, or the
    exception's type name) and wall times, and the pass's solving time
    (their sum, without the probes)."""
    outcomes = [None] * len(cases)
    times = [0.0] * len(cases)
    for i in order:
        t0 = time.perf_counter()
        try:
            if recorder is None:
                out = workload.solve(cases[i])
            else:
                with recorder.solve(i):
                    out = workload.solve(cases[i])
        except Exception as exc:   # a failed solve is counted, not fatal
            out = type(exc).__name__
        times[i] = time.perf_counter() - t0
        outcomes[i] = out
        speed.maybe_sample()
    return outcomes, times, sum(times)


def signature(outcomes):
    return [o if isinstance(o, str) else
            (o.status, o.iterations, o.subiterations) for o in outcomes]


def classify(workload, cases, refs, outcomes):
    """Failure reason per case (None for a completed, correct solve) and
    the number of wrong answers among them."""
    from workloads import TERMINAL
    answered = [o if not isinstance(o, str) and o.status in TERMINAL
                else None for o in outcomes]
    wrong = workload.wrong(cases, refs, answered)
    reasons = []
    for out, bad in zip(outcomes, wrong):
        if isinstance(out, str):
            reasons.append(out)
        elif out.status not in TERMINAL:
            reasons.append(out.status)
        elif bad is not None:
            reasons.append(f"wrong answer: {bad}")
        else:
            reasons.append(None)
    return reasons, sum(b is not None for b in wrong)


def layer_metrics(reduced_passes, ref_spans, untraced_walls, traced_walls):
    """Per-layer metrics: per traced pass means of calls and self time."""
    import tracing
    k = len(reduced_passes)
    by_name: dict[str, list] = {}
    layer_self: dict[str, float] = {}
    total_root = 0.0
    steps_dirs = {"primal": [], "dual": []}
    for red in reduced_passes:
        for name, (calls, own) in red["by_name"].items():
            entry = by_name.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += own
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
        total_root += sum(red["root"].values())
        for fam in steps_dirs:
            steps_dirs[fam] += red["step_direction_solves"][fam]
    metrics = {}
    for name in tracing.SPAN_NAMES:
        if name == "oracle.enumerate_solve":
            calls, own = ref_spans.get(name, [0, 0.0])
        else:
            calls, own = by_name.get(name, [0, 0.0])
            calls, own = calls / k, own / k
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (own, "s")
    subiters = (len(steps_dirs["primal"]) + len(steps_dirs["dual"])) / k
    per_sub = (lambda v: v / subiters if subiters else 0.0)
    metrics["kkt.factor_kb_per_subiter"] = (
        per_sub(by_name.get("kkt.factor_kb", [0])[0] / k), "count/subiter")
    metrics["kkt.factorize_per_subiter"] = (
        per_sub(by_name.get("kkt.factorize", [0])[0] / k), "count/subiter")
    metrics["kkt.direction_solves_per_subiter"] = (
        per_sub((sum(steps_dirs["primal"]) + sum(steps_dirs["dual"])) / k),
        "count/subiter")
    metrics["dual.temp_swap_solves"] = (
        sum(max(0, c - 1) for c in steps_dirs["dual"]) / k, "count")
    for fam in ("primal", "dual"):
        steps = zero = 0
        for red in reduced_passes:
            s, z = red["zero_steps"].get(fam, (0, 0))
            steps += s
            zero += z
        metrics[f"{fam}.zero_step_share"] = (zero / steps if steps else 0.0,
                                             "ratio")
    for layer in tracing.LAYERS:
        if layer != "oracle":
            metrics[f"{layer}.self_share"] = (
                layer_self.get(layer, 0.0) / total_root if total_root else 0.0,
                "ratio")
    overhead = [t / u - 1.0 for u, t in zip(untraced_walls, traced_walls)]
    metrics["trace_overhead_share"] = (statistics.median(overhead), "ratio")
    return metrics


def pass_count(workload, seconds: float) -> int:
    """Passes for a run of ``seconds``.  The count is fixed by the
    workload, not by how fast this run goes, so every commit and every run
    gets the same number of samples per instance."""
    return max(1, math.ceil(seconds / workload.pass_seconds))


def timed_passes(workload, cases, order, count, trace, speed):
    """``count`` whole passes.  With ``trace`` every untraced pass is
    followed by a traced one, with the wrappers installed for that pass
    only.  Returns the passes as (traced, outcomes, times, solving time),
    the reduced spans of each traced pass, and the trace targets missing
    from the measured tree."""
    import tracing
    passes, reduced, missing = [], [], []
    speed.sample()
    for _ in range(count):
        passes.append((False, *run_pass(workload, cases, order, speed)))
        if trace:
            rec = tracing.SpanRecorder()
            handle = tracing.install(rec)
            try:
                passes.append((True, *run_pass(workload, cases, order, speed,
                                               rec)))
            finally:
                handle.remove()
            missing = handle.missing
            red = tracing.reduce_spans(rec.spans)
            red["zero_steps"] = rec.zero_steps
            reduced.append(red)
    speed.sample()
    return passes, reduced, missing


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "pdqp" / "__init__.py").is_file():
        print(f"pdqp sources not found under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(here)]

    import importlib
    import resource
    import numpy as np
    import scipy.linalg  # noqa: F401  (the solver's libraries, loaded once)
    library_import_s = time.perf_counter() - T_START
    import hostspeed
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](root)
    env = runtime_env(args, {workload.name: workload.seed})
    checks: dict[str, object] = {}

    # Generators are deterministic in their seed and sensitive to it.
    same = workload.probe(workload.seed) == workload.probe(workload.seed)
    other = workload.probe(workload.seed) != workload.probe(workload.seed + 1)
    checks["generator_same_seed_identical"] = same
    checks["generator_other_seed_differs"] = other

    # Each set-up imports the solver afresh, as a new process would (numpy
    # and scipy stay loaded), then builds the instances and loads the
    # references.  The last set-up's modules are the ones measured.
    cache_dir = root / ".bench_cache"
    setup_times, digests = [], []
    refs = None
    # One probe series covers set-up and timed passes; its median scales
    # every timing of the run.
    speed = hostspeed.HostSpeed()
    for _ in range(SETUP_REPEATS):
        speed.sample()
        for name in [m for m in sys.modules if m.split(".")[0] in
                     ("pdqp", "workloads", "conftest")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        workloads = importlib.import_module("workloads")
        workload = workloads.WORKLOADS[args.workload](root)
        cases, case_digest = workload.build()
        refs = None if args.trace else workloads.load_references(
            workload, cases, case_digest, cache_dir)
        setup_times.append(time.perf_counter() - t0)
        digests.append(case_digest)
    speed.sample()
    checks["setup_digests_identical"] = len(set(digests)) == 1
    setup_s = statistics.median(setup_times)

    ref_spans: dict = {}
    t_oracle = time.perf_counter()
    if refs is None:
        # Oracle time is outside set-up and the timed region.
        if args.trace:
            rec = tracing.SpanRecorder()
            handle = tracing.install(rec)
            try:
                refs = workloads.compute_references(workload, cases,
                                                    case_digest, cache_dir)
            finally:
                handle.remove()
            ref_spans = tracing.reduce_spans(rec.spans)["by_name"]
        else:
            refs = workloads.compute_references(workload, cases, case_digest,
                                                cache_dir)

    oracle_s = time.perf_counter() - t_oracle
    order = [int(i) for i in np.random.default_rng(args.seed)
             .permutation(len(cases))]
    start_to_first_solve_s = time.perf_counter() - T_START - oracle_s
    passes, reduced, missing = timed_passes(
        workload, cases, order, pass_count(workload, args.seconds), args.trace,
        speed)

    # Every pass must give the same statuses and counts, traced or not.
    first = signature(passes[0][1])
    checks["passes_identical"] = all(signature(p[1]) == first for p in passes)
    root_gap_max_s = None
    if args.trace:
        # The self times of a solve must add up to its wall time, the
        # duration of its root span: no span is lost, counted twice or
        # charged to another solve.  The gap between the root span and the
        # time taken around the call (entering and leaving the span, and
        # any preemption there) is scheduler noise, so it is reported in
        # the detail line but not checked.
        traced_times = [p[2] for p in passes if p[0]]
        checks["traced_self_times_sum_to_wall"] = all(
            set(red["solve_self"]) == set(red["root"]) == set(range(len(cases)))
            and all(abs(red["solve_self"][i] - w) <= 1e-9 + 1e-9 * w
                    for i, w in red["root"].items())
            for red in reduced)
        checks["traced_spans_nest"] = all(red["nesting_errors"] == 0
                                          for red in reduced)
        root_gap_max_s = max(t - red["root"][i]
                             for red, times in zip(reduced, traced_times)
                             for i, t in enumerate(times))

    attempted = failed = wrong = 0
    for _, outcomes, _, _ in passes:
        reasons, n_wrong = classify(workload, cases, refs, outcomes)
        wrong += n_wrong
        attempted += len(cases)
        failed += sum(why is not None for why in reasons)
    # Passes are identical (checked above), so one pass gives the breakdown
    # and the set of completed solves.
    reasons = classify(workload, cases, refs, passes[0][1])[0]
    done = [i for i, why in enumerate(reasons) if why is None]
    breakdown: dict[str, int] = {}
    for case, why in zip(cases, reasons):
        if why is not None:
            label = workload.case_label(case)
            key = f"{label}: {why}" if label else why
            breakdown[key] = breakdown.get(key, 0) + 1
    # Medians over every untraced sample and pass, scaled to the
    # reference host speed (hostspeed.py) where the workload's solve
    # times follow it; the raw values are in the detail line.
    untraced = [p for p in passes if not p[0]]
    completed_ms = [p[2][i] * 1e3 for p in untraced for i in done]
    pass_rates = [len(done) / p[3] for p in untraced]
    checks["answers_correct"] = wrong == 0
    if hasattr(workload, "check_optimality"):
        bad = [w for w in workload.check_optimality(cases, passes[0][1]) if w]
        checks["optima_pass_check_optimality"] = not bad

    base = [o for o in passes[0][1] if not isinstance(o, str)]
    if args.trace:
        raw = layer_metrics(reduced, ref_spans, [p[3] for p in untraced],
                            [p[3] for p in passes if p[0]])
    else:
        scale = speed.factor() if workload.scale_solve_times else 1.0
        raw = {
            "setup_s": (setup_s * speed.factor(), "s"),
            "solves_per_s": (statistics.median(pass_rates) / scale, "1/s"),
            "solve_ms_p50": (statistics.median(completed_ms) * scale, "ms"),
            "iterations": (sum(o.iterations for o in base), "count"),
            "subiterations": (sum(o.subiterations for o in base), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}

    per_pass = len(cases)
    detail = {
        "workload": workload.name,
        "input_size": workload.input_size(),
        "solves_per_pass": per_pass,
        "passes": len(passes),
        "pass_solving_s": [round(p[3], 6) for p in passes],
        "wall": {"setup_s": setup_s,
                 "solves_per_s": statistics.median(pass_rates),
                 "solve_ms_p50": statistics.median(completed_ms)},
        "host_speed": {"reference_s": hostspeed.REFERENCE_S,
                       "solve_times_scaled": workload.scale_solve_times,
                       **speed.summary()},
        "library_import_s": library_import_s,
        "start_to_first_solve_s": start_to_first_solve_s,
        "setup_repeats_s": setup_times,
        "instance_digest": digests[0],
        "fail_share": sum(breakdown.values()) / per_pass,
        "fail_breakdown": dict(sorted(breakdown.items())),
        "solve_ms_tail": tail(completed_ms),
        "solves_per_s_per_pass": pass_rates,
        "checks": checks,
        "trace_targets_missing": missing,
        "traced_call_minus_root_span_max_s": root_gap_max_s,
        "env": env,
    }
    print(json.dumps({"detail": detail}))
    correct = all(checks.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
