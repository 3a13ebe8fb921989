"""Two trees in one process: how much slower or faster one tree solves a
benchmark workload than another, by interleaved pairs of passes, and
where each tree spends its solve, phase by phase.

    PYTHONPATH=src python tests/ab_probe.py --base DIR --workload ladder --pairs 16
    PYTHONPATH=src python tests/ab_probe.py --base DIR --workload suite500 --phases steps
    PYTHONPATH=src python tests/ab_probe.py --workload suite500 --phases driver

``DIR`` is another checkout, the base; the change is this tree, and so is
the base when ``--base`` is not given (an A/A run).  Each tree's
``src/pdqp`` is loaded under its own package name (``pdqp_base``,
``pdqp_change``), so that neither shares a module, or a cache of one,
with the other.  The workload's instances are built once, by this tree's
``bench/workloads.py`` and ``pdqp``, and every solve is the workload's
own ``solve`` call with one tree's package in place of its ``pdqp`` and
``cli`` (the workloads reach both through their module namespace at call
time).  ``mixed-bounds`` writes its problem files and each tree's
solution files under a temporary directory.

One warm-up pass per tree runs first.  Each pair is then one pass of
every case with both trees, the two solves of a case back to back; the
tree that goes first alternates from case to case and from pass to pass,
so that a drift of the host falls on both alike.  A solve is timed by
``time.process_time`` on one BLAS thread (``pdqp.one_blas_thread``), and
a pass's time is the sum of its solves.  The ratio of a pair is change
time over base time: below 1 the change is faster.

Prints one line per pair, then each tree's median pass time with its
quartiles, the median ratio with the quartiles of the ratios, the pairs
the change won, and whether every solve of both trees gave the same
output as the base's warm-up solve: status, the bits of the objective,
iteration and subiteration counts, and the bytes of the returned iterate
(``x``, ``y`` and ``z``), or of the ``.sol`` file on ``mixed-bounds``.
Run it with a copy of this very tree as the base for the spread of an
A/A comparison on the same host, and quote one beside every A/B run.

``--phases driver`` wraps the driver- and engine-level functions of
``PHASES`` in each tree's own package, ``--phases steps`` those and the
rows of the active-set loop (``STEP_PHASES``: the ratio test, the
direction and freed-component helpers, and the KKT call path from
``KktBasis.solve`` down to ``_bunch_kaufman`` and
``KktFactorization.solve``).  A function is wrapped in every module of
the package that binds it, so a call through an imported name is seen
too; a row whose function a tree does not define reads 0 calls there.
The wrappers are ``bench/tracing.py``'s spans, and a row is a phase's
self time (its ``perf_counter`` time less that of the wrapped calls
inside it), so the rows add up to the wrapped solve.  Before the summary
line a table gives, per row, each tree's median µs per solve over the
pairs, the median and quartiles of the per-pair ratios, and each tree's
calls per solve; ``outside the phases`` is what no wrapper covers and
``solve (wrapped)`` a whole solve.  The wrappers cost about a
microsecond per call, and the pair lines then time wrapped solves.

Not collected by pytest (the file name has no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import pdqp  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("model", "kkt", "steps", "primal", "dual", "driver", "cli")
# (row label, module that defines it, attribute); an attribute with a dot
# is a method of the class it names, the rest are module-level functions.
PHASES = (
    ("take_step", "steps", "take_step"),
    ("QpProblem.__post_init__", "model", "QpProblem.__post_init__"),
    ("find_soc_basis", "kkt", "find_soc_basis"),
    ("init_shifts", "driver", "init_shifts"),
    ("rest of solve_standard", "driver", "solve_standard"),
    ("check_optimality", "model", "check_optimality"),
    ("run_active_set (own)", "steps", "run_active_set"),
    ("_check_bounds", "steps", "_check_bounds"),
    ("_stage_log", "driver", "_stage_log"),
    ("select_index", "steps", "select_index"),
    ("standardize (own)", "driver", "standardize"),
    ("rest of solve_pdqp", "driver", "solve_pdqp"),
    ("parse_problem", "cli", "parse_problem"),
    ("rest of cli.run", "cli", "run"),
)
STEP_PHASES = (
    ("ratio_test", "steps", "ratio_test"),
    ("solve_base_primal (own)", "kkt", "solve_base_primal"),
    ("solve_intermediate_primal (own)", "kkt", "solve_intermediate_primal"),
    ("_direction", "kkt", "_direction"),
    ("_base_dz_l", "kkt", "_base_dz_l"),
    ("_with_freed", "kkt", "_with_freed"),
    ("_kkt_max", "kkt", "_kkt_max"),
    ("_freed_component", "kkt", "_freed_component"),
    ("KktBasis.solve (own)", "kkt", "KktBasis.solve"),
    ("KktBasis._factor (own)", "kkt", "KktBasis._factor"),
    ("factor_kb (own)", "kkt", "factor_kb"),
    ("build_kb", "kkt", "build_kb"),
    ("_bunch_kaufman", "kkt", "_bunch_kaufman"),
    ("KktFactorization.solve", "kkt", "KktFactorization.solve"),
)
ROW_SETS = {"driver": PHASES, "steps": PHASES + STEP_PHASES}


def load_tree(src: Path, name: str) -> ModuleType:
    """The package ``src/pdqp`` imported as ``name``, with its ``cli``."""
    init = src / "pdqp" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


class Tree:
    """One tree as a workload sees it: its package, with the solution of
    its last ``solve_standard`` or ``solve_pdqp`` call kept, and the span
    recorder of its phases (``None`` without ``--phases``)."""

    def __init__(self, label: str, package: ModuleType, out_dir: Path):
        self.label = label
        self.package = package
        self.cli = package.cli
        self.out_dir = out_dir
        self.last = None
        self.recorder = None
        self.passes = []                # per pair: reduce_spans of a pass

    def __getattr__(self, name: str):
        return getattr(self.package, name)

    def solve_standard(self, *args, **kwargs):
        self.last = self.package.solve_standard(*args, **kwargs)
        return self.last

    def solve_pdqp(self, *args, **kwargs):
        self.last = self.package.solve_pdqp(*args, **kwargs)
        return self.last

    def wrap_phases(self, rows) -> None:
        """Wrap every row's function, in every module of this tree's
        package that binds it (a method on its class), as a span of its
        label."""
        name = self.package.__name__
        mods = [self.package] + [importlib.import_module(f"{name}.{m}")
                                 for m in MODULES]
        self.recorder = rec = tracing.SpanRecorder()
        for label, module, attr in rows:
            owner = importlib.import_module(f"{name}.{module}")
            cls, _, attr = attr.rpartition(".")
            if cls:
                owner = getattr(owner, cls, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:        # not defined in this tree
                continue
            wrapper = rec.wrap(label, original)
            for mod in [owner] if cls else mods:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapper)

    def end_pass(self, keep: bool) -> None:
        """Reduce the spans of the pass just run, kept unless warm-up."""
        if self.recorder is not None:
            if keep:
                self.passes.append(tracing.reduce_spans(self.recorder.spans))
            self.recorder.spans = []


def _iterate_bytes(sol) -> bytes:
    if hasattr(sol, "iterate"):             # a StandardSolution
        return sol.iterate.v.tobytes()
    return sol.x.tobytes() + sol.y.tobytes() + sol.z.tobytes()


def solve(workload, tree: Tree, case, i: int) -> tuple[float, tuple]:
    """(CPU seconds, output signature) of the workload's solve of
    ``case``, the ``i``-th, with ``tree``."""
    workloads.pdqp, workloads.cli = tree, tree.cli
    if hasattr(workload, "out_dir"):
        workload.out_dir = tree.out_dir
    tree.last = None
    start = time.process_time()
    if tree.recorder is None:
        out = workload.solve(case)
    else:
        with tree.recorder.solve(i):
            out = workload.solve(case)
    seconds = time.process_time() - start
    if tree.last is not None:
        produced = _iterate_bytes(tree.last)
    else:                                   # cli.run wrote a .sol file
        produced = (tree.out_dir / f"{Path(case[0]).stem}.sol").read_bytes()
    objective = (None if out.objective is None
                 else float(out.objective).hex())
    return seconds, (out.status, objective, out.iterations,
                     out.subiterations, produced)


def run_pass(workload, cases, trees, turn: int
             ) -> tuple[list[float], tuple[list, list]]:
    """One pass of every case with both trees, the first of each pair of
    solves alternating with the case and ``turn``: the seconds and the
    output signatures per tree."""
    seconds, outputs = [0.0, 0.0], ([], [])
    for i, case in enumerate(cases):
        first = (i + turn) % 2
        for side in (first, 1 - first):
            t, signature = solve(workload, trees[side], case, i)
            seconds[side] += t
            outputs[side].append(signature)
    for tree in trees:
        tree.end_pass(keep=turn > 0)
    return seconds, outputs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """The three quartiles, each within the range of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def phase_table(rows, trees, count: int) -> list[str]:
    """The markdown rows of the per-phase table over ``trees``' passes:
    each row of ``rows`` that some tree calls, then ``outside the
    phases`` and ``solve (wrapped)``."""
    def per_pass(tree, label):      # [(calls, seconds)] of one row
        if label == "solve (wrapped)":
            return [(count, sum(r["root"].values())) for r in tree.passes]
        return [tuple(r["by_name"].get(label, (0, 0.0)))
                for r in tree.passes]

    lines = ["| phase | base us | change us | ratio change/base (IQR) "
             "| base calls | change calls |", "|---|---|---|---|---|---|"]
    for label in [label for label, _, _ in rows] + [
            "outside the phases", "solve (wrapped)"]:
        key = tracing.ROOT if label == "outside the phases" else label
        sides = [per_pass(tree, key) for tree in trees]
        calls = [statistics.median(c for c, _ in side) / count
                 for side in sides]
        if not any(calls):
            continue
        us = [statistics.median(s for _, s in side) / count * 1e6
              for side in sides]
        ratio = "-"
        if all(calls):
            q1, q2, q3 = _quartiles([c / b for (_, b), (_, c)
                                     in zip(*sides)])
            ratio = f"{q2:.3f} ({q1:.3f}-{q3:.3f})"
        shown = ([""] * 2 if key == tracing.ROOT
                 else [f"{c:.2f}" for c in calls])
        lines.append(f"| {label} | {us[0]:.1f} | {us[1]:.1f} | {ratio} | "
                     f"{shown[0]} | {shown[1]} |")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, default=ROOT,
                    help="the other checkout, whose src/pdqp is the base "
                         "(default: this tree)")
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10,
                    help="pairs of passes after the warm-up (default 10)")
    ap.add_argument("--phases", choices=sorted(ROW_SETS),
                    help="also time these rows phase by phase")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if not (args.base / "src" / "pdqp" / "__init__.py").is_file():
        ap.error(f"{args.base} has no src/pdqp package")
    with tempfile.TemporaryDirectory(prefix="pdqp-ab-") as tmp, \
            pdqp.one_blas_thread():
        tmp = Path(tmp)
        trees = [Tree(label, load_tree(src, f"pdqp_{label}"), tmp / label)
                 for label, src in (("base", args.base / "src"),
                                    ("change", ROOT / "src"))]
        for tree in trees:
            tree.out_dir.mkdir()
            if args.phases:
                tree.wrap_phases(ROW_SETS[args.phases])
        workload = workloads.WORKLOADS[args.workload](tmp)
        cases, _ = workload.build()
        _, outputs = run_pass(workload, cases, trees, 0)     # warm-up
        want = outputs[0]
        differ = sum(got != ref for side in outputs
                     for got, ref in zip(side, want))
        times, ratios = ([], []), []
        for k in range(args.pairs):
            (base, change), outputs = run_pass(workload, cases, trees, k + 1)
            differ += sum(got != ref for side in outputs
                          for got, ref in zip(side, want))
            times[0].append(base)
            times[1].append(change)
            ratios.append(change / base)
            print(f"pair {k + 1:2d}: base {base:.3f} s, change {change:.3f} "
                  f"s, ratio {ratios[-1]:.4f}", flush=True)
    for tree, spent in zip(trees, times):
        q1, q2, q3 = _quartiles(spent)
        print(f"{tree.label}: median pass {q2:.3f} s (quartiles {q1:.3f}-"
              f"{q3:.3f})")
    if args.phases:
        print(f"{args.workload}: us per solve, median of {args.pairs} "
              f"pairs, one BLAS thread")
        print("\n".join(phase_table(ROW_SETS[args.phases], trees,
                                    len(cases))))
    q1, q2, q3 = _quartiles(ratios)
    wins = sum(r < 1.0 for r in ratios)
    print(f"{args.workload}: {len(cases)} cases, {args.pairs} pairs, ratio "
          f"change/base median {q2:.4f} (IQR {q1:.4f}-{q3:.4f}), change "
          f"faster in {wins} of {args.pairs}; every output matched: "
          f"{'yes' if not differ else f'NO ({differ} solves differ)'}")
    return 0 if not differ else 1


if __name__ == "__main__":
    sys.exit(main())
