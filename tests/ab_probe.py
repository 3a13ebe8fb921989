"""Two trees in one process: how much slower or faster one tree solves a
benchmark workload than another, by interleaved pairs of passes.

    PYTHONPATH=src python tests/ab_probe.py --base DIR --workload ladder --pairs 16
    PYTHONPATH=src python tests/ab_probe.py --base DIR --workload suite500 --pairs 10

``DIR`` is another checkout, the base; the change is this tree.  Each
tree's ``src/pdqp`` is loaded under its own package name (``pdqp_base``,
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
Run it with ``--base`` a copy of this very tree for the spread of an A/A
comparison on the same host.

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
import workloads  # noqa: E402


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
    its last ``solve_standard`` or ``solve_pdqp`` call kept."""

    def __init__(self, label: str, package: ModuleType, out_dir: Path):
        self.label = label
        self.package = package
        self.cli = package.cli
        self.out_dir = out_dir
        self.last = None

    def __getattr__(self, name: str):
        return getattr(self.package, name)

    def solve_standard(self, *args, **kwargs):
        self.last = self.package.solve_standard(*args, **kwargs)
        return self.last

    def solve_pdqp(self, *args, **kwargs):
        self.last = self.package.solve_pdqp(*args, **kwargs)
        return self.last


def _iterate_bytes(sol) -> bytes:
    if hasattr(sol, "iterate"):             # a StandardSolution
        return sol.iterate.v.tobytes()
    return sol.x.tobytes() + sol.y.tobytes() + sol.z.tobytes()


def solve(workload, tree: Tree, case) -> tuple[float, tuple]:
    """(CPU seconds, output signature) of the workload's solve of
    ``case`` with ``tree``."""
    workloads.pdqp, workloads.cli = tree, tree.cli
    if hasattr(workload, "out_dir"):
        workload.out_dir = tree.out_dir
    tree.last = None
    start = time.process_time()
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
            t, signature = solve(workload, trees[side], case)
            seconds[side] += t
            outputs[side].append(signature)
    return seconds, outputs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """The three quartiles, each within the range of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True,
                    help="the other checkout, whose src/pdqp is the base")
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10,
                    help="pairs of passes after the warm-up (default 10)")
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
    q1, q2, q3 = _quartiles(ratios)
    wins = sum(r < 1.0 for r in ratios)
    print(f"{args.workload}: {len(cases)} cases, {args.pairs} pairs, ratio "
          f"change/base median {q2:.4f} (IQR {q1:.4f}-{q3:.4f}), change "
          f"faster in {wins} of {args.pairs}; every output matched: "
          f"{'yes' if not differ else f'NO ({differ} solves differ)'}")
    return 0 if not differ else 1


if __name__ == "__main__":
    sys.exit(main())
