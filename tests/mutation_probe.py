"""Mutation probe of tier-1: does each check have a test that fails
without it?

    python tests/mutation_probe.py            # every mutant
    python tests/mutation_probe.py START_EQ_TOL DRIFT_EQ_TOL
    python tests/mutation_probe.py --list

Each mutant is a one-line edit of ``src/pdqp`` that loosens a check or
widens a band, given as (name, file, old text, new text); the old text
must occur exactly once in the file.  For each, the tree (``src``,
``tests``, ``bench``, ``problems`` and ``pyproject.toml``) is copied to a
temporary directory, the edit applied there, and tier-1 run on the copy
with ``-x``.  A mutant is ``killed`` when tier-1 fails and ``survived``
when it passes; a survivor is a check or a band whose value no test pins.
One line per mutant, then the counts.  The working tree is never edited.

``BLAND_AFTER`` is not a mutant: the test of Bland's rule sets it itself,
so raising it cannot show anything.

Standard library only.  Not collected by pytest (the file name has no
``test_`` prefix).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "problems", "pyproject.toml")

MUTANTS = (
    ("harris-band-x1e3", "src/pdqp/model.py",
     "HARRIS_BAND = 1e-9 ", "HARRIS_BAND = 1e-6 "),
    ("stationarity-check-x1e3", "src/pdqp/model.py",
     "ok = (stat_res <= eps_fea * data_scale",
     "ok = (stat_res <= 1e3 * eps_fea * data_scale"),
    ("complementarity-check-x1e3", "src/pdqp/model.py",
     "and comp <= dual_tol * max(1.0, inf_norm(xq)))",
     "and comp <= 1e3 * dual_tol * max(1.0, inf_norm(xq)))"),
    ("guarded-bound-check-x1e3", "src/pdqp/steps.py",
     "below = live & ~(g >= -tol)",
     "below = live & ~(g >= -1e3 * tol)"),
    ("combined-guarded-clause-x1e3", "src/pdqp/steps.py",
     "within = g >= -tol", "within = g >= -1e3 * tol"),
    ("combined-idle-clause-x1e3", "src/pdqp/steps.py",
     "within = np.where(live, within, np.abs(g) <= g_on)",
     "within = np.where(live, within, np.abs(g) <= 1e3 * g_on)"),
    ("combined-relaxed-clause-x1e3", "src/pdqp/steps.py",
     "within &= r <= r_on", "within &= r <= 1e3 * r_on"),
    ("presolve-slack-x1e6", "src/pdqp/driver.py",
     "slack = 1e-9 * (1.0", "slack = 1e-3 * (1.0"),
    ("presolve-keeps-every-row", "src/pdqp/driver.py",
     "keep = index_mask(m_std, row_basis(a_std[:, live]))",
     "keep = index_mask(m_std, range(m_std))"),
    ("presolve-slack-without-coef-term", "src/pdqp/driver.py",
     "+ np.abs(coef).T @ np.abs(b_kept) + np.abs(b_dead))",
     "+ np.abs(b_dead))"),
    ("START_EQ_TOL-x1e4", "src/pdqp/model.py",
     "START_EQ_TOL = 1e-8 ", "START_EQ_TOL = 1e-4 "),
    ("DRIFT_EQ_TOL-x1e4", "src/pdqp/model.py",
     "DRIFT_EQ_TOL = 1e-7 ", "DRIFT_EQ_TOL = 1e-3 "),
    ("SELECT_BAND-x100", "src/pdqp/model.py",
     "SELECT_BAND = 1e-11 ", "SELECT_BAND = 1e-9 "),
    ("dx_l-noise-floor-x1e3", "src/pdqp/kkt.py",
     "return NOISE_BAND * max(1.0, ", "return NOISE_BAND * max(1e3, "),
    ("BOUND_SLACK-x1e3", "src/pdqp/model.py",
     "BOUND_SLACK = 1e-7 ", "BOUND_SLACK = 1e-4 "),
    ("psd-off-diagonal-dropped", "src/pdqp/model.py",
     "worst = min(least, -inf_norm(trail))", "worst = least"),
    ("psd-off-diagonal-x1e3", "src/pdqp/model.py",
     "worst = min(least, -inf_norm(trail))",
     "worst = min(least, -1e-3 * inf_norm(trail))"),
    ("indices-range-test-dropped", "src/pdqp/model.py",
     "if not 0 <= i < n:", "if False:"),
    ("basic-repeat-test-dropped", "src/pdqp/model.py",
     "if distinct and len(set(items)) != len(items):", "if False:"),
    ("matrix-empty-guard-widened", "src/pdqp/model.py",
     "if not a.size and not rows * cols:", "if not a.size:"),
    ("matrix-conversion-guard-removed", "src/pdqp/model.py",
     'if a.dtype.kind in "fiu":', "if True:"),
    ("held-bound-border-dropped", "src/pdqp/kkt.py",
     "own.max_abs, inf_norm(rhs), abs(float(p.H[l, l])))",
     "own.max_abs, 0.0, 0.0)"),
    ("final-objective-reused-after-shifted-stage", "src/pdqp/driver.py",
     "logs[-1].f_primal if shifts is zero", "logs[-1].f_primal if True"),
    ("first-stage-norms-zeroed", "src/pdqp/driver.py",
     "norms = (report.stationarity_residual, report.equality_residual)",
     "norms = (0.0, 0.0)"),
    ("public-start-taken-as-owned", "src/pdqp/steps.py",
     "_owned: bool = False", "_owned: bool = True"),
    ("fused-update-skips-y", "src/pdqp/steps.py",
     "    point += alpha * d.v\n",
     "    point += alpha * np.concatenate((d.dx, 0.0 * d.dy, d.dz))\n"),
    ("direction-buffer-reused", "src/pdqp/kkt.py",
     "    v = np.zeros(2 * n + p.m)\n    v[basic] = w[:nb]\n",
     "    v = solve_base_primal.__dict__.setdefault(2 * n + p.m,\n"
     "                                              np.zeros(2 * n + p.m))\n"
     "    v[...] = 0.0\n    v[basic] = w[:nb]\n"),
    ("one-sided-set-widened-to-non-fixed", "src/pdqp/steps.py",
     "one_sided = p.regular_mask", "one_sided = ~p.fixed_mask"),
    ("two-sided-set-without-fixed", "src/pdqp/steps.py",
     "two_sided = getattr(p, fam.unguarded_mask)",
     "two_sided = getattr(p, fam.unguarded_mask) & ~p.fixed_mask"),
    ("row-rank-scaling-dropped", "src/pdqp/model.py",
     "np.ldexp(a, -exponent[:, None], out=a)", "pass"),
    ("NOISE_BAND-zero", "src/pdqp/model.py",
     "NOISE_BAND = 1e-12 ", "NOISE_BAND = 0.0 "),
    ("PIVOT_TOL-x100", "src/pdqp/kkt.py",
     "PIVOT_TOL = 1e-11\n", "PIVOT_TOL = 1e-9\n"),
    ("singular-bound-x1e3", "src/pdqp/kkt.py",
     "return dim * PIVOT_TOL * k_max", "return 1e3 * dim * PIVOT_TOL * k_max"),
    ("update-refinement-never", "src/pdqp/kkt.py",
     "if eta > d * np.finfo(float).eps / 2:", "if False:"),
    ("border-unit-column-not-reused", "src/pdqp/kkt.py",
     "if unit is not None and unit[0] == j:", "if False:"),
    ("update-certificate-margin-x1e-2", "src/pdqp/kkt.py",
     "inv_bound * 100 * _singular_bound(", "inv_bound * 1 * _singular_bound("),
    ("mirror-free-fixed-swapped", "src/pdqp/steps.py",
     '_MIRROR = {"x": ("q", "basic", "free"), "z": ("r", "nonbasic", "fixed")}',
     '_MIRROR = {"x": ("q", "basic", "fixed"), "z": ("r", "nonbasic", "free")}'),
    ("trace-before-pair-is-after-pair", "src/pdqp/steps.py",
     "kind, step, d, viol, before, f))", "kind, step, d, viol, f, f))"),
    ("trace-iteration-start-pair-kept", "src/pdqp/steps.py",
     "            f = objectives(p, eff, it)\n",
     "            f = objectives(p, eff, it) if iterations == 1 else f\n"),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _run(name: str, path: str, old: str, new: str) -> tuple[str, float]:
    """Apply one mutant to a fresh copy of the tree and run tier-1 on it
    with ``-x``: ("killed" | "survived", seconds)."""
    with tempfile.TemporaryDirectory(prefix="pdqp-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        target = tree / path
        text = target.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} "
                             f"times in {path}, not once")
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--continue-on-collection-errors"],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
    return ("survived" if done.returncode == 0 else "killed"), seconds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*",
                    help="mutants to run, by name (default: all)")
    ap.add_argument("--list", action="store_true",
                    help="print the mutants and run none")
    args = ap.parse_args(argv)
    known = {m[0]: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown mutants {unknown}; --list names them")
    chosen = [known[n] for n in args.names] or list(MUTANTS)
    if args.list:
        for name, path, old, new in chosen:
            print(f"{name}: {path}: {old!r} -> {new!r}")
        return 0
    counts = {"killed": 0, "survived": 0}
    for mutant in chosen:
        verdict, seconds = _run(*mutant)
        counts[verdict] += 1
        print(f"{mutant[0]} {verdict} ({seconds:.1f} s)", flush=True)
    print(f"killed {counts['killed']}, survived {counts['survived']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
