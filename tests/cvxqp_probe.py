"""CVXQP-family QPs past tier-1's sizes against HiGHS's QP solver.

    PYTHONPATH=src python tests/cvxqp_probe.py

Solves ``conftest.cvxqp(n, variant)`` for n = 100, 200, 500 and 1000 and
variants 1-3 under auto, primal-first and dual-first.  Prints one line
per solve with its status and objective, or the exception it raised
(each index list of its message shortened to "[...]"), next to HiGHS's
objective (``test_referee.highs_qp``) and the seconds taken; then the
set of (n, variant, strategy) that raised.  Tier-1 (``test_cvxqp.py``)
covers n = 20 and 50.  The full run takes about 50 s, most of it at
n = 1000.

Not collected by pytest (the file name has no ``test_`` prefix).
"""

from __future__ import annotations

import re
import time

from pdqp import SolveConfig, solve_pdqp
from conftest import cvxqp
from test_referee import STRATEGIES, highs_qp

SIZES, VARIANTS = (100, 200, 500, 1000), (1, 2, 3)
# An index list of an exception message, printed as "[...]".
INDICES = re.compile(r"\[[\d, ]*\]")


def main() -> None:
    raised = []
    for n in SIZES:
        for variant in VARIANTS:
            g = cvxqp(n, variant)
            optimal, want = highs_qp(g)
            highs = f"HiGHS {'optimal' if optimal else 'not optimal'} " \
                    f"{want:.10g}"
            for strategy in STRATEGIES:
                t0 = time.perf_counter()
                try:
                    sol = solve_pdqp(g, SolveConfig(strategy=strategy))
                except (ValueError, RuntimeError) as exc:   # pdqp's errors
                    raised.append((n, variant, strategy))
                    got = (f"raised {type(exc).__name__}: "
                           f"{INDICES.sub('[...]', str(exc))}")
                else:
                    got = f"{sol.status} {sol.objective:.10g}"
                print(f"n={n} CVXQP{variant} {strategy}: {got}; {highs}; "
                      f"{time.perf_counter() - t0:.2f} s", flush=True)
    print(f"raised ({len(raised)}):")
    for case in raised:
        print(f"  {case}")


if __name__ == "__main__":
    main()
