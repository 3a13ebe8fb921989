"""HiGHS against pdqp on general-format LPs up to n = 150, outside tier-1.

    PYTHONPATH=src python tests/referee_probe.py

Draws ``test_referee.referee_lp`` LPs at seeds 1-3, 60 problems each,
with n from {10, 30, 80, 150} and a box share of 0.8, and solves each
under auto, primal-first and dual-first.  Prints one line per
(seed, problem, strategy) that raises or disagrees with
``linprog(method="highs")`` (its status, or, where both are optimal, its
objective to 1e-6 relative), then the counts per n.  Tier-1
(``test_referee.py``) covers n = 10 and 30 at seed 5, and a fixed sample
of this draw past n = 30 (``PROBE_SAMPLE``) with its known raises.
Last, it solves the ``ladder`` rung at n = 1000, which tier-1 leaves out
(HiGHS's QP solver takes about 2.4 s on it), and prints its objective
next to HiGHS's (``highs_qp``) and the constructed f*.

Not collected by pytest (the file name has no ``test_`` prefix).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from conftest import criterion7_instance
from pdqp import SolveConfig, solve_pdqp
from test_referee import (PROBE_BOX, PROBE_SIZES, STRATEGIES, highs,
                          highs_qp, referee_lp)

SEEDS, COUNT = (1, 2, 3), 60


def main() -> None:
    solves, raised, disagreed = Counter(), Counter(), Counter()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for i in range(COUNT):
            g = referee_lp(rng, PROBE_SIZES, PROBE_BOX)
            want, fun = highs(g)
            for strategy in STRATEGIES:
                solves[g.n] += 1
                try:
                    sol = solve_pdqp(g, SolveConfig(strategy=strategy))
                except (ValueError, RuntimeError) as exc:   # pdqp's errors
                    raised[g.n] += 1
                    print(f"seed {seed} problem {i} n={g.n} {strategy}: "
                          f"raised {type(exc).__name__}")
                    continue
                if sol.status != want or (
                        want == "optimal"
                        and abs(sol.objective - fun) > 1e-6 * (1 + abs(fun))):
                    disagreed[g.n] += 1
                    print(f"seed {seed} problem {i} n={g.n} {strategy}: "
                          f"{sol.status} {sol.objective!r}, HiGHS {want} "
                          f"{fun!r}")
    for n in PROBE_SIZES:
        print(f"n={n}: {solves[n]} solves, {raised[n]} raised, "
              f"{disagreed[n]} disagreed")
    g, _, fstar = criterion7_instance(1000, 20, 10, 500)
    optimal, fun = highs_qp(g)
    sol = solve_pdqp(g)
    print(f"ladder n=1000: {sol.status} {sol.objective!r}, HiGHS "
          f"{'optimal' if optimal else 'not optimal'} {fun!r}, f* {fstar!r}; "
          f"relative {abs(sol.objective - fun) / abs(fun):.1e} and "
          f"{abs(sol.objective - fstar) / abs(fstar):.1e}")


if __name__ == "__main__":
    main()
