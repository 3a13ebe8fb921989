"""CVXQP-family QPs past tier-1's sizes against HiGHS's QP solver.

    PYTHONPATH=src python tests/cvxqp_probe.py

Solves ``conftest.cvxqp(n, variant)`` for n = 100, 200, 500 and 1000 and
variants 1-3 under auto, primal-first and dual-first.  Prints one line
per solve with its status and objective, or the exception it raised
(each index list of its message shortened to "[...]"), next to HiGHS's
objective (``test_referee.highs_qp``) and the seconds taken; then the
set of (n, variant, strategy) that raised.  For a raise right after
discovery ("K_B unexpectedly singular"), it then prints, once per
(n, variant), the dim of that K_B, its margin rcond / (100 dim
PIVOT_TOL) under the acceptance rule, and the verdict of a verified
nonsingularity check (``proved_nonsingular``).  Tier-1
(``test_cvxqp.py``) covers n = 20 and 50.  The full run takes a few
minutes, most of it in the verified checks at n = 1000.

Not collected by pytest (the file name has no ``test_`` prefix).
"""

from __future__ import annotations

import re
import time

import numpy as np
from scipy.linalg import lapack

from pdqp import SolveConfig, solve_pdqp, standardize
from pdqp.kkt import (PIVOT_TOL, KktBasis, _dsytrf_lwork, build_kb,
                      find_soc_basis)
from conftest import cvxqp
from test_referee import STRATEGIES, highs_qp

SIZES, VARIANTS = (100, 200, 500, 1000), (1, 2, 3)
# An index list of an exception message, printed as "[...]".
INDICES = re.compile(r"\[[\d, ]*\]")


def proved_nonsingular(k: np.ndarray) -> tuple[bool, float]:
    """A verified nonsingularity check of a symmetric K of dim d (Rump,
    "Verification methods", Acta Numerica 19, 2010; Higham, ch. 3): X is
    K^-1 as ``dsytrs`` forms it from the Bunch-Kaufman factors, and K is
    proved nonsingular when ||I - XK||_inf + gamma_{d+2} (|| |X||K| ||_inf
    + 1) < 1/2, with gamma_j = j u / (1 - j u), the second term bounding
    the rounding of the computed residual.  Returns (proved, that
    bound)."""
    d = k.shape[0]
    ldu, ipiv, info = lapack.dsytrf(k, lower=1)
    if info != 0:
        return False, np.inf
    x = lapack.dsytrs(ldu, ipiv, np.eye(d), lower=1)[0]
    residual = np.abs(np.eye(d) - x @ k).sum(axis=1).max()
    u = np.finfo(float).eps / 2
    gamma = (d + 2) * u / (1 - (d + 2) * u)
    bound = residual + gamma * ((np.abs(x) @ np.abs(k)).sum(axis=1).max()
                                + 1.0)
    return bool(bound < 0.5), float(bound)


def discovered_kb(n: int, variant: int) -> None:
    """Print the dim, margin and verified verdict of the K_B that
    discovery returns for CVXQP``variant`` at size n."""
    p = standardize(cvxqp(n, variant)).problem
    part = find_soc_basis(p, KktBasis(p))
    k = build_kb(p, part.basic_mask.nonzero()[0])
    dim = k.shape[0]
    # The acceptance rule's own calls (``kkt._bunch_kaufman``).
    ldu, ipiv, _ = lapack.dsytrf(k.T, lower=1, lwork=_dsytrf_lwork(dim))
    rcond, _ = lapack.dsycon(ldu, ipiv, float(lapack.dlange("1", k.T)),
                             lower=1)
    proved, bound = proved_nonsingular(k)
    print(f"n={n} CVXQP{variant} K_B after discovery: dim {dim}, margin "
          f"{rcond / (100 * dim * PIVOT_TOL):.3g}, verified check "
          f"{'proves it nonsingular' if proved else 'proves nothing'} "
          f"(bound {bound:.3g})", flush=True)


def main() -> None:
    raised = []
    after_discovery = set()
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
                    if str(exc).startswith("K_B unexpectedly singular"):
                        after_discovery.add((n, variant))
                    got = (f"raised {type(exc).__name__}: "
                           f"{INDICES.sub('[...]', str(exc))}")
                else:
                    got = f"{sol.status} {sol.objective:.10g}"
                print(f"n={n} CVXQP{variant} {strategy}: {got}; {highs}; "
                      f"{time.perf_counter() - t0:.2f} s", flush=True)
    print(f"raised ({len(raised)}):")
    for case in raised:
        print(f"  {case}")
    for n, variant in sorted(after_discovery):
        discovered_kb(n, variant)


if __name__ == "__main__":
    main()
