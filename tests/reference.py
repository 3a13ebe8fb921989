"""Reference computations the tests compare the solver and its oracle
against.

``_gauss_solve`` is plain Gaussian elimination with partial pivoting, a
second opinion on floating-point KKT solves.  ``certify`` proves the
boundary point of a basis in exact rational arithmetic: every float is a
dyadic rational, so the data convert to ``Fraction`` without error, and
K_B is solved by fraction-free elimination (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22, 1968).  It assembles K_B from the problem data itself and
imports nothing from ``pdqp.kkt``, so it shares no assembly and no
singularity verdict with the solver or the oracle.

Not collected by pytest (the file name has no ``test_`` prefix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from pdqp.model import QpProblem, Shifts


def _gauss_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain Gaussian elimination with partial pivoting; the deliberate
    second opinion on the factorization solves."""
    a = np.array(a, dtype=float)
    x = np.array(b, dtype=float)
    n = a.shape[0]
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[piv, k]) == 0.0:
            raise np.linalg.LinAlgError("singular matrix in gauss solve")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            x[[k, piv]] = x[[piv, k]]
        mult = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= np.outer(mult, a[k, k:])
        x[k + 1:] -= mult * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


@dataclass
class Certificate:
    """The exact boundary point of a basis and what it proves.

    x, y and z solve the KKT equations exactly; ``objective`` is
    0.5 x'Hx + 0.5 y'My + (c + r)'x; ``violation`` is the largest exact
    failure of a sign condition, 0 when every one holds: -(x + q) on
    basic indices that are not free, -(z + r) on nonbasic regular ones
    and |z + r| on nonbasic free ones.  Violation 0 proves the point
    optimal for the shifted problem.
    """

    x: list[Fraction]
    y: list[Fraction]
    z: list[Fraction]
    objective: Fraction
    violation: Fraction


def _exact(a: np.ndarray) -> list:
    """A float array as (nested) lists of equal Fractions."""
    return np.frompyfunc(Fraction, 1, 1)(a).tolist()


def _solve_exact(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """Solve the augmented system ``rows`` = [K | rhs] exactly, or None
    when K is singular.  Each row is scaled to integers, Bareiss
    elimination keeps every entry an integer minor, and back
    substitution finds det(K) x, which Cramer's rule makes integral."""
    n = len(rows)
    m = []
    for row in rows:
        den = math.lcm(*(f.denominator for f in row))
        m.append([f.numerator * (den // f.denominator) for f in row])
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        pk = m[k]
        for row in m[k + 1:]:
            rk = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (row[j] * pk[k] - rk * pk[j]) // prev
        prev = pk[k]
    t = [0] * n
    for k in range(n - 1, -1, -1):
        rest = sum(m[k][j] * t[j] for j in range(k + 1, n))
        t[k] = (m[k][n] * prev - rest) // m[k][k]
    return [Fraction(v, prev) for v in t]


def certify(p: QpProblem, s: Shifts, basic: Sequence[int]
            ) -> Certificate | None:
    """The exact boundary point of ``basic`` under shifts ``s``, or None
    when K_B = [[H_BB, A_B'], [A_B, -M]] is exactly singular.

    As ``solve_boundary_point`` states the equations: x_N = -q_N and
    K_B [x_B; -y] = [H_BN q_N - c_B - r_B; A_N q_N + b]; then z = Hx + c
    - A'y, which gives z_B = -r_B exactly.
    """
    basic = sorted(basic)
    nonbasic = sorted(set(range(p.n)) - set(basic))
    H, A, M = _exact(p.H), _exact(p.A), _exact(p.M)
    b, c, q, r = (_exact(v) for v in (p.b, p.c, s.q, s.r))
    rows = [[H[i][j] for j in basic] + [A[k][i] for k in range(p.m)]
            + [sum(H[i][j] * q[j] for j in nonbasic) - c[i] - r[i]]
            for i in basic]
    rows += [[A[k][j] for j in basic] + [-v for v in M[k]]
             + [sum(A[k][j] * q[j] for j in nonbasic) + b[k]]
             for k in range(p.m)]
    w = _solve_exact(rows)
    if w is None:
        return None
    x = [-v for v in q]
    for i, j in enumerate(basic):
        x[j] = w[i]
    y = [-v for v in w[len(basic):]]
    hx = [sum(hij * xj for hij, xj in zip(hi, x)) for hi in H]
    my = [sum(mkl * yl for mkl, yl in zip(mk, y)) for mk in M]
    z = [hx[j] + c[j] - sum(A[k][j] * y[k] for k in range(p.m))
         for j in range(p.n)]
    objective = (sum(xj * hxj for xj, hxj in zip(x, hx)) / 2
                 + sum(yk * myk for yk, myk in zip(y, my)) / 2
                 + sum((cj + rj) * xj for cj, rj, xj in zip(c, r, x)))
    bad = [-(x[j] + q[j]) for j in basic if j not in p.free]
    bad += [-(z[j] + r[j]) for j in nonbasic
            if j not in p.free and j not in p.fixed]
    bad += [abs(z[j] + r[j]) for j in nonbasic if j in p.free]
    return Certificate(x=x, y=y, z=z, objective=objective,
                       violation=max([Fraction(0), *bad]))
