import sys
from pathlib import Path

import numpy as np
import pytest

from pdqp import (GeneralQp, ProblemError, QpProblem, Shifts, enumerate_solve,
                  standardize)
from pdqp import oracle
from pdqp.kkt import KktBasis, factor_kb
from pdqp.oracle import dual_set_nonempty, primal_set_nonempty

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import mixed_instance  # noqa: E402


@pytest.fixture
def p1():
    """min 0.5|x|^2 s.t. x1 + x2 = 1, x >= 0; optimum (0.5, 0.5)."""
    return QpProblem(H=np.eye(2), M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                     b=np.array([1.0]), c=np.zeros(2))


@pytest.fixture
def p2():
    """p1 with c = (2, 0); optimum (0, 1) with objective 0.5."""
    return QpProblem(H=np.eye(2), M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                     b=np.array([1.0]), c=np.array([2.0, 0.0]))


@pytest.fixture
def p_infeasible():
    """p1 with b = -1: x1 + x2 = -1 has no nonnegative solution."""
    return QpProblem(H=np.eye(2), M=np.zeros((1, 1)), A=np.array([[1.0, 1.0]]),
                     b=np.array([-1.0]), c=np.zeros(2))


@pytest.fixture
def p_unbounded():
    """min -x1 s.t. x1 - x2 = 0, x >= 0: unbounded along (1, 1)."""
    return QpProblem(H=np.zeros((2, 2)), M=np.zeros((1, 1)),
                     A=np.array([[1.0, -1.0]]), b=np.array([0.0]),
                     c=np.array([-1.0, 0.0]))


def held_basis(p, order):
    """A ``KktBasis`` for ``p`` that holds the factorization of the basis
    matrix over ``order``, as ``solve_standard`` holds the start basis."""
    basis = KktBasis(p)
    basis.factor(order)
    return basis


def random_psd(rng, n, kind):
    if kind == "pd":
        g = rng.normal(size=(n, n))
        return g.T @ g + 0.5 * np.eye(n)
    if kind == "psd":
        k = max(1, n - int(rng.integers(1, n)))
        g = rng.normal(size=(k, n))
        return g.T @ g
    return np.zeros((n, n))


def random_instance(rng, kinds=("feasible", "primal_inf", "unbounded")):
    """One random convex QP with a construction-time status guarantee.

    Feasible instances get b in the reachable set; primal-infeasible ones
    are certified by the primal feasibility cone; unbounded ones carry a
    nonnegative null ray of H and A with negative cost, certified by the
    dual feasibility cone.  Returns None when sampling fails.

    Some shapes never load: with M = 0, rank [A M] = rank A, which is at
    most n, and at most n - 1 for an unbounded draw, whose rows are
    projected orthogonal to its ray.  Such a draw still makes all of its
    60 tries' random draws, so the stream stays in place, but it shapes
    and builds no ``QpProblem``, which would raise "[A M] is rank
    deficient" every time.
    """
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 4))
    hkind = rng.choice(["pd", "psd", "zero"])
    mkind = rng.choice(["zero", "mu"])
    M = np.zeros((m, m)) if mkind == "zero" else 1e-2 * np.eye(m)
    kind = rng.choice(list(kinds))
    # Only an M = 0 draw can be doomed, and its kind never changes.
    doomed = mkind == "zero" and m > n - (kind == "unbounded")
    for _ in range(60):
        H = random_psd(rng, n, hkind)
        A = rng.normal(size=(m, n))
        try:
            if kind == "feasible":
                x0 = np.abs(rng.normal(size=n))
                y0 = rng.normal(size=m)
                c = rng.normal(size=n)
                if doomed:
                    continue
                return QpProblem(H=H, M=M, A=A, b=A @ x0 + M @ y0, c=c)
            if kind == "primal_inf":
                if mkind != "zero":
                    kind = "feasible"
                    continue
                b, c = rng.normal(size=m), rng.normal(size=n)
                if doomed:
                    continue
                p = QpProblem(H=H, M=M, A=A, b=b, c=c)
                if not primal_set_nonempty(p, Shifts.zero(n)):
                    return p
                continue
            ray = np.abs(rng.normal(size=n)) + 0.1
            if hkind == "pd":
                hkind = "psd"
            H = random_psd(rng, n, hkind)
            x0 = np.abs(rng.normal(size=n))
            y0 = rng.normal(size=m)
            c = rng.normal(size=n)
            if doomed:
                continue
            A = A - np.outer(A @ ray, ray) / (ray @ ray)
            H = H - np.outer(H @ ray, ray) / (ray @ ray)
            H = H - np.outer(ray, ray @ H) / (ray @ ray)
            H = 0.5 * (H + H.T)
            if c @ ray >= -0.1:
                c = c - ((c @ ray) + 1.0) * ray / (ray @ ray)
            p = QpProblem(H=H, M=M, A=A, b=A @ x0 + M @ y0, c=c)
            if not dual_set_nonempty(p, Shifts.zero(n)):
                return p
        except ProblemError:
            continue
    return None


def random_instances(seed, count, **kw):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        p = random_instance(rng, **kw)
        if p is not None:
            out.append(p)
    return out


@pytest.fixture(scope="session")
def suite500_draw():
    """``random_instances(20260810, 500)``, the ``suite500`` benchmark
    workload's instances, drawn once per test session: (the problems as a
    tuple, the (arguments, answer) of every ``oracle._in_cone`` call the
    draw made to certify its infeasible instances, the number of
    ``QpProblem`` constructions it made, those that raised included)."""
    calls = []
    in_cone = oracle._in_cone
    built = [0]
    post_init = QpProblem.__post_init__

    def record(*args):
        calls.append((args, in_cone(*args)))
        return calls[-1][1]

    def count(p):
        built[0] += 1
        post_init(p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_in_cone", record)
        mp.setattr(QpProblem, "__post_init__", count)
        problems = tuple(random_instances(20260810, 500))
    return problems, calls, built[0]


@pytest.fixture(scope="session")
def suite500(suite500_draw):
    """The ``suite500`` instances as a tuple (see ``suite500_draw``)."""
    return suite500_draw[0]


@pytest.fixture(scope="session")
def suite500_oracle(suite500):
    """``enumerate_solve`` of each ``suite500`` instance at zero shifts, in
    the same order."""
    return tuple(enumerate_solve(p, Shifts.zero(p.n)) for p in suite500)


def mixed_instances(seed, count):
    """The general-format problems of the ``mixed-bounds`` benchmark
    workload (seed 1, 120 problems), named mixed000, mixed001, ..."""
    rng = np.random.default_rng(seed)
    return [mixed_instance(rng, f"mixed{i:03d}") for i in range(count)]


def criterion7_instance(n, m, active, seed, rank=None):
    """The criterion-7 construction: x* >= 0 with ``active`` zeros, bound
    duals chosen so that x* is optimal, rows pinned at A x*.  ``rank`` None
    gives a tridiagonal positive definite H; an integer gives H = G'G/n of
    that rank (0 is an LP).  Returns (GeneralQp, x*, f*)."""
    rng = np.random.default_rng(seed)
    if rank is None:
        main = 2.0 + rng.random(n)
        off = 0.4 * rng.random(n - 1)
        H = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    else:
        G = rng.normal(size=(rank, n))
        H = G.T @ G / n
    A = rng.normal(size=(m, n)) / np.sqrt(n)
    xstar = np.abs(rng.normal(size=n)) + 0.05
    act = rng.choice(n, size=active, replace=False)
    xstar[act] = 0.0
    zstar = np.zeros(n)
    zstar[act] = np.abs(rng.normal(size=active)) + 0.1
    c = -(H @ xstar) + A.T @ rng.normal(size=m) + zstar
    rows = A @ xstar
    kind = "pd" if rank is None else f"r{rank}"
    g = GeneralQp(Hhat=H, Ahat=A, c=c,
                  lower=np.concatenate([np.zeros(n), rows]),
                  upper=np.concatenate([np.full(n, np.inf), rows]),
                  name=f"n{n}m{m}a{active}{kind}s{seed}")
    return g, xstar, float(0.5 * xstar @ H @ xstar + c @ xstar)


def large_x_instance(seed, rank, scale):
    """A criterion-7 style QP whose solution has max|x| far above 1e4:
    n=12, m=4, H = G'G/n of ``rank``, x* >= 0 with 7 zeros of which 2
    are strictly active, x* then multiplied entrywise by exp(3 N(0, 1)),
    and c and the row bounds multiplied by ``scale``, so that the optimum
    is scale * x*.  Returns (GeneralQp, f*)."""
    rng = np.random.default_rng(seed)
    n, m = 12, 4
    G = rng.normal(size=(rank, n))
    H = G.T @ G / n
    A = rng.normal(size=(m, n)) / np.sqrt(n)
    xstar = np.abs(rng.normal(size=n)) + 0.05
    idx = rng.permutation(n)
    xstar[idx[:7]] = 0.0
    zstar = np.zeros(n)
    zstar[idx[:2]] = np.abs(rng.normal(size=2)) + 0.1
    xstar *= np.exp(3.0 * rng.normal(size=n))
    c = -(H @ xstar) + A.T @ rng.normal(size=m) + zstar
    rows = scale * (A @ xstar)
    g = GeneralQp(Hhat=H, Ahat=A, c=scale * c,
                  lower=np.concatenate([np.zeros(n), rows]),
                  upper=np.concatenate([np.full(n, np.inf), rows]),
                  name=f"largex_s{seed}r{rank}e{int(np.log10(scale))}")
    xhat = scale * xstar
    return g, float(0.5 * xhat @ H @ xhat + (scale * c) @ xhat)


def scale_probe(seed, objective_scale=1.0, row_scale=1.0):
    """A QP at n=5, m=2 with its objective scaled by ``objective_scale``
    and its rows by ``row_scale``.  With ``rng = default_rng(seed)``:
    G = rng.normal(size=(seed % 4, 5)), A normal, b = A|x0| with x0
    normal, c normal, H = G'G and M = 0; then H and c are multiplied by
    ``objective_scale`` and A and b by ``row_scale``.  The solution x is
    the unit-scale one and the objective ``objective_scale`` times it.
    The load-time rank test may reject the scaled rows (``ProblemError``).
    """
    rng = np.random.default_rng(seed)
    n, m = 5, 2
    G = rng.normal(size=(seed % 4, n))
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    b = A @ np.abs(x0)
    c = rng.normal(size=n)
    return QpProblem(H=objective_scale * (G.T @ G), M=np.zeros((m, m)),
                     A=row_scale * A, b=row_scale * b, c=objective_scale * c)


def free_start_instance(rng):
    """A tiny general-format QP: n in [2, 4], m in [1, 2], integer A in
    [-2, 2], H = G'G with integer G in [-2, 2] of 0..n rows, integer c in
    [-3, 3], and each of the n + m components, with equal odds, free,
    lower-only, upper-only, boxed (width 1-3) or fixed at an integer in
    [-2, 2].  It may be infeasible or unbounded."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 3))
    G = rng.integers(-2, 3, size=(int(rng.integers(0, n + 1)), n))
    A = rng.integers(-2, 3, size=(m, n)).astype(float)
    c = rng.integers(-3, 4, size=n).astype(float)
    lo = np.full(n + m, -np.inf)
    up = np.full(n + m, np.inf)
    for j in range(n + m):
        kind = int(rng.integers(0, 5))
        at = float(rng.integers(-2, 3))
        if kind == 1:
            lo[j] = at
        elif kind == 2:
            up[j] = at
        elif kind == 3:
            lo[j], up[j] = at, at + float(rng.integers(1, 4))
        elif kind == 4:
            lo[j] = up[j] = at
    return GeneralQp(Hhat=(G.T @ G).astype(float), Ahat=A, c=c, lower=lo,
                     upper=up)


def free_start_cases(seed, count, per_problem=6):
    """(label, problem, start basis) for ``count`` standardized
    ``free_start_instance`` problems that have a free index and n <= 12:
    up to ``per_problem`` distinct start bases each, drawn from the
    subsets of the non-fixed indices that leave a free index nonbasic and
    whose K_B ``factor_kb`` accepts.  Such a start gives the first stage a
    live temporary bound under every strategy."""
    rng = np.random.default_rng(seed)
    out = []
    kept = 0
    while kept < count:
        try:
            p = standardize(free_start_instance(rng)).problem
        except ProblemError:
            continue
        if p is None or not p.free or p.n > 12:
            continue
        kept += 1
        cand = [j for j in range(p.n) if j not in p.fixed]
        bases = []
        for _ in range(10 * per_problem):
            basis = [j for j in cand if rng.random() < 0.5]
            if basis in bases or p.free <= set(basis):
                continue
            if factor_kb(p, basis) is not None:
                bases.append(basis)
                if len(bases) == per_problem:
                    break
        out += [(f"freestart{kept - 1:03d}b{i}", p, b)
                for i, b in enumerate(bases)]
    return out


def cvxqp(n, variant):
    """The CVXQP``variant`` QP of CUTEst at size n, rebuilt from the
    formulas of its SIF files (Maros and Meszaros, "A repository of convex
    quadratic programming problems", 1999), with 1-based indices:
    minimize sum_{i=1..n} (i/2) (x_i + x_{(2i-1) mod n + 1}
    + x_{(3i-1) mod n + 1})^2 subject to x_i + 2 x_{(4i-1) mod n + 1}
    + 3 x_{(5i-1) mod n + 1} = 6 for i = 1..m and 0.1 <= x <= 10, where
    m = n/2, n/4 or 3n/4 for variants 1, 2 and 3; repeated indices add.
    The test needs the shape (degenerate, sparse cyclic couplings), not
    CUTEst's exact data, since HiGHS referees what is drawn here."""
    m = {1: n // 2, 2: n // 4, 3: 3 * n // 4}[variant]
    i = np.arange(1, n + 1)
    terms = np.zeros((n, n))
    for col in (i - 1, (2 * i - 1) % n, (3 * i - 1) % n):
        np.add.at(terms, (i - 1, col), 1.0)
    rows = np.zeros((m, n))
    k = i[:m]
    for coef, col in ((1.0, k - 1), (2.0, (4 * k - 1) % n),
                      (3.0, (5 * k - 1) % n)):
        np.add.at(rows, (k - 1, col), coef)
    return GeneralQp(Hhat=terms.T @ (i[:, None] * terms), Ahat=rows,
                     c=np.zeros(n),
                     lower=np.concatenate([np.full(n, 0.1), np.full(m, 6.0)]),
                     upper=np.concatenate([np.full(n, 10.0), np.full(m, 6.0)]),
                     name=f"cvxqp{variant}_n{n}")
