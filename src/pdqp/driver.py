"""Combined solve pipeline: general-format conversion, initial basis and
shift construction, and the primal-first / dual-first strategies.

A general problem

    minimize 0.5 x'Hx + c'x   subject to  lower <= (x; Ahat x) <= upper

is converted to standard form by introducing slacks (Ahat x - s = 0) and
anchoring every bounded component at one of its bounds.  Components with
two finite bounds get an extra balance row and slack; components with no
bounds become free variables, and equal bounds mark fixed variables.
A presolve drops each row outside those that ``QpProblem``'s rank rule
keeps over the non-fixed columns, or finds one that proves infeasibility.

The pipeline then finds a second-order consistent basis, builds minimal
shifts making that basis optimal for the shifted pair, and removes the
shifts with two consecutive solves (primal then dual, or dual then
primal).  Free variables left outside the initial basis are temporary
bounds: the shift r_j = -z_j puts each on its dual bound z_j + r_j = 0
of zero width, a dual-solve direction that would move one blocks with a
zero step and makes it basic, and the primal solve drives them to zero.
The engine checks them as it checks any bound (``steps.Family.pinned``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import solve_dual
from .kkt import (KktBasis, KktFactorization, KktInternalError,
                  find_soc_basis, solve_boundary_point)
from .model import (DEFAULT_TOL, InvariantError, Iterate, Partition,
                    ProblemError, QpProblem, Shifts, _indices, _matrix,
                    _vector, all_finite, bound_tol, check_optimality,
                    check_settings, index_mask, inf_norm, objectives,
                    row_basis)
from .primal import solve_primal
from .steps import OPTIMAL, PRIMAL_INFEASIBLE, SolveOutcome, TraceSink

STRATEGIES = ("auto", "primal-first", "dual-first", "primal-only",
              "dual-only")


@dataclass(frozen=True)
class GeneralQp:
    """General-format problem data.

    ``lower`` and ``upper`` have length n + m: bounds on the variables
    first, then on the constraint rows.  Infinities mark absent bounds
    (-inf below, +inf above; the other sign is an error); equal bounds
    mark a fixed variable or an equality row.  c fixes n, and
    ``model._matrix`` reads Hhat (n x n) and Ahat (m x n, m its own row
    count; an Ahat with no entries has no rows).
    """

    Hhat: np.ndarray
    Ahat: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    name: str = "qp"

    def __post_init__(self):
        c = _vector(self.c, "c")
        n = c.shape[0]
        H = _matrix(self.Hhat, "Hhat", n, n)
        A = _matrix(self.Ahat, "Ahat", None, n)
        for name, data in (("Hhat", H), ("Ahat", A), ("c", c)):
            if not all_finite(data):
                raise ProblemError(f"{name} has non-finite entries")
        m = A.shape[0]
        lo = _vector(self.lower, "lower")
        up = _vector(self.upper, "upper")
        if lo.shape != (n + m,) or up.shape != (n + m,):
            raise ProblemError(f"bounds must have length {n + m}")
        if np.any(np.isnan(lo)) or np.any(np.isnan(up)):
            raise ProblemError("bounds may not be NaN")
        wrong = (lo == np.inf) | (up == -np.inf)
        if wrong.any():
            j = int(wrong.nonzero()[0][0])
            raise ProblemError(f"infinite bound on the wrong side at "
                               f"component {j}: lower {lo[j]}, upper {up[j]}")
        if np.any(lo > up):
            j = int(np.nonzero(lo > up)[0][0])
            raise ProblemError(f"inconsistent bounds at component {j}: "
                               f"lower {lo[j]} > upper {up[j]}")
        object.__setattr__(self, "Hhat", H)
        object.__setattr__(self, "Ahat", A)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def m(self) -> int:
        return self.Ahat.shape[0]


@dataclass
class Standardized:
    """Standard-form problem plus the data needed to map results back.

    ``dead_rows`` are the rows that the presolve drops, each a combination
    of the ``kept_rows`` over the live columns.  Where the right-hand sides
    miss that combination, ``inconsistent_row`` names the first such row,
    ``problem`` is None and the problem is primal infeasible outright.
    """

    problem: QpProblem | None
    anchor: np.ndarray        # v0: bound each original component is anchored at
    sign: np.ndarray          # +1, or -1 for components anchored at an upper bound
    objective_offset: float
    kept_rows: list[int]      # standardized row ids that the presolve keeps
    dead_rows: list[int]      # and those it drops
    inconsistent_row: int | None = None

    def recover(self, it: Iterate, g: GeneralQp
                ) -> tuple[np.ndarray, np.ndarray]:
        """Map a standardized iterate to (x, y) in original coordinates.
        Dropped redundant rows carry a zero multiplier."""
        v = self.anchor + self.sign * it.x[:self.anchor.size]
        kept = np.asarray(self.kept_rows, dtype=int)
        original = kept < g.m
        y = np.zeros(g.m)
        y[kept[original]] = it.y[original]
        return v[:g.n], y


def standardize(g: GeneralQp) -> Standardized:
    """Convert a general-format problem to shifted standard form.

    Returns the standard-form problem (variables ordered: originals,
    row slacks, then balance slacks for two-sided components), the bound
    vectors, and the back-map data.
    """
    n, m = g.n, g.m
    nm = n + m
    lo, up = g.lower, g.upper
    lo_fin, up_fin = np.isfinite(lo), np.isfinite(up)
    upper_only = up_fin & ~lo_fin
    anchor = np.where(lo_fin, lo, np.where(upper_only, up, 0.0))
    sign = np.where(upper_only, -1.0, 1.0)
    fixed_mask = lo_fin & up_fin & (lo == up)
    free = (~lo_fin & ~up_fin).nonzero()[0].tolist()
    fixed = fixed_mask.nonzero()[0].tolist()
    boxed = (lo_fin & up_fin & ~fixed_mask).nonzero()[0].tolist()

    nb = len(boxed)
    n_std = nm + nb
    m_std = m + nb

    # H_std = D Hhat D, D = diag(sign): a sign flip, exact in floating point.
    h_std = np.zeros((n_std, n_std))
    h_std[:n, :n] = g.Hhat
    flip = (sign[:n] < 0).nonzero()[0]
    if flip.size:
        h_std[flip] *= -1.0
        h_std[:, flip] *= -1.0

    grad = g.Hhat @ anchor[:n] + g.c
    c_std = np.zeros(n_std)
    c_std[:n] = sign[:n] * grad
    offset = float(0.5 * anchor[:n] @ g.Hhat @ anchor[:n] + g.c @ anchor[:n])

    cv = np.hstack([g.Ahat, -np.eye(m)])
    a_std = np.zeros((m_std, n_std))
    a_std[:m, :nm] = cv * sign
    b_std = np.zeros(m_std)
    b_std[:m] = -cv @ anchor
    balance = np.arange(nb)
    a_std[m + balance, boxed] = 1.0
    a_std[m + balance, nm + balance] = 1.0
    b_std[m:] = up[boxed] - lo[boxed]

    # Presolve: a row that the rank rule drops over the live columns is a
    # combination coef of the kept ones there (0 for a row with no live
    # entry): redundant where b agrees, a proof of infeasibility elsewhere.
    live = ~index_mask(n_std, fixed)
    keep = index_mask(m_std, row_basis(a_std[:, live]))
    base = Standardized(problem=None, anchor=anchor, sign=sign,
                        objective_offset=offset,
                        kept_rows=keep.nonzero()[0].tolist(),
                        dead_rows=(~keep).nonzero()[0].tolist())
    if base.dead_rows:
        a_live = a_std[:, live]
        coef = np.linalg.lstsq(a_live[keep].T, a_live[~keep].T, rcond=None)[0]
        b_kept, b_dead = b_std[keep], b_std[~keep]
        slack = 1e-9 * (1.0 + np.abs(a_std[~keep, :nm]) @ np.abs(anchor)
                        + np.abs(coef).T @ np.abs(b_kept) + np.abs(b_dead))
        miss = (np.abs(b_dead - coef.T @ b_kept) > slack).nonzero()[0]
        if miss.size:
            base.inconsistent_row = base.dead_rows[miss[0]]
            return base
        a_std, b_std, m_std = a_std[keep], b_kept, len(base.kept_rows)
    base.problem = QpProblem(H=h_std, M=np.zeros((m_std, m_std)), A=a_std,
                             b=b_std, c=c_std,
                             free=frozenset(free), fixed=frozenset(fixed))
    return base


def init_shifts(p: QpProblem, part: Partition, factor: KktFactorization
                ) -> tuple[Shifts, Iterate]:
    """Minimal shifts making the given basis optimal for the shifted pair.

    With q_N = 0 and r_B = 0 the boundary system determines (x_B, y) and
    z_N; taking q_B = max(-x_B, 0) and r_N = max(-z_N, 0) componentwise
    makes the point jointly optimal.  Free variables get no primal shift;
    a free nonbasic variable j is a temporary bound with dual shift
    r_j = -z_j.  Fixed variables get no dual shift.  Where x or z is 0.0
    the shift is -0.0, as Python's ``max(-0.0, 0.0)`` gives: that zero
    reaches later iterates through x_l = -q_l.  ``factor`` is the
    factorization of K_B.
    """
    it = solve_boundary_point(p, Shifts.zero(p.n), part, factor)
    x, z = it.x, it.z
    # x_N = -q_N and z_B = -r_B are -0.0, so -x is 0.0 on N and -z on B.
    q0, r0 = -x, -z
    q0[p.free_mask | (x > 0.0)] = 0.0
    r0[p.fixed_mask | (~p.free_mask & (z > 0.0))] = 0.0
    # q0 and r0 are fresh vectors of the right length: Shifts' own checks
    # reduce to finiteness, and they are kept without a copy.
    if not (all_finite(q0) and all_finite(r0)):
        raise ProblemError("shift entries must be finite")
    q0.setflags(write=False)
    r0.setflags(write=False)
    return Shifts._checked(q0, r0), it


@dataclass
class SolveConfig:
    opt_tol: float = DEFAULT_TOL
    fea_tol: float = DEFAULT_TOL
    max_iterations: int = 0
    strategy: str = "auto"   # one of STRATEGIES
    trace: TraceSink | None = None
    check_invariants: bool = False
    initial_basis: list[int] | None = None

    def check(self) -> None:
        """Raise ValueError for a setting that no solve accepts."""
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        check_settings(self.fea_tol, self.opt_tol, self.max_iterations,
                       self.trace, self.check_invariants)


@dataclass
class StageLog:
    method: str
    status: str
    iterations: int
    subiterations: int
    f_primal: float
    f_dual: float
    q_dot_r: float


@dataclass
class StandardSolution:
    """Result of the combined pipeline on a standard-form problem."""

    status: str
    iterate: Iterate
    partition: Partition
    objective: float
    strategy: str
    stage_log: list[StageLog]
    shifts_initial: Shifts
    iterations: int
    subiterations: int


@dataclass
class PdqpSolution:
    """Result of solve_pdqp in original coordinates."""

    status: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    objective: float
    strategy: str
    stage_log: list[StageLog]
    standardized: StandardSolution | None


def _stage_log(p: QpProblem, s: Shifts, out: SolveOutcome) -> StageLog:
    """The stage's outcome with the ``objectives`` at its end point."""
    f_primal, f_dual = objectives(p, s, out.iterate)
    return StageLog(method=out.method, status=out.status,
                    iterations=out.iterations,
                    subiterations=out.subiterations,
                    f_primal=f_primal, f_dual=f_dual,
                    q_dot_r=float(s.q @ s.r))


def solve_standard(p: QpProblem, config: SolveConfig | None = None
                   ) -> StandardSolution:
    """Run the combined strategy on a standard-form problem.

    A strategy is a list of stages, each a method and the shifts it runs
    under, started from where the previous stage ended.  The run stops
    at the first stage that is not optimal.  One ``KktBasis`` serves
    basis discovery, the start basis's K_B (factored once, for the
    shifts) and every KKT solve of every stage.  The stages own their
    start (``steps.run_active_set``): the settings are judged here once,
    each start is taken without a copy, and the first stage reuses the
    residual norms of the initial point's optimality check.
    """
    config = config or SolveConfig()
    config.check()
    basis = KktBasis(p)
    if config.initial_basis is not None:
        chosen = _indices(config.initial_basis, "initial basis", n=p.n,
                          distinct=True)
        if p.fixed.intersection(chosen):
            raise ProblemError("fixed variables cannot be basic")
        part = Partition._from_mask(index_mask(p.n, chosen))
    else:
        part = find_soc_basis(p, basis)
    factor = basis.factor(part.basic_mask.nonzero()[0])
    if factor is None:
        if config.initial_basis is not None:
            raise ProblemError(f"initial basis {part.basic}: K_B is singular")
        raise KktInternalError(
            f"K_B unexpectedly singular for basis {part.basic}")
    shifts0, it = init_shifts(p, part, factor)
    report = check_optimality(p, shifts0, it, config.fea_tol, config.opt_tol)
    if not report.optimal:
        raise InvariantError("initial shifted point failed the optimality "
                             f"check: {report}")

    # Shifts are measured as check_optimality measures the bounds.
    y_norm = inf_norm(it.y)
    x_tol, z_tol = (bound_tol(v, y_norm, config.fea_tol, config.opt_tol)
                    for v in "xz")
    strategy = config.strategy
    if strategy == "auto":      # dual-first when r is within the z measure
        strategy = ("dual-first" if inf_norm(shifts0.r) <= z_tol
                    else "primal-first")
    # A one-stage strategy runs at zero shifts from the start point.
    if strategy == "primal-only" and \
            float(np.max(shifts0.q, initial=0.0)) > x_tol:
        raise ProblemError("primal-only requires a primal-feasible "
                           "initial basis (primal shifts within bound_tol)")
    if strategy == "dual-only" and inf_norm(shifts0.r) > z_tol:
        raise ProblemError("dual-only requires a dual-feasible initial "
                           "basis (dual shifts within bound_tol)")

    # zero's and shifts0's vectors are checked and read-only already.
    zero = Shifts.zero(p.n)
    if strategy == "primal-first":
        stages = [(solve_primal, Shifts._checked(shifts0.q, zero.r)),
                  (solve_dual, zero)]
    elif strategy == "dual-first":
        stages = [(solve_dual, Shifts._checked(zero.q, shifts0.r)),
                  (solve_primal, zero)]
    else:
        stages = [(solve_primal if strategy == "primal-only" else solve_dual,
                   zero)]

    kw = dict(opt_tol=config.opt_tol, fea_tol=config.fea_tol,
              max_iterations=config.max_iterations, trace=config.trace,
              check_invariants=config.check_invariants, _owned=True)
    logs: list[StageLog] = []
    start = (it, part)
    norms = (report.stationarity_residual, report.equality_residual)
    for solve, shifts in stages:
        out = solve(p, shifts, start, basis=basis, _start_norms=norms, **kw)
        norms = None
        logs.append(_stage_log(p, shifts, out))
        if out.status != OPTIMAL:
            break
        start = (out.iterate, out.partition)

    # A last stage at zero shifts has logged this very value.
    obj = (logs[-1].f_primal if shifts is zero
           else objectives(p, zero, out.iterate)[0])
    if out.status == OPTIMAL:
        rep = check_optimality(p, zero, out.iterate,
                               config.fea_tol, config.opt_tol)
        if not rep.optimal:
            raise InvariantError(f"final point failed the optimality "
                                 f"check: {rep}")
    return StandardSolution(status=out.status, iterate=out.iterate,
                            partition=out.partition, objective=obj,
                            strategy=strategy, stage_log=logs,
                            shifts_initial=shifts0,
                            iterations=sum(lg.iterations for lg in logs),
                            subiterations=sum(lg.subiterations for lg in logs))


def solve_pdqp(g: GeneralQp, config: SolveConfig | None = None) -> PdqpSolution:
    """Standardize a general-format problem, solve it, and map the
    solution back to the original coordinates."""
    config = config or SolveConfig()
    config.check()
    std = standardize(g)
    if std.inconsistent_row is not None:
        return _original_solution(g, std.anchor[:g.n], np.zeros(g.m),
                                  status=PRIMAL_INFEASIBLE,
                                  strategy="presolve", stage_log=[],
                                  standardized=None)
    sol = solve_standard(std.problem, config)
    return _original_solution(g, *std.recover(sol.iterate, g),
                              status=sol.status, strategy=sol.strategy,
                              stage_log=sol.stage_log, standardized=sol)


def _original_solution(g: GeneralQp, x: np.ndarray, y: np.ndarray,
                       **fields) -> PdqpSolution:
    """The solution at (x, y) in original coordinates: objective
    0.5 x'Hhat x + c'x, and z the reduced costs Hhat x + c - Ahat' y of
    the original variables, the combined multiplier of their bounds."""
    return PdqpSolution(x=x, y=y, z=g.Hhat @ x + g.c - g.Ahat.T @ y,
                        objective=float(0.5 * x @ g.Hhat @ x + g.c @ x),
                        **fields)
