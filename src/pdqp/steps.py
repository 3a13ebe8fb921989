"""The active-set engine shared by the primal and dual methods.

The methods are mirrors.  Each repairs one vector (z + r for the primal,
x + q for the dual) one index at a time while a ratio test keeps the
other within its shifted bounds on the set where those are live (B for
the primal's x, N for the dual's z).  A ``Family`` names these roles.
Each index's role is the problem's own mask: a regular index is
selected one-sided, an index whose guarded bound is void (the primal's
free ones, the dual's fixed ones) two-sided, and a pinned index (the
primal's fixed ones, the dual's free ones) never.

An outer iteration selects and frees an index l, takes a base
subiteration when l comes from outside the live set, then intermediate
subiterations until its repaired component reaches its bound, and binds
l into the live set.  An infinite base step is returned unapplied and
certifies the family's ``unbounded`` status.  Step functions are passed
in per solve and the KKT solves are called by name from this module, so
rebinding a module attribute (as the benchmark's tracer does) reaches
every call.

A subiteration pays for its KKT solve and little else: the direction
comes in one buffer (``Direction.v``, laid out as ``Iterate.v``), so the
step moves x, y and z with one operation and measures the direction with
one norm, and its repaired rate is the direction's freed component
(``Family.rate``).

The entry and invariant checks (``_check_bounds``) and the stopping rule
measure closeness to a bound as ``model.check_optimality`` does
(``model.bound_tol``), so a stage optimum passes the final check.

The bound that blocks a step is chosen by Harris's two-pass ratio test
(``ratio_test``).  Degenerate stages are full of ratios that differ only
by roundoff; treating those as ties broken by pivot size keeps
trajectories independent of the roundoff of the KKT solves.  The price
is an overshoot of at most delta <= TOL_SHARE * (fea_tol or opt_tol) per
guarded value, which never accumulates and so stays within ``bound_tol``.
If cycling shows, the documented remedy is EXPAND (Gill, Murray, Saunders
& Wright, 1989), which grows delta from step to step; the Bland switch
(``BLAND_AFTER``) and the iteration cap remain the backstops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kkt import KktBasis, solve_base_primal, solve_intermediate_primal
from .model import (BOUND_SLACK, DEFAULT_TOL, DRIFT_EQ_TOL, HARRIS_BAND,
                    NOISE_BAND, SELECT_BAND, START_EQ_TOL, TOL_SHARE,
                    Direction, InvariantError, Iterate, Partition, QpProblem,
                    Shifts, StartConditionError, bound_tol, check_settings,
                    check_sizes, effective_shifts, inf_norm, objectives,
                    residuals)

OPTIMAL = "optimal"
PRIMAL_INFEASIBLE = "primal_infeasible"
DUAL_INFEASIBLE = "dual_infeasible"
ITERATION_LIMIT = "iteration_limit"
# Consecutive zero-length steps before index selection falls back to the
# least-index (Bland) rule.
BLAND_AFTER = 50


@dataclass(frozen=True)
class StepResult:
    """Outcome of one ratio-tested step.

    alpha = min(alpha_star, alpha_max); blocking is set exactly when the
    bound ratio limited the step (alpha_max < alpha_star).
    """

    alpha: float
    alpha_star: float
    alpha_max: float
    blocking: int | None
    hit_target: bool


@dataclass
class TraceRecord:
    """One row per subiteration, enough to replay the objective identities:
    its step and direction, and the objectives before and after the step."""

    method: str
    iteration: int
    subiteration: int
    kind: str
    violation: float
    f_primal_before: float
    f_primal: float
    f_dual_before: float
    f_dual: float
    step: StepResult
    direction: Direction


TraceSink = Callable[[TraceRecord], None]
# A step function: (p, s, part, it, l, basis=..., orient=..., tol=...)
# -> (step, direction); ``tol`` is the ratio test's tolerance.
StepFn = Callable[..., tuple[StepResult, Direction]]


@dataclass
class SolveOutcome:
    """Result of one primal or dual solve; ``method`` names which."""

    method: str
    status: str
    iterate: Iterate
    partition: Partition
    iterations: int
    subiterations: int
    certificate: Direction | None = None


# The duality table: for each vector, its shift, the partition set where
# its bounds are live while a method guards it, and the problem's index
# set where that bound is void.
_MIRROR = {"x": ("q", "basic", "free"), "z": ("r", "nonbasic", "fixed")}


@dataclass(frozen=True)
class Family:
    """How one method maps onto the shared engine, every role derived
    from its name (``method``, the label of outcomes and trace records)
    and ``_MIRROR``.  The primal guards x (kept within its shifted bounds
    on ``live``) and repairs z (driven onto its bound), the dual the
    reverse; an infinite base step certifies the other problem infeasible
    (``unbounded``), and ``scale_by`` scales the selection threshold: y
    wherever the repaired vector's ``bound_tol`` reads y.  The index roles
    are the problem's own masks, and they alone define the method's entry
    and invariant checks (``_check_bounds``):

        role        primal   dual     selected
        one-sided   regular  regular  below its bound  (``regular_mask``)
        two-sided   free     fixed    off its bound    (``unguarded``)
        pinned      fixed    free     never            (``pinned``)

    An ``unguarded`` index has no guarded bound, so its repaired value
    must vanish from either side.  A ``pinned`` index holds its guarded
    value at the bound from both sides (the dual's free indices:
    z_j + r_j = 0 is a temporary bound of zero width; the primal's fixed
    ones are never live).  The engine reads each role by its attribute
    name, the masks of ``live``, ``unguarded`` and ``pinned``, the
    direction's guarded component (``d_guarded``) and its freed component
    of the repaired vector (``rate``) included.
    """

    method: str

    def __post_init__(self):
        guarded, repaired = {"primal": ("x", "z"), "dual": ("z", "x")}[
            self.method]
        primal = guarded == "x"
        guard_shift, live, unguarded = _MIRROR[guarded]
        repair_shift, idle, pinned = _MIRROR[repaired]
        self.__dict__.update(
            repaired=repaired, repair_shift=repair_shift, guarded=guarded,
            guard_shift=guard_shift, live=live, idle=idle,
            unguarded=unguarded, pinned=pinned,
            scale_by="y" if primal else "x",
            unbounded=DUAL_INFEASIBLE if primal else PRIMAL_INFEASIBLE,
            live_mask=f"{live}_mask", unguarded_mask=f"{unguarded}_mask",
            pinned_mask=f"{pinned}_mask", d_guarded="d" + guarded,
            rate=f"d{repaired}_l")


def ratio_test(values: np.ndarray, deltas: np.ndarray,
               indices: np.ndarray | list[int], tol: float,
               scale: float) -> tuple[float, int | None]:
    """Harris's two-pass ratio test (Harris, 1973, "Pivot selection
    methods of the Devex LP code").

    Candidates are the entries with deltas < -NOISE_BAND * max(1, scale),
    where ``scale`` is the overall direction magnitude, at least
    max|deltas| (``take_step`` passes max(max|dx|, max|dy|, max|dz|));
    smaller deltas are cancellation residue (often of components that
    vanish identically), not blockers.

    Pass 1: alpha_H = min max(v_i + delta, 0) / (-d_i) over the
    candidates, with delta = min(HARRIS_BAND * max(1, max|values|),
    TOL_SHARE * tol), computed as max(min (v_i + delta) / (-d_i), 0):
    every -d_i > 0, so only the sign of a zero can differ, which no
    comparison of pass 2 sees.
    Pass 2: among the candidates whose exact ratio max(v_i, 0) / (-d_i)
    is at most alpha_H, the one with the largest -d_i, the first in
    ``indices`` on ties.  Returns its exact ratio and index, or
    (inf, None) without candidates.  A step of that length leaves every
    candidate at >= min(v_i, -delta): a value below -delta allows only a
    zero step, and one below zero can block with a zero step.  Bland
    mode (``BLAND_AFTER``) changes index selection only and keeps this
    leaving rule.
    """
    if len(indices) == 0:
        return np.inf, None
    deltas = np.asarray(deltas, dtype=float)
    values = np.asarray(values, dtype=float)
    cand = (deltas < -NOISE_BAND * max(1.0, scale)).nonzero()[0]
    if not cand.size:
        return np.inf, None
    delta = min(HARRIS_BAND * max(1.0, inf_norm(values)), TOL_SHARE * tol)
    rates = -deltas.take(cand)
    vals = values.take(cand)
    harris = (vals + delta) / rates
    alpha_h = max(float(harris[harris.argmin()]), 0.0)
    ratios = np.maximum(vals, 0.0) / rates
    ok = (ratios <= alpha_h).nonzero()[0]       # empty only under a NaN
    pos = int(ok[rates.take(ok).argmax()]) if ok.size else 0
    return float(ratios[pos]), int(indices[int(cand[pos])])


def select_index(v: np.ndarray, one_sided: np.ndarray, two_sided: np.ndarray,
                 first: np.ndarray | None, threshold: float, bland: bool
                 ) -> tuple[int | None, float]:
    """Index to repair next and the sign of the move.

    One-sided indices are eligible when v < -threshold, two-sided ones
    when |v| > threshold, oriented to shrink |v|.  Eligible two-sided
    indices in ``first`` go before the others.  Picks the largest
    violation, least index on ties, or under ``bland`` the least index.
    ``first`` is None where no index is two-sided: the magnitude is then
    -v and nothing goes first.
    """
    two = first is not None
    if two:
        magnitude = np.where(two_sided, np.abs(v), -v)
        eligible = (one_sided | two_sided) & (magnitude > threshold)
    else:
        magnitude = -v
        eligible = one_sided & (magnitude > threshold)
    cand = eligible.nonzero()[0]
    if not cand.size:
        return None, 0.0
    if two and (lead := cand[first.take(cand)]).size:
        cand = lead
    l = int(cand[0] if bland else cand[magnitude.take(cand).argmax()])
    return l, (-1.0 if two_sided[l] and v[l] > 0 else 1.0)


def make_trace_record(method: str, iteration: int, subiteration: int,
                      kind: str, step: StepResult, d: Direction,
                      violation: float, before: tuple[float, float],
                      after: tuple[float, float]) -> TraceRecord:
    return TraceRecord(
        method=method, iteration=iteration, subiteration=subiteration,
        kind=kind, violation=violation,
        f_primal_before=before[0], f_primal=after[0],
        f_dual_before=before[1], f_dual=after[1], step=step, direction=d)


def take_step(fam: Family, kind: str, p: QpProblem, s: Shifts,
              part: Partition, it: Iterate, l: int, basis: KktBasis,
              orient: float, tol: float) -> tuple[StepResult, Direction]:
    """Body of step function ``<method>_<kind>``: check that l is freed and
    that orient moves its repaired component toward its bound, then step
    along the direction that fixes d<guarded>_l = orient ("base") or
    d<repaired>_l = orient ("intermediate"), dx_l on K_B and dz_l on the
    bordered K_l, until that component reaches the bound or a guarded
    bound blocks (a pinned value moving either way blocks at once), whose
    index then leaves the live set.  Returns the step and direction; an
    infinite step is unapplied.
    """
    if part.freed != l:
        raise StartConditionError(
            f"index l must be freed before {fam.method}_{kind}")
    viol = float(getattr(it, fam.repaired)[l]
                 + getattr(s, fam.repair_shift)[l])
    if orient * viol >= 0.0:
        raise StartConditionError(
            f"{fam.method}_{kind} requires orient*({fam.repaired}_l + "
            f"{fam.repair_shift}_l) < 0, got {viol:.3e}")
    fixed = fam.guarded if kind == "base" else fam.repaired
    d = (solve_base_primal(p, part, basis, l) if fixed == "x"
         else solve_intermediate_primal(p, part, l, basis))
    if orient < 0:          # before any record holds d, whose buffer is new
        np.negative(d.v, out=d.v)
    rate = getattr(d, fam.rate)
    alpha_star = np.inf if rate == 0.0 else -viol / rate
    live = getattr(part, fam.live_mask)
    if getattr(p, fam.unguarded):
        live = live & ~getattr(p, fam.unguarded_mask)
    cand = live.nonzero()[0]
    guarded = (getattr(it, fam.guarded)
               + getattr(s, fam.guard_shift)).take(cand)
    rates = getattr(d, fam.d_guarded).take(cand)
    if getattr(p, fam.pinned):      # mirror pinned values moving up
        up = getattr(p, fam.pinned_mask).take(cand) & (rates > 0.0)
        guarded[up] *= -1.0
        rates[up] *= -1.0
    alpha_max, k = ratio_test(guarded, rates, cand, tol, inf_norm(d.v))
    alpha = min(alpha_star, alpha_max)
    hit = alpha_star <= alpha_max
    if math.isinf(alpha):
        return StepResult(np.inf, alpha_star, alpha_max, None, False), d
    point = it.v                    # one update of x, y and z, in place
    point += alpha * d.v
    if hit:
        getattr(it, fam.repaired)[l] = -getattr(s, fam.repair_shift)[l]
        k = None
    else:
        part.move(k, fam.idle)
    return StepResult(alpha, alpha_star, alpha_max, k, hit), d


def _on_bound(shift: np.ndarray) -> np.ndarray | float:
    """How far a value may lie from its bound and still be held on it:
    BOUND_SLACK * max(1, |shift|), which is the scalar BOUND_SLACK where
    every shift is zero (the driver's last stage)."""
    if not np.count_nonzero(shift):
        return BOUND_SLACK
    return BOUND_SLACK * np.maximum(1.0, np.abs(shift))


def _check_bounds(fam: Family, p: QpProblem, s: Shifts, it: Iterate,
                  part: Partition, fea_tol: float, opt_tol: float,
                  start: bool, pinned_only: bool = False,
                  norms: tuple[float, float] | None = None) -> None:
    """Entry (``start``) or invariant conditions, from the roles and the
    live set of ``part`` alone: guarded values on live and pinned lie
    within ``bound_tol`` of their bounds from both sides (the one clause
    under ``pinned_only``); the equalities hold and guarded values on live
    minus unguarded lie within it from below; at the start (~live is then
    the idle set) idle guarded values also sit on their bounds and no
    repaired value on live minus unguarded lies above its bound.  The
    clauses are tested in that order, the first that fails raises, and a
    mask over an empty index set is left out.  Each test asks that a
    value lie within its limit, so a NaN fails it.  The clauses after the
    pinned one are first tested together, as one mask of the values that
    lie within their limits; only where some value does not are they
    tested one by one, which finds the first clause that fails.

    The equality clause tests the infinity norms of the stationarity and
    equality residuals (``model.residuals``) at ``it``: ``norms`` where
    the caller holds them for this very point (``driver.solve_standard``
    passes its initial ``check_optimality`` report's two norms to stage
    1), else computed here."""
    def fail(message: str) -> None:
        error = StartConditionError if start else InvariantError
        where = "start" if start else "invariant"
        raise error(f"{fam.method} {where}: {message}")

    def test(clause: str, vec: str, shift: str, value: np.ndarray,
             bad: np.ndarray) -> None:
        if np.count_nonzero(bad):
            i = int(bad.argmax())
            fail(f"{clause} {vec}[{i}] + {shift}[{i}] = {value[i]:.3e} "
                 f"violates its bound")

    live = getattr(part, fam.live_mask)
    if not pinned_only:
        if norms is None:
            stat, eq = residuals(p, it)
            norms = inf_norm(stat), inf_norm(eq)
        limit = p.data_scale() * (START_EQ_TOL if start else DRIFT_EQ_TOL)
        if not (norms[0] <= limit and norms[1] <= limit):
            fail("the point violates the equality system")
    g = getattr(it, fam.guarded) + getattr(s, fam.guard_shift)
    # bound_tol reads y for z alone.
    tol = bound_tol(fam.guarded, inf_norm(it.y) if fam.guarded == "z"
                    else 0.0, fea_tol, opt_tol)
    if getattr(p, fam.pinned):      # first: "guarded" sees its lower side
        test("pinned", fam.guarded, fam.guard_shift, g,
             live & getattr(p, fam.pinned_mask) & ~(np.abs(g) <= tol))
    if pinned_only:
        return
    some_unguarded = bool(getattr(p, fam.unguarded))
    unguarded = getattr(p, fam.unguarded_mask)
    # The guarded clause and, at the start, the relaxed and idle ones, as
    # one mask that is True where a value keeps its clause's limit.
    within = g >= -tol
    if start:
        g_on = _on_bound(getattr(s, fam.guard_shift))
        r_on = _on_bound(getattr(s, fam.repair_shift))
        r = getattr(it, fam.repaired) + getattr(s, fam.repair_shift)
        within &= r <= r_on
    if some_unguarded:
        within |= unguarded
    if start:
        within = np.where(live, within, np.abs(g) <= g_on)
    else:
        within |= ~live
    if np.count_nonzero(within) == within.size:
        return
    below = live & ~(g >= -tol)
    if some_unguarded:
        below &= ~unguarded
    test("guarded", fam.guarded, fam.guard_shift, g, below)
    if start:
        test("idle", fam.guarded, fam.guard_shift, g,
             ~live & ~(np.abs(g) <= g_on))
        above = live & ~(r <= r_on)
        if some_unguarded:          # selected two-sided
            above &= ~unguarded
        test("relaxed", fam.repaired, fam.repair_shift, r, above)


def run_active_set(fam: Family, p: QpProblem, s: Shifts,
                   start: tuple[Iterate, Partition],
                   base: StepFn, intermediate: StepFn, *,
                   fea_tol: float = DEFAULT_TOL, opt_tol: float = DEFAULT_TOL,
                   max_iterations: int = 0, trace: TraceSink | None = None,
                   check_invariants: bool = False,
                   basis: KktBasis | None = None, _owned: bool = False,
                   _start_norms: tuple[float, float] | None = None
                   ) -> SolveOutcome:
    """Run one method to optimality, its ``unbounded`` status, or the
    iteration limit: ``max_iterations``, or 100 + 50(n + m) when it is 0.
    ``fea_tol`` and ``opt_tol`` set ``bound_tol``, and the guarded
    vector's (``fea_tol`` for x, ``opt_tol`` for z) is the steps' ``tol``.
    ``basis`` serves every KKT solve of the run and keeps its held
    factorization for the caller's next run (``driver.solve_standard``
    passes one per problem, holding K_B of the start basis, to both
    stages); without one the run makes its own.

    A call judges its settings (``check_settings``), copies the start
    iterate and partition, and checks them against the problem: the
    partition covers 0..n-1 with no pending freed index, and the vectors
    have the problem's sizes (``check_sizes``).  The start is owned
    (``_owned``, passed by ``driver.solve_standard`` alone) where the
    caller has judged the same settings (``SolveConfig.check``), built
    the start from the problem (``init_shifts`` or the previous stage,
    whose steps keep every length and bind every freed index) and never
    reads it again: the run then skips those checks and copies and
    changes the start in place.  For its first stage the driver also
    passes ``_start_norms``, the residual norms that its initial
    ``check_optimality`` computed at this very point.  Every run, owned
    or not, tests that no fixed index is basic and checks the method's
    entry conditions (``_check_bounds``)."""
    if _owned:
        it, part = start
    else:
        check_settings(fea_tol, opt_tol, max_iterations, trace,
                       check_invariants)
        it = start[0].copy()
        part = start[1].copy()
        part.validate(p.n)
        if part.freed is not None:
            raise StartConditionError(
                "start partition has a pending freed index")
    if p.fixed and np.count_nonzero(p.fixed_mask & part.basic_mask):
        raise StartConditionError("a fixed index cannot be basic")
    if not _owned:
        check_sizes(p, s, it)
    _check_bounds(fam, p, s, it, part, fea_tol, opt_tol, start=True,
                  norms=_start_norms)
    one_sided = p.regular_mask
    two_sided = getattr(p, fam.unguarded_mask)
    some_two_sided = bool(getattr(p, fam.unguarded))
    live_is_basic = fam.live == "basic"
    # Steps update the iterate in place, so these stay its vectors.
    repaired = getattr(it, fam.repaired)
    repair_shift = getattr(s, fam.repair_shift)
    step_tol = fea_tol if fam.guarded == "x" else opt_tol
    cap = max_iterations if max_iterations > 0 else 100 + 50 * (p.n + p.m)
    if basis is None:
        basis = KktBasis(p)
    iterations = 0
    subiterations = 0
    zero_streak = 0
    bland = False
    certificate = None
    status = OPTIMAL

    def emit(kind, step, d, viol):
        nonlocal subiterations, zero_streak, bland, f
        subiterations += 1
        if step.alpha == 0.0:
            zero_streak += 1
            if zero_streak >= BLAND_AFTER:
                bland = True
        elif math.isfinite(step.alpha):
            zero_streak = 0
        if trace is not None:
            # Only a step moves the point: this pair is the next "before".
            before, f = f, objectives(p, eff, it)
            trace(make_trace_record(fam.method, iterations, subiterations,
                                    kind, step, d, viol, before, f))

    while True:
        # A near-zero threshold, for essentially exact complementarity, and
        # at most TOL_SHARE of bound_tol, so that the final check passes.
        scale = inf_norm(getattr(it, fam.scale_by))
        threshold = min(SELECT_BAND * max(1.0, scale), TOL_SHARE * bound_tol(
            fam.repaired, scale, fea_tol, opt_tol))
        v = repaired + repair_shift
        # Two-sided live indices go first: a base step's ray certifies
        # nothing while their repaired values are off their bound.
        l, orient = select_index(
            v, one_sided, two_sided,
            two_sided & getattr(part, fam.live_mask) if some_two_sided
            else None, threshold, bland)
        if l is None:
            break
        if iterations >= cap:
            status = ITERATION_LIMIT
            break
        iterations += 1
        # No index is freed here: l is live exactly when its basic flag
        # is the live set's.
        needs_base = bool(part.basic_mask[l]) != live_is_basic
        part.free_index(l)
        # Only trace records use the boundary-aligned shifts.
        if trace is not None:
            eff = effective_shifts(p, s, part, it)
            f = objectives(p, eff, it)
        viol = float(repaired[l] + repair_shift[l])
        inner_tol = NOISE_BAND * max(1.0, abs(viol))

        if needs_base:
            step, d = base(p, s, part, it, l, basis=basis, orient=orient,
                           tol=step_tol)
            emit("base", step, d, viol)
            if math.isinf(step.alpha):
                status = fam.unbounded
                certificate = d
                part.bind_freed(fam.idle)
                break

        guard = 0
        while orient * (viol := float(repaired[l] + repair_shift[l])
                        ) < -inner_tol:
            guard += 1
            if guard > p.n + 2:
                raise InvariantError("intermediate subiterations did not "
                                     "terminate; basis exchange is stuck")
            step, d = intermediate(p, s, part, it, l, basis=basis,
                                   orient=orient, tol=step_tol)
            emit("intermediate", step, d, viol)
        part.bind_freed(fam.live)
        if check_invariants:
            _check_bounds(fam, p, s, it, part, fea_tol, opt_tol,
                          start=False)

    if status == OPTIMAL and getattr(p, fam.pinned):
        _check_bounds(fam, p, s, it, part, fea_tol, opt_tol, start=False,
                      pinned_only=True)
    return SolveOutcome(method=fam.method, status=status, iterate=it,
                        partition=part, iterations=iterations,
                        subiterations=subiterations, certificate=certificate)
