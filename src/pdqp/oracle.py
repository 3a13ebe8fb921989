"""Independent ground truth for small problems, and nothing else.

``enumerate_solve`` tries every candidate basic set, solves the boundary
equations, and tests the sign conditions; infeasibility is certified by
direct cone-membership tests on the primal and dual feasible sets
(``primal_set_nonempty``, ``dual_set_nonempty``): is a target vector a
nonnegative combination of cone generators plus any combination of free
ones?  ``_in_cone`` answers that by nonnegative least squares
(Lawson-Hanson, numpy only), accepting a residual of at most CONE_TOL
times the data's scale.  Nothing here shares step or direction logic with
the solver; only the K_B assembly and factorization are reused, and the
tests prove returned optima exactly without them (``tests/reference.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .kkt import factor_kb, solve_boundary_point
from .model import (Partition, QpProblem, Shifts, check_sizes, index_mask,
                    inf_norm, objectives)
from .steps import DUAL_INFEASIBLE, OPTIMAL, PRIMAL_INFEASIBLE

ENUMERATION_LIMIT = 16
SIGN_TOL = 1e-8     # a witness's sign slack, over the scale of its values
CONE_TOL = 1e-9     # a cone test's residual acceptance, over the data's


class OracleBudgetError(ValueError):
    """Problem too large for exhaustive enumeration."""


class OracleInconsistencyError(RuntimeError):
    """The enumeration contradicted itself (distinct optimal values, or
    feasible sets nonempty with no optimal partition)."""


@dataclass
class OracleSolution:
    status: str
    x: np.ndarray | None
    y: np.ndarray | None
    z: np.ndarray | None
    objective: float | None
    witness: list[int] | None
    primal_feasible: bool
    dual_feasible: bool


def _in_cone(target: np.ndarray, cone_gens: np.ndarray,
             free_gens: np.ndarray) -> bool:
    """Is target in cone(cone_gens) + span(free_gens)?

    Projects the target and the cone generators G onto the orthogonal
    complement of the span, then runs Lawson-Hanson nonnegative least
    squares (Lawson & Hanson, 1974, ch. 23) on min |G lam - t| over
    lam >= 0.  The answer is yes as soon as max|G lam - t| <= CONE_TOL *
    scale, with ``scale`` the largest of 1 and the data's magnitudes; it
    is no once no generator's gradient entry g_j'r exceeds 1e-12 |g_j| |r|
    (r the residual), that is once lam is optimal.  A run that reaches the
    iteration cap raises ``OracleInconsistencyError``.
    """
    d = target.shape[0]
    if d == 0:
        return True
    scale = max(1.0, inf_norm(target), inf_norm(cone_gens),
                inf_norm(free_gens))
    t, g = target, cone_gens
    if free_gens.any():            # a zero span (rank 0) projects out nothing
        u, sv, _ = np.linalg.svd(free_gens, full_matrices=False)
        rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0] if sv.size else 0.0)))
        basis = u[:, :rank]
        t = t - basis @ (basis.T @ t)
        g = g - basis @ (basis.T @ g)
    accept = CONE_TOL * scale
    if inf_norm(t) <= accept:
        return True
    k = g.shape[1]
    norms = np.sqrt(np.einsum("ij,ij->j", g, g))
    lam = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    r = t
    cap = 3 * k + 3
    for _ in range(cap):
        w = g.T @ r
        add = ~passive & (w > 1e-12 * float(np.linalg.norm(r)) * norms)
        if not add.any():
            return False              # lam minimizes |G lam - t|
        passive[int(np.argmax(np.where(add, w, -np.inf)))] = True
        while True:                   # least squares on the passive set
            idx = np.flatnonzero(passive)
            s = np.linalg.lstsq(g[:, idx], t, rcond=None)[0]
            if (s > 0.0).all():
                lam[idx] = s
                break
            # Step from lam toward s until the first coefficient reaches
            # zero, and drop every coefficient that is then zero.
            old = lam[idx]
            neg = s <= 0.0
            ratio = old[neg] / np.maximum(old[neg] - s[neg],
                                          np.finfo(float).tiny)
            alpha = float(ratio.min())
            lam[idx] = np.maximum(old + alpha * (s - old), 0.0)
            lam[idx[neg][ratio <= alpha]] = 0.0
            passive[idx[lam[idx] == 0.0]] = False
        r = t - g @ lam
        if inf_norm(r) <= accept:
            return True
    raise OracleInconsistencyError(
        f"cone-membership test did not converge in {cap} steps")


def primal_set_nonempty(p: QpProblem, s: Shifts) -> bool:
    """Is {(x, y) : Ax + My = b, x >= -q (regular), x free/fixed per kind}
    nonempty?"""
    regular = p.regular_mask
    target = p.b + p.A[:, regular] @ s.q[regular] \
        + p.A[:, p.fixed_mask] @ s.q[p.fixed_mask]
    return _in_cone(target, p.A[:, regular],
                    np.hstack([p.A[:, p.free_mask], p.M]))


def dual_set_nonempty(p: QpProblem, s: Shifts) -> bool:
    """Is {(x, y, z) : -Hx + A'y + z = c, z >= -r (regular), z free for
    fixed variables, z = -r for free variables} nonempty?"""
    eye = np.eye(p.n)
    return _in_cone(p.c + s.r, eye[:, p.regular_mask],
                    np.hstack([-p.H, p.A.T, eye[:, p.fixed_mask]]))


def enumerate_solve(p: QpProblem, s: Shifts) -> OracleSolution:
    """Exhaustive solve by enumerating candidate basic sets.

    Every subset of the non-fixed indices is tried; subsets whose K_B
    factors get their boundary point computed and sign-tested.  All
    optimal witnesses must agree on the objective.  When none passes, the
    two feasible sets decide between primal and dual infeasibility.  When
    both are empty the answer is ``primal_infeasible``, but either
    infeasibility status is then correct and the solver may report
    ``dual_infeasible``; the result's ``primal_feasible`` and
    ``dual_feasible`` flags show when both sets are empty.  Shifts whose
    length is not n raise ``ProblemError``.
    """
    check_sizes(p, s)
    if p.n > ENUMERATION_LIMIT:
        raise OracleBudgetError(
            f"enumeration supports n <= {ENUMERATION_LIMIT}, got {p.n}")
    candidates = [j for j in range(p.n) if j not in p.fixed]
    best: OracleSolution | None = None
    found: list[tuple[list[int], float]] = []
    for size in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            basic = list(subset)
            part = Partition._from_mask(index_mask(p.n, basic))
            f = factor_kb(p, basic)
            if f is None:
                continue
            it = solve_boundary_point(p, s, part, f)
            # Per-family scales: the primal sign slack must not inflate
            # with the dual magnitudes or vice versa.
            x_slack = SIGN_TOL * max(1.0, inf_norm(it.x), inf_norm(s.q))
            z_slack = SIGN_TOL * max(1.0, inf_norm(it.z), inf_norm(s.r))
            xq, zr = it.x + s.q, it.z + s.r
            z_bad = np.where(p.free_mask, np.abs(zr) > z_slack, zr < -z_slack)
            if ((part.basic_mask & ~p.free_mask & (xq < -x_slack))
                    | (part.nonbasic_mask & ~p.fixed_mask & z_bad)).any():
                continue
            obj = objectives(p, s, it)[0]
            found.append((basic, obj))
            if best is None:
                best = OracleSolution(status=OPTIMAL, x=it.x, y=it.y, z=it.z,
                                      objective=obj, witness=basic,
                                      primal_feasible=True, dual_feasible=True)
    if best is not None:
        ref = best.objective
        # Witnesses accepted at the sign slack may sit off the optimal
        # face by up to that slack, which moves the objective by at most
        # slack times the gradient scale.
        x_big = max(1.0, inf_norm(best.x))
        grad = inf_norm(p.c + s.r) + p.kkt_scale() * x_big
        agree = 1e-10 * (1.0 + abs(ref)) + 4.0 * SIGN_TOL * x_big * grad
        for basic, obj in found:
            if abs(obj - ref) > agree:
                raise OracleInconsistencyError(
                    f"optimal witnesses disagree: {ref} vs {obj} at {basic}")
        return best

    p_ok = primal_set_nonempty(p, s)
    d_ok = dual_set_nonempty(p, s)
    if p_ok and d_ok:
        raise OracleInconsistencyError(
            "both feasible sets are nonempty but no partition is optimal")
    status = PRIMAL_INFEASIBLE if not p_ok else DUAL_INFEASIBLE
    return OracleSolution(status=status, x=None, y=None, z=None,
                          objective=None, witness=None,
                          primal_feasible=p_ok, dual_feasible=d_ok)
