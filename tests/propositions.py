"""Checkers for the paper's propositions about directions and steps.

``check_direction_propositions`` verifies a direction against the
homogeneous KKT equations, the inner product identity
dx'dz = dx'H dx + dy'M dy, and the case dichotomies (dz_l = 0 exactly
when K_l is singular, dx_l = 0 exactly when K_B is singular).
``objective_change`` states the closed-form change of the objectives
along a step once; ``check_objective_identity`` and acceptance criterion
3 both compare against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pdqp.kkt import build_kb
from pdqp.model import (Direction, Iterate, Partition, QpProblem, Shifts,
                        objectives)


def partition_for_direction(p: QpProblem, d: Direction) -> Partition:
    """Rebuild the partition a direction was solved against."""
    part = Partition.from_basic(p.n, d.basic)
    part.free_index(d.freed)
    return part


@dataclass
class PropertyReport:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, passed, detail))

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, passed, detail in self.checks
                if not passed]


def check_direction_propositions(p: QpProblem, part: Partition,
                                 d: Direction) -> PropertyReport:
    """Verify a direction against the homogeneous equations, the inner
    product identity, and the nonsingular/singular case dichotomies."""
    rep = PropertyReport()
    n = p.n
    l = d.freed
    scale = max(1.0, p.kkt_scale(),
                float(np.max(np.abs(d.dx))), float(np.max(np.abs(d.dz))),
                float(np.max(np.abs(d.dy))) if d.dy.size else 0.0)
    tol = 1e-8 * scale

    res1 = p.H @ d.dx - p.A.T @ d.dy - d.dz
    res2 = p.A @ d.dx + p.M @ d.dy
    rep.add("stationarity_homogeneous",
            float(np.max(np.abs(res1), initial=0.0)) <= tol,
            f"residual {float(np.max(np.abs(res1), initial=0.0)):.3e}")
    rep.add("equality_homogeneous",
            float(np.max(np.abs(res2), initial=0.0)) <= tol,
            f"residual {float(np.max(np.abs(res2), initial=0.0)):.3e}")
    nb = [j for j in part.nonbasic if j != l]
    rep.add("dx_nonbasic_zero",
            all(d.dx[j] == 0.0 for j in nb), "")
    rep.add("dz_basic_zero",
            all(d.dz[i] == 0.0 for i in part.basic), "")

    lhs = float(d.dx @ d.dz)
    rhs = float(d.dx @ p.H @ d.dx + d.dy @ p.M @ d.dy)
    rep.add("inner_product_identity", abs(lhs - rhs) <= tol,
            f"dx'dz {lhs:.6e} vs curvature {rhs:.6e}")
    rep.add("dxl_dzl_nonnegative", d.dx_l * d.dz_l >= -tol,
            f"product {d.dx_l * d.dz_l:.3e}")

    basic = list(part.basic)
    kb = build_kb(p, basic)
    kl_order = sorted(basic + [l])      # K_l's variables, ascending
    kl = build_kb(p, kl_order)
    kb_rank = np.linalg.matrix_rank(kb, tol=1e-9 * scale) if kb.size else 0
    kl_rank = np.linalg.matrix_rank(kl, tol=1e-9 * scale)
    kb_nonsing = kb_rank == kb.shape[0] if kb.size else True
    kl_nonsing = kl_rank == kl.shape[0]

    if abs(abs(d.dx_l) - 1.0) <= 1e-12:
        # Base-type direction: dz_l > 0 iff K_l nonsingular.
        dzl = d.dz_l * np.sign(d.dx_l)
        if dzl > 0:
            rep.add("case_kl_nonsingular", kl_nonsing,
                    f"dz_l {dzl:.3e} > 0 but K_l rank {kl_rank}/{kl.shape[0]}")
        else:
            rep.add("case_kl_singular", not kl_nonsing,
                    "dz_l = 0 but K_l nonsingular")
            null = np.concatenate([d.dx[kl_order], np.zeros(p.m)])
            resid = float(np.max(np.abs(kl @ null)))
            rep.add("kl_null_vector", resid <= tol, f"residual {resid:.3e}")
            rep.add("kl_null_dimension", kl_rank == kl.shape[0] - 1,
                    f"rank {kl_rank} of {kl.shape[0]}")
            rep.add("dy_zero_when_dzl_zero",
                    float(np.max(np.abs(d.dy), initial=0.0)) <= tol, "")
            dzn = [abs(d.dz[j]) for j in nb]
            rep.add("dzn_zero_when_dzl_zero",
                    max(dzn, default=0.0) <= tol, "")
    elif abs(abs(d.dz_l) - 1.0) <= 1e-12:
        # Intermediate-type direction: dx_l > 0 iff K_B nonsingular.
        dxl = d.dx_l * np.sign(d.dz_l)
        if dxl > 0:
            rep.add("case_kb_nonsingular", kb_nonsing,
                    f"dx_l {dxl:.3e} > 0 but K_B rank {kb_rank}/{kb.shape[0]}")
        else:
            rep.add("case_kb_singular", not kb_nonsing,
                    "dx_l = 0 but K_B nonsingular")
            dxb = [abs(d.dx[i]) for i in basic]
            rep.add("dxb_zero_when_dxl_zero",
                    max(dxb, default=0.0) <= tol, "")
            if kb.size:
                null = np.concatenate([np.zeros(len(basic)), d.dy])
                resid = float(np.max(np.abs(kb @ null), initial=0.0))
                rep.add("kb_null_vector", resid <= tol, f"residual {resid:.3e}")
                rep.add("kb_null_dimension", kb_rank == kb.shape[0] - 1,
                        f"rank {kb_rank} of {kb.shape[0]}")
    return rep


def objective_change(primal: bool, dx_l: float, dz_l: float, v: float,
                     alpha: float, f0: float, rel_tol: float = 1e-9
                     ) -> tuple[float, float]:
    """The predicted change of the primal (``primal``) or dual objective
    along a step of length alpha from a point where it is f0, and the
    tolerance rel_tol (1 + |f0| + |pred|) that the actual change must
    meet.  v is the freed index's violation: z_l + r_l for the primal
    objective, x_l + q_l for the dual one."""
    if primal:
        pred = dx_l * v * alpha + 0.5 * dx_l * dz_l * alpha ** 2
    else:
        pred = -dz_l * v * alpha - 0.5 * dx_l * dz_l * alpha ** 2
    return pred, rel_tol * (1.0 + abs(f0) + abs(pred))


def check_objective_identity(p: QpProblem, s: Shifts, it: Iterate,
                             d: Direction, alpha: float,
                             rel_tol: float = 1e-9) -> PropertyReport:
    """Compare the objective change along a step with the closed-form
    prediction from the freed components."""
    rep = PropertyReport()
    l = d.freed
    moved = Iterate(it.x + alpha * d.dx, it.y + alpha * d.dy,
                    it.z + alpha * d.dz)
    fp0, fd0 = objectives(p, s, it)
    fp1, fd1 = objectives(p, s, moved)
    pred_p, tol_p = objective_change(True, d.dx_l, d.dz_l, it.z[l] + s.r[l],
                                     alpha, fp0, rel_tol)
    pred_d, tol_d = objective_change(False, d.dx_l, d.dz_l, it.x[l] + s.q[l],
                                     alpha, fd0, rel_tol)
    rep.add("primal_objective_identity", abs((fp1 - fp0) - pred_p) <= tol_p,
            f"actual {fp1 - fp0:.6e} predicted {pred_p:.6e}")
    rep.add("dual_objective_identity", abs((fd1 - fd0) - pred_d) <= tol_d,
            f"actual {fd1 - fd0:.6e} predicted {pred_d:.6e}")
    return rep
