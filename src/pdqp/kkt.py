"""KKT linear algebra: symmetric indefinite factorization, basis
discovery, and the direction solves.

For a basic set B the matrix

    K_B = [ H_BB  A_B' ]
          [ A_B   -M   ]

is factored by LAPACK Bunch-Kaufman (``dsytrf``), P' K_B P = L D L' with
unit lower triangular L and block diagonal D of 1x1 and 2x2 pivots.  The
factorization is accepted when the reciprocal 1-norm condition estimate
from ``dsycon`` exceeds 100 * dim * PIVOT_TOL and no 1x1 pivot of D is
below dim * PIVOT_TOL * ||K||_1 in magnitude, and a matrix it rejects is
singular: that is the one singularity verdict, for K_B, for K_l and for
the counterpart of a freed component (the pivot test catches a singular
K that ``dsycon``'s lower bound on ||K^-1|| misses).  For symmetric K,
sigma_min(K) >= rcond_1 * ||K||_1 >= rcond_1 * max|K|, so an accepted K
has sigma_min(K) a factor 100 above the singularity bound
dim * PIVOT_TOL * max|K|, a margin that covers the estimator's slack and
roundoff; a K within that bound of singular has rcond_1 <= dim *
PIVOT_TOL and is rejected.

A freed component, dz_l of a base solve or dx_l of an intermediate one,
is det(counterpart) / det(own) for the pair K_B, K_l, so it is zero
exactly when the counterpart is singular.  When the computed value lies
inside its cancellation noise band, it is settled at zero without
touching the counterpart if a change of the data that makes the
counterpart exactly singular is within the singularity bound
dim * PIVOT_TOL * max|counterpart|:

* dz_l = s = h_ll - k_l' K_B^-1 k_l, the Schur complement of K_B in K_l.
  With w = -K_B^-1 k_l, K_l - s e_at e_at' maps (1 at l, w around it) to
  zero: moving h_ll by |s| makes K_l singular.
* dx_l is entry ``at`` of K_l^-1 e_at, where ``at`` is the position of
  l among the variables of K_l (see below), and v the other entries.
  Then K_B v = -dx_l k_l, so the rank-one change dx_l k_l v' / (v'v), of
  norm |dx_l| ||k_l|| / ||v||, makes K_B singular.

Both the change and the bound are relative to the counterpart's own
scale, so the verdict does not depend on the scale of the data, while the
noise band has an absolute floor.  Near the top of the band Bunch-Kaufman
can still accept such a counterpart, whose component then differs from
zero by less than the noise.  The counterpart is factored when the
verdict is in doubt: below -noise, or when the change exceeds the bound
(a genuine small component of badly scaled data).  Its verdict alone
then settles the component: zero on a rejection, else the computed
value, which must be positive; a refined solve with an accepted factor
gives it a small backward error (Higham, ch. 7 and 12).

Every basis matrix is built with its variables in ascending order: K_B
over B, and K_l, the basis matrix of B and l, over B + l with l at its
sorted position ``at`` (the intermediate solve's right-hand side is
e_at).  Equal index sets therefore give identical matrices: the K_B of a
base solve after an intermediate solve that bound l into B, the K_l of a
dual base solve over the basis its intermediate solves left, and K_B of
the start basis at the first solve of each stage.

A direction's dz_N follows from stationarity, dz_N = H_N. dx - A_N' dy,
and dx vanishes outside S = B + l, so only H_NS dx_S is needed.
``_direction`` takes it from the smaller side of H, at O(min(|N|, |S|) n)
rather than the O(|N| n) of gathering H_N. whenever N is the larger set:
the rows H_N. where |N| <= |B|, and otherwise, H being symmetric, the
rows H_S. as dx_S' H_S. - dy' A, of which the N entries are kept.  With
one BLAS thread on an AMD EPYC core, at n = 165 and |B| = 20 or 50 the
rows of N cost 8.6 and 7.5 us and the rows of S 3.9 and 4.7 us; at
n = 1020 with |N| = 99, the rows of S would cost 183 us against 24.

Every basis matrix is built and factored by ``factor_kb``, from the
order of its variables.  One ``KktBasis`` serves every direction solve of
a problem, both stages of ``driver.solve_standard``, and basis discovery
and the start basis before them.  It holds its last fresh factorization
at every dim, with the order of its variables, and ``KktBasis.factor``
or a solve whose order is byte-equal to that one reuses it without
refactoring.
The basis changes by one index at a time, so from dim UPDATE_MIN_DIM up
the held factorization is also K_B0, and the K_B
and K_l solves of every later basis B are served by Schur-complement
(block-LU) updates, after Gill, Murray, Saunders and Wright, "A
Schur-complement method for sparse quadratic programming" (1990).  The
border W has, for each column q of B not in B0, its column of the full
KKT matrix over B0's rows, and for each index r of B0 missing from B the
unit vector e_r.  In

    M = [ K_B0  W ]      C = [ H_QQ  0 ]
        [ W'    C ],         [ 0     0 ],

the rows e_r' z = 0 pin the dropped entries at zero and the multipliers
of those rows absorb the dropped equations, so K_B^-1 is a principal
block of M^-1.  With V = K_B0^-1 W and the Schur block S = C - W'V,

    M^-1 = [ K_B0^-1 + V S^-1 V'   -V S^-1 ]
           [ -S^-1 V'               S^-1   ],

an updated solve costs one K_B0 apply and two dense solves with the
small symmetric S, and its refinement step, where it runs (below), as
much again.  Each new border column costs one more K_B0 apply, except
the unit vector e_r of an index r that the solve which freed r had as
its K_B0 right-hand side (the dual base solve K_l w = e_at with l in
B0): that solve's K_B0^-1 e_r is held and becomes r's column of V.  And
||K_B^-1|| <= ||M^-1|| <= ||K_B0^-1|| + (1 + ||V||)^2 ||S^-1||.
S is factored by Bunch-Kaufman (``dsytrf``), and ``dsytrs`` applies S,
K_B0 and every other factorization alike (``KktFactorization._once``).
On the K_B0 of a ``ladder`` pass, with one BLAS thread on an Intel Xeon
core, an apply takes 59, 146, 175 and 640 us at dim 270, 469, 520 and
1020.
An updated solve never changes a verdict either: it is used only when
K_B0 passed the acceptance rule and this bound keeps sigma_min(K_B) above
100 * dim * PIVOT_TOL * max|K_B|, the margin acceptance demands.  The
bound takes ||K_B0^-1|| and ||S^-1|| from the ``dsycon`` estimates of
their factorizations (the 1-norm bounds the 2-norm of a symmetric
matrix, and the factor-100 margin covers the estimator's slack for both,
as for acceptance), and ||V|| by its Frobenius norm; an S that ``dsytrf`` reports singular, or
whose estimate is not positive, declines the update.  max|K_B| is
bounded by max|K_B0|, the border columns and H_QQ.  The residual
against the product with K_B, formed from the problem data, gives the
normwise backward error eta = ||r|| / (||K_B|| ||x|| + ||rhs||) in the
inf-norm, with ||K_B|| <= d max|K_B| at d = nb + m.  One refinement step
follows only where eta > d u, u the unit roundoff: a solve already that
close to backward stable gains nothing from a step of fixed-precision
refinement (Skeel, 1980; Higham, ch. 12).  On criterion-7 problems at
n = 250 to 1000, eta stayed below 1e-4 d u on every updated solve, so
none refines; a fresh solve refines once always.  ``KktBasis.solve``,
through which every direction solve goes, alone decides between reuse,
update and refactor.  Unless
the held factorization is of the same matrix, it factors the matrix
afresh with ``KktBasis.factor`` (raising KktInternalError on a singular
matrix) and holds that factorization (as the new K_B0), when

* the bound fails (or there is no accepted K_B0);
* K_B0^-1 times BORDER_CAP border columns is cached already, which bounds
  the cost of forming S and makes at most one refactorization per
  BORDER_CAP basis changes.

A freed component is settled alike after a fresh, reused or updated
solve: ``_freed_component`` reads only the computed value, its band, w,
the data and its own counterpart factorization, and an update has the
acceptance margin and a backward error checked against d u (refined once
above it).  Every form of the singularity bound, in the pivot test, the
update's certificate and the two counterparts, is ``_singular_bound(dim,
k_max)``, and the counterpart bounds rest on maxima, exact however they
are gathered: dz_l's takes max|K_l| from max|K_B| of the factorization
that served the solve (``KktBasis.held``, ``KktFactorization.max_abs``)
and the border k_l, h_ll, as after every solve below UPDATE_MIN_DIM;
after an updated solve, and for dx_l, from the data (``_kkt_max``).

A K_B0 of dim below UPDATE_MIN_DIM is not updated: a solve of another
matrix refactors.  On criterion-7 K_B matrices with one BLAS thread, an
update that adds one column to a border of 1 to 20 columns costs a
median 81, 91, 95, 140 and 144 us at dim 30, 70, 110, 165 and 220,
against 37, 93, 158, 384 and 593 us for a fresh Bunch-Kaufman
factorization and refined solve, so the crossover lies near dim 70.
With the gate at 0, ten alternating in-process pairs of benchmark passes
took 30% longer on ``suite500`` (bases of dim <= 20), 69% on ``lowrank``
(dim 20-100) and 36% on ``mixed-bounds`` under auto (dim <= 50), slower
in 10 of 10 pairs each, for 581, 12 and 128 factorizations instead of
1008, 304 and 607; ``ladder`` (dim >= 100, mostly >= 400) was
unchanged.  No workload has bases between
dim 100 and 200, so the measurements place the crossover but do not pin
the gate's value within that range.

Basis discovery (``find_soc_basis``) factors the full KKT matrix first
only where a rank count leaves it a chance: the non-fixed columns exceed
rank(H) (``QpProblem.h_rank``, found by the load-time PSD check) by at
most m.  Otherwise that matrix is singular, and discovery reveals the
basis by rank first, with LAPACK's ``dpstrf``, ``dgeqp3`` and ``dorgqr``
called directly and a pass for the free columns only where some
candidate column is free.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.linalg import blas, lapack

from .model import (NOISE_BAND, Direction, Iterate, Partition, QpProblem,
                    Shifts, index_mask, inf_norm, pivoted_cholesky,
                    pivoted_qr, principal_block)

PIVOT_TOL = 1e-11
# K_B0 factorizations of smaller dim are not updated: every solve refactors.
UPDATE_MIN_DIM = 200
# Border columns one K_B0 serves before the next basis change refactors.
BORDER_CAP = 50


class KktInternalError(RuntimeError):
    """A KKT matrix that theory guarantees nonsingular came out singular,
    or a solved direction violates a sign guarantee."""


@dataclass
class KktFactorization:
    """LAPACK ``dsytrf`` factorization (lower storage) of a matrix whose
    condition estimate passed the acceptance rule, so that the matrix is
    well away from singular.  Immutable once built."""

    ldu: np.ndarray
    ipiv: np.ndarray          # LAPACK 1-based pivots; a pair < 0 marks 2x2
    matrix: np.ndarray
    inv_norm: float           # 1 / (rcond * ||K||_1), estimates ||K^-1||_1

    @cached_property
    def max_abs(self) -> float:
        """max|K|, computed at the first use and kept: ``inf_norm`` of K
        without its |K| copy (``+ 0.0`` turns -0.0 into 0.0)."""
        k = self.matrix
        if not k.size:
            return 0.0
        return max(float(k.max()), -float(k.min())) + 0.0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve with the factorization, one refinement step."""
        x = self._once(rhs)
        x += self._once(rhs - self.matrix @ x, overwrite=True)
        return x

    def _once(self, r: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """K^-1 r by ``dsytrs``, which may overwrite r under ``overwrite``
        (a residual that no one else holds)."""
        if not r.size:              # dsytrs rejects the empty system
            return r.copy()
        return lapack.dsytrs(self.ldu, self.ipiv, r, lower=1,
                             overwrite_b=overwrite)[0]


def _backward_error(res: np.ndarray, k_norm_bound: float, x: np.ndarray,
                    rhs: np.ndarray) -> float:
    """The normwise backward error ||res|| / (||K|| ||x|| + ||rhs||) in
    the inf-norm of x as a solution of K x = rhs, with res = rhs - K x and
    ||K||_inf replaced by the bound ``k_norm_bound`` (Rigal and Gaches,
    1967; Higham, ch. 7): the relative change of K and rhs that makes x
    exact.  0 for x = rhs = 0."""
    scale = k_norm_bound * inf_norm(x) + inf_norm(rhs)
    return inf_norm(res) / scale if scale > 0.0 else 0.0


@cache
def _dsytrf_lwork(dim: int) -> int:
    """``dsytrf``'s workspace size at ``dim``, queried once per dim."""
    return int(lapack.dsytrf_lwork(dim, lower=1)[0])


def _singular_bound(dim: int, k_max: float) -> float:
    """dim * PIVOT_TOL * k_max, the singularity bound of a K of dim
    ``dim`` with max|K| <= k_max (module docstring)."""
    return dim * PIVOT_TOL * k_max


def _bunch_kaufman(k: np.ndarray) -> KktFactorization | None:
    """LAPACK factorization of an exactly symmetric K, or None unless its
    reciprocal condition estimate exceeds 100 * dim * PIVOT_TOL and every
    1x1 pivot of D exceeds the singularity bound at ||K||_1 >= max|K|
    (see the module docstring)."""
    k = np.asarray(k, dtype=float)
    dim = k.shape[0]
    if dim == 0:                    # the empty matrix is nonsingular
        return KktFactorization(ldu=k, ipiv=np.empty(0, dtype=np.int32),
                                matrix=k, inv_norm=0.0)
    lwork = _dsytrf_lwork(dim)
    # K.T, a Fortran-order view with K's values, spares f2py a transposing
    # copy.
    ldu, ipiv, info = lapack.dsytrf(k.T, lower=1, lwork=lwork)
    if info != 0:
        return None
    # ||K||_1 by LAPACK, with no temporary: ``dlange`` sums each column of
    # K.T in order, as numpy sums |K| over axis 0, so, K being symmetric,
    # the bits are those of np.abs(k).sum(axis=0).max().
    anorm = float(lapack.dlange("1", k.T))
    rcond, info = lapack.dsycon(ldu, ipiv, anorm, lower=1)
    if info != 0 or not rcond > 100 * dim * PIVOT_TOL:    # NaN rejects too
        return None
    single = np.abs(ldu.diagonal()[ipiv > 0])      # the 1x1 pivots of D
    least = single[single.argmin()] if single.size else np.inf
    if not least > _singular_bound(dim, anorm):
        return None
    return KktFactorization(ldu=ldu, ipiv=ipiv, matrix=k,
                            inv_norm=1.0 / (rcond * anorm))


def build_kb(p: QpProblem, basic: Sequence[int] | np.ndarray) -> np.ndarray:
    """Assemble K_B = [[H_BB, A_B'], [A_B, -M]] for an ordered basic set."""
    basic = np.asarray(basic, dtype=np.intp)
    nb = basic.size
    k = np.empty((nb + p.m, nb + p.m))
    principal_block(p.H, basic, out=k[:nb, :nb])
    ab = p.A.take(basic, axis=1)
    k[nb:, :nb] = ab
    k[:nb, nb:] = ab.T
    np.negative(p.M, out=k[nb:, nb:])
    return k


def _with_freed(basic: np.ndarray, l: int) -> tuple[np.ndarray, int]:
    """The variables of K_l, the basis matrix of B and l, in their
    canonical ascending order, and the position of l among them."""
    at = int(np.searchsorted(basic, l))
    return np.concatenate((basic[:at], (l,), basic[at:])), at


def factor_kb(p: QpProblem, order: Sequence[int] | np.ndarray
              ) -> KktFactorization | None:
    """Build the basis matrix with its variables in ``order`` and factor
    it, or None when the acceptance rule rejects it: the matrix is
    singular.  Every basis matrix is factored here."""
    return _bunch_kaufman(build_kb(p, order))


class KktBasis:
    """The one way a direction solve reaches K_B or K_l: the last fresh
    factorization when it is of the same matrix, Schur-complement
    (block-LU) updates from a factorization of K_B0, or a fresh
    factorization; see the module docstring.  One serves every solve of a
    problem, both stages of ``driver.solve_standard``.

    A basis matrix is named by the order of its variables, ascending
    (see the module docstring).  The border of a basis B is derived from
    B itself: the
    indices of B0 missing from B and the columns of B not in B0, so basis
    changes need no notification.  K_B0^-1 times each border column is
    cached by index until BORDER_CAP columns are cached.  An updated
    solve whose K_B0 right-hand side is a unit vector e_r, r in B0 (the
    dual base solve K_l w = e_at with l in B0), leaves K_B0^-1 e_r held,
    and it becomes r's border column once a later basis drops r.
    """

    def __init__(self, p: QpProblem):
        self.p = p
        self._rebase()

    def factor(self, order: Sequence[int] | np.ndarray
               ) -> KktFactorization | None:
        """The factorization of the basis matrix whose variables come in
        ``order``, or None where it is singular: the held one when
        ``order`` is byte-equal to its order, otherwise ``factor_kb``'s,
        which is then held in its place under the rules of ``_rebase``."""
        order = np.asarray(order, dtype=np.intp)
        return self._factor(order, order.tobytes())

    def _factor(self, order: np.ndarray, key: bytes
                ) -> KktFactorization | None:
        """``factor(order)`` with ``key = order.tobytes()`` already taken."""
        if self._last is not None and key == self._key:
            return self._last
        if self._k0 is not None:    # two K_B0 factorizations are never held
            self._rebase()
        f = factor_kb(self.p, order)
        self._rebase(order, f, key)
        return f

    def _rebase(self, order: np.ndarray | None = None,
                data: KktFactorization | None = None, key: bytes = b"") -> None:
        """Drop the held factorization, K_B0 and its caches; then hold
        ``data``, a fresh factorization of the basis matrix with its
        variables in ``order`` (``key`` its bytes), and take it as K_B0 if
        it is of dim >= UPDATE_MIN_DIM."""
        self._last = data
        self._key = key
        self._k0 = self._solve0 = self._w = self._v = None
        self._unit: tuple[int, np.ndarray] | None = None  # r, K_B0^-1 e_r
        if data is None or data.matrix.shape[0] < UPDATE_MIN_DIM:
            return
        k0 = data.matrix
        dim = k0.shape[0]
        self._k0 = data
        self._solve0 = data._once                    # applies K_B0^-1
        self._basis0 = order
        self._pos0 = np.full(self.p.n, -1)
        self._pos0[self._basis0] = np.arange(self._basis0.size)
        self._slot: dict[int, int] = {}
        self._w = np.zeros((dim, BORDER_CAP))        # border columns W
        self._v = np.empty((dim, BORDER_CAP))        # V = K_B0^-1 W
        self._gram = np.empty((BORDER_CAP, BORDER_CAP))   # W'V
        self._vnorm2 = np.empty(BORDER_CAP)          # ||V e_j||^2
        self._wmax = np.zeros(BORDER_CAP)            # max|W e_j|

    def solve(self, order: Sequence[int], rhs: np.ndarray) -> np.ndarray:
        """Solve with the basis matrix whose variables come in ``order``,
        ascending: with the held factorization when ``order`` is
        byte-equal to its order, else by an update from a held K_B0 where
        one is certified, else with ``factor(order)``, a fresh
        factorization, raising KktInternalError where it is singular.
        """
        order = np.asarray(order, dtype=np.intp)
        key = order.tobytes()
        if self._k0 is not None and key != self._key:
            w = self._update(order, rhs)
            if w is not None:
                return w
        f = self._factor(order, key)
        if f is None:
            raise KktInternalError(f"basis matrix unexpectedly singular "
                                   f"over variables {order.tolist()}")
        return f.solve(rhs)

    def held(self, order: np.ndarray) -> KktFactorization | None:
        """The held factorization where it is of the basis matrix whose
        variables come in ``order`` (after a ``solve`` of that matrix that
        no update served), else None."""
        return self._last if order.tobytes() == self._key else None

    def _slots(self, keys: np.ndarray) -> list[int] | None:
        """Cache slots of the border columns named by ``keys``, computing
        the missing ones; None once more than BORDER_CAP are needed."""
        p = self.p
        nb0 = self._basis0.size
        unit = self._unit
        for j in keys.tolist():
            if j in self._slot:
                continue
            at = len(self._slot)
            if at == BORDER_CAP:
                return None
            w = self._w[:, at]
            if self._pos0[j] >= 0:      # an index of B0 missing from B
                w[self._pos0[j]] = 1.0
            else:                       # a column of B not in B0
                w[:nb0] = p.H[j].take(self._basis0)    # H is symmetric
                w[nb0:] = p.A[:, j]
                self._wmax[at] = float(np.abs(w).max())
            if unit is not None and unit[0] == j:
                v = unit[1]     # the same bytes in as the solve that held it
            else:
                v = self._solve0(w)
            self._v[:, at] = v
            g = self._w[:, :at + 1].T @ v
            self._gram[at, :at + 1] = g
            self._gram[:at + 1, at] = g
            self._vnorm2[at] = float(v @ v)
            self._slot[j] = at
        return [self._slot[j] for j in keys.tolist()]

    def _product(self, basic: np.ndarray, z: np.ndarray) -> np.ndarray:
        """K_B z without assembling K_B."""
        p = self.p
        nb = basic.size
        full = np.zeros(p.n)
        full[basic] = z[:nb]
        y = z[nb:]
        return np.concatenate([(p.H @ full)[basic] + (p.A.T @ y)[basic],
                               p.A @ full - p.M @ y])

    def _update(self, order: Sequence[int], rhs: np.ndarray
                ) -> np.ndarray | None:
        """K_B^-1 rhs for the basis matrix with variables in ``order``,
        refined by one step against K_B only where the residual's normwise
        backward error exceeds d unit roundoffs, or None where no update is
        certified: a full border cache, a Schur block S that ``dsytrf``
        finds singular, or a bound on ||K_B^-1|| that does not keep K_B
        clear of the singularity bound.  Called only with a K_B0 held."""
        p, k0 = self.p, self._k0
        basic = np.asarray(order, dtype=np.intp)
        nb, m = basic.size, p.m
        pos = self._pos0[basic]
        kept_at, added_at = (pos >= 0).nonzero()[0], (pos < 0).nonzero()[0]
        added = basic[added_at]
        inside = np.zeros(p.n, dtype=bool)
        inside[basic] = True
        removed = self._basis0[~inside[self._basis0]]
        slots = self._slots(np.concatenate([added, removed]))
        if slots is None:
            return None
        # The border in cache order, so that it is a view of the caches
        # when it holds every cached column; qa places the added columns.
        na, k = added.size, len(slots)
        cached = np.sort(np.array(slots, dtype=np.intp))
        qa = np.searchsorted(cached, slots[:na])
        if k == len(self._slot):
            w_b, v_b = self._w[:, :k], self._v[:, :k]
            schur = -self._gram[:k, :k]
        else:
            w_b, v_b = self._w[:, cached], self._v[:, cached]
            schur = -self._gram[np.ix_(cached, cached)]
        max_kb = max(k0.max_abs, float(self._wmax[cached].max(initial=0.0)))
        if na:
            hqq = p.H[np.ix_(added, added)]
            schur[np.ix_(qa, qa)] += hqq
            max_kb = max(max_kb, float(np.abs(hqq).max()))
        vnorm = float(np.sqrt(self._vnorm2[cached].sum()))
        s_inv = 0.0                     # estimates ||S^-1||_1
        if k:
            # S is exactly symmetric, so its transpose is a Fortran-order
            # copy of it for LAPACK to read (||S||_1, as _bunch_kaufman
            # takes ||K||_1) and then overwrite.
            s_norm = float(lapack.dlange("1", schur.T))
            s_ldu, s_ipiv, info = lapack.dsytrf(schur.T, lower=1,
                                                overwrite_a=1)
            if info != 0:
                return None
            rcond, info = lapack.dsycon(s_ldu, s_ipiv, s_norm, lower=1)
            if info != 0 or not rcond > 0.0:     # NaN declines too
                return None
            s_inv = 1.0 / (rcond * s_norm)
        inv_bound = k0.inv_norm + (1.0 + vnorm) ** 2 * s_inv
        if not inv_bound * 100 * _singular_bound(nb + m, max_kb) < 1.0:
            return None
        d0 = k0.matrix.shape[0]
        at = pos[kept_at]

        def lift(r: np.ndarray) -> np.ndarray:
            """r's rows of K_B0's variables and multipliers, in its order."""
            r0 = np.zeros(d0)
            r0[at] = r[kept_at]
            r0[d0 - m:] = r[nb:]
            return r0

        def once(r: np.ndarray, t: np.ndarray) -> np.ndarray:
            """K_B^-1 r, given t = K_B0^-1 lift(r)."""
            r1 = np.zeros(k)
            r1[qa] = r[added_at]
            u = (lapack.dsytrs(s_ldu, s_ipiv, r1 - w_b.T @ t, lower=1)[0]
                 if k else r1)
            z0 = t - v_b @ u
            out = np.empty(nb + m)
            out[kept_at] = z0[at]
            out[added_at] = u[qa]
            out[nb:] = z0[d0 - m:]
            return out

        r0 = lift(rhs)
        t = self._solve0(r0)
        one = r0.nonzero()[0]       # r0 = e_r, r in B0: hold K_B0^-1 e_r
        if (one.size == 1 and one[0] < d0 - m and r0[one[0]] == 1.0
                and not np.signbit(r0).any()):
            self._unit = (int(self._basis0[one[0]]), t)
        x = once(rhs, t)
        res = rhs - self._product(basic, x)
        # ||K_B||_inf <= d max|K_B|; refine only past d unit roundoffs.
        d = nb + m
        eta = _backward_error(res, d * max_kb, x, rhs)
        if eta > d * np.finfo(float).eps / 2:
            x += once(res, self._solve0(lift(res)))
        return x


def _qr_pivots(r: np.ndarray, tol: float, span: bool = False
               ) -> tuple[np.ndarray, np.ndarray | None]:
    """The leading pivots of a column-pivoted QR (``pivoted_qr``) of r
    while |r_ii| exceeds tol and, with ``span``, an orthonormal basis of
    their span: the leading columns of the economic Q that ``dorgqr``
    forms after its workspace query, as ``scipy.linalg.qr(r,
    mode="economic", pivoting=True)`` forms it."""
    if not r.size:
        return np.zeros(0, dtype=np.intp), np.zeros((r.shape[0], 0))
    qr, piv, tau = pivoted_qr(r)
    big = np.abs(qr.diagonal()) > tol
    rank = int(big.argmin()) if np.count_nonzero(big) < big.size else big.size
    if not span:
        return piv[:rank], None
    reflectors = qr[:, :tau.size]
    lwork = int(lapack.dorgqr(reflectors, tau, lwork=-1, overwrite_a=1)[1][0])
    q = lapack.dorgqr(reflectors, tau, lwork=lwork, overwrite_a=1)[0]
    return piv[:rank], q[:, :rank]


def _revealed_basis(p: QpProblem, cand: np.ndarray, tol: float
                    ) -> np.ndarray:
    """B = P + C of ``find_soc_basis`` over the columns ``cand``, the free
    ones taken first in each pass.  A first pass without a column is
    skipped: it would find nothing and project out nothing."""
    h, m, free = p.H, p.m, p.free_mask
    two = cand[~free.take(cand)] if p.free else cand
    schur = principal_block(h, two)
    if two.size < cand.size:
        one = cand[free.take(cand)]
        f1, k1, r1 = pivoted_cholesky(principal_block(h, one), tol)
        p1 = one[k1[:r1]]
        l1 = f1[:r1, :r1]
        # W = L1^-1 H_P1,two
        w = blas.dtrsm(1.0, l1, h.take(p1, axis=0).take(two, axis=1),
                       lower=1)
        schur -= w.T @ w
    f2, k2, r2 = pivoted_cholesky(schur, tol)
    k2 = k2[:r2]
    piv = two[k2]
    # H_PP = L L' with L = [[L1, 0], [W', L2]], or L2 alone.  ``dtrsm``
    # reads the lower triangle alone, so the upper ones that ``dpstrf``
    # leaves in L1 and L2 need no zeroing.
    lower = f2[:r2, :r2]
    if two.size < cand.size:
        piv = np.concatenate([p1, piv])
        lower = np.block([[l1, np.zeros((p1.size, r2))],
                          [w.take(k2, axis=1).T, lower]])
    # R = A_N - A_P H_PP^-1 H_PN over the columns N that are not pivots.
    rest = ~index_mask(p.n, piv)
    nonpiv = cand[rest.take(cand)]
    x = blas.dtrsm(1.0, lower,
                   np.concatenate([p.A.take(piv, axis=1).T,
                                   h.take(piv, axis=0).take(nonpiv, axis=1)],
                                  axis=1),
                   lower=1)
    r = p.A.take(nonpiv, axis=1) - x[:, :m].T @ x[:, m:]
    lead = free.take(nonpiv)
    if not np.count_nonzero(lead):
        return np.sort(np.concatenate([piv, nonpiv[_qr_pivots(r, tol)[0]]]))
    c1, q1 = _qr_pivots(r[:, lead], tol, span=True)
    other = r[:, ~lead]
    other -= q1 @ (q1.T @ other)
    c2, _ = _qr_pivots(other, tol)
    return np.sort(np.concatenate([piv, nonpiv[lead][c1],
                                   nonpiv[~lead][c2]]))


def _kkt_max(p: QpProblem, cols: np.ndarray) -> float:
    """max|K_B| over the distinct columns ``cols``, taken from the data:
    from H and A themselves where ``cols`` holds every column."""
    if cols.size == p.n:
        h, a = p.H, p.A
    else:
        h, a = principal_block(p.H, cols), p.A.take(cols, axis=1)
    return max(inf_norm(h), inf_norm(a), inf_norm(p.M))


def find_soc_basis(p: QpProblem, basis: KktBasis) -> Partition:
    """Find an initial second-order consistent basis.

    When the acceptance rule takes the full KKT matrix over the non-fixed
    columns, every one of them is basic and ``basis`` holds that
    factorization, K_B's.  Otherwise B = P + C is revealed by rank at
    tol = PIVOT_TOL * max|K|, the free columns first in each pass, so that
    few of them stay nonbasic:

    * P holds the pivots that LAPACK's pivoted Cholesky (``dpstrf``;
      Hammarling, Higham and Lucas, 2007) keeps above tol, first from H
      over the free columns, then from the Schur complement of the others;
    * C holds the leading pivots, with |r_ii| > tol, of column-pivoted QR
      (``dgeqp3``; Businger and Golub, 1965) of
      R = A_N - A_P H_PP^-1 H_PN over the remaining columns N, first over
      the free columns of R, then over the others with the span of those
      projected out.

    The full matrix over the k non-fixed columns is factored first,
    through ``basis.factor``, only where k - rank(H) <= m
    (``QpProblem.h_rank``).  Where k - rank(H) > m, H over those columns
    has a null space of dimension above m, so some null vector u of it
    has A u = 0, and (u, 0) is a null vector of the full matrix: B is
    revealed first, and K_B, which is the full matrix when B keeps every
    column, is left to the caller.  A rank found too low only skips the
    first try, and one found too high only costs a factorization that
    the acceptance rule rejects.  The partition is the same either way
    except where the acceptance rule takes a full matrix from which rank
    revelation drops a column.

    In exact arithmetic K_B is nonsingular.  Eliminating H_PP leaves
    [[E, R_C'], [R_C, -G]] with E = H_CC - H_CP H_PP^-1 H_PC and
    G = M + A_P H_PP^-1 A_P', both semidefinite.  A null vector (u, v)
    gives u'Eu + v'Gv = 0, so Eu = 0 and Gv = 0, and then R_C u = 0 and
    R_C' v = 0.  The columns of R_C are independent, so u = 0.  They span
    those of R, so R' v = 0; with A_P' v = 0 and M v = 0 (from Gv = 0)
    that is A_N' v = 0, and the full row rank of [A M] over the non-fixed
    columns, checked at load, gives v = 0.  B is also maximal: a column
    left out has its Schur complement in H and its part of R outside the
    span of R_C both below tol, so adding it makes K_B singular within tol.
    """
    cand = (~p.fixed_mask).nonzero()[0]
    if cand.size - p.h_rank <= p.m and basis.factor(cand) is not None:
        basic = cand
    else:
        basic = _revealed_basis(p, cand, PIVOT_TOL * _kkt_max(p, cand))
    return Partition._from_mask(index_mask(p.n, basic))


def _freed_component(raw: float, noise: float, change: float, bound: float,
                     counterpart: Callable[[], KktFactorization | None],
                     what: str) -> float:
    """Resolve the freed component of a direction at or below its
    cancellation noise band, raw <= noise.

    The dichotomy is exact: the component is det(counterpart) / det(own),
    so it vanishes iff the counterpart matrix is singular.  ``change`` is
    the size of a change of the data that makes the counterpart exactly
    singular, and ``bound`` the counterpart's singularity bound
    (``_singular_bound``, module docstring), both taken without assembling
    the counterpart.  Inside the band, |raw| <= noise, change <= bound
    settles the component at zero.  Otherwise (raw < -noise so that its
    sign is in doubt, or the change is larger than roundoff of the
    counterpart) the verdict of ``counterpart()`` settles it: zero where
    the acceptance rule rejects the counterpart (None), else raw, which
    must then be positive (KktInternalError).
    """
    if raw >= -noise and change <= bound:
        return 0.0
    if counterpart() is None:
        return 0.0
    if raw <= 0.0:
        raise KktInternalError(
            f"{what} computed nonpositive ({raw:.3e}) against a "
            f"nonsingular counterpart matrix")
    return raw


def _base_dz_l(p: QpProblem, l: int, h_bl: np.ndarray, rhs: np.ndarray,
               w: np.ndarray) -> tuple[float, float]:
    """dz_l of a base solve w = [dx_B; -dy] and its noise band, given
    h_bl = H[B, l] and rhs = -[h_bl; a_l]."""
    nb = h_bl.size
    h_ll = p.H[l, l]
    dzl = float(h_ll + h_bl @ w[:nb] + p.A[:, l] @ w[nb:])
    k_abs, w_abs = np.abs(rhs), np.abs(w)
    noise = NOISE_BAND * float(abs(h_ll) + k_abs[:nb] @ w_abs[:nb]
                               + k_abs[nb:] @ w_abs[nb:] + 1.0)
    return dzl, noise


def _direction(p: QpProblem, part: Partition, basic: np.ndarray, l: int,
               v: np.ndarray, dzl: float) -> Direction:
    """The direction over the buffer v = [dx; dy; dz] (``Direction``) that
    holds the primal step dx (zero outside S = B + l, B's indices
    ascending in ``basic``) and the multiplier step dy, with dz zero: this
    writes the freed dual component dz_l and dz_N, from stationarity
    dz_N = H_N. dx - A_N' dy, and leaves dz_B = 0.  With dz_l = 0 the
    direction is a null ray of K_l, whose dual part vanishes identically,
    and dz_N stays zero.

    Only H_NS dx_S enters, and it is taken from the smaller side of H at
    O(min(|N|, |S|) n): the |N| rows H_N. where |N| <= |B|, otherwise
    the rows of H over the nonzeros of dx, since H is symmetric and
    dx_S' H_S. - dy' A is H dx - A' dy at every index.  The two forms sum
    in different orders, so they agree to roundoff."""
    n, m = p.n, p.m
    dx, dy, dz = v[:n], v[n:n + m], v[n + m:]
    if dzl != 0.0:
        nonbasic_mask = part.nonbasic_mask
        nonbasic = nonbasic_mask.nonzero()[0]
        if 0 < nonbasic.size <= basic.size:
            dz[nonbasic] = (p.H.take(nonbasic, axis=0) @ dx
                            - p.A[:, nonbasic].T @ dy)
        elif nonbasic.size:
            support = dx.nonzero()[0]
            np.copyto(dz, dx.take(support) @ p.H.take(support, axis=0)
                      - dy @ p.A, where=nonbasic_mask)
    dz[l] = dzl
    return Direction._own(v, n, m, l, tuple(basic.tolist()))


def solve_base_primal(p: QpProblem, part: Partition, basis: KktBasis,
                      l: int) -> Direction:
    """Direction with dx_l = 1 from the K_B system.

    Solves K_B [dx_B; -dy] = -[h_Bl; a_l], then recovers dz_l and dz_N.
    dz_l is nonnegative, and exactly zero iff the bordered matrix is
    singular.  ``basis`` serves the solve, fresh or updated, and a dz_l
    at or below its noise band is settled by ``_freed_component``.
    """
    basic = part.basic_mask.nonzero()[0]
    nb = basic.size
    h_bl = p.H[l].take(basic)          # H[B, l], as H is symmetric
    rhs = np.concatenate((h_bl, p.A[:, l]))
    np.negative(rhs, out=rhs)
    w = basis.solve(basic, rhs)
    raw, noise = _base_dz_l(p, l, h_bl, rhs, w)
    dzl = raw
    if raw <= noise:
        own = basis.held(basic)
        # max|K_l| from the data where an update served the solve, else
        # the largest of max|K_B|, max|k_l| (rhs is -k_l, k_l =
        # [h_Bl; a_l]) and |h_ll|: the same maximum.
        k_max = (_kkt_max(p, _with_freed(basic, l)[0]) if own is None
                 else max(own.max_abs, inf_norm(rhs), abs(float(p.H[l, l]))))
        dzl = _freed_component(
            raw, noise, abs(raw), _singular_bound(nb + 1 + p.m, k_max),
            lambda: factor_kb(p, _with_freed(basic, l)[0]), "dz_l")
    # dz_l = 0: singular bordered matrix.  The direction is its null ray,
    # whose multiplier and dual parts vanish identically; zeroing them
    # discards pure cancellation noise.
    n = p.n
    v = np.zeros(2 * n + p.m)
    v[basic] = w[:nb]
    v[l] = 1.0
    if dzl != 0.0:
        np.negative(w[nb:], out=v[n:n + p.m])
    return _direction(p, part, basic, l, v, dzl)


def _dx_l_noise(w: np.ndarray) -> float:
    return NOISE_BAND * max(1.0, inf_norm(w))


def solve_intermediate_primal(p: QpProblem, part: Partition, l: int,
                              basis: KktBasis) -> Direction:
    """Direction with dz_l = 1 from the bordered K_l system.

    K_l is the basis matrix of B and l, its variables ascending with l at
    position ``at``.  Solves K_l [dx; -dy] = e_at, where dx holds dx_l at
    ``at`` and dx_B around it, and recovers dz_N.  K_l is nonsingular
    whenever this is called from a legal state; a singular K_l here is an
    internal invariant violation.  ``basis`` serves the solve, fresh or
    updated, and a dx_l at or below its noise band is settled by
    ``_freed_component``.
    """
    basic = part.basic_mask.nonzero()[0]
    nb = basic.size
    order, at = _with_freed(basic, l)
    rhs = np.zeros(1 + nb + p.m)
    rhs[at] = 1.0
    w = basis.solve(order, rhs)
    raw, noise = float(w[at]), _dx_l_noise(w)
    dxl = raw
    if raw <= noise:
        # k_l = [h_Bl; a_l] is column at of K_l without entry at, and
        # v = [dx_B; -dy] is w without entry at (module docstring).
        vnorm = float(np.linalg.norm(np.delete(w, at)))
        k_l = np.concatenate((p.H[l].take(basic), p.A[:, l]))
        change = (abs(raw) * float(np.linalg.norm(k_l)) / vnorm
                  if vnorm > 0.0 else np.inf)
        dxl = _freed_component(
            raw, noise, change, _singular_bound(nb + p.m, _kkt_max(p, basic)),
            lambda: factor_kb(p, basic), "dx_l")
    # dx_l = 0: singular K_B.  Every x-component of the direction
    # vanishes and only the multiplier part moves.
    n = p.n
    v = np.zeros(2 * n + p.m)
    if dxl != 0.0:
        v[order] = w[:nb + 1]
        v[l] = dxl
    np.negative(w[nb + 1:], out=v[n:n + p.m])
    return _direction(p, part, basic, l, v, 1.0)


def recover_z_nonbasic(p: QpProblem, basic: np.ndarray, nonbasic: np.ndarray,
                       it: Iterate, qn: np.ndarray) -> np.ndarray:
    """z_N = H_BN' x_B - H_NN q_N + c_N - A_N' y, the values making the
    stationarity equation hold exactly at the current (x_B, y), for B and
    N given as index arrays and q_N as a vector.  Where q_N is zero
    (``init_shifts`` solves at zero shifts), H_NN q_N is +0.0 in every
    entry, and subtracting +0.0 changes no bit, so the product is not
    formed."""
    h_n = p.H.take(nonbasic, axis=0)
    zn = h_n.take(basic, axis=1) @ it.x[basic]
    if np.count_nonzero(qn):
        zn -= h_n.take(nonbasic, axis=1) @ qn
    return zn + p.c[nonbasic] - p.A[:, nonbasic].T @ it.y


def solve_boundary_point(p: QpProblem, s: Shifts, part: Partition,
                         f: KktFactorization) -> Iterate:
    """Solve the boundary equations for a basis: x_N = -q_N, z_B = -r_B,
    K_B [x_B; -y] = [H_BN q_N - c_B - r_B; A_N q_N + b], then recover z_N,
    with ``f`` the factorization of K_B.  Where q_N is zero, H_BN q_N and
    A_N q_N are +0.0 in every entry and are not formed: the right-hand
    side is then [0.0 - c_B - r_B; b + 0.0], with the same bits."""
    basic = part.basic_mask.nonzero()[0]
    nonbasic = part.nonbasic_mask.nonzero()[0]
    nb = basic.size
    qn, rb = s.q[nonbasic], s.r[basic]
    if np.count_nonzero(qn):
        # H_BN from the |N| columns of H: far less than its |B| rows where
        # |N| << |B|, and the same C-order bytes.
        top = (p.H.take(nonbasic, axis=1).take(basic, axis=0) @ qn
               - p.c[basic] - rb)
        bottom = p.A[:, nonbasic] @ qn + p.b
    else:
        top = 0.0 - p.c[basic] - rb
        bottom = p.b + 0.0
    w = f.solve(np.concatenate([top, bottom]))
    n, m = p.n, p.m
    it = Iterate._own(np.zeros(2 * n + m), n, m)
    it.x[basic] = w[:nb]
    it.x[nonbasic] = -qn
    np.negative(w[nb:], out=it.y)
    it.z[basic] = -rb
    if nonbasic.size:
        it.z[nonbasic] = recover_z_nonbasic(p, basic, nonbasic, it, qn)
    return it
