"""Problem data, solver state, and optimality measures.

The solver works on a convex quadratic program in shifted standard form:

    minimize    0.5 x'Hx + 0.5 y'My + c'x + r'x
    subject to  Ax + My = b,   x >= -q,

together with its dual

    maximize    -0.5 x'Hx - 0.5 y'My + b'y - q'z
    subject to  Hx + c - A'y - z = 0,   z >= -r,

where H and M are symmetric positive semidefinite and the shift vectors
(q, r) relax the primal and dual bounds.  A triple (x, y, z) is jointly
optimal for the pair iff

    (a) Hx + c - A'y - z = 0
    (b) Ax + My - b = 0
    (c) x + q >= 0
    (d) z + r >= 0
    (e) (x + q)'(z + r) = 0.

Variables may additionally be marked *free* (no bound exists on x_j, so
condition (c) is void and (d) sharpens to z_j + r_j = 0) or *fixed*
(x_j is pinned at its bound, its dual is unrestricted, so (d) is void).
Plain problems leave both sets empty.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg import lapack


class ProblemError(ValueError):
    """Raised for invalid problem data: non-numeric or non-finite entries,
    bad shapes, indefinite H or M, or a rank-deficient [A M] block."""


class StartConditionError(ValueError):
    """Raised when a solve is started from a state that violates the
    method's entry conditions."""


class InvariantError(RuntimeError):
    """Raised when an internal solver invariant fails at runtime."""


PSD_PIVOT_TOL = 1e-10
RANK_TOL = 1e-10
# Share by which a diagonal must exceed its row's off-diagonal sum for
# ``_check_psd`` to accept without its one factorization (``dpstrf``).  It
# is far larger than the n*u rounding of a computed row sum (u the unit
# roundoff), so the computed test implies the exact one.
DOMINANCE_MARGIN = 1e-8


def index_mask(n: int, indices) -> np.ndarray:
    """Boolean mask of length n that is True at ``indices``."""
    mask = np.zeros(n, dtype=bool)
    mask.put(indices if isinstance(indices, np.ndarray) else list(indices),
             True)
    return mask


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite (no NaN or infinity)."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def inf_norm(v: np.ndarray) -> float:
    """max|v| over every entry of a vector or matrix, 0 for an empty v; NaN
    where v holds one.  The entry is found by ``argmax``, which takes a
    NaN for the maximum, since on small arrays it costs a fraction of a
    ``maximum`` reduction."""
    a = np.abs(v)
    return float(a.flat[a.argmax()]) if a.size else 0.0


def _worst(v: np.ndarray) -> float:
    """max(0, max v), 0.0 for an empty v and NaN where v holds one, found
    as ``inf_norm`` finds its entry; "+ 0.0" turns -0.0 into 0.0."""
    return max(float(v[v.argmax()]), 0.0) + 0.0 if v.size else 0.0


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def principal_block(s: np.ndarray, idx: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """s[idx][:, idx] for an integer array ``idx``, written into ``out``
    when one is given: one slice copy where ``idx`` is an ascending run
    of consecutive indices, two ``take`` gathers otherwise."""
    at = idx.tolist()
    lo = at[0] if at else 0
    hi = lo + len(at)
    # The last index rules out most other sets before the exact test.
    if at and at[-1] == hi - 1 and at == list(range(lo, hi)):
        if out is None:
            return s[lo:hi, lo:hi].copy()
        out[...] = s[lo:hi, lo:hi]
        return out
    return s.take(idx, axis=0).take(idx, axis=1, out=out)


def pivoted_cholesky(h: np.ndarray, tol: float
                     ) -> tuple[np.ndarray, np.ndarray, int]:
    """LAPACK's pivoted Cholesky (``dpstrf``) of a semidefinite h, which
    it may overwrite, while pivots exceed tol: (lower factor, 0-based
    pivots, rank).  ``dpstrf`` takes any positive first pivot."""
    factor, piv, rank, _ = lapack.dpstrf(h, tol=tol, lower=1, overwrite_a=1)
    if rank and not factor[0, 0] ** 2 > tol:
        rank = 0
    return factor, piv - 1, rank


@cache
def _dgeqp3_lwork(rows: int, cols: int) -> int:
    """The workspace size that ``scipy.linalg.qr(..., pivoting=True)``
    queries from ``dgeqp3``, queried once per shape (it reads no entry)."""
    return int(lapack.dgeqp3(np.zeros((rows, cols)), lwork=-1)[3][0])


def pivoted_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK's column-pivoted QR (``dgeqp3``) of a nonempty a: (packed
    factor, 0-based pivots, reflector scales tau)."""
    qr, piv, tau, _, _ = lapack.dgeqp3(a, lwork=_dgeqp3_lwork(*a.shape))
    return qr, piv - 1, tau


def _check_psd(s: np.ndarray, name: str) -> int:
    """Semidefiniteness test of an exactly symmetric s; returns the rank
    that the test found: the number of nonzero rows where the dominance
    test accepts, the number of ``dpstrf`` pivots above the cutoff
    otherwise.

    Only the rows and columns that are not identically zero take part
    (standardized problems pad H with zero slack rows).  The two paths:

    1. Where every nonzero row has a positive diagonal that exceeds the
       sum of the row's other magnitudes by DOMINANCE_MARGIN, s is
       definite on those rows (Gershgorin), with no LAPACK call.
    2. Otherwise ``pivoted_cholesky`` (``dpstrf``) eliminates the largest
       remaining diagonal until it falls to the cutoff PSD_PIVOT_TOL *
       max(1, max diagonal).  Where rows remain, their Schur complement
       S = s_TT - L_T L_T' (the whole live block at rank 0; ``dpstrf``
       leaves it only partly updated) decides: a diagonal entry below
       -cutoff or an off-diagonal one above cutoff in magnitude rejects
       s.  The diagonal of S is at most cutoff, and a semidefinite S
       has |S_ij| <= sqrt(S_ii S_jj), so neither fires on one.
    """
    rows = np.add.reduce(np.abs(s), axis=1)
    live = rows.nonzero()[0]
    if not live.size:               # empty or zero
        return 0
    diagonal = s.diagonal()
    # Zero rows and rows with a nonpositive diagonal never pass.
    if np.count_nonzero(2.0 * diagonal
                        > (1.0 + DOMINANCE_MARGIN) * rows) == live.size:
        return live.size
    cutoff = PSD_PIVOT_TOL * max(1.0, float(diagonal[diagonal.argmax()]))
    # The transpose of a C-order gather is the Fortran-order copy that
    # LAPACK overwrites; it has the same values since s is symmetric.
    factor, piv, rank = pivoted_cholesky(principal_block(s, live).T, cutoff)
    if rank == live.size:
        return rank
    low = factor[rank:, :rank]
    trail = principal_block(s, live[piv[rank:]]) - low @ low.T
    least = float(trail.diagonal().min())
    np.fill_diagonal(trail, 0.0)
    worst = min(least, -inf_norm(trail))
    if worst < -cutoff:
        raise ProblemError(f"{name} is not positive semidefinite "
                           f"(pivot {worst:.3e})")
    return rank


def row_basis(a: np.ndarray) -> np.ndarray:
    """The rows of a (which it overwrites) that the row-rank rule keeps, in
    pivot order: a column-pivoted QR (``pivoted_qr``) of the transpose keeps
    the rows whose pivots exceed RANK_TOL times the largest, after each row
    is scaled by a power of two to an infinity norm in [0.5, 1): exact, so
    the verdict does not depend on the rows' scale.  No zero row is kept."""
    if not a.size:
        return np.zeros(0, dtype=np.intp)
    exponent = np.frexp(np.abs(a).max(axis=1))[1]
    np.ldexp(a, -exponent[:, None], out=a)
    qr, piv, _ = pivoted_qr(a.T)
    diag = np.abs(qr.diagonal())
    return piv[:np.count_nonzero(diag > RANK_TOL * diag[0])]


def _symmetrized(s: np.ndarray, name: str) -> np.ndarray:
    """A symmetric copy of s taken from its lower triangle, after checking
    that s is symmetric to 1e-12 relative.  Like the triangle sum, the
    copy of an exactly symmetric s turns -0.0 entries into 0.0.  The
    entries of s must be finite."""
    if not np.count_nonzero(s != s.T):     # empty s included
        return s + 0.0
    scale = max(1.0, float(np.abs(s).max()))
    if float(np.abs(s - s.T).max()) > 1e-12 * scale:
        raise ProblemError(f"{name} is not symmetric")
    return np.tril(s) + np.tril(s, -1).T


def _floats(v, name: str) -> np.ndarray:
    """v as a float array, not copied where it is one; else (bool, string,
    bytes, complex or object entries, or ragged input) ``ProblemError``."""
    try:
        a = np.asarray(v)
        if a.dtype.kind in "fiu":       # float, signed or unsigned int
            return a.astype(float, copy=False)
    except (TypeError, ValueError):     # ragged input
        pass
    raise ProblemError(f"{name} is not an array of real numbers")


def _vector(v, name: str) -> np.ndarray:
    """v as a float vector (a scalar has length 1); else ``ProblemError``."""
    v = _floats(v, name)
    if v.ndim == 0:
        v = v.reshape(1)
    elif v.ndim != 1:
        raise ProblemError(f"{name} must be a vector, got shape {v.shape}")
    return v


def _matrix(v, name: str, rows: int | None, cols: int) -> np.ndarray:
    """v as a float rows x cols matrix (``rows`` None: its own count); else
    ``ProblemError``.  A scalar is 1x1, a vector one row, and input with
    no entries the empty matrix, so it passes only for an empty shape."""
    a = _floats(v, name)
    if a.ndim < 2:
        a = np.atleast_2d(a)
    if rows is None:
        rows = a.shape[0] if a.size else 0
    if not a.size and not rows * cols:
        a = a.reshape(rows, cols)
    if a.shape != (rows, cols):
        raise ProblemError(f"{name} must be {rows}x{cols}, got {a.shape}")
    return a


def _indices(values, name: str, error=ProblemError, n: int | None = None,
             distinct: bool = False) -> list[int]:
    """Integer indices as a list of ints; a float, bool, string or other
    non-integer entry, or a non-iterable, raises ``error``, and so does
    an index outside 0..n-1 where ``n`` is given, and a repeated one
    where ``distinct`` is set."""
    try:
        items = list(values)
    except TypeError:
        raise error(f"{name} must be an iterable of integer indices, "
                    f"got {values!r}") from None
    for i in items:
        if isinstance(i, (bool, np.bool_)) or not hasattr(i, "__index__"):
            raise error(f"{name} index {i!r} is not an integer")
    items = [operator.index(i) for i in items]
    if n is not None:
        for i in items:
            if not 0 <= i < n:
                raise error(f"{name} index {i} is not in 0..{n - 1}")
    if distinct and len(set(items)) != len(items):
        article = "an" if name[0] in "aeiou" else "a"
        raise error(f"{article} {name} index is given twice: {items}")
    return items


@dataclass(frozen=True)
class QpProblem:
    """Immutable problem data (H, M, A, b, c) plus bound-existence markers.

    b and c (``_vector``) fix m and n, kept as plain attributes ``m`` and
    ``n``, and ``_matrix`` reads H (n x n), M (m x m) and A (m x n).  ``free`` lists variables with no bound at all;
    ``fixed`` lists variables pinned at their bound with an unrestricted
    dual.  Both are empty for a plain standard-form problem.  Either may
    be given as any iterable of integer indices in 0..n-1 (a repeat
    collapses) and is stored as a ``frozenset[int]``; ``free_mask`` and
    ``fixed_mask`` hold them as read-only boolean masks, and
    ``regular_mask`` the indices in neither.  ``h_rank`` is
    the rank of H that ``_check_psd`` found: the count of H's rows that
    are not identically zero where they pass its diagonal dominance test,
    the count of ``dpstrf`` pivots above its cutoff otherwise.  Basis
    discovery reads it (``kkt.find_soc_basis``).
    """

    H: np.ndarray
    M: np.ndarray
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    free: frozenset[int] = frozenset()
    fixed: frozenset[int] = frozenset()

    def __post_init__(self):
        b = _vector(self.b, "b")
        c = _vector(self.c, "c")
        n, m = c.shape[0], b.shape[0]
        H = _matrix(self.H, "H", n, n)
        M = _matrix(self.M, "M", m, m)
        A = _matrix(self.A, "A", m, n)
        if not all_finite(H):
            raise ProblemError("H has non-finite entries")
        # One test over the smaller arrays' entries (no copy of H); the
        # arrays one by one only to name the first that fails it.  Its
        # copy, made read-only, holds the problem's own b and c.
        rest = (("M", M), ("A", A), ("b", b), ("c", c))
        data = np.concatenate([a for _, a in rest], axis=None)
        if not all_finite(data):
            for name, a in rest:
                if not all_finite(a):
                    raise ProblemError(f"{name} has non-finite entries")
        # The lower triangle is authoritative.  A zero M is symmetric and
        # semidefinite.
        m_live = np.count_nonzero(M) > 0
        H = _symmetrized(H, "H")
        M = _symmetrized(M, "M") if m_live else M + 0.0
        h_rank = _check_psd(H, "H")
        if m_live:
            _check_psd(M, "M")
        free = frozenset(_indices(self.free, "free", n=n))
        fixed = frozenset(_indices(self.fixed, "fixed", n=n))
        if free & fixed:
            raise ProblemError("an index cannot be both free and fixed")
        masks = np.zeros((3, n), dtype=bool)    # free, fixed, regular
        masks[0].put(list(free), True)
        masks[1].put(list(fixed), True)
        np.logical_not(masks[0] | masks[1], out=masks[2])
        # Full row rank over the non-fixed columns implies it over all.
        rank = row_basis(np.concatenate(
            (A[:, ~masks[1]] if fixed else A, M), axis=1)).size
        if rank < m:
            raise ProblemError(
                f"[A M] is rank deficient: rank {rank} < {m} rows; remove "
                f"dependent equality rows before constructing the problem")
        # H and M are fresh copies from _symmetrized; views of a read-only
        # array are read-only.
        for a in (H, M, data, masks):
            a.setflags(write=False)
        # A keeps its own layout (``_readonly``), on which the bits of its
        # products depend.
        tail = data[data.size - m - n:]
        b, c = tail[:m], tail[m:]
        self.__dict__.update(
            H=H, M=M, A=_readonly(A), b=b, c=c,
            free=free, fixed=fixed, free_mask=masks[0], fixed_mask=masks[1],
            regular_mask=masks[2], h_rank=h_rank, n=n, m=m,
            _data_scale=1.0 + inf_norm(c) + inf_norm(b))

    def kkt_scale(self) -> float:
        """Infinity-norm scale of the full KKT matrix data."""
        return max(1.0, *(inf_norm(x) for x in (self.H, self.M, self.A)))

    def data_scale(self) -> float:
        """1 + max|c| + max|b|, the scale of the residual tolerances."""
        return self._data_scale


def _shift_vector(v, name: str, shape: tuple | None = None) -> np.ndarray:
    """A read-only float copy of shift vector ``name``, checked to be a
    finite vector and (when given) of ``shape``."""
    v = _vector(v, name)
    if shape is not None and v.shape != shape:
        raise ProblemError("q and r must have the same length")
    if not all_finite(v):
        raise ProblemError("shift entries must be finite")
    return _readonly(v)


@dataclass(frozen=True)
class Shifts:
    """Primal (q) and dual (r) bound shifts, read-only once built.

    Vectors from callers are checked and copied; ``zero`` builds one
    read-only zero vector and shares it as q and r, and ``_checked`` keeps
    vectors that its caller has checked already.
    """

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        q = _shift_vector(self.q, "q")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", _shift_vector(self.r, "r", q.shape))

    @classmethod
    def _checked(cls, q: np.ndarray, r: np.ndarray) -> "Shifts":
        """Shifts from vectors that are already read-only and checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "q", q)
        object.__setattr__(out, "r", r)
        return out

    @classmethod
    def zero(cls, n: int) -> "Shifts":
        z = np.zeros(n)
        z.flags.writeable = False
        return cls._checked(z, z)


def _to_basic(into: str) -> bool:
    """Whether ``into`` names the basic set; a name other than ``"basic"``
    or ``"nonbasic"`` raises ``InvariantError``."""
    if into not in ("basic", "nonbasic"):
        raise InvariantError(f"no index set is named {into!r}")
    return into == "basic"


class Partition:
    """Index sets driving the active-set state machine.

    Each index of {0..n-1} is basic or nonbasic, except for at most one
    ``freed`` index, which belongs to neither while a direction is being
    followed.  The boolean mask ``basic_mask`` and ``freed`` are the whole
    state: ``nonbasic_mask`` is derived from them, a new array at each
    read.  ``basic`` and ``nonbasic`` list their members in ascending
    order.  A non-integer index, or arguments that do not list each of
    0..n-1 exactly once, raise ``InvariantError``, and so does an index
    that a method does not find where it expects one.
    """

    def __init__(self, basic, nonbasic, freed: int | None = None):
        basic = _indices(basic, "basic", InvariantError)
        freed = (None if freed is None
                 else _indices([freed], "freed", InvariantError)[0])
        every = basic + _indices(nonbasic, "nonbasic", InvariantError) + (
            [] if freed is None else [freed])
        if sorted(every) != list(range(len(every))):
            raise InvariantError(f"not a partition of 0..n-1: {sorted(every)}")
        self.basic_mask = index_mask(len(every), basic)
        self.freed = freed

    @classmethod
    def _from_mask(cls, basic_mask: np.ndarray,
                   freed: int | None = None) -> "Partition":
        out = cls.__new__(cls)
        out.basic_mask, out.freed = basic_mask, freed
        return out

    @classmethod
    def from_basic(cls, n: int, basic) -> "Partition":
        """{0..n-1} with ``basic`` basic and every other index nonbasic.
        ``basic`` must list distinct integer indices in 0..n-1; anything
        else raises ``InvariantError``."""
        return cls._from_mask(index_mask(
            n, _indices(basic, "basic", InvariantError, n, distinct=True)))

    @property
    def nonbasic_mask(self) -> np.ndarray:
        mask = ~self.basic_mask
        if self.freed is not None:
            mask[self.freed] = False
        return mask

    @property
    def basic(self) -> list[int]:
        return self.basic_mask.nonzero()[0].tolist()

    @property
    def nonbasic(self) -> list[int]:
        return self.nonbasic_mask.nonzero()[0].tolist()

    def __repr__(self) -> str:
        return (f"Partition(basic={self.basic}, nonbasic={self.nonbasic}, "
                f"freed={self.freed})")

    def validate(self, n: int) -> None:
        if self.basic_mask.size != n:
            raise InvariantError("partition does not cover 0..n-1")

    def copy(self) -> "Partition":
        return Partition._from_mask(self.basic_mask.copy(), self.freed)

    def free_index(self, l: int) -> None:
        """Remove l from whichever set holds it and mark it freed."""
        if self.freed is not None:
            raise InvariantError("a freed index is already pending")
        if type(l) is not int:
            l = _indices([l], "freed", InvariantError)[0]
        if not 0 <= l < self.basic_mask.size:
            raise InvariantError(f"index {l} not in partition")
        self.basic_mask[l] = False
        self.freed = l

    def bind_freed(self, into: str) -> None:
        """Put the freed index into the ``"basic"`` or ``"nonbasic"`` set."""
        if self.freed is None:
            raise InvariantError("no freed index to bind")
        self.basic_mask[self.freed] = _to_basic(into)
        self.freed = None

    def move(self, k: int, into: str) -> None:
        """Move k into the ``"basic"`` or ``"nonbasic"`` set from the other."""
        to_basic = _to_basic(into)
        if not (0 <= k < self.basic_mask.size and k != self.freed
                and self.basic_mask[k] != to_basic):
            raise InvariantError(f"index {k} is not in the set it leaves")
        self.basic_mask[k] = to_basic


_POINT = ("x", "y", "z")
_DIRECTION = ("dx", "dy", "dz")


def _hold(obj, v: np.ndarray, n: int, m: int, names: tuple[str, ...]
          ) -> None:
    """Give ``obj`` the buffer ``v`` and, under ``names``, its three views
    v[:n], v[n:n+m] and v[n+m:]."""
    d = obj.__dict__
    d["v"] = v
    d[names[0]], d[names[1]], d[names[2]] = v[:n], v[n:n + m], v[n + m:]


class Iterate:
    """The point (x, y, z).  Mutable; owned by a single solve.

    x, y and z are views of one buffer ``v`` = [x; y; z], so that a step
    moves the point with one operation (``it.v += alpha * d.v``) and a
    write through ``it.x``, ``it.y`` or ``it.z`` is a write to ``v``.
    The constructor copies the caller's vectors into a new buffer; one
    that is not a vector of real numbers (a scalar has length 1) raises
    ``ProblemError``.  The point changes only through its views
    (``it.x[...] = w``, ``it.x += w``): rebinding an attribute
    (``it.x = w``) raises ``AttributeError``, so the views never leave
    the buffer.
    """

    def __init__(self, x, y, z):
        x, y, z = _vector(x, "x"), _vector(y, "y"), _vector(z, "z")
        _hold(self, np.concatenate((x, y, z)), x.size, y.size, _POINT)

    @classmethod
    def _own(cls, v: np.ndarray, n: int, m: int) -> "Iterate":
        """The iterate over the float buffer v = [x; y; z] (x of length n,
        y of length m) that no one else holds, kept without the checks and
        the copy of the constructor."""
        out = object.__new__(cls)
        _hold(out, v, n, m, _POINT)
        return out

    def __setattr__(self, name: str, value) -> None:
        # it.x += w hands back the view itself, which stays bound.
        if name not in self.__dict__ or value is not self.__dict__[name]:
            raise AttributeError(f"cannot set Iterate.{name}: an Iterate "
                                 f"changes only through its views")

    def copy(self) -> "Iterate":
        return Iterate._own(self.v.copy(), self.x.size, self.y.size)

    def __repr__(self) -> str:
        return f"Iterate(x={self.x!r}, y={self.y!r}, z={self.z!r})"


@dataclass(frozen=True)
class Direction:
    """A search direction (dx, dy, dz) with the freed components singled out.

    dx vanishes on the nonbasic set and dz on the basic set; only the
    freed index l carries both, ``dx_l`` = dx[l] and ``dz_l`` = dz[l].
    ``basic`` records the basic set the direction was solved against.

    dx, dy and dz are views of one buffer ``v`` = [dx; dy; dz], laid out
    as ``Iterate.v``, so a step applies the direction with one operation.
    Each direction owns its buffer: a trace record keeps the direction
    (``steps.TraceRecord``), and no later step writes to it.  The
    constructor copies the caller's vectors into a new buffer.  A
    direction is frozen, so its fields cannot part from ``v``.
    """

    dx: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    freed: int
    basic: tuple[int, ...] = ()

    def __post_init__(self):
        dx, dy, dz = (np.asarray(a, dtype=float)
                      for a in (self.dx, self.dy, self.dz))
        _hold(self, np.concatenate((dx, dy, dz)), dx.size, dy.size,
              _DIRECTION)

    @property
    def dx_l(self) -> float:
        return float(self.dx[self.freed])

    @property
    def dz_l(self) -> float:
        return float(self.dz[self.freed])

    @classmethod
    def _own(cls, v: np.ndarray, n: int, m: int, freed: int,
             basic: tuple[int, ...]) -> "Direction":
        """The direction over the float buffer v = [dx; dy; dz] (dx of
        length n, dy of length m) that no one else holds, kept without the
        copy of the constructor."""
        out = object.__new__(cls)
        _hold(out, v, n, m, _DIRECTION)
        out.__dict__.update(freed=freed, basic=basic)
        return out

    def negated(self) -> "Direction":
        return Direction._own(-self.v, self.dx.size, self.dy.size,
                              self.freed, self.basic)


@dataclass(frozen=True)
class OptimalityReport:
    """The five joint optimality measures and the verdict."""

    stationarity_residual: float
    equality_residual: float
    worst_primal_violation: float
    worst_dual_violation: float
    complementarity: float
    optimal: bool


def objectives(p: QpProblem, s: Shifts, it: Iterate) -> tuple[float, float]:
    """(f_primal, f_dual) = (0.5 x'Hx + 0.5 y'My + c'x + r'x,
    -0.5 x'Hx - 0.5 y'My + b'y - q'z).  The two share 0.5 x'Hx and
    0.5 y'My, computed once: scaling by -0.5 in place of 0.5 is exact,
    so each value has the bits of its formula evaluated alone."""
    x, y, z = it.x, it.y, it.z
    hx = 0.5 * x @ p.H @ x
    my = 0.5 * y @ p.M @ y
    return (float(hx + my + p.c @ x + s.r @ x),
            float(-hx - my + p.b @ y - s.q @ z))


def residuals(p: QpProblem, it: Iterate) -> tuple[np.ndarray, np.ndarray]:
    """Stationarity residual Hx + c - A'y - z and equality residual
    Ax + My - b."""
    stat = p.H @ it.x + p.c - p.A.T @ it.y - it.z
    eq = p.A @ it.x + p.M @ it.y - p.b
    return stat, eq


# Tolerances.  ``bound_tol`` is the one measure of how far a vector may
# lie below its bound: ``check_optimality`` applies it to the final point,
# and the engine (``steps.run_active_set``) to its entry and invariant
# checks and, at TOL_SHARE of it, to its stopping rule.  The bands below
# absorb roundoff, each relative to the scale named with it.
DEFAULT_TOL = 1e-6      # SolveConfig's fea_tol and opt_tol
TOL_SHARE = 0.1         # share of a tolerance a tie band or a stop may use
NOISE_BAND = 1e-12      # cancellation residue of a computed rate or component
SELECT_BAND = 1e-11     # selection threshold, over max(1, max|scale_by|)
HARRIS_BAND = 1e-9      # Harris tie band, over max(1, max|guarded|)
BOUND_SLACK = 1e-7      # a value held on its bound, over max(1, its scale)
START_EQ_TOL = 1e-8     # equality residuals of a start point, over data_scale
DRIFT_EQ_TOL = 1e-7     # equality residuals of later iterates, likewise


def check_tolerances(fea_tol: float, opt_tol: float) -> None:
    """The one test of tolerances: both real scalars, positive and finite;
    NaN, a bool, a string, an array or None fails."""
    for tol in (fea_tol, opt_tol):
        if (isinstance(tol, bool)
                or not isinstance(tol, (float, int, np.floating, np.integer))
                or not 0.0 < tol < np.inf):
            raise ValueError("tolerances must be positive and finite")


def check_settings(fea_tol: float, opt_tol: float, max_iterations, trace,
                   check_invariants) -> None:
    """The one test of a run's settings, in this order: the tolerances
    (``check_tolerances``), an integer iteration cap >= 0 (0 asks for the
    default cap; a bool or a float fails), a trace sink (None or a
    callable) and a bool ``check_invariants`` (numpy's included)."""
    check_tolerances(fea_tol, opt_tol)
    if (isinstance(max_iterations, (bool, np.bool_))
            or not hasattr(max_iterations, "__index__")
            or max_iterations < 0):
        raise ValueError(f"max_iterations must be an integer >= 0, "
                         f"got {max_iterations!r}")
    if trace is not None and not callable(trace):
        raise ValueError(f"trace must be callable, got {trace!r}")
    if not isinstance(check_invariants, (bool, np.bool_)):
        raise ValueError(f"check_invariants must be a bool, "
                         f"got {check_invariants!r}")


def bound_tol(vector: str, y_norm: float, fea_tol: float,
              opt_tol: float) -> float:
    """How far below its bound ``vector`` may lie: x + q >= -fea_tol and
    z + r >= -opt_tol * max(1, y_norm), where y_norm = max|y|."""
    return fea_tol if vector == "x" else opt_tol * max(1.0, y_norm)


def check_sizes(p: QpProblem, s: Shifts, it: Iterate | None = None) -> None:
    """Raise ``ProblemError`` unless q (and r, which matches it) and, when
    ``it`` is given, x and z have length n and y has length m.  One test
    covers every shape; the vectors one by one only name the first that
    fails it."""
    n, m = (p.n,), (p.m,)
    if s.q.shape == n and (it is None or it.x.shape == it.z.shape == n
                           and it.y.shape == m):
        return
    sizes = [("q and r", s.q, p.n)]
    if it is not None:
        sizes += [("x", it.x, p.n), ("y", it.y, p.m), ("z", it.z, p.n)]
    for name, v, size in sizes:
        if v.shape != (size,):
            raise ProblemError(f"{name} must have length {size} to match "
                               f"the problem, got shape {v.shape}")


def check_optimality(p: QpProblem, s: Shifts, it: Iterate,
                     eps_fea: float = DEFAULT_TOL,
                     eps_opt: float = DEFAULT_TOL) -> OptimalityReport:
    """Evaluate the joint optimality conditions (a)-(e).

    The residual tests scale with the problem data and the bound tests
    are ``bound_tol``'s.  Free variables are exempt from the primal bound
    test but must satisfy |z_j + r_j| <= tolerance; fixed variables are
    exempt from the dual sign test.  Shifts or a point whose sizes do
    not match the problem raise ``ProblemError`` (``check_sizes``).
    """
    check_tolerances(eps_fea, eps_opt)
    check_sizes(p, s, it)
    stat, eq = residuals(p, it)
    stat_res, eq_res = inf_norm(stat), inf_norm(eq)

    xq = it.x + s.q
    zr = it.z + s.r
    if p.free or p.fixed:
        free, fixed, regular = p.free_mask, p.fixed_mask, p.regular_mask
        below_x = -xq[~free]
        below_z = np.where(free, np.abs(zr), -zr)[~fixed]
        products = xq[regular] * zr[regular]
    else:
        below_x, below_z, products = -xq, -zr, xq * zr
    # A NaN entry makes its maximum NaN.
    worst_primal = _worst(below_x)
    worst_dual = _worst(below_z)
    comp = inf_norm(products)

    data_scale = p.data_scale()
    primal_tol = bound_tol("x", 0.0, eps_fea, eps_opt)
    dual_tol = bound_tol("z", inf_norm(it.y), eps_fea, eps_opt)
    ok = (stat_res <= eps_fea * data_scale
          and eq_res <= eps_fea * data_scale
          and worst_primal <= primal_tol
          and worst_dual <= dual_tol
          and comp <= dual_tol * max(1.0, inf_norm(xq)))
    return OptimalityReport(stat_res, eq_res, worst_primal, worst_dual,
                            comp, ok)


def effective_shifts(p: QpProblem, s: Shifts, part: Partition,
                     it: Iterate) -> Shifts:
    """Shifts aligned with the current point: r_i = -z_i on the basic set
    and q_j = -x_j on the nonbasic set.

    A relaxed start can leave basic duals with z_i + r_i < 0 or nonbasic
    primals with x_j + q_j < 0, and roundoff leaves others a few bits off.
    The aligned shifts restore the boundary equalities exactly, which is
    the shift vector under which the per-step objective identities hold.
    """
    return Shifts(np.where(part.nonbasic_mask, -it.x, s.q),
                  np.where(part.basic_mask, -it.z, s.r))
