"""Exact gate for the singularity verdicts: every singular/nonsingular
decision of the KKT layer, checked in rational arithmetic.

The methods rest on one dichotomy.  Every basis matrix that the
active-set strategy factors is nonsingular, and a freed component is
zero exactly when its counterpart matrix is singular: K over B + l for
dz_l of a base solve, K_B for dx_l of an intermediate one.  The solver
decides both in floating point, with the acceptance rule of
``kkt._bunch_kaufman`` and the noise bands of ``kkt._freed_component``.
On integer data the truth is cheap to prove: every float is a dyadic
rational, and ``reference._solve_exact`` finds whether a matrix is
exactly singular by fraction-free elimination.

``monkeypatch`` wrappers record every ``kkt.factor_kb`` verdict and the
freed component of every ``steps.solve_base_primal`` and
``steps.solve_intermediate_primal`` direction over:

* ``mixed_instances(1, 120)``, standardized, under primal-first and
  dual-first (the ``mixed-bounds`` workload's problems);
* ``mixed085`` of ``mixed_instances(3, 120)`` under dual-first, whose
  solve raises ``KktInternalError`` on a matrix that is exactly
  nonsingular.

Each matrix is checked once per problem and variable set, across both
kinds of verdict.  The rejections of exactly nonsingular matrices are
pinned as ``KNOWN_FALSE_REJECTIONS``: a fix to the acceptance rule shows
as a diff of that set, and a new false rejection fails.
"""

from fractions import Fraction

from pdqp import (KktInternalError, SolveConfig, kkt, solve_standard,
                  standardize, steps)

from conftest import mixed_instances
from reference import _exact, _solve_exact

# (problem, variables of the basis matrix, ascending): the basis matrices
# that the acceptance rule rejects though they are exactly nonsingular.
# mixed085's K_B has dim 28 (17 variables and 11 rows), and its rejection
# ends the dual-first solve with KktInternalError.
KNOWN_FALSE_REJECTIONS = {
    ("seed3/mixed085", (0, 1, 2, 3, 5, 6, 7, 8, 9, 11, 12, 14, 15, 16, 17,
                        18, 19)),
}


def _cases():
    """(name, standard-form problem, strategy) of every solve checked."""
    problems = [(f"seed1/{g.name}", standardize(g).problem)
                for g in mixed_instances(1, 120)]
    for strategy in ("primal-first", "dual-first"):
        for name, p in problems:
            yield name, p, strategy
    g = mixed_instances(3, 120)[85]
    yield "seed3/mixed085", standardize(g).problem, "dual-first"


class _Exact:
    """Exact singularity of the basis matrices of one problem, each
    variable set checked once.  The data turn into Fractions once."""

    def __init__(self, p):
        self.h, self.a = _exact(p.H), _exact(p.A)
        self.neg_m = [[-v for v in row] for row in _exact(p.M)]
        self.singular: dict[tuple[int, ...], bool] = {}

    def is_singular(self, order: tuple[int, ...]) -> bool:
        """Whether K = [[H_oo, A_o'], [A_o, -M]] over ``order`` is exactly
        singular."""
        if order not in self.singular:
            h, a, zero = self.h, self.a, [Fraction(0)]
            rows = [[h[i][j] for j in order] + [ak[i] for ak in a] + zero
                    for i in order]
            rows += [[ak[j] for j in order] + mk + zero
                     for ak, mk in zip(a, self.neg_m)]
            self.singular[order] = _solve_exact(rows) is None
        return self.singular[order]


def test_every_verdict_is_exact(monkeypatch):
    current = {}            # the name of the problem being solved
    factored = set()        # (name, order, accepted)
    freed = set()           # (name, counterpart order, component is zero)
    factor_kb = kkt.factor_kb
    base = steps.solve_base_primal
    intermediate = steps.solve_intermediate_primal

    def recorded_factor(p, order):
        f = factor_kb(p, order)
        factored.add((current["name"], tuple(sorted(map(int, order))),
                      f is not None))
        return f

    def recorded_base(p, part, basis, l):
        basic = part.basic_mask.nonzero()[0].tolist()
        d = base(p, part, basis, l)
        freed.add((current["name"], tuple(sorted(basic + [l])),
                   d.dz_l == 0.0))
        return d

    def recorded_intermediate(p, part, l, basis):
        basic = part.basic_mask.nonzero()[0].tolist()
        d = intermediate(p, part, l, basis)
        freed.add((current["name"], tuple(basic), d.dx_l == 0.0))
        return d

    monkeypatch.setattr(kkt, "factor_kb", recorded_factor)
    monkeypatch.setattr(steps, "solve_base_primal", recorded_base)
    monkeypatch.setattr(steps, "solve_intermediate_primal",
                        recorded_intermediate)
    exact = {}
    raised = set()
    for name, p, strategy in _cases():
        current["name"] = name
        exact.setdefault(name, p)
        try:
            solve_standard(p, SolveConfig(strategy=strategy))
        except KktInternalError:
            raised.add((name, strategy))
    monkeypatch.undo()

    checks = {name: _Exact(p) for name, p in exact.items()}
    accepted_singular = sorted(
        (name, order) for name, order, ok in factored
        if ok and checks[name].is_singular(order))
    false_rejections = {
        (name, order) for name, order, ok in factored
        if not ok and not checks[name].is_singular(order)}
    wrong_freed = sorted(
        (name, order, zero) for name, order, zero in freed
        if zero != checks[name].is_singular(order))

    assert not accepted_singular
    assert false_rejections == KNOWN_FALSE_REJECTIONS
    assert not wrong_freed
    assert raised == {("seed3/mixed085", "dual-first")}
    # Both kinds of verdict and both outcomes of each are exercised.
    zeros = sum(zero for *_, zero in freed)
    assert len(factored) > 700 and zeros > 300 and len(freed) - zeros > 600
