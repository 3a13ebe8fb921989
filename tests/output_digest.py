"""One SHA-256 digest over the solver's observable outputs, for checking
that a refactor changes none of them.

    PYTHONPATH=src python tests/output_digest.py
    PYTHONPATH=/path/to/other/checkout/src python tests/output_digest.py

The digest covers whichever ``pdqp`` the path puts first; run it against
two trees and compare the lines.  ``--per-solve`` also prints one
``<label> <sha256>`` line per solve, ahead of the summary, so that
``diff`` of two trees' output names the first solve that differs:

    PYTHONPATH=src python tests/output_digest.py --per-solve > a.txt

``--outcomes`` prints one line per solve, ahead of the summary, with
what a change that moves only floating-point bits should leave alone:
the status, strategy, per-stage (method, status, iterations,
subiterations), the objective to 12 significant digits and the
(kind, l, k) pivot path of the trace records, or the exception with
each float literal of its message printed as ``<float>`` (integers
stay), so that a failed point's residuals in the message do not count.
``diff`` of two trees' lines then names the solves whose outcome moved:

    PYTHONPATH=src python tests/output_digest.py --outcomes > a.txt

Each set of solves (below) then ends with a ``<set> outcomes <sha256>``
line, the hash of that set's outcome lines (each with its newline), so
that two trees' outcomes can be compared by five hashes: ``main``,
``update-path``, ``free-start``, ``large-x`` and ``scaled``.

``--oracle`` prints, in place of all the above, one line per problem
with what ``enumerate_solve`` returns at zero shifts (status, objective
to 12 significant digits, witness, and the primal and dual feasibility
flags), or the exception it raised, and ends each set with a
``<set> oracle <sha256>`` line over that set's lines:

    PYTHONPATH=src python tests/output_digest.py --oracle > a.txt

Its two sets are ``suite500``, the benchmark workload's instances
(``random_instances(20260810, 500)``), and ``mixed-bounds``, the
workload's 120 ``mixed_instance`` problems (rng seed 1) standardized.
A ``mixed-bounds`` problem past the workload's oracle cut-off
(``workloads.ORACLE_MAX_N``, ``workloads.ORACLE_MAX_LIVE``) gets a
``skipped`` line.

``--problems`` prints, in place of all the above, one line per problem
construction with what ``QpProblem`` stored: the SHA-256 of H, M, A, b
and c (dtype, shape and bytes of each), the sorted free and fixed sets,
``h_rank`` and whether all five arrays are read-only, or the exception
that the construction raised.  Each set ends with a
``<set> problems <sha256>`` line over its lines:

    PYTHONPATH=src python tests/output_digest.py --problems > a.txt

``--hashes`` runs the four modes (the digests, ``--outcomes``,
``--oracle`` and ``--problems``) in one process and prints only their
17 per-set hash lines, in that order, so that two trees compare with one
``diff``:

    PYTHONPATH=src python tests/output_digest.py --hashes > a.txt

Its five sets are ``suite500``, every construction that
``random_instances(20260810, 500)`` makes (1455, all of which load: the
draw builds none of the shapes that the rank rule rejects);
``mixed-bounds``, ``ladder`` and ``lowrank``, the workloads' general-format
problems standardized; and ``malformed``, hand-made inputs that reach
every ``ProblemError`` of ``QpProblem`` and ``GeneralQp`` (the rank
rule's by ``qp-rank-deficient``), next to valid inputs of the same kinds.

The digest depends on the host (its BLAS and CPU), so compare two trees
on one host.  Each solve contributes its status, objective, strategy,
each stage's method, status, iteration and subiteration counts, its
``f_primal``, ``f_dual`` and ``q_dot_r``, the final iterate and 23
values of every trace record, or the type and message of the exception
it raised.  A record's values are, in order: ``method``,
``iteration``, ``subiteration``, ``kind``, the freed index ``l``, the
blocking index ``k``, ``alpha``, ``alpha_star``, ``alpha_max``,
``dx_l``, ``dz_l``, ``violation``, ``f_primal_before``, ``f_primal``,
``f_dual_before`` and ``f_dual``, then the direction's ``dx``, ``dy``,
``dz``, ``freed``, ``dx_l``, ``dz_l`` and ``basic``.  That is the
order of the fields of a record that copied seven values of its step
and direction, so the digests also compare a tree whose records did.
The instances are:

- ``random_instances(20260810, 300)`` (standard form) under the five
  strategies, with ``check_invariants``;
- 150 ``bench/workloads.mixed_instance`` general-format problems (rng
  seed 7) under the five strategies;
- the 18 distinct ``lowrank`` constructions of seed bases 0 and 1 at the
  bench's ``max_iterations`` (the two bases share six).

None of these holds a basis matrix of dim ``kkt.UPDATE_MIN_DIM`` or
more, so none reaches the Schur-complement update path.  A second digest,
``update-path``, covers solves that do: the ``pd300`` trajectory pin's
instance (n=300) from its 240-column start basis under primal-first and
under auto, primal-first and dual-first, and the ``ladder`` rungs with
n >= 250 under the same three strategies.  A third, ``free-start``,
covers start bases that leave a free index nonbasic, so that the first
stage has a live temporary bound: ``conftest.free_start_cases(7, 100)``
under auto, primal-first and dual-first, with ``check_invariants``.  A
fourth, ``large-x``, covers solutions with max|x| far above 1e4:
``conftest.large_x_instance`` at seeds 0-49, ranks 0-3 and scales 1e5
and 1e6, under auto, primal-first and dual-first.  A fifth, ``scaled``,
covers badly scaled data: ``conftest.scale_probe`` at seeds 0-29 in four
families (``SCALED``: H and c at 1e12, H and c at 1e-12, all data at
1e12, all data at 2e-10), under auto, primal-first and dual-first.

Not collected by pytest (the file name has no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "bench"))

import pdqp  # noqa: E402
from conftest import (criterion7_instance, free_start_cases,  # noqa: E402
                      large_x_instance, mixed_instances, random_instances,
                      scale_probe)
from test_trajectories import PD_CASE  # noqa: E402
from workloads import (ORACLE_MAX_LIVE, ORACLE_MAX_N, Ladder,  # noqa: E402
                       LowRank, constructed_qp, digest, mixed_instance)

STRATEGIES = ("auto", "primal-first", "dual-first", "primal-only",
              "dual-only")
# The ``scaled`` families: (label, objective scale, row scale).
SCALED = (("hc1e12", 1e12, 1.0), ("hc1e-12", 1e-12, 1.0),
          ("all1e12", 1e12, 1e12), ("all2e-10", 2e-10, 2e-10))
# A float literal of an exception message: digits with a point or an
# exponent, not inside a name or a dotted word ("p1.qpt").
FLOAT = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))"
                   r"(?:[eE][-+]?\d+)?(?![\w.])")
# A per-set hash line of any mode; its next-to-last word names the mode.
HASH_LINE = re.compile(r"^(?:\S+ )?(?:digest|outcomes|oracle|problems) "
                       r"[0-9a-f]{64}$", re.MULTILINE)


class Digest:
    def __init__(self, name: str, per_solve: bool = False,
                 outcomes: bool = False):
        self.name = name
        self.h = hashlib.sha256()
        self.outcome_h = hashlib.sha256()   # over the set's outcome lines
        self.per_solve = per_solve
        self.outcomes = outcomes
        self.one = None               # the current solve's own hash
        self.path: list[tuple] = []   # the current solve's (kind, l, k)
        self.solves = 0
        self.errors: dict[str, int] = {}

    def add(self, value) -> None:
        if isinstance(value, np.ndarray):
            a = np.ascontiguousarray(value)
            data = f"{a.dtype}{a.shape}".encode() + a.tobytes()
        elif isinstance(value, float):
            data = np.float64(value).tobytes()
        else:
            data = repr(value).encode()
        for h in (self.h, self.one):
            if h is not None:
                h.update(data + b"|")

    def record(self, rec) -> None:
        step, d = rec.step, rec.direction
        self.path.append((rec.kind[0], d.freed, step.blocking))
        for value in (rec.method, rec.iteration, rec.subiteration, rec.kind,
                      d.freed, step.blocking, step.alpha, step.alpha_star,
                      step.alpha_max, d.dx_l, d.dz_l, rec.violation,
                      rec.f_primal_before, rec.f_primal, rec.f_dual_before,
                      rec.f_dual, d.dx, d.dy, d.dz, d.freed, d.dx_l, d.dz_l,
                      d.basic):
            self.add(value)

    def solve(self, label: str, solve, config: pdqp.SolveConfig) -> None:
        self.one = hashlib.sha256() if self.per_solve else None
        self.path = []
        outcome = self._solve(label, solve, config)
        if self.one is not None:
            print(f"{label} {self.one.hexdigest()}")
        if self.outcomes:
            line = f"{label} {outcome}\n"
            self.outcome_h.update(line.encode())
            print(line, end="")

    def end(self) -> None:
        """Close the set: print its outcome hash under ``--outcomes``."""
        if self.outcomes:
            print(f"{self.name} outcomes {self.outcome_h.hexdigest()}")

    def _solve(self, label: str, solve, config: pdqp.SolveConfig) -> str:
        """Add the solve to the digests; return its ``--outcomes`` line."""
        self.solves += 1
        self.add(label)
        config.trace = self.record
        try:
            sol = solve(config)
        except Exception as exc:     # the failure itself is an output
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            self.add(name)
            self.add(str(exc))
            return f"raised {name}: {FLOAT.sub('<float>', str(exc))}"
        std = sol if isinstance(sol, pdqp.StandardSolution) else sol.standardized
        self.add(sol.status)
        self.add(sol.objective)
        self.add(sol.strategy)
        for lg in sol.stage_log:
            self.add((lg.method, lg.status, lg.iterations, lg.subiterations))
            for value in (lg.f_primal, lg.f_dual, lg.q_dot_r):
                self.add(value)
        if std is not None:
            for v in (std.iterate.x, std.iterate.y, std.iterate.z):
                self.add(v)
        stages = [(lg.method, lg.status, lg.iterations, lg.subiterations)
                  for lg in sol.stage_log]
        return (f"{sol.status} {sol.strategy} {stages} "
                f"{sol.objective:.12g} {self.path}")


def oracle_line(p: pdqp.QpProblem) -> str:
    """What ``enumerate_solve`` returns for ``p`` at zero shifts."""
    try:
        sol = pdqp.enumerate_solve(p, pdqp.Shifts.zero(p.n))
    except Exception as exc:     # the failure itself is an output
        return f"raised {type(exc).__name__}: {exc}"
    objective = "None" if sol.objective is None else f"{sol.objective:.12g}"
    return (f"{sol.status} {objective} {sol.witness} "
            f"primal_feasible={sol.primal_feasible} "
            f"dual_feasible={sol.dual_feasible}")


def oracle_digests() -> None:
    """Print the ``--oracle`` lines and their two set hashes."""
    suite = [(f"suite{i}", p)
             for i, p in enumerate(random_instances(20260810, 500))]
    mixed = [(g.name, pdqp.standardize(g).problem)
             for g in mixed_instances(1, 120)]
    for name, problems in (("suite500", suite), ("mixed-bounds", mixed)):
        h = hashlib.sha256()
        for label, p in problems:
            small = p is not None and p.n <= ORACLE_MAX_N \
                and p.n - len(p.fixed) <= ORACLE_MAX_LIVE
            line = f"{label} {oracle_line(p) if small else 'skipped'}\n"
            h.update(line.encode())
            print(line, end="")
        print(f"{name} oracle {h.hexdigest()}")
    print(f"pdqp from {Path(pdqp.__file__).parent}")


def stored(p) -> str:
    """What a built ``QpProblem`` holds, or "no problem" for None (a
    standardized problem found inconsistent)."""
    if p is None:
        return "no problem"
    arrays = (p.H, p.M, p.A, p.b, p.c)
    readonly = not any(a.flags.writeable for a in arrays)
    return (f"{digest(*arrays)} free={sorted(p.free)} "
            f"fixed={sorted(p.fixed)} h_rank={p.h_rank} "
            f"readonly={readonly}")


def problem_line(build) -> str:
    """``stored`` of what ``build()`` returns, or the exception it
    raised."""
    try:
        return stored(build())
    except Exception as exc:     # the failure itself is an output
        return f"raised {type(exc).__name__}: {exc}"


def draw_lines(draw) -> list[str]:
    """One line per ``QpProblem`` construction that ``draw()`` makes, in
    order: ``stored`` of the problem, or the exception it raised."""
    qp = pdqp.model.QpProblem
    original = qp.__post_init__
    lines = []

    def record(p):
        try:
            original(p)
        except Exception as exc:
            lines.append(f"raised {type(exc).__name__}: {exc}")
            raise
        lines.append(stored(p))

    qp.__post_init__ = record
    try:
        draw()
    finally:
        qp.__post_init__ = original
    return [f"draw{i} {line}" for i, line in enumerate(lines)]


def malformed_cases():
    """(label, build) pairs: one input per ``ProblemError`` raise site of
    ``QpProblem`` and ``GeneralQp``, and valid inputs beside them."""
    inf, nan = np.inf, np.nan

    def qp(**kw):
        data = dict(H=np.eye(2), M=np.zeros((1, 1)), A=[[1.0, 1.0]],
                    b=[1.0], c=[0.0, 1.0])
        return lambda: pdqp.QpProblem(**(data | kw))

    def general(**kw):
        data = dict(Hhat=np.eye(2), Ahat=[[1.0, 1.0]], c=[0.0, 1.0],
                    lower=[0.0, 0.0, 1.0], upper=[inf, inf, 1.0])
        return lambda: pdqp.standardize(pdqp.GeneralQp(**(data | kw))).problem

    two = dict(A=np.eye(2), b=[1.0, 1.0])
    return [
        ("qp", qp()),
        ("qp-b-scalar", qp(b=1.0)),
        ("qp-free-fixed", qp(free=frozenset([0]), fixed=frozenset([1]))),
        ("qp-M-mu", qp(M=[[1e-2]])),
        ("qp-H-nan", qp(H=[[nan, 0.0], [0.0, 1.0]])),
        ("qp-M-inf", qp(M=[[inf]])),
        ("qp-A-inf", qp(A=[[1.0, inf]])),
        ("qp-b-nan", qp(b=[nan])),
        ("qp-c-inf", qp(c=[0.0, -inf])),
        ("qp-b-2d", qp(b=[[1.0]])),
        ("qp-c-2d", qp(c=[[0.0], [1.0]])),
        ("qp-H-shape", qp(H=np.eye(3))),
        ("qp-M-shape", qp(M=np.zeros((2, 2)))),
        ("qp-A-shape", qp(A=[[1.0, 1.0, 1.0]])),
        ("qp-A-empty", qp(A=[])),
        ("qp-A-vector", qp(A=[1.0, 1.0])),
        ("qp-H-string", qp(H=[["a", 0.0], [0.0, 1.0]])),
        ("qp-H-ragged", qp(H=[[1.0, 0.0], [1.0]])),
        ("qp-b-string", qp(b=["x"])),
        ("qp-H-numeric-string", qp(H=[["2", "0"], ["0", "1"]])),
        ("qp-M-bool", qp(M=[[False]])),
        ("qp-A-bool", qp(A=[[True, True]])),
        ("qp-b-numeric-string", qp(b=["1.5"])),
        ("qp-c-bytes", qp(c=[b"0", b"3"])),
        ("qp-H-asymmetric", qp(H=[[1.0, 0.5], [0.0, 1.0]])),
        ("qp-H-near-symmetric", qp(H=[[1.0, 0.5], [0.5 + 1e-14, 1.0]])),
        ("qp-M-asymmetric", qp(M=[[1.0, 0.5], [0.0, 1.0]], **two)),
        ("qp-H-indefinite", qp(H=[[1.0, 2.0], [2.0, 1.0]])),
        ("qp-H-indefinite-zero-diagonal", qp(H=[[0.0, 1.0], [1.0, 0.0]])),
        ("qp-M-indefinite", qp(M=[[-1.0]])),
        ("qp-free-list", qp(free=[0])),
        ("qp-fixed-array", qp(fixed=np.array([1]))),
        ("qp-free-float", qp(free=frozenset([0.0]))),
        ("qp-free-bool", qp(free=frozenset([True]))),
        ("qp-fixed-scalar", qp(fixed=1)),
        ("qp-index-range", qp(free=frozenset([5]))),
        ("qp-index-negative", qp(fixed=frozenset([-1]))),
        ("qp-free-and-fixed", qp(free=frozenset([0]), fixed=frozenset([0]))),
        ("qp-rank-deficient", qp(A=[[1.0, 1.0], [2.0, 2.0]], b=[1.0, 2.0],
                                 M=np.zeros((2, 2)))),
        ("qp-rank-fixed", qp(fixed=frozenset([0, 1]))),
        ("general", general()),
        ("general-inconsistent", general(Ahat=[[0.0, 0.0]])),
        ("general-Hhat-inf", general(Hhat=[[inf, 0.0], [0.0, 1.0]])),
        ("general-Ahat-inf", general(Ahat=[[1.0, inf]])),
        ("general-Ahat-nan", general(Ahat=[[1.0, nan]])),
        ("general-Ahat-inf-inequality", general(Ahat=[[1.0, inf]],
                                                lower=[0.0, 0.0, -inf])),
        ("general-Ahat-inf-boxed", general(Ahat=[[1.0, inf]],
                                           lower=[0.0, 0.0, 0.0])),
        ("general-c-nan", general(c=[nan, 1.0])),
        ("general-c-2d", general(c=[[0.0], [1.0]])),
        ("general-Hhat-shape", general(Hhat=np.eye(3))),
        ("general-Ahat-shape", general(Ahat=[[1.0, 1.0, 1.0]])),
        ("general-Ahat-string", general(Ahat=[["q", 1.0]])),
        ("general-Ahat-bool", general(Ahat=[[True, True]])),
        ("general-lower-numeric-string", general(lower=["0", "0", "1"])),
        ("general-Ahat-empty", general(Ahat=[], lower=[0.0, 0.0],
                                       upper=[inf, inf])),
        ("general-Hhat-indefinite", general(Hhat=[[1.0, 2.0], [2.0, 1.0]])),
        ("general-bounds-length", general(lower=[0.0, 0.0])),
        ("general-lower-2d", general(lower=[[0.0, 0.0, 1.0]])),
        ("general-upper-2d", general(upper=[[inf, inf, 1.0]])),
        ("general-bounds-nan", general(lower=[nan, 0.0, 1.0])),
        ("general-bounds-wrong-side", general(lower=[inf, 0.0, 1.0])),
        ("general-bounds-inconsistent", general(lower=[2.0, 0.0, 1.0],
                                                upper=[1.0, inf, 1.0])),
    ]


def problem_digests() -> None:
    """Print the ``--problems`` lines and their five set hashes."""
    def standardized(gs):
        return [f"{g.name} {problem_line(lambda: pdqp.standardize(g).problem)}"
                for g in gs]

    root = Path(".")
    sets = {
        "suite500": draw_lines(lambda: random_instances(20260810, 500)),
        "mixed-bounds": standardized(mixed_instances(1, 120)),
        "ladder": standardized(constructed_qp(*spec)[0]
                               for spec in Ladder(root).specs(None)),
        "lowrank": standardized(constructed_qp(*spec)[0]
                                for spec in LowRank(root).specs(None)),
        "malformed": [f"{label} {problem_line(build)}"
                      for label, build in malformed_cases()],
    }
    for name, lines in sets.items():
        h = hashlib.sha256()
        for line in lines:
            h.update(f"{line}\n".encode())
            print(line)
        print(f"{name} problems {h.hexdigest()}")
    print(f"pdqp from {Path(pdqp.__file__).parent}")


def hash_lines() -> None:
    """Print the ``--hashes`` lines: the per-set hash lines of the four
    modes, run in this process with their other lines held back."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        solve_digests(per_solve=False, outcomes=True)
        oracle_digests()
        problem_digests()
    lines = HASH_LINE.findall(out.getvalue())
    for kind in ("digest", "outcomes", "oracle", "problems"):
        for line in lines:
            if line.split()[-2] == kind:
                print(line)


def solve_digests(per_solve: bool, outcomes: bool) -> None:
    """Run the five sets of solves and print their digests, with the
    per-solve and outcome lines that the flags ask for."""
    d = Digest("main", per_solve=per_solve, outcomes=outcomes)
    for i, p in enumerate(random_instances(20260810, 300)):
        for s in STRATEGIES:
            d.solve(f"random{i}/{s}", lambda c: pdqp.solve_standard(p, c),
                    pdqp.SolveConfig(strategy=s, check_invariants=True))
    rng = np.random.default_rng(7)
    for i in range(150):
        g = mixed_instance(rng, f"mixed{i:03d}")
        for s in STRATEGIES:
            d.solve(f"{g.name}/{s}", lambda c: pdqp.solve_pdqp(g, c),
                    pdqp.SolveConfig(strategy=s))
    lowrank = LowRank(Path("."))
    seen = set()                  # the two seed bases share six specs
    for base in (0, 1):
        for spec in lowrank.specs(base):
            g = constructed_qp(*spec)[0]
            if g.name in seen:
                continue
            seen.add(g.name)
            d.solve(g.name, lambda c: pdqp.solve_pdqp(g, c),
                    pdqp.SolveConfig(max_iterations=lowrank.max_iterations))
    d.end()
    u = Digest("update-path", per_solve=d.per_solve, outcomes=d.outcomes)
    g = criterion7_instance(*PD_CASE)[0]
    u.solve(f"{g.name}/basis240-primal-first",
            lambda c: pdqp.solve_pdqp(g, c),
            pdqp.SolveConfig(strategy="primal-first",
                             initial_basis=list(range(240))))
    ladder = [constructed_qp(*spec)[0]
              for spec in Ladder(Path(".")).specs(None) if spec[0] >= 250]
    for g in [g] + ladder:
        for s in STRATEGIES[:3]:
            u.solve(f"{g.name}/{s}", lambda c: pdqp.solve_pdqp(g, c),
                    pdqp.SolveConfig(strategy=s))
    u.end()
    f = Digest("free-start", per_solve=d.per_solve, outcomes=d.outcomes)
    for label, p, basis in free_start_cases(7, 100):
        for s in STRATEGIES[:3]:
            f.solve(f"{label}/{s}", lambda c: pdqp.solve_standard(p, c),
                    pdqp.SolveConfig(strategy=s, initial_basis=basis,
                                     check_invariants=True))
    f.end()
    x = Digest("large-x", per_solve=d.per_solve, outcomes=d.outcomes)
    for seed in range(50):
        for rank in range(4):
            for scale in (1e5, 1e6):
                g = large_x_instance(seed, rank, scale)[0]
                for s in STRATEGIES[:3]:
                    x.solve(f"{g.name}/{s}", lambda c: pdqp.solve_pdqp(g, c),
                            pdqp.SolveConfig(strategy=s))
    x.end()
    sc = Digest("scaled", per_solve=d.per_solve, outcomes=d.outcomes)
    for family, objective_scale, row_scale in SCALED:
        for seed in range(30):
            for s in STRATEGIES[:3]:
                sc.solve(f"{family}/seed{seed}/{s}",
                         lambda c: pdqp.solve_standard(
                             scale_probe(seed, objective_scale, row_scale), c),
                         pdqp.SolveConfig(strategy=s))
    sc.end()
    print(f"pdqp from {Path(pdqp.__file__).parent}")
    print(f"solves {d.solves}, raised {dict(sorted(d.errors.items()))}")
    print(f"digest {d.h.hexdigest()}")
    print(f"update-path solves {u.solves}, "
          f"raised {dict(sorted(u.errors.items()))}")
    print(f"update-path digest {u.h.hexdigest()}")
    print(f"free-start solves {f.solves}, "
          f"raised {dict(sorted(f.errors.items()))}")
    print(f"free-start digest {f.h.hexdigest()}")
    print(f"large-x solves {x.solves}, "
          f"raised {dict(sorted(x.errors.items()))}")
    print(f"large-x digest {x.h.hexdigest()}")
    print(f"scaled solves {sc.solves}, "
          f"raised {dict(sorted(sc.errors.items()))}")
    print(f"scaled digest {sc.h.hexdigest()}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--per-solve", action="store_true",
                    help="also print one hash per solve")
    ap.add_argument("--outcomes", action="store_true",
                    help="also print one outcome line per solve")
    ap.add_argument("--oracle", action="store_true",
                    help="print the oracle's answers instead")
    ap.add_argument("--problems", action="store_true",
                    help="print what each problem construction stored "
                         "instead")
    ap.add_argument("--hashes", action="store_true",
                    help="print only the per-set hash lines of all four "
                         "modes instead")
    args = ap.parse_args()
    if args.hashes:
        hash_lines()
    elif args.oracle:
        oracle_digests()
    elif args.problems:
        problem_digests()
    else:
        solve_digests(args.per_solve, args.outcomes)


if __name__ == "__main__":
    main()
