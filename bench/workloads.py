"""The four benchmark workloads: instance generators, timed solve calls and
the independent references each answer is checked against.

Every workload is a fixed, seeded instance set, so iteration counts and
failure counts repeat exactly from run to run; the run's ``--seed`` only
sets the order in which a pass visits the instances.  Solve calls go
through the package namespaces at call time (``pdqp.solve_standard``,
``cli.run``) so that the traced run's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pdqp
from pdqp import cli

TERMINAL = ("optimal", "primal_infeasible", "dual_infeasible")
OBJ_RTOL = 1e-7      # criterion 1's objective tolerance
X_RTOL = 1e-6
FEAS_TOL = 1e-6


@dataclass
class Outcome:
    """What one solve returned, as the user sees it."""

    status: str
    objective: float | None
    iterations: int
    subiterations: int
    x: np.ndarray | None = None


def digest(*parts) -> str:
    """SHA-256 over arrays (dtype, shape and bytes) and strings."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _objective_ok(got, want) -> bool:
    return got is not None and abs(got - want) <= OBJ_RTOL * (1.0 + abs(want))


def _accepted(ref) -> tuple:
    # When both feasible sets are empty either infeasibility status is a
    # valid certificate; the oracle itself always names primal first.
    if ref["status"] != "optimal" and not (ref["primal_feasible"]
                                           or ref["dual_feasible"]):
        return ("primal_infeasible", "dual_infeasible")
    return (ref["status"],)


def _oracle(problem) -> dict:
    sol = pdqp.enumerate_solve(problem, pdqp.Shifts.zero(problem.n))
    return {"status": sol.status, "objective": sol.objective,
            "primal_feasible": bool(sol.primal_feasible),
            "dual_feasible": bool(sol.dual_feasible)}


class Workload:
    name = ""
    seed = 0
    cached_references = False
    # Seconds of --seconds that one pass stands for: a run makes
    # ceil(seconds / pass_seconds) passes, a count that does not depend on
    # how fast the run goes.  Set so that a 10 s run times each instance
    # of suite500 six times and of mixed-bounds and lowrank twice, seconds
    # apart; ladder's 30 s pass runs once.
    pass_seconds = 1.0
    # Scale solve timings by the host-speed probe (hostspeed.py).  Only
    # where the workload's solve times follow the probe; set-up time is
    # always scaled.
    scale_solve_times = True

    def __init__(self, root: Path):
        self.root = root

    def build(self, seed: int | None = None):
        """Generate the instance set; returns (cases, digest)."""
        raise NotImplementedError

    def references(self, cases) -> list:
        """One JSON-serialisable reference per case (may be expensive)."""
        raise NotImplementedError

    def solve(self, case) -> Outcome:
        raise NotImplementedError

    def wrong(self, cases, refs, outcomes) -> list:
        """Per case: None when the answer checks out, else a reason.
        ``outcomes`` holds an Outcome, or None for a failed solve."""
        raise NotImplementedError

    def input_size(self) -> str:
        raise NotImplementedError

    def probe(self, seed: int) -> str:
        """Digest of the generator's output at ``seed`` (a small draw where
        the full set is slow to generate)."""
        return self.build(seed)[1]

    def case_label(self, case) -> str:
        return ""


# --------------------------------------------------------------------------
# suite500: the acceptance suite, n <= 8 standard form, all three statuses.

class Suite500(Workload):
    name = "suite500"
    pass_seconds = 1.7
    seed = 20260810
    count = 500
    cached_references = True

    def build(self, seed=None, count=None):
        from conftest import random_instances
        probs = random_instances(self.seed if seed is None else seed,
                                 count or self.count)
        cases = [(p.H, p.M, p.A, p.b, p.c) for p in probs]
        return cases, digest(*(a for case in cases for a in case))

    def references(self, cases):
        return [_oracle(pdqp.QpProblem(H=H, M=M, A=A, b=b, c=c))
                for H, M, A, b, c in cases]

    def solve(self, case):
        H, M, A, b, c = case
        # Construction is timed: users pay for validation on every solve.
        p = pdqp.QpProblem(H=H, M=M, A=A, b=b, c=c)
        sol = pdqp.solve_standard(p)
        return Outcome(sol.status, sol.objective, sol.iterations,
                       sol.subiterations)

    def wrong(self, cases, refs, outcomes):
        out = []
        for ref, got in zip(refs, outcomes):
            if got is None:
                out.append(None)
            elif got.status not in _accepted(ref):
                out.append(f"status {got.status} != {ref['status']}")
            elif got.status == "optimal" and not _objective_ok(
                    got.objective, ref["objective"]):
                out.append("objective off the oracle's")
            else:
                out.append(None)
        return out

    def probe(self, seed):
        return self.build(seed, 20)[1]

    def input_size(self):
        return (f"{self.count} standard-form QPs from random_instances"
                f"(seed={self.seed}), n 2-8, m 1-3")


# --------------------------------------------------------------------------
# ladder and lowrank: large problems with a constructed optimum.

def constructed_qp(n: int, m: int, active: int, seed: int,
                   rank: int | None = None):
    """The criterion-7 construction: x* >= 0 with ``active`` zeros, duals
    chosen so x* is optimal, rows pinned at A x*.  ``rank`` None gives a
    tridiagonal positive definite H; an integer gives H = G'G/n of that
    rank (0 is an LP).  Returns (GeneralQp, x*, f*)."""
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
    ystar = rng.normal(size=m)
    c = -(H @ xstar) + A.T @ ystar + zstar
    rows = A @ xstar
    g = pdqp.GeneralQp(Hhat=H, Ahat=A, c=c,
                       lower=np.concatenate([np.zeros(n), rows]),
                       upper=np.concatenate([np.full(n, np.inf), rows]),
                       name=f"n{n}m{m}a{active}s{seed}")
    return g, xstar, float(0.5 * xstar @ H @ xstar + c @ xstar)


class _Constructed(Workload):
    unique_x = False

    def specs(self, seed):
        raise NotImplementedError

    def build(self, seed=None):
        cases = [constructed_qp(*spec) for spec in self.specs(seed)]
        return cases, digest(*(a for g, _, _ in cases
                               for a in (g.Hhat, g.Ahat, g.c, g.lower,
                                         g.upper)))

    def references(self, cases):
        return [None] * len(cases)   # the construction is the reference

    def solve(self, case):
        g, _, _ = case
        sol = pdqp.solve_pdqp(g, self.config())
        return Outcome(sol.status, sol.objective,
                       sum(lg.iterations for lg in sol.stage_log),
                       sum(lg.subiterations for lg in sol.stage_log), sol.x)

    def config(self):
        return pdqp.SolveConfig()

    def wrong(self, cases, refs, outcomes):
        out = []
        for (g, xstar, fstar), got in zip(cases, outcomes):
            if got is None:
                out.append(None)
                continue
            n = g.n
            rows = g.lower[n:]
            x = got.x
            if got.status != "optimal":
                out.append(f"status {got.status}, constructed optimal")
            elif not _objective_ok(got.objective, fstar):
                out.append("objective off the constructed optimum")
            elif (float(np.min(x)) < -FEAS_TOL or float(np.max(np.abs(
                    g.Ahat @ x - rows))) > FEAS_TOL * (1 + np.max(np.abs(rows)))):
                out.append("returned x infeasible")
            elif self.unique_x and float(np.max(np.abs(x - xstar))) > \
                    X_RTOL * (1.0 + float(np.max(xstar))):
                out.append("x off the unique constructed optimum")
            else:
                out.append(None)
        return out


class Ladder(_Constructed):
    name = "ladder"
    pass_seconds = 30.0
    # Large dense numpy work: over ten runs its solve times moved with the
    # host far less than the probe's (pass times 29-36 s while the probe
    # median ran 5.5-10 ms), so scaling tripled their spread (0.08 -> 0.30).
    scale_solve_times = False
    seed = 500
    rungs = ((100, 10, 10), (250, 20, 10), (500, 20, 10), (1000, 20, 10),
             (500, 20, 100))
    unique_x = True   # H is positive definite

    def specs(self, seed):
        s = self.seed if seed is None else seed
        return [(n, m, a, s) for n, m, a in self.rungs]

    def input_size(self):
        return ("criterion-7 QPs (tridiagonal PD H, dense A/sqrt(n), "
                f"seed {self.seed}), n x m / active = "
                + ", ".join(f"{n}x{m}/{a}" for n, m, a in self.rungs))


class LowRank(_Constructed):
    name = "lowrank"
    pass_seconds = 5.0
    n, m = 150, 15
    ranks = (0, 4, 8, 12, 16, 20)
    seeds_per_rank = 2
    # The largest count of a completing instance is 359 (one stage).
    max_iterations = 500

    def specs(self, seed):
        base = self.seed if seed is None else seed
        return [(self.n, self.m, self.n // 10, base + 1000 * r + k, r)
                for r in self.ranks for k in range(self.seeds_per_rank)]

    def config(self):
        # A cycling instance stops at the cap and counts as a failure.
        return pdqp.SolveConfig(max_iterations=self.max_iterations)

    def input_size(self):
        return (f"H = G'G/n of rank {self.ranks}, {self.seeds_per_rank} "
                f"seeds per rank, n={self.n}, m={self.m}, "
                f"{self.n // 10} active bounds, max_iterations="
                f"{self.max_iterations} per stage")


# --------------------------------------------------------------------------
# mixed-bounds: small integer general-format problems through the CLI.

STRATEGIES = ("auto", "primal-first", "dual-first")
BOUND_KINDS = ("lower", "upper", "box", "free", "fixed")
# The oracle accepts n <= 16 and enumerates 2^(non-fixed columns) bases;
# past 12 such columns one instance can take close to a minute.
ORACLE_MAX_N = 16
ORACLE_MAX_LIVE = 12


def mixed_instance(rng, name: str):
    """n 6-16, m 2-8, integer data, H = G'G of rank 0..n-1, every bound
    kind; bounds sit around an integer point, so the problem is primal
    feasible (and may be unbounded below)."""
    n = int(rng.integers(6, 17))
    m = int(rng.integers(2, 9))
    k = int(rng.integers(0, n))
    G = rng.integers(-2, 3, size=(k, n)).astype(float)
    H = G.T @ G
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    c = rng.integers(-5, 6, size=n).astype(float)
    x0 = rng.integers(-3, 4, size=n).astype(float)
    v = np.concatenate([x0, A @ x0])
    kinds = rng.choice(BOUND_KINDS, size=n + m)
    lo = np.full(n + m, -np.inf)
    up = np.full(n + m, np.inf)
    for j, kind in enumerate(kinds):
        near = float(rng.integers(0, 3))
        far = float(rng.integers(1, 4))
        if kind == "lower":
            lo[j] = v[j] - near
        elif kind == "upper":
            up[j] = v[j] + near
        elif kind == "box":
            lo[j], up[j] = v[j] - near, v[j] + far
        elif kind == "fixed":
            lo[j] = up[j] = v[j]
    return pdqp.GeneralQp(Hhat=H, Ahat=A, c=c, lower=lo, upper=up, name=name)


class MixedBounds(Workload):
    name = "mixed-bounds"
    pass_seconds = 5.0
    seed = 1
    count = 120
    cached_references = True

    def __init__(self, root: Path):
        super().__init__(root)
        self.qpt_dir = root / ".bench_out" / "mixed" / "qpt"
        self.out_dir = root / ".bench_out" / "mixed" / "run"

    def build(self, seed=None, count=None):
        rng = np.random.default_rng(self.seed if seed is None else seed)
        self.qpt_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for i in range(count or self.count):
            g = mixed_instance(rng, f"mixed{i:03d}")
            path = self.qpt_dir / f"{g.name}.qpt"
            cli.emit_problem(g, path)
            paths.append(path)
        text = "".join(p.read_text() for p in paths)
        cases = [(path, s) for path in paths for s in STRATEGIES]
        return cases, digest(text)

    def references(self, cases):
        refs = []
        for path, strategy in cases:
            if strategy != STRATEGIES[0]:
                refs.append(refs[-1])
                continue
            std = pdqp.standardize(cli.parse_problem(path))
            p = std.problem
            small = p is not None and p.n <= ORACLE_MAX_N \
                and p.n - len(p.fixed) <= ORACLE_MAX_LIVE
            ref = _oracle(p) if small else None
            if ref is not None and ref["objective"] is not None:
                ref["objective"] += std.objective_offset
            refs.append(ref)
        return refs

    def solve(self, case):
        path, strategy = case
        rows, _ = cli.run([path], self.out_dir, strategy=strategy)
        row = rows[0]
        return Outcome(row.status, row.objective,
                       row.stage1_iters + row.stage2_iters, row.subiters)

    def wrong(self, cases, refs, outcomes):
        """Strategies must agree with each other and with the oracle where
        it ran, and every optimum must pass check_optimality at zero
        shifts on the standardized problem."""
        out = [None] * len(cases)
        k = len(STRATEGIES)
        for start in range(0, len(cases), k):
            group = range(start, start + k)
            answered = [i for i in group if outcomes[i] is not None
                        and outcomes[i].status in TERMINAL]
            ref = refs[start]
            for i in answered:
                got = outcomes[i]
                if ref is not None and got.status not in _accepted(ref):
                    out[i] = f"status {got.status} != oracle {ref['status']}"
                elif ref is not None and got.status == "optimal" and \
                        not _objective_ok(got.objective, ref["objective"]):
                    out[i] = "objective off the oracle's"
            first = outcomes[answered[0]] if answered else None
            for i in answered[1:]:
                got = outcomes[i]
                if got.status != first.status or (
                        got.status == "optimal"
                        and not _objective_ok(got.objective, first.objective)):
                    for j in answered:
                        out[j] = out[j] or "strategies disagree"
        return out

    def check_optimality(self, cases, outcomes) -> list:
        """Re-solve each optimal answer in-process and test the KKT
        conditions on the standardized problem; the in-process status and
        objective must match the CLI's."""
        out = [None] * len(cases)
        for i, ((path, strategy), got) in enumerate(zip(cases, outcomes)):
            if not isinstance(got, Outcome) or got.status != "optimal":
                continue
            g = cli.parse_problem(path)
            sol = pdqp.solve_pdqp(g, pdqp.SolveConfig(strategy=strategy))
            std = sol.standardized
            if sol.status != got.status or not _objective_ok(
                    got.objective, sol.objective):
                out[i] = "CLI and in-process solves differ"
            elif std is None or not pdqp.check_optimality(
                    pdqp.standardize(g).problem,
                    pdqp.Shifts.zero(std.iterate.x.size),
                    std.iterate).optimal:
                out[i] = "optimum fails check_optimality"
        return out

    def probe(self, seed):
        return self.build(seed, 5)[1]

    def case_label(self, case):
        return case[1]

    def input_size(self):
        return (f"{self.count} general-format QPs (seed {self.seed}), n 6-16, "
                "m 2-8, integer data, bound kinds "
                + "/".join(BOUND_KINDS) + ", each solved by cli.run under "
                + ", ".join(STRATEGIES))


WORKLOADS = {w.name: w for w in (Suite500, Ladder, LowRank, MixedBounds)}


def _cache_path(workload, case_digest: str, cache_dir: Path) -> Path:
    # Keyed by the instances, the solver sources the oracle runs and the
    # code here that turns its answers into references.
    src = sorted(Path(pdqp.__file__).parent.glob("*.py")) + [Path(__file__)]
    key = digest(case_digest, *(p.read_text() for p in src))
    return cache_dir / f"{workload.name}-{key[:24]}.json"


def load_references(workload, cases, case_digest: str, cache_dir: Path):
    """Cheap references, or the cached oracle ones; None on a cache miss."""
    if not workload.cached_references:
        return workload.references(cases)
    path = _cache_path(workload, case_digest, cache_dir)
    return json.loads(path.read_text()) if path.exists() else None


def compute_references(workload, cases, case_digest: str, cache_dir: Path):
    refs = workload.references(cases)
    if workload.cached_references:
        path = _cache_path(workload, case_digest, cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(refs))
        tmp.replace(path)
    return refs
