"""Problem files, batch runs, and performance-profile data.

Problem file grammar (version header "QPT 1"):

    QPT 1
    name <token>              # optional, defaults to the file stem
    dims <n> <m>
    H dense | H coord <nnz>   # omitted block means zero
    A dense | A coord <nnz>
    c <n values>
    lower <n+m values>        # "inf" / "-inf" allowed in bounds
    upper <n+m values>
    end

Each directive appears at most once, and dims before any data.  The
name token may not hold "/" or "\\", since it names the output files.
A dense block is followed by its rows, one line each (n rows for H, m
rows for A).  A coord block is followed by nnz lines "i j value" with
1-based indices; H triplets may name either triangle and are mirrored,
but the same cell given twice with different values is rejected.  Blank
lines and "#" comments are ignored everywhere.

Run logs are CSV records with the columns
``name,n,m,status,objective,strategy,stage1_iters,stage2_iters,subiters,millis``,
quoted as ``csv.writer`` quotes them (a field holding "\\r" is quoted
too), so a name may span lines.  An expectations file (``--expect``)
holds ``name,status`` CSV records with statuses from ``RUN_STATUSES``,
the ones that ``run`` writes; a line whose first non-blank character is
"#" is a comment, and a "#" elsewhere is data.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._blas import one_blas_thread
from .driver import (STRATEGIES, GeneralQp, PdqpSolution, SolveConfig,
                     solve_pdqp)
from .model import DEFAULT_TOL, inf_norm
from .steps import (DUAL_INFEASIBLE, ITERATION_LIMIT, OPTIMAL,
                    PRIMAL_INFEASIBLE, TraceRecord)

RUNLOG_COLUMNS = ("name", "n", "m", "status", "objective", "strategy",
                  "stage1_iters", "stage2_iters", "subiters", "millis")
TERMINAL_STATUSES = {OPTIMAL, PRIMAL_INFEASIBLE, DUAL_INFEASIBLE}
RUN_STATUSES = TERMINAL_STATUSES | {ITERATION_LIMIT, "error"}


class InputError(ValueError):
    """A malformed or unreadable input file, or (``OutputError``) an
    output path that cannot be written: ``path[:line]: message``."""

    def __init__(self, path, line_no, message):
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line_no = line_no


class QptParseError(InputError):
    """A malformed problem file."""


class OutputError(InputError):
    """An output file or directory that cannot be written."""


@contextmanager
def _writing(path):
    """Turn an OSError raised while writing ``path`` into an
    ``OutputError``, which ``main`` reports as a one-line error."""
    try:
        yield
    except OSError as exc:
        raise OutputError(path, None,
                          f"cannot write: {exc.strerror or exc}") from None


def _read_text(path) -> str:
    """The text of ``path`` with its line ends as they are."""
    try:
        with open(path, newline="") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(path, None, f"cannot read: {reason}") from None


def _csv_records(path, comments: bool = False):
    """Each CSV record of ``path`` as (its first line's number, fields).
    Blank lines between records are skipped, and so, under ``comments``,
    are lines whose first non-blank character is "#"."""
    numbered = enumerate(io.StringIO(_read_text(path), newline=""), 1)
    start = None

    def lines():                    # the reader asks for one record's lines
        nonlocal start
        for no, line in numbered:
            if start is None:
                if not line.strip() or comments and line.lstrip()[0] == "#":
                    continue
                start = no
            yield line

    for fields in csv.reader(lines()):
        yield start, fields
        start = None


def _parse_value(tok: str, path, line_no, allow_inf=False) -> float:
    if allow_inf and tok in ("inf", "-inf"):
        return float(tok)
    try:
        v = float(tok)
    except ValueError:
        raise QptParseError(path, line_no, f"bad number {tok!r}") from None
    if not math.isfinite(v):
        raise QptParseError(path, line_no, (
            f"non-finite value {tok!r}: bounds take only 'inf' or '-inf'"
            if allow_inf else
            f"non-finite value {tok!r} outside a bounds line"))
    return v


class _Lines:
    def __init__(self, path: Path):
        self.path = path
        self.rows = [(i + 1, line.split("#", 1)[0].strip())
                     for i, line in enumerate(_read_text(path).splitlines())]
        self.rows = [(no, line) for no, line in self.rows if line]
        self.pos = 0

    def next(self, what: str) -> tuple[int, str]:
        if self.pos >= len(self.rows):
            last = self.rows[-1][0] if self.rows else None
            raise QptParseError(self.path, last, f"unexpected end of file, "
                                                 f"expected {what}")
        row = self.rows[self.pos]
        self.pos += 1
        return row


def _parse_matrix(lines: _Lines, key, args, nrows, ncols, path, no):
    symmetric = key == "H"
    mat = np.zeros((nrows, ncols))
    if args == ["dense"]:
        for i in range(nrows):
            rno, row = lines.next(f"row {i + 1} of a dense block")
            vals = row.split()
            if len(vals) != ncols:
                raise QptParseError(path, rno,
                                    f"expected {ncols} values, got {len(vals)}")
            mat[i] = [_parse_value(t, path, rno) for t in vals]
        if symmetric:
            scale = max(1.0, inf_norm(mat))
            if inf_norm(mat - mat.T) > 1e-12 * scale:
                raise QptParseError(path, no, "dense H block is not symmetric")
        return mat
    if len(args) == 2 and args[0] == "coord":
        try:
            nnz = int(args[1])
        except ValueError:
            nnz = -1
        if nnz < 0:
            raise QptParseError(path, no, f"bad entry count {args[1]!r}")
        seen: dict[tuple[int, int], float] = {}
        for _ in range(nnz):
            rno, row = lines.next("a coordinate triplet")
            vals = row.split()
            if len(vals) != 3:
                raise QptParseError(path, rno,
                                    f"expected 'i j value', got {row!r}")
            try:
                i, j = int(vals[0]) - 1, int(vals[1]) - 1
            except ValueError:
                raise QptParseError(path, rno, "indices must be integers") \
                    from None
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise QptParseError(path, rno,
                                    f"index ({i + 1}, {j + 1}) out of range")
            v = _parse_value(vals[2], path, rno)
            cell = (min(i, j), max(i, j)) if symmetric else (i, j)
            if cell in seen and seen[cell] != v:
                raise QptParseError(path, rno,
                                    f"conflicting duplicate entry at "
                                    f"({i + 1}, {j + 1})")
            seen[cell] = v
            mat[i, j] = v
            if symmetric:
                mat[j, i] = v
        return mat
    raise QptParseError(path, no, f"expected 'dense' or 'coord <nnz>' after "
                                  f"{key}")


def parse_problem(path) -> GeneralQp:
    """Parse a QPT problem file into a GeneralQp."""
    path = Path(path)
    lines = _Lines(path)
    no, header = lines.next("the 'QPT 1' header")
    if header.split() != ["QPT", "1"]:
        raise QptParseError(path, no, f"bad header {header!r}, expected 'QPT 1'")
    got: dict[str, object] = {}     # directive -> its parsed value
    first: dict[str, int] = {}      # directive -> its line
    while True:
        no, line = lines.next("a directive or 'end'")
        key, *args = line.split()
        if key == "end":
            break
        if key in first:
            raise QptParseError(path, no, f"repeated {key!r} directive, "
                                          f"first given at line {first[key]}")
        first[key] = no
        if key == "name":
            if len(args) != 1:
                raise QptParseError(path, no, "name takes one token")
            if "/" in args[0] or "\\" in args[0]:
                raise QptParseError(path, no, f"name {args[0]!r} holds a "
                                              f"path separator")
            got[key] = args[0]
        elif key == "dims":
            try:
                n, m = map(int, args)
            except ValueError:
                raise QptParseError(path, no, "dims takes two integers") \
                    from None
            if n < 1 or m < 0:
                raise QptParseError(path, no, f"bad dimensions n={n}, m={m}")
            got[key] = n, m
        elif "dims" not in got:
            raise QptParseError(path, no, f"'dims' must precede {key!r}")
        elif key in ("H", "A"):
            got[key] = _parse_matrix(lines, key, args, n if key == "H" else m,
                                     n, path, no)
        elif key in ("c", "lower", "upper"):
            want = n if key == "c" else n + m
            if len(args) != want:
                raise QptParseError(path, no,
                                    f"{key} takes {want} values, got {len(args)}")
            got[key] = np.array([_parse_value(t, path, no,
                                              allow_inf=(key != "c"))
                                 for t in args])
        else:
            raise QptParseError(path, no, f"unknown directive {key!r}")
    if "dims" not in got:
        raise QptParseError(path, 1, "missing 'dims' directive")
    if "lower" not in got or "upper" not in got:
        raise QptParseError(path, 1, "missing 'lower' or 'upper' directive")
    n, m = got["dims"]
    return GeneralQp(Hhat=got.get("H", np.zeros((n, n))),
                     Ahat=got.get("A", np.zeros((m, n))),
                     c=got.get("c", np.zeros(n)), lower=got["lower"],
                     upper=got["upper"], name=got.get("name", path.stem))


def _csv_text(rows) -> str:
    """``rows`` as CSV records, each ended by "\\n".  ``csv.writer`` quotes
    a field that holds a character of its line terminator, so each record
    is written with "\\r\\n" and then ended by "\\n" alone: a field holding
    "\\r" is quoted like one holding "\\n"."""
    records = []
    for row in rows:
        text = io.StringIO()
        csv.writer(text, lineterminator="\r\n").writerow(row)
        records.append(text.getvalue()[:-2] + "\n")
    return "".join(records)


def _write_new(path, text: str) -> None:
    """Replace ``path`` with a new file holding ``text``.  Unlinking first
    makes a rerun write new files instead of truncating and rewriting the
    old ones in place."""
    path = Path(path)
    with _writing(path):
        path.unlink(missing_ok=True)
        path.write_text(text)


def emit_problem(g: GeneralQp, path) -> None:
    """Write a GeneralQp as a QPT file that parses back to identical data.
    A name that is not one token free of "#", "/" and "\\" would not
    parse back, and raises ``ValueError`` before anything is written."""
    if g.name.split() != [g.name] or any(ch in g.name for ch in "#/\\"):
        raise ValueError(f"name {g.name!r} does not round-trip through a "
                         f"QPT file")
    out = ["QPT 1", f"name {g.name}", f"dims {g.n} {g.m}"]
    for label, mat, symmetric in (("H", g.Hhat, True), ("A", g.Ahat, False)):
        # Every entry whose bits are not +0.0's, -0.0 included.
        nz = np.nonzero((mat != 0.0) | np.signbit(mat))
        # Parsing mirrors H triplets: they carry only an H that equals its
        # transpose bit for bit.
        coord = mat.shape[0] > 20 and (not symmetric
                                       or mat.tobytes() == mat.T.tobytes())
        if symmetric and coord:
            keep = nz[0] <= nz[1]
            nz = (nz[0][keep], nz[1][keep])
        if len(nz[0]) and not coord:
            out.append(f"{label} dense")
            out.extend(" ".join(map(repr, row)) for row in mat.tolist())
        elif len(nz[0]):
            out.append(f"{label} coord {len(nz[0])}")
            out.extend(f"{i + 1} {j + 1} {float(mat[i, j])!r}"
                       for i, j in zip(*nz))
    out += [f"{key} " + " ".join(map(repr, vec.tolist())) for key, vec
            in (("c", g.c), ("lower", g.lower), ("upper", g.upper))]
    out.append("end")
    _write_new(path, "\n".join(out) + "\n")


@dataclass
class RunRow:
    name: str
    n: int
    m: int
    status: str
    objective: float | None
    strategy: str
    stage1_iters: int
    stage2_iters: int
    subiters: int
    millis: float

    def fields(self) -> list[str]:
        obj = "" if self.objective is None else f"{self.objective:.12g}"
        return [self.name, str(self.n), str(self.m), self.status, obj,
                self.strategy, str(self.stage1_iters), str(self.stage2_iters),
                str(self.subiters), f"{self.millis:.3f}"]


def _solve_one(g: GeneralQp, config: SolveConfig, trace_to=None
               ) -> tuple[RunRow, PdqpSolution]:
    records: list[TraceRecord] = []
    if trace_to is not None:
        config = SolveConfig(**{**config.__dict__, "trace": records.append})
    t0 = time.perf_counter()
    sol = solve_pdqp(g, config)
    millis = (time.perf_counter() - t0) * 1e3
    stage1 = sol.stage_log[0].iterations if sol.stage_log else 0
    stage2 = sol.stage_log[1].iterations if len(sol.stage_log) > 1 else 0
    subs = sum(lg.subiterations for lg in sol.stage_log)
    row = RunRow(name=g.name, n=g.n, m=g.m, status=sol.status,
                 objective=sol.objective if sol.status == OPTIMAL else None,
                 strategy=sol.strategy, stage1_iters=stage1,
                 stage2_iters=stage2, subiters=subs, millis=millis)
    if trace_to is not None:
        header = ("method,iteration,subiteration,kind,l,k,alpha,alpha_star,"
                  "alpha_max,dx_l,dz_l,violation,f_primal,f_dual")
        body = [f"{r.method},{r.iteration},{r.subiteration},{r.kind},"
                f"{d.freed},{'' if st.blocking is None else st.blocking},"
                f"{st.alpha:.9g},{st.alpha_star:.9g},{st.alpha_max:.9g},"
                f"{d.dx_l:.9g},{d.dz_l:.9g},{r.violation:.9g},"
                f"{r.f_primal:.12g},{r.f_dual:.12g}"
                for r in records for st, d in [(r.step, r.direction)]]
        _write_new(trace_to, "\n".join([header] + body) + "\n")
    return row, sol


def _write_solution(sol: PdqpSolution, path: Path) -> None:
    lines = [f"status {sol.status}"]
    if sol.status == OPTIMAL:
        lines.append(f"objective {sol.objective:.12g}")
    lines.append("x " + " ".join(f"{v:.12g}" for v in sol.x))
    lines.append("y " + " ".join(f"{v:.12g}" for v in sol.y))
    lines.append("z " + " ".join(f"{v:.12g}" for v in sol.z))
    _write_new(path, "\n".join(lines) + "\n")


def read_expectations(path) -> dict[str, str]:
    """An expectations file's ``name,status`` CSV records as name -> status,
    each field stripped of surrounding blanks; a status that ``run`` never
    writes, or a name that appears twice, raises ``InputError`` at its
    record."""
    out = {}
    for no, fields in _csv_records(path, comments=True):
        parts = [t.strip() for t in fields]
        if len(parts) != 2 or not all(parts):
            raise InputError(path, no, f"expected 'name,status', got "
                                       f"{','.join(fields).strip()!r}")
        name, status = parts
        if status not in RUN_STATUSES:
            known = ", ".join(sorted(RUN_STATUSES))
            raise InputError(path, no, f"unknown status {status!r}, expected "
                                       f"one of {known}")
        if name in out:
            raise InputError(path, no, f"problem {name!r} appears twice")
        out[name] = status
    return out


def run(paths, out_dir, *, strategy="auto", opt_tol=DEFAULT_TOL,
        fea_tol=DEFAULT_TOL, max_iter=0, trace=False,
        expect=None) -> tuple[list[RunRow], int]:
    """Solve each problem file, write the run log and solution files, and
    return the rows plus the process exit code.  A bad ``expect`` file
    raises ``InputError`` before any solve.  A problem's outputs are named
    after its ``name`` line (the file stem when it has none).  A file that
    cannot be read or solved gets an ``error`` row (n = m = 0 when it did
    not parse) and a message on stderr, and the batch goes on; so does a
    file whose name an earlier file of the batch took, whose outputs it
    leaves in place.  An error row whose name an earlier row holds is
    named ``<name>~k``, with k the smallest integer from 2 up that no
    earlier row holds, so no two rows share a name.  A bad setting
    raises ValueError (``SolveConfig.check``) before any file is touched.
    An output path that cannot be written raises ``OutputError`` and ends
    the batch."""
    config = SolveConfig(opt_tol=opt_tol, fea_tol=fea_tol,
                         max_iterations=max_iter, strategy=strategy)
    config.check()
    expected = read_expectations(expect) if expect else None
    out = Path(out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    rows = []
    taken = set()
    for path in paths:
        path = Path(path)
        g = None
        try:
            g = parse_problem(path)
            if g.name in taken:
                raise ValueError(f"name {g.name!r} is taken by an earlier "
                                 f"file of this batch")
            row, sol = _solve_one(
                g, config, out / f"{g.name}.trace.csv" if trace else None)
        except OutputError:
            raise
        except Exception as exc:     # one bad problem must not end the batch
            name, n, m = (path.stem, 0, 0) if g is None else (g.name, g.n, g.m)
            if name in taken:
                name = next(f"{name}~{k}" for k in itertools.count(2)
                            if f"{name}~{k}" not in taken)
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            row, sol = RunRow(name=name, n=n, m=m, status="error",
                              objective=None, strategy=strategy,
                              stage1_iters=0, stage2_iters=0, subiters=0,
                              millis=0.0), None
        taken.add(row.name)
        if sol is not None:
            _write_solution(sol, out / f"{row.name}.sol")
        else:
            # An earlier run's files would contradict the error row.
            for stale in (out / f"{row.name}.sol",
                          out / f"{row.name}.trace.csv"):
                with _writing(stale):
                    stale.unlink(missing_ok=True)
        rows.append(row)
    _write_new(out / "runlog.csv",
               _csv_text([RUNLOG_COLUMNS] + [r.fields() for r in rows]))
    if expected is None:
        ok = all(row.status in TERMINAL_STATUSES for row in rows)
    else:
        ok = all(expected.get(row.name.strip()) == row.status for row in rows)
    return rows, 0 if ok else 1


def read_runlog(path) -> list[dict]:
    """A run log's rows as column -> text, with its header, the field count
    of each row, the count columns and the uniqueness of names checked."""
    records = _csv_records(path)
    if next(records, None) != (1, list(RUNLOG_COLUMNS)):
        raise InputError(path, 1, "unexpected run-log columns")
    rows = {}
    counts = ("n", "m", "stage1_iters", "stage2_iters", "subiters")
    for no, fields in records:
        row = dict(zip(RUNLOG_COLUMNS, fields))
        if len(fields) != len(RUNLOG_COLUMNS) or not all(
                row[k].isdecimal() for k in counts):
            raise InputError(path, no, f"malformed run-log row "
                                       f"{','.join(fields)!r}")
        if row["name"] in rows:
            raise InputError(path, no,
                             f"problem {row['name']!r} appears twice")
        rows[row["name"]] = row
    return list(rows.values())


def _iteration_metric(row: dict) -> tuple[bool, int]:
    solved = row["status"] in TERMINAL_STATUSES
    total = int(row["stage1_iters"]) + int(row["stage2_iters"])
    return solved, total


def profile(log_a, log_b, out_path) -> dict:
    """Performance-profile data for two run logs over the same problems.

    Emits the cumulative-step breakpoints (tau, fraction) of each
    solver's ratio distribution on total iterations, and the per-problem
    log2 iteration ratios.  Failures take infinite ratio; a failed
    problem's factor is marked instead of numeric.  Each log must name
    each problem once.
    """
    rows_a, rows_b = ({row["name"]: row for row in read_runlog(log)}
                      for log in (log_a, log_b))
    if set(rows_a) != set(rows_b):
        raise InputError(log_b, None, f"run logs cover different problem "
                                      f"sets (compared with {log_a})")
    names = sorted(rows_a)
    ratios = {"a": [], "b": []}
    factors = []
    for name in names:
        ok_a, it_a = _iteration_metric(rows_a[name])
        ok_b, it_b = _iteration_metric(rows_b[name])
        ma = max(it_a, 1)
        mb = max(it_b, 1)
        best = min(ma if ok_a else math.inf, mb if ok_b else math.inf)
        ratios["a"].append(ma / best if ok_a else math.inf)
        ratios["b"].append(mb / best if ok_b else math.inf)
        if not ok_a:
            factors.append((name, "fail_a"))
        elif not ok_b:
            factors.append((name, "fail_b"))
        elif it_a == 0 and it_b == 0:
            factors.append((name, "0"))
        elif it_a == 0:
            factors.append((name, "-inf"))
        elif it_b == 0:
            factors.append((name, "inf"))
        else:
            factors.append((name, f"{math.log2(it_a / it_b):.6g}"))

    total = len(names)

    def steps(rs):
        finite = sorted(set(r for r in rs if math.isfinite(r)))
        return [(tau, sum(1 for r in rs if r <= tau) / total)
                for tau in finite]

    data = {"a": steps(ratios["a"]), "b": steps(ratios["b"]),
            "factors": factors}
    lines = ["# pdqp profile data", "# section: profile_a", "tau,fraction"]
    lines += [f"{tau:.9g},{frac:.9g}" for tau, frac in data["a"]]
    lines += ["# section: profile_b", "tau,fraction"]
    lines += [f"{tau:.9g},{frac:.9g}" for tau, frac in data["b"]]
    lines += ["# section: factors", "name,log2_ratio"]
    _write_new(out_path, "\n".join(lines) + "\n" + _csv_text(factors))
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pdqp",
                                     description="Convex QP solver")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="solve problem files")
    runp.add_argument("paths", nargs="+")
    runp.add_argument("--strategy", default="auto", choices=STRATEGIES)
    runp.add_argument("--opt-tol", type=float, default=DEFAULT_TOL)
    runp.add_argument("--fea-tol", type=float, default=DEFAULT_TOL)
    runp.add_argument("--max-iter", type=int, default=0)
    runp.add_argument("--trace", action="store_true")
    runp.add_argument("--out", default="pdqp-out")
    runp.add_argument("--expect", default=None)

    prof = sub.add_parser("profile", help="profile two run logs")
    prof.add_argument("log_a")
    prof.add_argument("log_b")
    prof.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "run":
        for flag, value in (("--opt-tol", args.opt_tol),
                            ("--fea-tol", args.fea_tol)):
            if not (math.isfinite(value) and value > 0):
                parser.exit(2, f"{parser.prog}: error: {flag} must be "
                               f"finite and positive, got {value!r}\n")
        if args.max_iter < 0:
            parser.exit(2, f"{parser.prog}: error: --max-iter must be "
                           f"0 or more, got {args.max_iter}\n")
    # The CLI owns its process: one BLAS thread makes its outputs the same
    # whatever OPENBLAS_NUM_THREADS says, and its small solves faster.
    try:
        with one_blas_thread():
            if args.command == "profile":
                profile(args.log_a, args.log_b, args.out)
                return 0
            rows, code = run(args.paths, args.out, strategy=args.strategy,
                             opt_tol=args.opt_tol, fea_tol=args.fea_tol,
                             max_iter=args.max_iter, trace=args.trace,
                             expect=args.expect)
    except InputError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    for row in rows:
        print(f"{row.name}: {row.status}"
              + (f" objective {row.objective:.12g}"
                 if row.objective is not None else ""))
    return code


if __name__ == "__main__":
    sys.exit(main())
