import csv
import dataclasses
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdqp import (KktInternalError, Shifts, cli, driver, enumerate_solve,
                  one_blas_thread, standardize)
from pdqp.cli import (InputError, QptParseError, emit_problem, main,
                      parse_problem, profile, read_runlog, run)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
CORPUS = sorted(PROBLEMS.glob("*.qpt"))
HEADER = ("name,n,m,status,objective,strategy,stage1_iters,stage2_iters,"
          "subiters,millis")


def test_corpus_is_thirteen_problems():
    assert len(CORPUS) == 13


def test_parse_p1_fixture():
    g = parse_problem(PROBLEMS / "p1.qpt")
    assert g.n == 2 and g.m == 1
    assert_allclose(g.Hhat, np.eye(2))
    assert g.name == "p1"


def test_parse_inf_bounds():
    g = parse_problem(PROBLEMS / "flipped.qpt")
    assert g.lower[0] == -math.inf
    assert g.upper[1] == math.inf


def test_roundtrip_all_fixtures(tmp_path):
    for path in CORPUS:
        g = parse_problem(path)
        out = tmp_path / path.name
        emit_problem(g, out)
        h = parse_problem(out)
        for a, b in [(g.Hhat, h.Hhat), (g.Ahat, h.Ahat), (g.c, h.c),
                     (g.lower, h.lower), (g.upper, h.upper)]:
            assert np.array_equal(a, b)
        assert g.name == h.name


@pytest.mark.parametrize("name", ["x#y", "a b", "", "a/b", "a\\b", "x\ry",
                                  " lead"])
def test_name_that_cannot_round_trip_is_not_written(tmp_path, name):
    # "x#y" would parse back as "x"; the others would be rejected.
    g = dataclasses.replace(parse_problem(PROBLEMS / "p1.qpt"), name=name)
    out = tmp_path / "p.qpt"
    with pytest.raises(ValueError, match="does not round-trip"):
        emit_problem(g, out)
    assert not out.exists()


def test_nearly_symmetric_dense_h_past_the_coord_size_round_trips(tmp_path):
    # A dense H within the parser's symmetry tolerance but not exactly
    # symmetric, at n > 20 where an exactly symmetric H is written in
    # coord form: the file must carry both triangles.
    n = 25
    rng = np.random.default_rng(7)
    root = rng.standard_normal((n, n))
    h = root @ root.T
    h[3, 1] += 1e-13 * np.abs(h).max()
    assert not np.array_equal(h, h.T)
    g = driver.GeneralQp(Hhat=h, Ahat=np.ones((1, n)),
                         c=rng.standard_normal(n), lower=np.zeros(n + 1),
                         upper=np.concatenate([np.full(n, np.inf), [1.0]]),
                         name="near")
    out = tmp_path / "near.qpt"
    emit_problem(g, out)
    back = parse_problem(out)
    assert back.Hhat.tobytes() == h.tobytes()
    emit_problem(back, tmp_path / "again.qpt")
    assert (tmp_path / "again.qpt").read_bytes() == out.read_bytes()


@pytest.mark.parametrize("block", ["A", "H mirrored", "H one triangle"])
def test_signed_zeros_round_trip_bit_for_bit(tmp_path, block):
    # Past 20 rows a block is written in coord form, which must list a
    # -0.0 as it lists any other entry.  An H whose -0.0 has a +0.0 for
    # its mirror is symmetric by value but not bit for bit, so it is
    # written dense: coord triplets would set both triangles alike.
    n, m = (3, 22) if block == "A" else (22, 1)
    h, a = np.eye(n), np.ones((m, n))
    if block == "A":
        a[5, 1] = -0.0
    else:
        h[5, 1] = -0.0
        h[1, 5] = -0.0 if block == "H mirrored" else 0.0
    g = driver.GeneralQp(Hhat=h, Ahat=a, c=np.zeros(n),
                         lower=np.zeros(n + m),
                         upper=np.concatenate([np.full(n, np.inf),
                                               np.zeros(m)]),
                         name="signed")
    out = tmp_path / "signed.qpt"
    emit_problem(g, out)
    layout = "dense" if block == "H one triangle" else "coord"
    assert f"\n{block[0]} {layout}" in out.read_text()
    back = parse_problem(out)
    assert back.Hhat.tobytes() == h.tobytes()
    assert back.Ahat.tobytes() == a.tobytes()
    emit_problem(back, tmp_path / "again.qpt")
    assert (tmp_path / "again.qpt").read_bytes() == out.read_bytes()


@pytest.mark.parametrize("token,value", [("+1.5e-3", 1.5e-3), ("-0.0", -0.0),
                                         ("1_000", 1000.0)])
def test_a_value_is_any_finite_float_token(tmp_path, token, value):
    path = tmp_path / "tok.qpt"
    path.write_text(f"QPT 1\ndims 1 0\nH dense\n{token}\nc {token}\n"
                    f"lower {token}\nupper inf\nend\n")
    g = parse_problem(path)
    for got in (g.Hhat[0, 0], g.c[0], g.lower[0]):
        assert np.float64(got).tobytes() == np.float64(value).tobytes()


def test_coord_format_roundtrip(tmp_path):
    path = tmp_path / "coord.qpt"
    path.write_text("QPT 1\ndims 3 1\nH coord 2\n1 1 2.5\n1 3 -1.0\n"
                    "A coord 1\n1 2 1.0\nc 0 0 0\n"
                    "lower 0 0 0 1\nupper inf inf inf 1\nend\n")
    g = parse_problem(path)
    assert g.Hhat[0, 0] == 2.5
    assert g.Hhat[0, 2] == -1.0 and g.Hhat[2, 0] == -1.0
    assert g.Ahat[0, 1] == 1.0


def test_malformed_triplet_names_line(tmp_path):
    path = tmp_path / "bad.qpt"
    path.write_text("QPT 1\ndims 2 1\nH coord 1\n1 oops 2.0\n"
                    "c 0 0\nlower 0 0 0\nupper 1 1 1\nend\n")
    with pytest.raises(QptParseError, match=r"bad\.qpt:4"):
        parse_problem(path)


def test_conflicting_duplicate_triplet(tmp_path):
    path = tmp_path / "dup.qpt"
    path.write_text("QPT 1\ndims 2 1\nH coord 2\n1 2 1.0\n2 1 3.0\n"
                    "c 0 0\nlower 0 0 0\nupper 1 1 1\nend\n")
    with pytest.raises(QptParseError, match="conflicting duplicate"):
        parse_problem(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "hdr.qpt"
    path.write_text("QPX 9\nend\n")
    with pytest.raises(QptParseError, match="bad header"):
        parse_problem(path)


def test_asymmetric_dense_h_rejected(tmp_path):
    path = tmp_path / "asym.qpt"
    path.write_text("QPT 1\ndims 2 1\nH dense\n1 1\n0 1\nA dense\n1 1\n"
                    "c 0 0\nlower 0 0 1\nupper inf inf 1\nend\n")
    with pytest.raises(QptParseError, match="not symmetric"):
        parse_problem(path)


# One valid problem, then edits of it: (old, new) replaces a line's text.
GOOD = ("QPT 1\ndims 2 1\nH dense\n1 0\n0 1\nA dense\n1 1\nc 0 0\n"
        "lower 0 0 1\nupper inf inf 1\nend\n")


@pytest.mark.parametrize("edit,line,message", [
    (("c 0 0", "c 0 oops"), 8, "bad number 'oops'"),
    (("c 0 0", "c 0 nan"), 8,
     "non-finite value 'nan' outside a bounds line"),
    (("end\n", "# no end\n"), 10,
     "unexpected end of file, expected a directive or 'end'"),
    (("1 0\n", "1\n"), 4, "expected 2 values, got 1"),
    (("H dense\n1 0\n0 1", "H coord x"), 3, "bad entry count 'x'"),
    (("H dense\n1 0\n0 1", "H coord 1\n1 1"), 4,
     "expected 'i j value', got '1 1'"),
    (("H dense\n1 0\n0 1", "H coord 1\n3 1 1.0"), 4,
     "index (3, 1) out of range"),
    (("H dense", "H sparse"), 3,
     "expected 'dense' or 'coord <nnz>' after H"),
    (("dims 2 1", "name a b\ndims 2 1"), 2, "name takes one token"),
    (("dims 2 1", "dims 2"), 2, "dims takes two integers"),
    (("dims 2 1", "dims 2 one"), 2, "dims takes two integers"),
    (("dims 2 1", "dims 0 1"), 2, "bad dimensions n=0, m=1"),
    (("dims 2 1\n", "c 0 0\ndims 2 1\n"), 2, "'dims' must precede 'c'"),
    (("c 0 0", "c 0 0 0"), 8, "c takes 2 values, got 3"),
    (("c 0 0", "cost 0 0"), 8, "unknown directive 'cost'"),
    (("QPT 1\n", "QPT 1\nend\n"), 1, "missing 'dims' directive"),
    (("upper inf inf 1\n", ""), 1, "missing 'lower' or 'upper' directive"),
    ((GOOD, ""), None,
     "unexpected end of file, expected the 'QPT 1' header"),
    ((GOOD, "# only a comment\n\n"), None,
     "unexpected end of file, expected the 'QPT 1' header"),
    (("H dense\n1 0\n0 1", "H coord -3"), 3, "bad entry count '-3'"),
    (("c 0 0\n", "c -1 0\nc 1 0\n"), 9,
     "repeated 'c' directive, first given at line 8"),
    (("A dense", "H coord 0\nA dense"), 6,
     "repeated 'H' directive, first given at line 3"),
    (("dims 2 1", "name a\nname b\ndims 2 1"), 3,
     "repeated 'name' directive, first given at line 2"),
    (("c 0 0", "dims 3 1\nc 0 0"), 8,
     "repeated 'dims' directive, first given at line 2"),
    (("dims 2 1", "name ../victim\ndims 2 1"), 2,
     "name '../victim' holds a path separator"),
    (("dims 2 1", "name a\\b\ndims 2 1"), 2,
     "name 'a\\\\b' holds a path separator"),
], ids=["bad_number", "nan_value", "no_end", "short_dense_row",
        "bad_nnz", "short_triplet", "index_range", "block_kind",
        "name_tokens", "dims_count", "dims_integer", "dims_range",
        "dims_late", "vector_length", "unknown", "no_dims", "no_upper",
        "empty", "comment_only", "negative_nnz", "repeated_c", "repeated_h",
        "repeated_name", "dims_after_block", "name_slash",
        "name_backslash"])
def test_malformed_file_names_path_line_and_message(tmp_path, edit, line,
                                                     message):
    old, new = edit
    assert GOOD.count(old) == 1
    path = tmp_path / "bad.qpt"
    path.write_text(GOOD.replace(old, new))
    with pytest.raises(QptParseError) as exc:
        parse_problem(path)
    where = path if line is None else f"{path}:{line}"
    assert str(exc.value) == f"{where}: {message}"


@pytest.mark.parametrize("key,token", [("upper", "+inf"), ("lower", "nan"),
                                       ("upper", "Infinity")])
def test_non_finite_bounds_token_names_the_allowed_ones(tmp_path, key,
                                                         token):
    path = tmp_path / "tok.qpt"
    bounds = {"lower": "0", "upper": "1", key: token}
    path.write_text(f"QPT 1\ndims 1 0\nc 0\nlower {bounds['lower']}\n"
                    f"upper {bounds['upper']}\nend\n")
    line = 4 if key == "lower" else 5
    with pytest.raises(QptParseError, match=(
            rf"tok\.qpt:{line}: non-finite value '{re.escape(token)}': "
            r"bounds take only 'inf' or '-inf'$")):
        parse_problem(path)


def test_wrong_side_infinite_bound_gets_error_row(tmp_path, capsys):
    path = tmp_path / "wrongside.qpt"
    path.write_text("QPT 1\ndims 2 0\nH dense\n1 0\n0 1\nc 1 1\n"
                    "lower inf 0\nupper inf inf\nend\n")
    rows, code = run([path, PROBLEMS / "p1.qpt"], tmp_path / "out")
    assert [(r.name, r.status) for r in rows] == [("wrongside", "error"),
                                                  ("p1", "optimal")]
    assert code == 1
    assert ("wrongside: ProblemError: infinite bound on the wrong side at "
            "component 0") in capsys.readouterr().err


def test_unreadable_problem_file_gets_error_row(tmp_path, capsys):
    missing = tmp_path / "missing.qpt"
    folder = tmp_path / "folder.qpt"
    folder.mkdir()
    latin = tmp_path / "latin.qpt"
    latin.write_bytes(b"QPT 1\nname caf\xe9\n")
    for path in (missing, folder, latin):
        with pytest.raises(InputError,
                           match=f"^{re.escape(str(path))}: cannot read: "):
            parse_problem(path)
    rows, code = run([missing, folder, latin, PROBLEMS / "p1.qpt"],
                     tmp_path / "out")
    assert [(r.name, r.status) for r in rows] == [
        ("missing", "error"), ("folder", "error"), ("latin", "error"),
        ("p1", "optimal")]
    assert code == 1
    err = capsys.readouterr().err
    for name in ("missing", "folder", "latin"):
        assert f"{name}: InputError: " in err


def test_run_corpus_matches_expectations(tmp_path):
    rows, code = run(CORPUS, tmp_path, expect=PROBLEMS / "expectations.csv")
    assert code == 0
    assert len(rows) == 13
    log = read_runlog(tmp_path / "runlog.csv")
    assert len(log) == 13
    assert (tmp_path / "p1.sol").exists()


def test_run_exit_code_on_unexpected_status(tmp_path):
    expect = tmp_path / "expect.csv"
    expect.write_text("p1,primal_infeasible\n")
    rows, code = run([PROBLEMS / "p1.qpt"], tmp_path / "out", expect=expect)
    assert code == 1


def test_run_primal_only_on_dual_infeasible_start(tmp_path):
    rows, code = run([PROBLEMS / "lpcorner.qpt"], tmp_path,
                     strategy="primal-only")
    assert code == 0
    assert rows[0].status == "optimal"
    assert rows[0].objective == pytest.approx(-1.0)


def test_run_records_error_status(tmp_path, capsys, monkeypatch):
    # primal-only needs a primal-feasible initial basis; p2's is not.
    rows, code = run([PROBLEMS / "p2.qpt"], tmp_path, strategy="primal-only")
    assert rows[0].status == "error"
    assert code == 1
    # An internal error (injected here into the first basis discovery) is
    # recorded too, and the batch goes on; so are a malformed file and one
    # with inconsistent bounds, which never reach the solver.
    find_soc_basis = driver.find_soc_basis
    discoveries = []

    def failing_once(p, basis):
        discoveries.append(p)
        if len(discoveries) == 1:
            raise KktInternalError("injected")
        return find_soc_basis(p, basis)

    monkeypatch.setattr(driver, "find_soc_basis", failing_once)
    bad = PROBLEMS / "klsingular.qpt"
    malformed = tmp_path / "malformed.qpt"
    malformed.write_text("QPT 2\n")
    crossed = tmp_path / "crossed.qpt"
    crossed.write_text("QPT 1\ndims 1 0\nlower 2\nupper 1\nend\n")
    out = tmp_path / "batch"
    rows, code = run([bad, malformed, crossed, PROBLEMS / "p1.qpt"], out,
                     strategy="dual-first")
    assert [(r.name, r.n, r.m, r.status) for r in rows] == [
        ("klsingular", 4, 1, "error"), ("malformed", 0, 0, "error"),
        ("crossed", 0, 0, "error"), ("p1", 2, 1, "optimal")]
    assert len(read_runlog(out / "runlog.csv")) == 4
    assert sorted(p.name for p in out.glob("*.sol")) == ["p1.sol"]
    assert code == 1
    err = capsys.readouterr().err
    assert "klsingular: KktInternalError: " in err
    assert "malformed: QptParseError: " in err
    assert "crossed: ProblemError: inconsistent bounds" in err


def test_error_row_removes_earlier_outputs(tmp_path):
    # A rerun that ends in an error row leaves no .sol or trace file from
    # the earlier run to contradict the run log.
    path = tmp_path / "p1.qpt"
    text = (PROBLEMS / "p1.qpt").read_text()
    path.write_text(text)
    out = tmp_path / "out"
    rows, _ = run([path], out, trace=True)
    assert rows[0].status == "optimal"
    assert (out / "p1.sol").exists() and (out / "p1.trace.csv").exists()
    path.write_text(text.replace("lower 0 0 1", "lower 2 0 1")
                    .replace("upper inf inf 1", "upper 1 inf 1"))
    rows, code = run([path], out, trace=True)
    assert [(r.name, r.status) for r in rows] == [("p1", "error")]
    assert code == 1
    assert sorted(p.name for p in out.iterdir()) == ["runlog.csv"]


@pytest.mark.parametrize("setting, message", [
    ({"strategy": "primal_first"}, "unknown strategy 'primal_first'"),
    ({"max_iter": -1}, "max_iterations must be an integer >= 0, got -1"),
    ({"opt_tol": math.nan}, "tolerances must be positive and finite"),
    ({"fea_tol": 0.0}, "tolerances must be positive and finite"),
], ids=["strategy", "max-iter", "opt-tol", "fea-tol"])
def test_bad_setting_raises_before_any_file_is_touched(tmp_path, setting,
                                                       message):
    # A setting that no solve accepts solves nothing, so it must neither
    # remove an earlier run's outputs nor create the output directory.
    paths = [PROBLEMS / "p1.qpt", PROBLEMS / "p2.qpt"]
    out = tmp_path / "out"
    run(paths, out, trace=True)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["p1.sol", "p1.trace.csv", "p2.sol",
                              "p2.trace.csv", "runlog.csv"]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(paths, out, trace=True, **setting)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(paths, tmp_path / "fresh", **setting)
    assert not (tmp_path / "fresh").exists()


def test_rerun_replaces_longer_outputs_exactly(tmp_path):
    # A rerun into the same directory whose .sol, trace and run log are
    # shorter than the earlier run's leaves exactly the new bytes.
    long_p = tmp_path / "long.qpt"
    long_p.write_text((PROBLEMS / "rand5.qpt").read_text()
                      .replace("name rand5", "name same"))
    short_p = tmp_path / "short.qpt"
    short_p.write_text((PROBLEMS / "p1.qpt").read_text()
                       .replace("name p1", "name same"))
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    run([long_p, PROBLEMS / "p2.qpt"], out, trace=True)
    run([short_p], out, trace=True)
    run([short_p], fresh, trace=True)
    for name in ("same.sol", "same.trace.csv"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes()
    strip = lambda path: [line.rsplit(",", 1)[0]
                          for line in path.read_text().splitlines()]
    assert strip(out / "runlog.csv") == strip(fresh / "runlog.csv")


def test_run_max_iter_limit(tmp_path):
    rows, code = run([PROBLEMS / "rand5.qpt"], tmp_path, max_iter=1)
    assert rows[0].status == "iteration_limit"
    assert code == 1


def test_runlog_determinism(tmp_path):
    _, _ = run(CORPUS, tmp_path / "a")
    _, _ = run(CORPUS, tmp_path / "b")
    strip = lambda text: [",".join(line.split(",")[:-1])
                          for line in text.splitlines()]
    a = strip((tmp_path / "a" / "runlog.csv").read_text())
    b = strip((tmp_path / "b" / "runlog.csv").read_text())
    assert a == b


def test_trace_files_written(tmp_path):
    run([PROBLEMS / "p2.qpt"], tmp_path, trace=True)
    trace = (tmp_path / "p2.trace.csv").read_text().splitlines()
    assert trace[0].startswith("method,iteration")
    assert len(trace) > 1


def test_outputs_named_after_name_line(tmp_path):
    path = tmp_path / "p2.qpt"
    path.write_text((PROBLEMS / "p2.qpt").read_text()
                    .replace("name p2", "name other"))
    out = tmp_path / "out"
    rows, code = run([path], out, trace=True)
    assert [(r.name, r.status) for r in rows] == [("other", "optimal")]
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "other.sol", "other.trace.csv", "runlog.csv"]
    # A solve that ends in an error row (primal-only needs a primal-
    # feasible initial basis; p2's is not) removes them again.
    rows, _ = run([path], out, trace=True, strategy="primal-only")
    assert [(r.name, r.status) for r in rows] == [("other", "error")]
    assert sorted(p.name for p in out.iterdir()) == ["runlog.csv"]


def test_reused_name_gets_error_row(tmp_path, capsys):
    # The second file claims the first one's name; it must not overwrite
    # the first file's outputs, nor remove them.
    second = tmp_path / "second.qpt"
    second.write_text((PROBLEMS / "p2.qpt").read_text()
                      .replace("name p2", "name p1"))
    out = tmp_path / "out"
    rows, code = run([PROBLEMS / "p1.qpt", second], out, trace=True)
    assert [(r.name, r.status) for r in rows] == [("p1", "optimal"),
                                                  ("p1~2", "error")]
    assert code == 1
    assert "p1~2: ValueError: name 'p1' is taken" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "p1.sol", "p1.trace.csv", "runlog.csv"]
    alone = tmp_path / "alone"
    run([PROBLEMS / "p1.qpt"], alone, trace=True)
    for name in ("p1.sol", "p1.trace.csv"):
        assert (out / name).read_text() == (alone / name).read_text()
    assert read_runlog(out / "runlog.csv")[1]["status"] == "error"


def test_error_rows_of_a_taken_name_are_numbered(tmp_path):
    # Two copies of one file, a file named like the second copy's row and
    # an unreadable file with the same stem: every row keeps its own name,
    # and the log is one that profile accepts.
    paths = []
    for d in "abc":
        (tmp_path / d).mkdir()
        paths.append(tmp_path / d / "boxed.qpt")
        paths[-1].write_text((PROBLEMS / "boxed.qpt").read_text())
    paths[2].write_text(paths[2].read_text().replace("name boxed",
                                                     "name boxed~3"))
    paths += [tmp_path / "d" / "boxed.qpt", paths[0]]   # d/ does not exist
    out = tmp_path / "out"
    rows, _ = run(paths, out)
    assert [(r.name, r.status) for r in rows] == [
        ("boxed", "optimal"), ("boxed~2", "error"), ("boxed~3", "optimal"),
        ("boxed~4", "error"), ("boxed~5", "error")]
    log = out / "runlog.csv"
    assert main(["profile", str(log), str(log), "--out",
                 str(tmp_path / "prof.txt")]) == 0


def test_run_writes_nothing_outside_out(tmp_path):
    # A name with a path separator would put the outputs (or, for an error
    # row, the removal of earlier ones) outside --out; a comma in a name or
    # file stem must survive the run log's round trip.
    work = tmp_path / "work"
    work.mkdir()
    victim = work / "victim.sol"
    victim.write_text("status optimal\n")
    p1, p2 = ((PROBLEMS / f"{k}.qpt").read_text() for k in ("p1", "p2"))
    files = {"victim.qpt": p2.replace("name p2", "name ../victim"),
             "evil.qpt": p1.replace("name p1", "name ../evil"),
             "comma.qpt": p1.replace("name p1", "name a,b"),
             "c,d.qpt": p1.replace("name p1\n", "")}
    paths = [work / f for f in files]
    for path, text in zip(paths, files.values()):
        path.write_text(text)
    out = work / "out"
    run(paths, out, strategy="primal-only")
    assert victim.read_text() == "status optimal\n"
    assert [p for p in tmp_path.rglob("*.sol")
            if out not in p.parents] == [victim]
    log = out / "runlog.csv"
    assert [(r["name"], r["status"]) for r in read_runlog(log)] == [
        ("victim", "error"), ("evil", "error"), ("a,b", "optimal"),
        ("c,d", "optimal")]
    profile(log, log, tmp_path / "prof.txt")


def test_profile_worked_example(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(HEADER + "\np1,2,1,optimal,1,auto,2,0,2,1\n"
                          "p2,2,1,optimal,1,auto,8,0,8,1\n")
    b.write_text(HEADER + "\np1,2,1,optimal,1,auto,4,0,4,1\n"
                          "p2,2,1,optimal,1,auto,4,0,4,1\n")
    data = profile(a, b, tmp_path / "prof.txt")
    assert data["a"] == [(1.0, 0.5), (2.0, 1.0)]
    assert data["b"] == [(1.0, 0.5), (2.0, 1.0)]
    assert data["factors"] == [("p1", "-1"), ("p2", "1")]


def test_profile_identical_logs(tmp_path):
    a = tmp_path / "a.csv"
    a.write_text(HEADER + "\np1,2,1,optimal,1,auto,3,1,4,1\n")
    data = profile(a, a, tmp_path / "prof.txt")
    assert data["a"] == [(1.0, 1.0)]
    assert data["factors"] == [("p1", "0")]


def test_profile_failure_convention(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(HEADER + "\np1,2,1,iteration_limit,,auto,9,0,9,1\n")
    b.write_text(HEADER + "\np1,2,1,optimal,1,auto,3,0,3,1\n")
    data = profile(a, b, tmp_path / "prof.txt")
    assert data["a"] == []          # failed run never appears
    assert data["b"] == [(1.0, 1.0)]
    assert data["factors"] == [("p1", "fail_a")]


def test_profile_factor_of_a_failed_or_iterationless_b(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(HEADER + "\nfb,2,1,optimal,1,auto,3,0,3,1\n"
                          "ninf,2,1,optimal,1,auto,0,0,0,1\n"
                          "pinf,2,1,optimal,1,auto,4,0,4,1\n")
    b.write_text(HEADER + "\nfb,2,1,error,,auto,0,0,0,0\n"
                          "ninf,2,1,optimal,1,auto,2,0,2,1\n"
                          "pinf,2,1,optimal,1,auto,0,0,0,1\n")
    profile(a, b, tmp_path / "prof.txt")
    factors = (tmp_path / "prof.txt").read_text().split("name,log2_ratio\n")
    assert factors[1] == "fb,fail_b\nninf,-inf\npinf,inf\n"


def test_names_round_trip_through_run_log_and_expectations(tmp_path):
    # Names holding what CSV quotes, a "#", a newline and surrounding
    # blanks, from file stems and from a name line ("#" there starts a
    # comment).
    p1 = (PROBLEMS / "p1.qpt").read_text()
    stem = p1.replace("name p1\n", "")
    files = {"a,b.qpt": stem, 'q"q.qpt': stem, "a#b.qpt": stem,
             "x\ny.qpt": stem, " sp .qpt": stem,
             "named.qpt": p1.replace("name p1", 'name c,"d')}
    names = ["a,b", 'q"q', "a#b", "x\ny", " sp ", 'c,"d']
    work = tmp_path / "in"
    work.mkdir()
    paths = [work / f for f in files]
    for path, text in zip(paths, files.values()):
        path.write_text(text)
    out = tmp_path / "out"
    assert run(paths, out)[1] == 0
    log = out / "runlog.csv"
    assert [r["name"] for r in read_runlog(log)] == names
    profile(log, log, tmp_path / "prof.txt")
    expect = tmp_path / "expect.csv"
    with open(expect, "w", newline="") as f:
        f.write("# every problem of the batch\n")
        csv.writer(f).writerows([name, "optimal"] for name in names)
    assert main(["run", *map(str, paths), "--out", str(out),
                 "--expect", str(expect)]) == 0


def _profile_factors(path):
    """The factors section of a profile file, read back as CSV records."""
    with open(path, newline="") as f:
        section = f.read().split("name,log2_ratio\n")[1]
    return list(csv.reader(io.StringIO(section, newline="")))


def test_a_name_holding_a_carriage_return_round_trips(tmp_path):
    # Without quoting, the reader would end the run-log row at the "\r".
    stem = (PROBLEMS / "p1.qpt").read_text().replace("name p1\n", "")
    path = tmp_path / "x\ry.qpt"
    path.write_text(stem)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    log = out / "runlog.csv"
    assert log.read_bytes().split(b"\n")[1].startswith(b'"x\ry",2,1,')
    assert [r["name"] for r in read_runlog(log)] == ["x\ry"]
    prof = tmp_path / "prof.txt"
    assert main(["profile", str(log), str(log), "--out", str(prof)]) == 0
    assert _profile_factors(prof) == [["x\ry", "0"]]


def test_profile_factors_read_back_as_csv(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(HEADER + '\n"a,b",2,1,optimal,1,auto,2,0,2,1\n'
                          '"x\ny",2,1,optimal,1,auto,8,0,8,1\n')
    b.write_text(HEADER + '\n"a,b",2,1,optimal,1,auto,4,0,4,1\n'
                          '"x\ny",2,1,optimal,1,auto,4,0,4,1\n')
    prof = tmp_path / "prof.txt"
    data = profile(a, b, prof)
    assert data["factors"] == [("a,b", "-1"), ("x\ny", "1")]
    assert _profile_factors(prof) == [["a,b", "-1"], ["x\ny", "1"]]


def test_profile_rejects_mismatched_sets(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(HEADER + "\np1,2,1,optimal,1,auto,2,0,2,1\n")
    b.write_text(HEADER + "\nq1,2,1,optimal,1,auto,2,0,2,1\n")
    with pytest.raises(ValueError, match="different problem sets"):
        profile(a, b, tmp_path / "prof.txt")


def test_main_run_and_profile(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", str(PROBLEMS / "p1.qpt"), "--out", str(out_a)]) == 0
    assert main(["run", str(PROBLEMS / "p1.qpt"), "--out", str(out_b),
                 "--strategy", "dual-first"]) == 0
    assert main(["profile", str(out_a / "runlog.csv"),
                 str(out_b / "runlog.csv"),
                 "--out", str(tmp_path / "prof.txt")]) == 0
    assert (tmp_path / "prof.txt").exists()


def test_main_runs_its_command_on_one_blas_thread(monkeypatch):
    # The CLI owns its process: its command runs on one thread of every
    # loaded OpenBLAS, and each thread count is restored after it.
    inside = []

    def fake_run(*args, **kwargs):
        with one_blas_thread() as pinned:
            inside.extend(threads for _, threads in pinned)
        return [], 0

    monkeypatch.setattr(cli, "run", fake_run)
    with one_blas_thread() as before:
        pass
    assert main(["run", "p.qpt"]) == 0
    with one_blas_thread() as after:
        pass
    assert before and inside == [1] * len(before) and after == before


def test_solutions_match_oracle_on_corpus(tmp_path):
    rows, _ = run(CORPUS, tmp_path)
    by_name = {r.name: r for r in rows}
    for path in CORPUS:
        g = parse_problem(path)
        std = standardize(g)
        if std.problem.n > 16:
            continue
        o = enumerate_solve(std.problem, Shifts.zero(std.problem.n))
        row = by_name[g.name]
        assert row.status == o.status, g.name
        if o.status == "optimal":
            want = o.objective + std.objective_offset
            assert row.objective == pytest.approx(want, abs=1e-7), g.name


def _main_error(argv, capsys):
    """main's exit code and its one stderr line."""
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return exc.value.code, err.rstrip("\n")


@pytest.mark.parametrize("text,message", [
    (None, ": cannot read: No such file or directory"),
    ("p1,optimal\np2 optimal\n",
     ":2: expected 'name,status', got 'p2 optimal'"),
    ("p1,\n", ":1: expected 'name,status', got 'p1,'"),
    # Kept by name, the second line would silently replace the first.
    ("p1,dual_infeasible\n# again\np1 , optimal\n",
     ":3: problem 'p1' appears twice"),
    ("p1,optimal\np1,dual_infeasible\n", ":2: problem 'p1' appears twice"),
    ("p1,optimall\n", ":1: unknown status 'optimall', expected one of "
                      "dual_infeasible, error, iteration_limit, optimal, "
                      "primal_infeasible"),
], ids=["missing", "no_comma", "empty_status", "twice_wrong_first",
        "twice_right_first", "unknown_status"])
def test_run_rejects_bad_expectations_before_solving(tmp_path, capsys, text,
                                                      message):
    expect = tmp_path / "expect.csv"
    if text is not None:
        expect.write_text(text)
    out = tmp_path / "out"
    code, err = _main_error(["run", PROBLEMS / "p1.qpt", "--out", out,
                             "--expect", expect], capsys)
    assert code == 2
    assert err == f"pdqp: error: {expect}{message}"
    assert not out.exists()         # nothing was solved or written


@pytest.mark.parametrize("text,message", [
    (None, ": cannot read: No such file or directory"),
    ("", ":1: unexpected run-log columns"),
    ("name,n,m,status\n", ":1: unexpected run-log columns"),
    (HEADER + "\np1,2,1,optimal\n",
     ":2: malformed run-log row 'p1,2,1,optimal'"),
    (HEADER + "\np1,2,1,optimal,1,auto,-2,0,2,1\n",
     ":2: malformed run-log row 'p1,2,1,optimal,1,auto,-2,0,2,1'"),
], ids=["missing", "empty", "header", "short_row", "bad_count"])
def test_profile_rejects_a_malformed_run_log(tmp_path, capsys, text, message):
    good = tmp_path / "good.csv"
    good.write_text(HEADER + "\np1,2,1,optimal,1,auto,2,0,2,1\n")
    bad = tmp_path / "bad.csv"
    if text is not None:
        bad.write_text(text)
    code, err = _main_error(["profile", good, bad, "--out",
                             tmp_path / "prof.txt"], capsys)
    assert code == 2
    assert err == f"pdqp: error: {bad}{message}"
    assert not (tmp_path / "prof.txt").exists()


def test_profile_rejects_a_problem_named_twice(tmp_path, capsys):
    # Keyed by name, the second p1 row would silently replace the first.
    good = tmp_path / "good.csv"
    good.write_text(HEADER + "\np1,2,1,optimal,1,auto,2,0,2,1\n")
    twice = tmp_path / "twice.csv"
    twice.write_text(HEADER + "\np1,2,1,optimal,1,auto,2,0,2,1\n"
                              "\np1,2,1,optimal,1,auto,9,0,9,1\n")
    for a, b in ((twice, good), (good, twice)):
        code, err = _main_error(["profile", a, b, "--out",
                                 tmp_path / "prof.txt"], capsys)
        assert code == 2
        assert err == f"pdqp: error: {twice}:4: problem 'p1' appears twice"
    assert not (tmp_path / "prof.txt").exists()


def test_run_into_an_existing_file_is_a_one_line_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("kept\n")
    code, err = _main_error(["run", PROBLEMS / "p1.qpt", "--out", out],
                            capsys)
    assert code == 2
    assert err == f"pdqp: error: {out}: cannot write: File exists"
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("taken, flags", [("p1.sol", []),
                                          ("p1.trace.csv", ["--trace"])],
                         ids=["solution", "trace"])
def test_an_output_file_that_is_a_directory_ends_the_batch(tmp_path, capsys,
                                                           taken, flags):
    # A problem that cannot be solved gets an error row, but an output
    # that cannot be written ends the batch before its run log.
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    code, err = _main_error(["run", PROBLEMS / "p1.qpt", PROBLEMS / "p2.qpt",
                             "--out", out] + flags, capsys)
    assert code == 2
    assert err == f"pdqp: error: {out / taken}: cannot write: Is a directory"
    assert sorted(p.name for p in out.iterdir()) == [taken]


def test_profile_into_a_file_below_a_file_is_a_one_line_error(tmp_path,
                                                               capsys):
    log = tmp_path / "runlog.csv"
    log.write_text(HEADER + "\np1,2,1,optimal,1,auto,2,0,2,1\n")
    code, err = _main_error(["profile", log, log, "--out", log / "x"],
                            capsys)
    assert code == 2
    assert err == f"pdqp: error: {log / 'x'}: cannot write: Not a directory"


@pytest.mark.parametrize("flag,value,message", [
    ("--opt-tol", "-1", "--opt-tol must be finite and positive, got -1.0"),
    ("--opt-tol", "0", "--opt-tol must be finite and positive, got 0.0"),
    ("--fea-tol", "nan", "--fea-tol must be finite and positive, got nan"),
    ("--fea-tol", "inf", "--fea-tol must be finite and positive, got inf"),
    ("--max-iter", "-5", "--max-iter must be 0 or more, got -5"),
], ids=["negative_opt", "zero_opt", "nan_fea", "inf_fea", "negative_iter"])
def test_run_rejects_bad_numeric_flags_before_solving(tmp_path, capsys, flag,
                                                      value, message):
    out = tmp_path / "out"
    code, err = _main_error(["run", PROBLEMS / "p1.qpt", "--out", out,
                             flag, value], capsys)
    assert code == 2
    assert err == f"pdqp: error: {message}"
    assert not out.exists()         # nothing was solved or written
