"""Regression gate on the problems/ corpus: the run log (apart from the
wall-clock ``millis`` column) and every ``--trace`` file must match the
recorded outputs in tests/data/corpus/<strategy>/ byte for byte."""

from pathlib import Path

import pytest

from pdqp.cli import run

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "data" / "corpus"


def _without_millis(text: str) -> str:
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


@pytest.mark.parametrize("strategy", ["auto", "primal-first", "dual-first",
                                      "primal-only", "dual-only"])
def test_corpus_outputs_unchanged(tmp_path, strategy):
    paths = sorted((ROOT / "problems").glob("*.qpt"))
    run(paths, tmp_path, strategy=strategy, trace=True)
    expected = EXPECTED / strategy
    assert _without_millis((tmp_path / "runlog.csv").read_text()) \
        == (expected / "runlog.csv").read_text()
    traces = sorted(p.name for p in tmp_path.glob("*.trace.csv"))
    assert traces == sorted(p.name for p in expected.glob("*.trace.csv"))
    for name in traces:
        assert (tmp_path / name).read_bytes() == (expected / name).read_bytes(), name
