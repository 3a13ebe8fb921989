"""Smoke test of ``tests/ab_probe.py --phases``: one phased A/A pair.

The probe runs as its own process on ``lowrank`` with this tree on both
sides.  Every output must match, each row must count the same calls on
both sides (the trees are one code), and the rows with ``outside the
phases`` must add up to the wrapped solve, which is what self times
promise.
"""

import os
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parent / "ab_probe.py"


def test_a_phased_pair_matches_and_adds_up():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(PROBE), "--workload",
                          "lowrank", "--pairs", "1", "--phases", "steps"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "every output matched: yes" in out.stdout
    rows = {}
    for line in out.stdout.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| ") and cells[0] != "phase":
            rows[cells[0]] = cells
    wrapped = rows.pop("solve (wrapped)")
    outside = rows.pop("outside the phases")
    assert "take_step" in rows and "KktFactorization.solve" in rows
    for label, (_, _, _, _, base_calls, change_calls) in rows.items():
        assert base_calls == change_calls, label
    for side in (1, 2):                 # base us, change us
        total = float(outside[side]) + sum(float(r[side])
                                           for r in rows.values())
        # Each printed figure is rounded to 0.1 us.
        assert abs(total - float(wrapped[side])) <= 0.05 * (len(rows) + 2)
