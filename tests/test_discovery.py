"""Discovery pin: the basic set that ``find_soc_basis`` returns must match
tests/data/discovery/partitions.csv exactly, for

* suite/NNN: ``random_instances(20260810, 500)``, the ``suite500``
  benchmark's problems;
* mixed/<name>: the 120 standardized ``mixed-bounds`` problems
  (``mixed_instances(1, 120)``);
* lowrank/<name>: the 12 standardized ``lowrank`` constructions
  (n=150, the benchmark's seed base 0).

Each is discovered as ``solve_standard`` discovers it, with the free
variables preferred.  A change to basis discovery that is meant to keep
its output (a faster factorization, another rule for when to factor the
full matrix first) must leave every row alone.

Regenerate the file only for a change that is meant to move partitions,
and say so; the command prints every row it changes:

    python tests/test_discovery.py
"""

import csv
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pdqp import standardize
from pdqp.kkt import KktBasis, find_soc_basis

from conftest import mixed_instances, random_instances
from workloads import LowRank, constructed_qp

PIN = Path(__file__).resolve().parent / "data" / "discovery" / "partitions.csv"
FIELDS = ("name", "basic")


def _problems(suite500):
    """(name, standard-form problem) of every pinned discovery, given the
    ``random_instances(20260810, 500)`` draw."""
    out = [(f"suite/{i:03d}", p) for i, p in enumerate(suite500)]
    out += [(f"mixed/{g.name}", standardize(g).problem)
            for g in mixed_instances(1, 120)]
    out += [(f"lowrank/{g.name}", standardize(g).problem)
            for g, _, _ in (constructed_qp(*spec) for spec in
                            LowRank(Path(".")).specs(None))]
    return out


def _rows(suite500):
    rows = []
    for name, p in _problems(suite500):
        part = find_soc_basis(p, KktBasis(p))
        rows.append({"name": name,
                     "basic": " ".join(map(str, part.basic))})
    return rows


def test_discovered_partitions_unchanged(suite500):
    with PIN.open(newline="") as fh:
        expected = list(csv.DictReader(fh))
    got = _rows(suite500)
    assert [r["name"] for r in got] == [r["name"] for r in expected]
    moved = [(e["name"], e["basic"], r["basic"])
             for e, r in zip(expected, got) if e != r]
    assert moved == []


def _write(path, rows):
    """Write the pin file and print each row that changed, or was added,
    against the file it replaces."""
    old = {}
    if path.exists():
        with path.open(newline="") as fh:
            old = {r["name"]: r["basic"] for r in csv.DictReader(fh)}
    changed = [r for r in rows if old.get(r["name"]) != r["basic"]]
    print(f"{path.name}: {len(changed)} of {len(rows)} rows changed")
    for r in changed:
        print(f"  {r['name']}: {old.get(r['name'], '(new)')} → "
              f"{r['basic']}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


if __name__ == "__main__":
    _write(PIN, _rows(random_instances(20260810, 500)))
