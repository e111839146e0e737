"""The committed benchmark rows: each ``BENCH_<n>.json`` parses, names the
row before it, and claims a workload and an end-to-end metric that
``BENCHMARK.json`` declares, with the direction it declares."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROWS = sorted(
    (int(m[1]), path)
    for path in ROOT.glob("BENCH_*.json")
    if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
)


def test_the_rows_are_numbered_from_one_without_gaps():
    assert [n for n, _ in ROWS] == list(range(1, len(ROWS) + 1))


@pytest.mark.parametrize("n, path", ROWS, ids=[path.name for _, path in ROWS])
def test_a_row_names_its_predecessor_and_a_declared_claim(n, path):
    row = json.loads(path.read_text())
    assert row["previous_bench"] == (f"BENCH_{n - 1}.json" if n > 1 else None)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    claim = row["claim"]
    assert claim["workload"] in {w["name"] for w in declared["workloads"]}
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    assert better.get(claim["metric"]) == claim["better"], claim
