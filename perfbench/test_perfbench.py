"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import io
import json
import sys
from contextlib import redirect_stdout
from itertools import combinations, product
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# -- seeded inputs ---------------------------------------------------------------


def test_same_seed_gives_same_bytes(tmp_path):
    for make in (inputs.search_matroid, inputs.width_matroid):
        a = inputs.write_input(make(5), tmp_path / "a.json").read_bytes()
        b = inputs.write_input(make(5), tmp_path / "b.json").read_bytes()
        c = inputs.write_input(make(6), tmp_path / "c.json").read_bytes()
        assert a == b
        assert a != c
        assert len(a) == len(c)


def _parallel_pairs(m):
    """Pairs of elements that no base holds together."""
    bases = [set(b) for b in m["bases"]]
    return [{x, y} for x, y in combinations(m["ground"], 2) if not any({x, y} <= b for b in bases)]


def test_every_seed_gives_u24_plus_u12():
    # the seed only relabels, so the known answers hold for every seed
    for seed in range(20):
        m = inputs.search_matroid(seed)
        assert len(set(m["ground"])) == 6
        (pair,) = _parallel_pairs(m)
        rest = [x for x in m["ground"] if x not in pair]
        assert sorted(map(sorted, m["bases"])) == sorted(
            sorted([*c, p]) for c in combinations(rest, 2) for p in pair
        )


def test_every_seed_gives_four_parallel_pairs():
    for seed in range(20):
        m = inputs.width_matroid(seed)
        pairs = _parallel_pairs(m)
        assert len(set(m["ground"])) == 8 and len(pairs) == 4
        assert set().union(*pairs) == set(m["ground"])
        assert sorted(map(sorted, m["bases"])) == sorted(sorted(pick) for pick in product(*pairs))


# -- known-answer gate --------------------------------------------------------------


def _search_output(m, arcs=None, **fields):
    (pair,) = _parallel_pairs(m)
    p1, p2 = sorted(pair)
    t1, t2, s1, s2 = [x for x in m["ground"] if x not in pair]
    if arcs is None:
        arcs = [[s1, t1], [s1, t2], [s2, t1], [s2, t2], [p2, p1]]
    out = {
        "value": 5,
        "exhaustive": True,
        "witness": {
            "digraph": {"vertices": m["ground"], "arcs": arcs},
            "targets": [t1, t2, p1],
            "ground": m["ground"],
        },
    }
    out.update(fields)
    return json.dumps(out), (t1, t2, s1, s2, p1, p2)


def test_search_gate_accepts_the_known_answer():
    m = inputs.search_matroid(3)
    assert gate.check_search(0, _search_output(m)[0], m) is None


def test_search_gate_rejects_doctored_outputs():
    m = inputs.search_matroid(3)
    good, (t1, t2, s1, s2, p1, p2) = _search_output(m)
    # five arcs, but p2 routes to t1, so the parallel pair {p1, p2} is independent
    wrong_matroid = [[s1, t1], [s1, t2], [s2, t1], [s2, t2], [p2, t1]]
    doctored = {
        "wrong value": (0, _search_output(m, value=6)[0]),
        "value as a string": (0, _search_output(m, value="5")[0]),
        "not exhaustive": (0, _search_output(m, exhaustive=False)[0]),
        "nonzero exit": (3, good),
        "missing arc": (0, _search_output(m, arcs=[[s1, t1], [s1, t2], [s2, t1], [s2, t2]])[0]),
        "wrong matroid": (0, _search_output(m, arcs=wrong_matroid)[0]),
        "not JSON": (0, "arc complexity 5"),
    }
    for label, (code, stdout) in doctored.items():
        assert gate.check_search(code, stdout, m) is not None, label


def _suites_output(**override):
    rows = [{"suite": s, "cases": 1, "failures": [], "passed": True} for s in gate.SUITES]
    for name, row in override.items():
        rows[gate.SUITES.index(name.replace("_", "-"))].update(row)
    return json.dumps(rows)


def test_suites_gate():
    assert gate.check_suites(0, _suites_output()) is None
    assert gate.check_suites(4, _suites_output()) is not None
    assert gate.check_suites(0, _suites_output(surgery={"passed": False})) is not None
    assert gate.check_suites(0, _suites_output(bounds={"failures": ["x"]})) is not None
    rows = json.loads(_suites_output())
    assert gate.check_suites(0, json.dumps(rows[:-1])) is not None


def test_width_gate():
    def out(value="1/2", exhaustive=True):
        return json.dumps({"value": value, "exhaustive": exhaustive, "table": []})

    assert gate.check_width(0, out()) is None
    assert gate.check_width(0, out(value="2/3")) is not None
    assert gate.check_width(0, out(exhaustive=False)) is not None
    assert gate.check_width(3, out()) is not None


# -- spans ----------------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds b [6, 7]
    tracer = spans.Tracer(clock=iter([0, 1, 4, 5, 6, 7, 9, 10]).__next__)
    tracer.enter("a", "fa")
    tracer.enter("b", "fb")
    tracer.exit()
    tracer.enter("suites.c", "fc")
    tracer.enter("b", "fb")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    snap = tracer.snapshot()
    assert snap["total"] == {"a": 10, "b": 4, "suites.c": 4}
    assert snap["self"] == {"a": 3, "b": 4, "suites.c": 3}
    assert spans.layer_calls(snap, "b") == 2
    assert spans.layer_calls(snap, "b", scope="suites.c") == 1
    assert spans.layer_calls(snap, "suites.c", scope="") == 1


def test_installed_spans_cover_a_real_cli_run_and_are_removed():
    from gammoids import cli, complexity, matroid

    originals = (complexity.arc_complexity, complexity._routable_ids, matroid._routable_ids)
    tracer = spans.Tracer()
    with spans.installed(tracer), redirect_stdout(io.StringIO()) as out:
        assert complexity._routable_ids is matroid._routable_ids is not originals[1]
        assert complexity.arc_complexity is not originals[0]
        assert cli.main(["check", "arc-values"]) == 0
    assert (complexity.arc_complexity, complexity._routable_ids, matroid._routable_ids) == originals
    assert json.loads(out.getvalue())[0]["passed"] is True
    snap = tracer.snapshot()
    for layer in ("suites.arc-values", "complexity.search", "routing", "bruteforce", "cli.emit"):
        assert spans.layer_calls(snap, layer) > 0, layer
    assert spans.layer_calls(snap, "routing", scope="complexity.search") > 0
    assert snap["counters"]["complexity.search.candidates"] > 0
    metrics = spans.per_layer_metrics(snap, 1.0, 0.5, 10)
    assert metrics["trace.overhead_s"]["value"] == 0.5


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    samples = [float(i) for i in range(20)]
    p, value = run.tail_percentile(samples)
    assert p == 50 and sum(s > value for s in samples) == 10


# -- BENCHMARK.json ---------------------------------------------------------------------


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in spans.PER_LAYER.items()
    ]
