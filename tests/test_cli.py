import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gammoids
from gammoids import cli
from gammoids.cli import main
from gammoids.complexity import uniform_rep
from gammoids.digraph import Digraph
from gammoids.matroid import matroid_from_dict, matroid_to_dict, uniform
from gammoids.representation import Representation, rep_from_dict, rep_to_dict


@pytest.fixture
def rep_file(tmp_path):
    path = tmp_path / "u24_rep.json"
    path.write_text(json.dumps(rep_to_dict(uniform_rep(2, 4))))
    return str(path)


@pytest.fixture
def matroid_file(tmp_path):
    path = tmp_path / "u12.json"
    path.write_text(json.dumps(matroid_to_dict(uniform(1, 2))))
    return str(path)


def test_eval_uniform_rep(rep_file, capsys):
    assert main(["eval", rep_file]) == 0
    out = capsys.readouterr()
    m = matroid_from_dict(json.loads(out.out))
    assert m == uniform(2, 4)
    assert "rank 2" in out.err


def test_eval_round_trip_through_files(rep_file, tmp_path, capsys):
    out_path = tmp_path / "m.json"
    assert main(["eval", rep_file, "-o", str(out_path)]) == 0
    m = matroid_from_dict(json.loads(out_path.read_text()))
    assert m == uniform(2, 4)


def test_eval_arc_free_full_target_rep(tmp_path, capsys):
    path = tmp_path / "free.json"
    path.write_text(json.dumps({
        "digraph": {"vertices": ["a", "b"], "arcs": []},
        "targets": ["a", "b"],
        "ground": ["a", "b"],
    }))
    assert main(["eval", str(path)]) == 0
    m = matroid_from_dict(json.loads(capsys.readouterr().out))
    assert m.rank == 2 and len(m.bases) == 1  # free matroid


def test_eval_verify_validates_the_matroid(rep_file, monkeypatch, capsys):
    def reject(m):
        raise ValueError("not a matroid")

    monkeypatch.setattr(cli, "validate_matroid", reject)
    assert main(["eval", rep_file]) == 0
    capsys.readouterr()
    assert main(["eval", rep_file, "--verify"]) == 1
    assert capsys.readouterr().err == "error: not a matroid\n"


def test_eval_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"digraph": [')
    assert main(["eval", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_eval_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    assert main(["eval", str(bad)]) == 1
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert capsys.readouterr().err == f"error: {bad}: {reason}\n"


def test_eval_missing_file(capsys):
    assert main(["eval", "/nonexistent/nope.json"]) == 1


def test_transform_dualize_verify(rep_file, capsys):
    assert main(["transform", rep_file, "dualize", "--verify"]) == 0
    out = capsys.readouterr()
    rep = rep_from_dict(json.loads(out.out))
    assert sorted(rep.target_labels()) == ["3", "4"]
    assert "verified" in out.err


def test_transform_restrict_identity(rep_file, capsys):
    assert main(["transform", rep_file, "restrict", "--subset", "1,2,3,4", "--verify"]) == 0
    rep = rep_from_dict(json.loads(capsys.readouterr().out))
    assert rep == uniform_rep(2, 4)


def test_transform_contract_to_three_set(rep_file, tmp_path, capsys):
    out_path = tmp_path / "contracted.json"
    code = main(["transform", rep_file, "contract", "--subset", "2,3,4",
                 "--verify", "-o", str(out_path)])
    assert code == 0
    # evaluate the emitted file: must be the rank-one uniform matroid
    assert main(["eval", str(out_path)]) == 0
    m = matroid_from_dict(json.loads(capsys.readouterr().out))
    assert m.rank == 1 and len(m.bases) == 3


def test_transform_standardize_default_base(rep_file, capsys):
    assert main(["transform", rep_file, "standardize", "--verify"]) == 0


def test_transform_standardize_default_base_on_labels_unsorted_in_id_order(tmp_path, capsys):
    # ids 0, 1, 2 carry "c", "a", "b": the first base in gamma's label order
    # is {"a"}, id 1, while id 0 is the loop "c"
    path = tmp_path / "cab.json"
    digraph = {"vertices": ["c", "a", "b"], "arcs": [["b", "a"]]}
    path.write_text(json.dumps({"digraph": digraph, "targets": ["a"], "ground": ["a", "b", "c"]}))
    assert main(["transform", str(path), "standardize", "--verify"]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["targets"] == ["a"]
    assert "verified" in out.err


def test_transform_rebase_requires_base(rep_file, capsys):
    assert main(["transform", rep_file, "rebase"]) == 1


@pytest.mark.parametrize("op", ["standardize", "rebase"])
def test_transform_onto_a_given_base(rep_file, capsys, op):
    assert main(["transform", rep_file, op, "--base", "3,4", "--verify"]) == 0
    assert json.loads(capsys.readouterr().out)["targets"] == ["3", "4"]


def test_transform_onto_a_base_with_an_unknown_label(rep_file, capsys):
    assert main(["transform", rep_file, "rebase", "--base", "3,zz"]) == 1
    assert capsys.readouterr().err == "error: unknown label 'zz'\n"


def test_arc_complexity_command(matroid_file, capsys):
    assert main(["arc-complexity", matroid_file]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["value"] == 1 and blob["exhaustive"]


def test_arc_complexity_budget_exit(tmp_path, capsys):
    path = tmp_path / "u24.json"
    path.write_text(json.dumps(matroid_to_dict(uniform(2, 4))))
    assert main(["arc-complexity", str(path), "--limits.max-arcs", "3"]) == 3
    blob = json.loads(capsys.readouterr().out)
    assert blob["error"] == "budget-exhausted"


def test_arc_complexity_cap_below_the_heads_bound_exits_at_once(tmp_path, capsys):
    # U(4,6) has two sources but needs an in-arc at each of its four
    # targets, so a cap of 3 arcs is refused before any level is searched
    path = tmp_path / "u46.json"
    path.write_text(json.dumps(matroid_to_dict(uniform(4, 6))))
    assert main(["arc-complexity", str(path), "--limits.max-arcs", "3"]) == 3
    blob = json.loads(capsys.readouterr().out)
    assert blob["error"] == "budget-exhausted"
    assert "below the lower bound 4" in blob["message"]


@pytest.mark.parametrize("command", [["arc-complexity"], ["fwidth"], ["in-class", "--q", "1"]])
def test_non_matroid_input_is_rejected(tmp_path, capsys, command):
    path = tmp_path / "not_a_matroid.json"
    path.write_text(json.dumps({"ground": ["a", "b", "c", "d"], "bases": [["a", "b"], ["c", "d"]]}))
    assert main([command[0], str(path), *command[1:]]) == 1
    assert "basis-exchange fails for ['a', 'b'] / ['c', 'd']" in capsys.readouterr().err


def test_a_base_listing_a_label_twice_is_rejected(tmp_path, capsys):
    # read as a set it would be U(1,2) plus a loop
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"ground": ["a", "b", "c"], "bases": [["a", "a"], ["b", "b"]]}))
    assert main(["arc-complexity", str(path)]) == 1
    assert "a base lists element 'a' twice" in capsys.readouterr().err


def test_ground_sets_over_the_limit_exit_1_at_once(tmp_path, capsys):
    # U(4, 17) as a file, written without `uniform`, which rejects 17
    # elements; 2,380 bases: too many to check basis exchange fast
    labels = [str(i) for i in range(1, 18)]
    u4_17 = {"ground": sorted(labels), "bases": sorted(sorted(c) for c in combinations(labels, 4))}
    matroid = tmp_path / "u4_17.json"
    matroid.write_text(json.dumps(u4_17))
    free = Representation(Digraph.build(17, []), frozenset(), frozenset(range(17)))
    rep = tmp_path / "free17.json"
    rep.write_text(json.dumps(rep_to_dict(free)))
    for argv in (
        ["arc-complexity", str(matroid)],
        ["fwidth", str(matroid)],
        ["in-class", str(matroid), "--q", "1"],
        ["conjecture-uniform", "1", "17"],
        ["conjecture-uniform", "8", "24"],  # 735,471 bases
        ["eval", str(rep)],
        ["transform", str(rep), "dualize", "--verify"],
    ):
        t0 = time.monotonic()
        assert main(argv) == 1, argv
        assert time.monotonic() - t0 < 1.0, argv
        err = capsys.readouterr().err
        assert err.startswith("error: "), argv
        size = argv[2] if argv[0] == "conjecture-uniform" else "17"
        assert err.endswith(f": ground set has {size} elements, enumeration limit is 16\n"), argv


def test_fwidth_command(matroid_file, capsys):
    assert main(["fwidth", matroid_file, "--f", "fhat"]) == 0
    out, err = capsys.readouterr()
    blob = json.loads(out)
    assert blob["value"] == "1/2"
    assert blob["searches"] == 2
    assert err.endswith("; 2 searches for 2 forms\n")


def test_fwidth_output_does_not_depend_on_ground_order(tmp_path, capsys):
    outputs = []
    for ground in (["c", "a", "b"], ["a", "b", "c"]):
        path = tmp_path / f"{''.join(ground)}.json"
        path.write_text(json.dumps({"ground": ground, "bases": [["c", "a"], ["c", "b"]]}))
        assert main(["fwidth", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def _width_input(tmp_path, seed: int) -> str:
    """The `width` benchmark's input for `seed` (U(1,2) summed four times),
    written by the benchmark's own input module, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return str(inputs.write_input(inputs.width_matroid(seed), tmp_path / f"width{seed}.json"))


@pytest.mark.parametrize(
    "seed, forms, prefix",
    [(1, 10, "e68715bf5dacc2df"), (2, 7, "26841390d93147ad"), (3, 7, "7ae669251844b87c")],
)
def test_fwidth_stdout_bytes_on_the_width_benchmark_inputs(tmp_path, capsys, seed, forms, prefix):
    # sha256 of the report, one row per search form: the seed's label order
    # decides how many forms the minors have
    assert main(["fwidth", _width_input(tmp_path, seed), "--f", "fhat", "--workers", "1"]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest().startswith(prefix)
    assert len(json.loads(out)["forms"]) == forms
    assert err.endswith(f"; {forms} searches for {forms} forms\n")


def test_a_text_only_stdout_gets_the_same_text(matroid_file, capsys):
    # io.StringIO has no binary buffer, so _emit writes the text itself
    assert main(["fwidth", matroid_file]) == 0
    seen = capsys.readouterr().out
    with contextlib.redirect_stdout(io.StringIO()) as text_only:
        assert main(["fwidth", matroid_file]) == 0
    assert text_only.getvalue() == seen
    assert capsys.readouterr().out == ""


def _cli_env(**extra) -> dict:
    """The environment of a CLI child process that imports this `gammoids`."""
    src = str(Path(gammoids.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def _stderr_after_exit(proc: subprocess.Popen) -> str:
    """Wait at most 120 s for `proc` to exit and return its stderr; a child
    still running then is killed, so a hung CLI fails the test."""
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise
    return err.decode()


def test_fwidth_into_a_closed_pipe_exits_1_without_a_traceback(tmp_path):
    with subprocess.Popen(
        [sys.executable, "-m", "gammoids.cli", "fwidth", _width_input(tmp_path, 1)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(),
    ) as proc:
        proc.stdout.close()  # the reader is gone before the report is written
        assert _stderr_after_exit(proc) == ""
    assert proc.returncode == 1


def test_eval_into_a_pipe_closed_part_way_exits_1_when_unbuffered(tmp_path):
    # unbuffered, stdout is a raw file whose write may return short; the
    # rest must still be written, so a reader gone mid-output is an error
    path = tmp_path / "u6_14.json"
    path.write_text(json.dumps(rep_to_dict(uniform_rep(6, 14))))
    with subprocess.Popen(
        [sys.executable, "-m", "gammoids.cli", "eval", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(PYTHONUNBUFFERED="1"),
    ) as proc:
        assert proc.stdout.read(10) == b'{\n  "groun'  # 0.24 MB follow, far over a pipe's buffer
        proc.stdout.close()
        assert _stderr_after_exit(proc) == ""
    assert proc.returncode == 1


def test_importing_the_cli_loads_every_module_and_no_dataclasses():
    # in a fresh interpreter, since other tests import the modules first and
    # would hide one that the CLI no longer loads up front; without `site`,
    # whose path hooks may import anything
    code = "import sys, gammoids.cli; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_cli_env(), check=True
    ).stdout.split()
    package = sorted(name for name in out if name.startswith("gammoids."))
    assert package == [
        f"gammoids.{name}"
        for name in (
            "bruteforce", "cli", "complexity", "digraph", "matroid", "representation", "routing", "suites",
        )
    ]
    assert "dataclasses" not in out and "inspect" not in out


@pytest.mark.parametrize(
    "command", [["fwidth"], ["arc-complexity", "--limits.max-arcs", "0"]]
)
def test_an_output_path_in_a_missing_directory_exits_1(matroid_file, tmp_path, capsys, monkeypatch, command):
    # the path is checked before the command runs: neither the width nor the
    # search (which would exhaust its budget and write its error object) starts
    def never(*args, **kwargs):
        raise AssertionError("the command ran before its output path was checked")

    monkeypatch.setattr(cli, "f_width", never)
    monkeypatch.setattr(cli, "arc_complexity", never)
    target = tmp_path / "missing" / "out.json"
    argv = [command[0], matroid_file, *command[1:], "-o", str(target)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write {target}: no such directory: {target.parent}\n"
    assert not target.parent.exists()


def test_an_output_path_that_is_a_directory_exits_1_once_the_command_ran(matroid_file, tmp_path, capsys):
    assert main(["fwidth", matroid_file, "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


def test_in_class_command(matroid_file, capsys):
    assert main(["in-class", matroid_file, "--q", "1/2"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True
    assert main(["in-class", matroid_file, "--q", "1/4"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is False


@pytest.mark.parametrize("flags", [["--q", "1/0"], ["--q", "1", "--f", "linear:1/0"]])
def test_in_class_rejects_a_zero_denominator(matroid_file, capsys, flags):
    assert main(["in-class", matroid_file, *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_a_linear_coefficient_that_is_no_number_names_the_spec(matroid_file, capsys):
    assert main(["fwidth", matroid_file, "--f", "linear:x"]) == 1
    assert capsys.readouterr().err == "error: function spec 'linear:x': 'x' is not a rational number\n"


def test_a_linear_coefficient_must_be_an_integer(matroid_file, capsys):
    # f(1) = c is a value of f, so 3/2 fails for that reason, and 4/2 is 2
    assert main(["fwidth", matroid_file, "--f", "linear:3/2"]) == 1
    assert capsys.readouterr().err == "error: the linear coefficient must be an integer, got 3/2\n"
    assert main(["fwidth", matroid_file, "--f", "linear:4/2"]) == 0
    assert json.loads(capsys.readouterr().out)["f"] == {"kind": "linear", "coeff": "2"}


def test_in_class_with_table_function(matroid_file, tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps([1] + [2 * x for x in range(1, 10)]))
    assert main(["in-class", matroid_file, "--f", f"table:{table}", "--q", "1/4"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True  # width 1/4 under 2x


def test_value_tables_reject_booleans(matroid_file, tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps([True, 2, 4, 6, 8, 10, 12]))
    assert main(["fwidth", matroid_file, "--f", f"table:{table}"]) == 1
    assert "a value table must be a JSON list of integers" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["fwidth"], ["in-class", "--q", "1"]])
def test_a_value_table_too_short_for_the_width_names_both_ranges(tmp_path, capsys, command):
    # super-additive where it is defined, but U(1,3)'s width needs f on 0..6
    matroid, table = tmp_path / "u13.json", tmp_path / "short.json"
    matroid.write_text(json.dumps(matroid_to_dict(uniform(1, 3))))
    table.write_text(json.dumps([1, 1, 2]))
    assert main([command[0], str(matroid), "--f", f"table:{table}", *command[1:]]) == 1
    assert capsys.readouterr().err == "error: the value table covers 0..2, the width needs 0..6\n"


def test_an_empty_value_table_covers_the_empty_range(matroid_file, tmp_path, capsys):
    table = tmp_path / "empty.json"
    table.write_text("[]")
    assert main(["fwidth", matroid_file, "--f", f"table:{table}"]) == 1
    assert capsys.readouterr().err == "error: the value table covers the empty range, the width needs 0..4\n"


@pytest.mark.parametrize("command", [["fwidth"], ["in-class", "--q", "1"]])
@pytest.mark.parametrize("spec", ["linear:0", "table"])
def test_a_denominator_that_is_not_super_additive_exits_1(matroid_file, tmp_path, capsys, command, spec):
    # linear:0 has f(1) = 0 < 1; the table covers 0..4, what U(1,2)'s width
    # needs, but f(2) = 1 < f(1) + f(1)
    if spec == "table":
        table = tmp_path / "flat.json"
        table.write_text(json.dumps([1, 1, 1, 1, 1]))
        spec = f"table:{table}"
    assert main([command[0], matroid_file, "--f", spec, *command[1:]]) == 1
    assert capsys.readouterr().err == "error: the width denominator must be super-additive with values >= 1\n"


def test_eval_of_an_arc_with_an_unknown_label_names_the_file(tmp_path, capsys):
    path = tmp_path / "stray.json"
    digraph = {"vertices": ["a", "b"], "arcs": [["a", "z"]]}
    path.write_text(json.dumps({"digraph": digraph, "targets": ["a"], "ground": ["a", "b"]}))
    assert main(["eval", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: unknown label 'z'\n"


@pytest.mark.parametrize("op", ["restrict", "contract"])
def test_transform_to_a_subset_requires_the_subset(rep_file, capsys, op):
    assert main(["transform", rep_file, op]) == 1
    assert capsys.readouterr().err == f"error: {op} needs --subset\n"


def _write_rep(tmp_path, arcs, targets):
    # a representation on a, b, t whose ground is all three vertices
    path = tmp_path / "rep.json"
    digraph = {"vertices": ["a", "b", "t"], "arcs": arcs}
    path.write_text(json.dumps({"digraph": digraph, "targets": targets, "ground": ["a", "b", "t"]}))
    return str(path)


@pytest.mark.parametrize("op", ["restrict", "contract"])
def test_an_empty_subset_is_the_empty_set(tmp_path, capsys, op):
    u13 = _write_rep(tmp_path, [["a", "t"], ["b", "t"]], ["t"])
    assert main(["transform", u13, op, "--subset", "", "--verify"]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["ground"] == []
    assert out.err == "verified: transformed representation has the expected matroid\n"


def test_an_empty_base_is_the_empty_set(tmp_path, capsys):
    u13 = _write_rep(tmp_path, [["a", "t"], ["b", "t"]], ["t"])
    assert main(["transform", u13, "standardize", "--base", ""]) == 1
    assert capsys.readouterr().err == "error: routing starts [] have size 0, rank is 1\n"
    rank0 = _write_rep(tmp_path, [], [])
    assert main(["transform", rank0, "rebase", "--base", "", "--verify"]) == 0
    assert json.loads(capsys.readouterr().out)["targets"] == []


def test_transform_verify_exits_4_when_the_matroid_changes(rep_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "restrict_representation", lambda rep, xs: rep)
    assert main(["transform", rep_file, "restrict", "--subset", "1,2,3", "--verify"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "verification FAILED: transformed representation has the wrong matroid\n"


def test_conjecture_uniform_command(capsys):
    assert main(["conjecture-uniform", "1", "3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["verified"] and blob["value"] == 2


def test_conjecture_uniform_budget(capsys):
    assert main(["conjecture-uniform", "2", "4", "--limits.max-arcs", "3"]) == 3


def test_conjecture_uniform_exits_4_on_a_value_off_by_one(monkeypatch, capsys):
    search = cli.arc_complexity
    off_by_one = lambda m, limits: search(m, limits)._replace(value=3)  # U(1,3) has 2 arcs
    monkeypatch.setattr(cli, "arc_complexity", off_by_one)
    assert main(["conjecture-uniform", "1", "3"]) == 4
    out = capsys.readouterr()
    blob = json.loads(out.out)
    assert (blob["value"], blob["expected"], blob["verified"]) == (3, 2, False)
    assert out.err == "REFUTED at this size: arc complexity is 3, expected 2\n"


def test_check_command_small(capsys):
    code = main(["check", "swap-invariance", "--max-vertices", "3"])
    assert code == 0
    out = capsys.readouterr()
    results = json.loads(out.out)
    assert results[0]["passed"] and results[0]["cases"] == 3088
    assert "swap-invariance" in out.err


def test_check_command_routing(capsys):
    assert main(["check", "routing-oracle", "--max-vertices", "4", "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["cases"] == 1000


def test_check_all_case_counts(capsys):
    from gammoids import suites

    assert main(["check", "all", "--seed", "1", "--count", "50", "--max-vertices", "3"]) == 0
    results = json.loads(capsys.readouterr().out)
    assert [r["suite"] for r in results] == list(suites.SUITES)
    assert [r["cases"] for r in results] == [3088, 54, 153, 1000, 15, 92, 180, 15]
    assert all(r["passed"] for r in results)


def test_check_reads_a_missing_max_vertices_as_the_default_size(monkeypatch, capsys):
    from gammoids import suites

    sizes = []

    def oracle(max_vertices, seed):
        sizes.append(max_vertices)
        return suites.SuiteResult("routing-oracle", 0, [], 0.0)

    monkeypatch.setattr(suites, "routing_oracle_suite", oracle)
    assert main(["check", "routing-oracle"]) == 0
    assert main(["check", "routing-oracle", "--max-vertices", "2"]) == 0
    assert sizes == [6, 2]


def test_a_budget_stop_keeps_the_verdicts_of_the_suites_that_ran(capsys):
    # the four suites that run no search pass; arc-values then stops at
    # U(1,3), whose lower bound of 2 arcs is above the cap
    argv = ["check", "all", "--max-vertices", "2", "--count", "5", "--limits.max-arcs", "1"]
    assert main(argv) == 3
    out = capsys.readouterr()
    lines = out.err.splitlines()
    verdicts = [re.sub(r", [0-9.]+s$", "", line) for line in lines[:4]]
    assert verdicts == [
        "swap-invariance: 16 cases, PASS",
        "standardization: 5 cases, PASS",
        "surgery: 12 cases, PASS",
        "routing-oracle: 1000 cases, PASS",
    ]
    message = "max_arcs=1 is below the lower bound 2; nothing to search"
    assert lines[4:] == [f"budget exhausted: {message}"]
    assert json.loads(out.out) == {"error": "budget-exhausted", "message": message}


def test_check_exits_4_and_prints_each_failure(monkeypatch, capsys):
    from gammoids import suites

    failing = suites.SuiteResult("closure", 2, ["case 1: wrong", "case 2: wrong"], 0.0)
    monkeypatch.setattr(suites, "closure_suite", lambda limits: failing)
    assert main(["check", "closure"]) == 4
    out = capsys.readouterr()
    lines = ["closure: 2 cases, FAIL (2 failures), 0.0s", "  case 1: wrong", "  case 2: wrong"]
    assert out.err.splitlines() == lines
    blob = {"suite": "closure", "cases": 2, "failures": failing.failures, "passed": False}
    assert json.loads(out.out) == [{**blob, "runtime_secs": 0.0}]


def test_check_closure_under_a_cap_exits_3_and_reports_no_failure(capsys):
    # U(1,3) needs two arcs, so its width cannot be certified under the cap
    assert main(["check", "closure", "--limits.max-arcs", "1"]) == 3
    out = capsys.readouterr()
    assert out.err.startswith("budget exhausted: ") and "FAIL" not in out.err
    assert json.loads(out.out)["error"] == "budget-exhausted"


def test_check_shares_one_budget_across_its_searches(monkeypatch, capsys):
    # the clock jumps past the one-second budget once the first search ends,
    # so a later search whose level ends without a witness must stop
    from gammoids import suites

    now = [0.0]
    search = suites.arc_complexity

    def search_then_jump(m, limits):
        cert = search(m, limits)
        now[0] = 2.0
        return cert

    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    monkeypatch.setattr(suites, "arc_complexity", search_then_jump)
    assert main(["check", "minor-complexity", "--limits.wall-secs", "1"]) == 3
    assert "budget exhausted: wall-clock budget hit" in capsys.readouterr().err


def test_check_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["check", "no-such-suite"])
    assert exc.value.code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform"])  # missing arguments
    assert exc.value.code == 2
    # the search derives the internal vertices each level needs (Lemma A),
    # so there is no option to cap them
    with pytest.raises(SystemExit) as exc:
        main(["arc-complexity", "m.json", "--limits.max-internal", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --limits.max-internal 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "swap-invariance", "--max-vertices", "0"],
        ["check", "surgery", "--max-vertices", "-2"],
        ["check", "surgery", "--count", "0"],
        ["arc-complexity", "MATROID", "--limits.max-arcs", "-1"],
        ["arc-complexity", "MATROID", "--workers", "0"],
        ["conjecture-uniform", "1", "2", "--workers", "-3"],
        ["check", "routing-oracle", "--max-vertices", "x"],
        ["arc-complexity", "MATROID", "--limits.wall-secs=nan"],
        ["fwidth", "MATROID", "--limits.wall-secs=inf"],
        ["fwidth", "MATROID", "--limits.wall-secs", "0"],
        ["in-class", "MATROID", "--q", "1", "--limits.wall-secs=-1"],
    ],
)
def test_numeric_options_out_of_range_are_usage_errors(matroid_file, capsys, argv):
    argv = [matroid_file if a == "MATROID" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    reasons = ("must be at least", "invalid integer value", "must be a finite number above 0")
    assert any(reason in err for reason in reasons)


def test_numeric_options_accept_their_lower_bounds():
    args = cli.build_parser().parse_args(
        ["check", "all", "--max-vertices", "1", "--count", "1", "--workers", "1",
         "--limits.max-arcs", "0", "--limits.wall-secs", "1e-3"]
    )
    assert (args.max_vertices, args.count, args.workers, args.max_arcs) == (1, 1, 1, 0)
    assert args.wall_secs == 0.001


def test_readme_cli_parses_and_names_only_real_options():
    # each command of README's CLI block parses, and each backticked
    # --option in README is an option of some sub-command
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    parser = cli.build_parser()
    commands = [
        part.split()[1:]
        for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S)
        for line in block.splitlines()
        for part in line.split("#")[0].split("|")
        if part.split()[:1] == ["gammoids"]
    ]
    assert commands
    for argv in commands:
        parser.parse_args(argv)

    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for p in sub.choices.values() for o in p._option_string_actions}
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    named = {
        option
        for span in re.findall(r"`([^`]*)`", prose)
        for option in re.findall(r"(?<![\w-])--[\w.-]+", span)
    }
    assert named and named <= options, sorted(named - options)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=8,
)
# a ground of at most five labels, some repeated, and bases that may name
# labels outside it, repeat a label or differ in size
_NEAR_MATROIDS = st.fixed_dictionaries(
    {
        "ground": st.lists(st.sampled_from("abcde"), max_size=5),
        "bases": st.lists(st.lists(st.sampled_from("abcdef"), max_size=4), max_size=6),
    }
)
_UNIFORMS = st.integers(0, 4).flatmap(
    lambda n: st.integers(0, n).map(lambda r: matroid_to_dict(uniform(r, n)))
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(obj=_JSON_VALUES | _NEAR_MATROIDS | _UNIFORMS)
def test_arbitrary_input_files_give_a_documented_exit_code(obj, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    for argv in (
        ["fwidth", str(path), "--f", "fhat", "--limits.wall-secs", "2"],
        ["arc-complexity", str(path)],
    ):
        capsys.readouterr()
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 1, 3), (argv, obj)
        if code == 0:
            json.loads(out)
