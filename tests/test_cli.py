import json
import time

import pytest

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


def test_transform_rebase_requires_base(rep_file, capsys):
    assert main(["transform", rep_file, "rebase"]) == 1


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


@pytest.mark.parametrize("command", [["arc-complexity"], ["fwidth"], ["in-class", "--q", "1"]])
def test_non_matroid_input_is_rejected(tmp_path, capsys, command):
    path = tmp_path / "not_a_matroid.json"
    path.write_text(json.dumps({"ground": ["a", "b", "c", "d"], "bases": [["a", "b"], ["c", "d"]]}))
    assert main([command[0], str(path), *command[1:]]) == 1
    assert "basis-exchange fails for ['a', 'b'] / ['c', 'd']" in capsys.readouterr().err


def test_ground_sets_over_the_limit_exit_1_at_once(tmp_path, capsys):
    matroid = tmp_path / "u4_17.json"  # 2,380 bases: too many to check basis exchange fast
    matroid.write_text(json.dumps(matroid_to_dict(uniform(4, 17))))
    free = Representation(Digraph.build(17, []), frozenset(), frozenset(range(17)))
    rep = tmp_path / "free17.json"
    rep.write_text(json.dumps(rep_to_dict(free)))
    for argv in (
        ["arc-complexity", str(matroid)],
        ["fwidth", str(matroid)],
        ["in-class", str(matroid), "--q", "1"],
        ["conjecture-uniform", "1", "17"],
        ["eval", str(rep)],
        ["transform", str(rep), "dualize", "--verify"],
    ):
        t0 = time.monotonic()
        assert main(argv) == 1, argv
        assert time.monotonic() - t0 < 1.0, argv
        err = capsys.readouterr().err
        assert err.startswith("error: "), argv
        assert err.endswith(": ground set has 17 elements, enumeration limit is 16\n"), argv


def test_fwidth_command(matroid_file, capsys):
    assert main(["fwidth", matroid_file, "--f", "fhat"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["value"] == "1/2"


def test_fwidth_output_does_not_depend_on_ground_order(tmp_path, capsys):
    outputs = []
    for ground in (["c", "a", "b"], ["a", "b", "c"]):
        path = tmp_path / f"{''.join(ground)}.json"
        path.write_text(json.dumps({"ground": ground, "bases": [["c", "a"], ["c", "b"]]}))
        assert main(["fwidth", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_in_class_command(matroid_file, capsys):
    assert main(["in-class", matroid_file, "--q", "1/2"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True
    assert main(["in-class", matroid_file, "--q", "1/4"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is False


@pytest.mark.parametrize("flags", [["--q", "1/0"], ["--q", "1", "--f", "linear:1/0"]])
def test_in_class_rejects_a_zero_denominator(matroid_file, capsys, flags):
    assert main(["in-class", matroid_file, *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_in_class_with_table_function(matroid_file, tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps([1] + [2 * x for x in range(1, 10)]))
    assert main(["in-class", matroid_file, "--f", f"table:{table}", "--q", "1/4"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True  # width 1/4 under 2x


def test_conjecture_uniform_command(capsys):
    assert main(["conjecture-uniform", "1", "3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["verified"] and blob["value"] == 2


def test_conjecture_uniform_budget(capsys):
    assert main(["conjecture-uniform", "2", "4", "--limits.max-arcs", "3"]) == 3


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


def test_check_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["check", "no-such-suite"])
    assert exc.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["transform"])  # missing arguments
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "swap-invariance", "--max-vertices", "0"],
        ["check", "surgery", "--max-vertices", "-2"],
        ["check", "surgery", "--count", "0"],
        ["arc-complexity", "MATROID", "--limits.max-internal", "-1"],
        ["arc-complexity", "MATROID", "--limits.max-arcs", "-1"],
        ["arc-complexity", "MATROID", "--workers", "0"],
        ["conjecture-uniform", "1", "2", "--workers", "-3"],
        ["check", "routing-oracle", "--max-vertices", "x"],
    ],
)
def test_numeric_options_out_of_range_are_usage_errors(matroid_file, capsys, argv):
    argv = [matroid_file if a == "MATROID" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least" in err or "invalid integer value" in err


def test_numeric_options_accept_their_lower_bounds():
    args = cli.build_parser().parse_args(
        ["check", "all", "--max-vertices", "1", "--count", "1", "--workers", "1",
         "--limits.max-arcs", "0", "--limits.max-internal", "0"]
    )
    assert (args.max_vertices, args.count, args.workers, args.max_arcs, args.max_internal) == (
        1, 1, 1, 0, 0
    )
