import json
import pickle
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from gammoids.bruteforce import brute_gamma_bases
from gammoids.complexity import SuperAdditiveFn, kw_upper_bound, uniform_rep
from gammoids.digraph import Digraph, digraph_from_dict, opposite, remove_loops, swap
from gammoids.matroid import (
    Matroid, contract_to, dual, gamma, matroid_from_dict, relabel, restrict, uniform
)
from gammoids.representation import (
    NotABaseError,
    NotStandardError,
    Representation,
    contract_representation,
    dual_representation,
    is_duality_respecting,
    is_standard,
    rebase,
    rep_from_dict,
    rep_to_dict,
    restrict_representation,
    standard_defects,
    standardize,
    swap_sequence,
)
from gammoids.routing import Routing, is_independent, max_routing, routable
from gammoids.suites import all_matroids, random_representation, standardization_suite, surgery_suite


def oracle_bases(rep):
    got = brute_gamma_bases(rep.digraph, rep.targets, rep.ground)
    return {rep.digraph.label_set(b) for b in got}


# -- standardness ---------------------------------------------------------------


def test_arc_free_full_target_rep_is_standard():
    d = Digraph.build(2, [])
    assert is_standard(Representation(d, frozenset({0, 1}), frozenset({0, 1})))


def test_target_with_out_arc_is_not_standard():
    d = Digraph.build(2, [(0, 1)])
    rep = Representation(d, frozenset({0}), frozenset({0, 1}))
    assert not is_standard(rep)
    assert any("sinks" in msg for msg in standard_defects(rep))


def test_uniform_rep_is_standard():
    for r, n in [(0, 3), (1, 2), (2, 2), (2, 4)]:
        assert is_standard(uniform_rep(r, n))


def test_non_integer_target_ids_raise_value_error():
    with pytest.raises(ValueError, match="vertex id 1.5 is not an integer"):
        Representation(Digraph.build(2, []), [1.5], [0, 1])


def test_targets_outside_ground_are_a_defect():
    d = Digraph.build(2, [])
    rep = Representation(d, frozenset({0}), frozenset({1}))
    assert any("outside the ground set" in msg for msg in standard_defects(rep))


@pytest.mark.parametrize(
    "n, arcs, targets, ground, expected",
    [
        # a target whose only out-arc is a loop is no sink
        (2, [(0, 0)], {0}, {0, 1}, ["targets ['v0'] have outgoing arcs (must be sinks)"]),
        # a non-target ground element whose only in-arc is a loop is no source
        (2, [(1, 1)], {0}, {0, 1}, ["ground elements ['v1'] have incoming arcs (must be sources)"]),
        (
            3,
            [(0, 2), (2, 1)],
            {0},
            {1},
            [
                "targets ['v0'] lie outside the ground set",
                "targets ['v0'] have outgoing arcs (must be sinks)",
                "ground elements ['v1'] have incoming arcs (must be sources)",
            ],
        ),
    ],
)
def test_standard_defects_full_list(n, arcs, targets, ground, expected):
    rep = Representation(Digraph.build(n, arcs), frozenset(targets), frozenset(ground))
    assert standard_defects(rep) == expected


# -- duality --------------------------------------------------------------------


def test_standard_representations_respect_duality():
    for r, n in [(1, 2), (1, 3), (2, 3), (2, 4)]:
        assert is_duality_respecting(uniform_rep(r, n))


def test_arc_free_full_target_rep_respects_duality():
    d = Digraph.build(2, [])
    assert is_duality_respecting(Representation(d, frozenset({0, 1}), frozenset({0, 1})))


def test_duality_respecting_counterexample_exists():
    # brute-force hunt over tiny digraphs for a non-standard triple where a
    # non-target ground element has an incoming arc and the check fails
    found = None
    n = 3
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for k in range(1, 3):
        for arcs in combinations(pairs, k):
            d = Digraph.build(n, arcs)
            for t_bits in range(1 << n):
                targets = frozenset(i for i in range(n) if t_bits >> i & 1)
                rep = Representation(d, targets, frozenset(range(n)))
                fed = any(v not in targets and u != v for (u, v) in arcs)
                if fed and not is_duality_respecting(rep):
                    found = rep
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    # freeze one known instance: a 2-arc path feeding a non-target element
    d = Digraph.build(3, [(0, 1), (1, 2)])
    rep = Representation(d, frozenset({2}), frozenset({0, 1, 2}))
    assert not is_duality_respecting(rep)


def test_dual_representation_of_uniform():
    drep = dual_representation(uniform_rep(1, 3))
    assert is_standard(drep)
    assert gamma(drep) == uniform(2, 3)
    assert drep.arc_count == uniform_rep(1, 3).arc_count


def test_dual_representation_of_free_matroid():
    d = Digraph.build(2, [])
    rep = Representation(d, frozenset({0, 1}), frozenset({0, 1}))
    out = dual_representation(rep)
    assert gamma(out).rank == 0


def test_dual_representation_is_involution():
    rep = uniform_rep(2, 4)
    back = dual_representation(dual_representation(rep))
    assert back == rep


def test_dual_representation_rejects_non_standard():
    d = Digraph.build(2, [(0, 1)])
    rep = Representation(d, frozenset({0}), frozenset({0, 1}))
    with pytest.raises(NotStandardError):
        dual_representation(rep)


# -- swap sequences ---------------------------------------------------------------


def test_swap_sequence_with_single_vertex_paths():
    # B = T: nothing to swap, only arcs leaving B get stripped
    d = Digraph.build(2, [(0, 1)])
    rep = Representation(d, frozenset({0}), frozenset({0, 1}))
    routing = Routing(((0,),), frozenset({0}))
    out = swap_sequence(rep, routing)
    assert out.targets == frozenset({0})
    assert out.digraph.arcs == frozenset()
    assert gamma(out) == gamma(rep)


def test_swap_sequence_single_arc():
    d = Digraph.build(["a", "t"], [(0, 1)])
    rep = Representation(d, frozenset({1}), frozenset({0, 1}))
    out = swap_sequence(rep, Routing(((0, 1),), frozenset({1})))
    assert out.targets == frozenset({0})
    assert out.digraph.arcs <= frozenset({(1, 0)})
    assert gamma(out) == gamma(rep)


def test_swap_sequence_length_three_path_trace():
    # swaps run in reverse traversal order: (p2, p3) first, then (p1, p2)
    d = Digraph.build(3, [(0, 1), (1, 2)])
    step1 = swap(d, 1, 2)
    assert step1.arcs == frozenset({(0, 1), (2, 1)})
    step2 = swap(step1, 0, 1)
    assert step2.arcs == frozenset({(2, 1), (1, 0)})

    rep = Representation(d, frozenset({2}), frozenset({0, 2}))
    out = swap_sequence(rep, Routing(((0, 1, 2),), frozenset({2})))
    assert out.digraph.arcs == step2.arcs
    assert out.targets == frozenset({0})
    assert gamma(out) == gamma(rep)
    assert oracle_bases(out) == oracle_bases(rep)


def test_swap_sequence_rejects_non_base_starts():
    rep = uniform_rep(2, 4)
    with pytest.raises(NotABaseError):
        swap_sequence(rep, Routing(((2, 0),), frozenset({0})))  # independent, not a base


def test_swap_sequence_rejects_routings_outside_the_ground_or_the_targets():
    # vertex 1 routes into the target 2 but is not in the ground; the path
    # (0, 1) is a valid routing into {1}, which is not the target set
    d = Digraph.build(3, [(0, 1), (0, 2), (1, 2)])
    rep = Representation(d, {2}, {0, 2})
    with pytest.raises(NotABaseError, match="routing must start inside the ground set"):
        swap_sequence(rep, Routing(((1, 2),), {2}))
    with pytest.raises(ValueError, match="routing must end inside the representation's targets") as info:
        swap_sequence(rep, Routing(((0, 1),), {1}))
    assert not isinstance(info.value, NotABaseError)


def test_swap_sequence_rejects_paths_through_targets():
    # a routing path crossing a target mid-way has no matroid-preserving
    # swap; max_routing never produces one (paths stop at the first target)
    d = Digraph.build(3, [(0, 1), (1, 2)])
    rep = Representation(d, frozenset({1, 2}), frozenset({0}))
    assert max_routing(d, {0}, {1, 2}).paths == ((0, 1),)
    with pytest.raises(ValueError, match="matroid-preserving"):
        swap_sequence(rep, Routing(((0, 1, 2),), frozenset({1, 2})))


def test_swap_sequence_rejects_a_second_path_through_a_target():
    # {0, 1} is a base and the first path is fine; the second meets target 3
    # before its end, so its first swap, (3, 4), has a target as its tail
    d = Digraph.build(5, [(0, 2), (1, 3), (3, 4)])
    rep = Representation(d, {2, 3, 4}, {0, 1})
    with pytest.raises(ValueError, match=r"swap of \(3, 4\) falls outside the matroid-preserving"):
        swap_sequence(rep, Routing(((0, 2), (1, 3, 4)), {2, 3, 4}))


def test_swap_sequence_reports_a_target_crossing_before_a_non_base():
    # the start set {0} has size 1 against rank 2, and the path meets
    # target 1 before its end: the crossing is the error reported
    d = Digraph.build(4, [(0, 1), (1, 2), (3, 2)])
    rep = Representation(d, {1, 2}, {0, 3})
    with pytest.raises(ValueError, match="matroid-preserving") as info:
        swap_sequence(rep, Routing(((0, 1, 2),), {1, 2}))
    assert not isinstance(info.value, NotABaseError)
    with pytest.raises(NotABaseError, match="have size 1, rank is 2"):
        swap_sequence(rep, Routing(((3, 2),), {1, 2}))


def test_swap_sequence_arc_count_never_grows():
    rng = random.Random(3)
    for _ in range(60):
        rep = random_representation(rng, 5)
        m = gamma(rep)
        base_mask = min(sorted(m.bases))
        base = rep.ids_at(base_mask)
        routing = max_routing(rep.digraph, base, rep.targets)
        out = swap_sequence(rep, routing)
        assert out.arc_count <= rep.arc_count
        assert out.targets == base
        assert gamma(out) == m


# -- rebase ----------------------------------------------------------------------


def test_rebase_to_current_targets_keeps_them():
    rep = uniform_rep(2, 3)
    out = rebase(rep, rep.targets)
    assert out.targets == rep.targets
    assert gamma(out) == gamma(rep)


def test_rebase_uniform_to_other_base():
    rep = uniform_rep(1, 2)
    out = rebase(rep, frozenset({1}))
    assert out.targets == frozenset({1})
    assert gamma(out) == gamma(rep)
    assert oracle_bases(out) == oracle_bases(rep)


def test_rebase_every_base_preserves_gamma():
    rng = random.Random(8)
    for _ in range(40):
        rep = random_representation(rng, 5)
        m = gamma(rep)
        for mask in sorted(m.bases):
            base = rep.ids_at(mask)
            out = rebase(rep, base)
            assert out.targets == base
            assert gamma(out) == m
            assert not any(u in base for u, _ in out.digraph.arcs)  # no arc leaves the base


def test_rebase_rejects_non_base():
    rep = uniform_rep(2, 4)
    with pytest.raises(NotABaseError):
        rebase(rep, frozenset({0, 1, 2}))
    with pytest.raises(NotABaseError):
        rebase(rep, frozenset({9}))


# -- standardize -------------------------------------------------------------------


def test_standardize_free_matroid():
    d = Digraph.build(2, [])
    rep = Representation(d, frozenset({0, 1}), frozenset({0, 1}))
    out = standardize(rep, frozenset({0, 1}))
    assert is_standard(out)
    assert gamma(out).rank == 2
    # only the primed-to-base arcs remain
    assert out.arc_count == 2


def test_standardize_adds_ground_size_arcs():
    rep = uniform_rep(1, 2)
    based = rebase(rep, frozenset({0}))
    out = standardize(rep, frozenset({0}))
    assert out.arc_count == based.arc_count + 2
    assert is_standard(out)
    assert gamma(out) == gamma(rep)


def test_standardize_keeps_ground_labels():
    rep = uniform_rep(2, 3)
    out = standardize(rep, frozenset({0, 1}))
    assert set(out.ground_labels()) == {"1", "2", "3"}
    assert len(set(out.digraph.labels)) == out.digraph.vertex_count


def test_standardize_primes_past_labels_that_are_taken():
    # "a'" is a ground label, so the copy of "a" gets "a''", and the copy of
    # "a'" the next free label, "a'''"
    d = Digraph.build(["a", "a'", "b"], [(1, 0), (2, 0)])
    rep = Representation(d, {0}, {0, 1, 2})
    out = standardize(rep, {0})
    assert out.digraph.labels == ("a", "a'", "b", "a''", "a'''", "b'")
    assert is_standard(out)
    assert gamma(out) == gamma(rep) == Matroid(("a", "a'", "b"), {0b001, 0b010, 0b100})


def test_standardize_random_small_reps():
    rng = random.Random(21)
    for _ in range(50):
        rep = random_representation(rng, 5)
        m = gamma(rep)
        mask = min(sorted(m.bases))
        base = rep.ids_at(mask)
        out = standardize(rep, base)
        assert is_standard(out)
        assert gamma(out) == m
        assert oracle_bases(out) == m.bases_label_sets()


# -- minor surgery -----------------------------------------------------------------


def test_restrict_representation_identity():
    rep = uniform_rep(2, 4)
    out = restrict_representation(rep, rep.ground)
    assert out == rep


def test_restrict_representation_keeps_targets_branch():
    rep = uniform_rep(2, 4)
    out = restrict_representation(rep, frozenset({0, 1, 2}))  # targets 0,1 kept
    assert out.digraph == rep.digraph
    assert out.ground == frozenset({0, 1, 2})


def test_restrict_representation_missing_target():
    rep = uniform_rep(2, 4)
    out = restrict_representation(rep, frozenset({1, 2, 3}))  # drops target "1"
    assert is_standard(out)
    assert out.arc_count <= 4
    assert gamma(out) == restrict(gamma(rep), ("2", "3", "4"))


def test_restrict_representation_rejects_foreign_set():
    rep = uniform_rep(1, 2)
    with pytest.raises(ValueError):
        restrict_representation(rep, frozenset({5}))
    with pytest.raises(NotStandardError):
        restrict_representation(
            Representation(Digraph.build(2, [(0, 1)]), frozenset({0}), frozenset({0, 1})),
            frozenset(),
        )


def test_contract_representation_rejects_what_dual_and_restrict_reject():
    # target 2 outside the ground, targets 1 and 2 not sinks, source 0 hit
    bad = Representation(Digraph.build(3, [(0, 1), (1, 2), (2, 0)]), {1, 2}, {0, 1})
    with pytest.raises(NotStandardError) as from_dual:
        dual_representation(bad)
    with pytest.raises(NotStandardError) as from_contract:
        contract_representation(bad, frozenset({0}))
    assert str(from_contract.value) == str(from_dual.value)
    assert str(from_contract.value).count(";") == 2
    with pytest.raises(ValueError, match="must be a subset of the ground set"):
        contract_representation(uniform_rep(1, 2), frozenset({5}))


def test_contract_representation_identity_and_uniform():
    rep = uniform_rep(2, 4)
    assert gamma(contract_representation(rep, rep.ground)) == gamma(rep)
    out = contract_representation(rep, frozenset({1, 2, 3}))
    assert is_standard(out)
    assert gamma(out) == contract_to(gamma(rep), ("2", "3", "4"))


def test_surgery_never_gains_arcs():
    rng = random.Random(17)
    for _ in range(30):
        rep = random_representation(rng, 5)
        m = gamma(rep)
        mask = min(sorted(m.bases))
        std = standardize(rep, rep.ids_at(mask))
        sids = sorted(std.ground)
        for _ in range(4):
            xs = frozenset(v for v in sids if rng.random() < 0.6)
            assert restrict_representation(std, xs).arc_count <= std.arc_count
            assert contract_representation(std, xs).arc_count <= std.arc_count


def test_standard_targets_form_a_base():
    rng = random.Random(23)
    for _ in range(40):
        rep = random_representation(rng, 5)
        m = gamma(rep)
        mask = min(sorted(m.bases))
        std = standardize(rep, rep.ids_at(mask))
        got = gamma(std)
        assert got.mask_of(std.target_labels()) in got.bases


# -- JSON ---------------------------------------------------------------------------


def test_repr_names_labels_and_arcs():
    assert repr(uniform_rep(1, 2)) == (
        "Representation(targets=['1'], ground=['1', '2'], "
        "digraph=Digraph(2 vertices, arcs=[(1, 0)]))"
    )


def test_rep_json_round_trip():
    rep = uniform_rep(2, 4)
    blob = json.dumps(rep_to_dict(rep))
    assert rep_from_dict(json.loads(blob)) == rep


def test_rep_json_rejects_bad_fields():
    with pytest.raises(ValueError):
        rep_from_dict({"targets": []})
    with pytest.raises(ValueError):
        rep_from_dict({"digraph": {"vertices": ["a"], "arcs": []}, "targets": "a"})


# Arbitrary JSON values, and JSON objects carrying any subset of a loader's
# fields, whose values are often lists of a few shared labels, so that the
# fuzzing gets past the first type checks into the nested ones.
_LABEL = st.sampled_from(["a", "b", "c"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2) | _LABEL,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)
_ITEMS = _LABEL | st.lists(_LABEL, max_size=2) | _JSON
_VALUES = st.lists(_LABEL, max_size=3) | st.lists(st.lists(_ITEMS, max_size=3), max_size=3) | _JSON


def _objects(**fields):
    return st.fixed_dictionaries({}, optional=fields) | _JSON


_DIGRAPH = _objects(vertices=_VALUES, arcs=_VALUES)
_REP = _objects(digraph=_DIGRAPH, targets=_VALUES, ground=_VALUES)
_MATROID = _objects(ground=_VALUES, bases=_VALUES)


@given(_DIGRAPH, _REP, _MATROID)
def test_json_loaders_raise_only_value_error(digraph, rep, matroid):
    for load, blob in ((digraph_from_dict, digraph), (rep_from_dict, rep), (matroid_from_dict, matroid)):
        try:
            load(blob)
        except ValueError:
            pass


def test_value_types_are_checked_tuples():
    d = Digraph.build(["a", "b", "t"], [(0, 2), (1, 2)])
    assert d.ids(["t"]) == {2}  # the label map is built per call: no cache, no `__dict__`
    assert not hasattr(d, "__dict__")
    rep = Representation(d, {2}, {0, 1, 2})
    m = gamma(rep)
    routing = max_routing(d, {0, 1}, {2})
    labels, out = d  # one out-mask per vertex
    assert (labels, out) == d and out == (0b100, 0b100, 0)
    assert rep == (d, 0b100, 0b111)  # the target and ground masks
    assert m == (("a", "b", "t"), frozenset({0b001, 0b010, 0b100}))  # U(1,3)
    for value in (d, rep, m, routing):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value) and type(copy) is type(value)
    with pytest.raises(AttributeError):
        m.ground = ()
    # `_replace` goes through the checked constructor, as the fields do
    assert m._replace(ground=("t", "b", "a")).ground == ("a", "b", "t")
    assert routing._replace(paths=[[1, 2]]).paths == ((1, 2),)
    assert d._replace(out=(0, 0, 0b011)).arcs == {(2, 0), (2, 1)}
    assert rep._replace(target_mask=0b001).targets == {0}
    with pytest.raises(ValueError, match="outside vertex range"):
        d._replace(out=(1 << 5, 0, 0))
    with pytest.raises(ValueError, match="3 out-masks for 2 vertices"):
        d._replace(labels=("a", "b"))
    with pytest.raises(ValueError, match="outside vertex range"):
        rep._replace(target_mask=1 << 7)
    with pytest.raises(ValueError, match="is not an integer"):
        rep._replace(ground_mask=7.0)
    with pytest.raises(ValueError, match="base mask outside"):
        m._replace(bases={0b1000})


@pytest.mark.parametrize(
    "call",
    [
        "Digraph.build(2, [5])",
        "Digraph.build(2.0, [])",
        "Digraph(('a',), None)",
        "Digraph(None, [])",
        "Matroid(('a',), 5)",
        "Matroid(None, [1])",
        "Matroid.from_label_sets(('a',), 5)",
        "Matroid((5, 'a'), {1})",
        "Matroid.from_label_sets((5, 'a'), [(5,)])",
        "relabel(uniform(1, 2), {'1': 5})",
        "Digraph([[5]], [])",
        "Routing(5, [1])",
        "d.ids(5)",
        "max_routing(d, 5, [1])",
        "max_routing(d, [0], 5)",
        "routable(d, 5, [1])",
        "Representation(d, None, [0])",
        "Representation(None, [], [])",
        "Representation._make((None, 0, 0))",
        "is_independent(rep, 5)",
        "swap_sequence(rep, 5)",
        "rebase(rep, 5)",
        "standardize(rep, 5)",
        "restrict_representation(rep, 5)",
        "contract_representation(rep, 5)",
    ],
)
def test_malformed_arguments_are_value_errors_naming_them(call):
    # an argument that is no collection, an arc that is no pair, or a label
    # that is no string, is rejected where it enters, never as a TypeError
    # or AttributeError
    d = Digraph.build(3, [(0, 1), (1, 2)])
    rep = uniform_rep(1, 2)
    with pytest.raises(ValueError, match=r"(5|None|2\.0|\[5\]) is not a"):
        eval(call, globals(), {"d": d, "rep": rep})


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "call",
    [
        "Digraph(('a', 'b'), [(flag, 0)])",
        "Digraph.build(flag, [])",
        "Digraph._make((('a', 'b'), (flag, 0)))",
        "Representation(d, [flag], [0, 1])",
        "Representation._make((d, flag, 0))",
        "Representation._make((d, 0, flag))",
        "rep.ids_at(flag)",
        "swap(d, flag, 1 + flag)",
        "Matroid(('a',), [flag])",
        "uniform(flag, 3)",
        "uniform_rep(flag, 3)",
        "kw_upper_bound(flag, 3)",
        "SuperAdditiveFn.from_table([1, flag])",
    ],
)
def test_booleans_are_not_integers(call, flag):
    # each call is well formed with 1 or 0 in the place of the bool, so a
    # bool read as an integer would go through
    d = Digraph.build(3, [(0, 1), (1, 2)])
    rep = uniform_rep(1, 2)
    with pytest.raises(ValueError, match=f"{flag} is not an integer$"):
        eval(call, globals(), {"d": d, "rep": rep, "flag": flag})


def test_ids_at_rejects_a_mask_beyond_the_ground():
    rep = uniform_rep(1, 2)
    assert rep.ids_at(0b11) == {0, 1}
    for mask in (0b100, -1):
        with pytest.raises(ValueError, match=r"outside ground position range 0\.\.1$"):
            rep.ids_at(mask)
    # an empty ground has no positions, and the message says so
    with pytest.raises(ValueError, match="^mask 0b1 outside the empty ground position range$"):
        Representation(Digraph.build(2, []), [], []).ids_at(1)
    with pytest.raises(ValueError, match=r"^mask 0b100 outside vertex range 0\.\.1$"):
        Representation._make((Digraph.build(2, []), 0b100, 0))


def test_package_routing_never_goes_through_the_public_edge(monkeypatch):
    # the package routes its own masks through the unchecked core, so with
    # the public edge's helpers raising in every module that binds them,
    # gamma and every surgery still return what they returned before
    import gammoids.routing as routing_module

    rng = random.Random(5)
    cases = []
    for _ in range(80):
        rep = random_representation(rng, 6)
        m = gamma(rep)
        base = rep.ids_at(min(m.bases))
        std = standardize(rep, base)
        xs = frozenset(v for v in sorted(std.ground) if rng.random() < 0.6)
        cases.append((rep, base, std, xs))

    def results():
        return [
            (
                gamma(rep),
                rebase(rep, base),
                standardize(rep, base),
                gamma(std),
                restrict_representation(std, xs),
                contract_representation(std, xs),
            )
            for rep, base, std, xs in cases
        ]

    expected = results()

    def refuse(*args):
        raise AssertionError("the checked public routing edge was called")

    edge = (routing_module._vertex_mask, routing_module.validate_routing, routing_module.max_routing)
    patched = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gammoids":
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in edge):
                    monkeypatch.setattr(module, attr, refuse)
                    patched.add((name, attr))
    assert {
        ("gammoids.digraph", "_vertex_mask"),
        ("gammoids.representation", "_vertex_mask"),
        ("gammoids.representation", "validate_routing"),
        ("gammoids.routing", "max_routing"),
    } <= patched
    assert results() == expected
    with pytest.raises(AssertionError, match="public routing edge"):
        swap_sequence(cases[0][2], Routing((), ()))  # the edge itself still checks


def _rebuilt(value):
    """`value` rebuilt through its type's public, checked constructor."""
    if isinstance(value, Digraph):
        return Digraph(value.labels, value.arcs)
    if isinstance(value, Representation):
        return Representation(_rebuilt(value.digraph), value.targets, value.ground)
    if isinstance(value, Matroid):
        return Matroid(value.ground, value.bases)
    return Routing(value.paths, value.targets)


def _assert_canonical(*values):
    for value in values:
        copy = _rebuilt(value)
        assert copy == value and hash(copy) == hash(value), value


def test_derived_values_equal_their_checked_rebuilds():
    # every transformation builds its result without a second check, so each
    # result must be exactly what the public constructor makes of its parts;
    # every other input has its labels reversed, which makes gamma's ground
    # labels unsorted in id order
    rng = random.Random(21)
    for i in range(300):
        rep = random_representation(rng, 6)
        if i % 2:
            d = rep.digraph
            rep = Representation(Digraph(d.labels[::-1], d.arcs), rep.targets, rep.ground)
        d = rep.digraph
        arcs = sorted(a for a in d.arcs if a[0] != a[1])
        _assert_canonical(d, rep, opposite(d), remove_loops(d), *(swap(d, r, s) for r, s in arcs))
        m = gamma(rep)
        _assert_canonical(m, dual(m), max_routing(d, rep.ground, rep.targets))
        base = rep.ids_at(min(m.bases))
        std = standardize(rep, base)
        _assert_canonical(rebase(rep, base), std, dual_representation(std), gamma(std))
        for x_mask in range(m.full_mask + 1):
            labels = m.labels_of(x_mask)
            xs = std.ids_at(x_mask)
            rr, cc = restrict_representation(std, xs), contract_representation(std, xs)
            _assert_canonical(rr, cc, gamma(rr), gamma(cc), restrict(m, labels), contract_to(m, labels))
    for size in range(5):
        for m in all_matroids(("d", "c", "b", "a")[:size]):
            _assert_canonical(m, dual(m))
            for x_mask in range(m.full_mask + 1):
                labels = m.labels_of(x_mask)
                _assert_canonical(restrict(m, labels), contract_to(m, labels))


def test_surgery_suites_pass_where_labels_do_not_sort_in_id_order():
    # seed 45 draws an 11-vertex representation whose ground holds "v10" and
    # some of "v2".."v9", so gamma's positions are not the ids in ascending
    # order; mapping them in id order makes both suites raise NotABaseError
    rng = random.Random(45)
    grounds = [random_representation(rng, 11).ground_mask for _ in range(2)]
    assert any(g >> 10 & 1 and g & 0b1111111100 for g in grounds)
    for suite, cases in ((standardization_suite, 8), (surgery_suite, 144)):
        result = suite(count=2, max_vertices=11, seed=45)
        assert (result.cases, result.failures) == (cases, [])
