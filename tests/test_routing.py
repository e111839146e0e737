import hashlib
import json
import random

import pytest

from gammoids.bruteforce import brute_max_routing_size
from gammoids.digraph import Digraph
from gammoids.representation import Representation
from gammoids.routing import Routing, is_independent, max_routing, routable, validate_routing


def test_bottleneck_target_admits_only_one_path():
    # X = {a, b}, T = {t}, arcs a->t and b->t: both paths would need t
    d = Digraph.build(["a", "b", "t"], [(0, 2), (1, 2)])
    r = max_routing(d, {0, 1}, {2})
    assert r.size == 1
    assert brute_max_routing_size(d, {0, 1}, {2}) == 1
    # deterministic: the smaller source wins the augmentation race
    assert r.paths == ((0, 2),)


def test_single_vertex_path_for_source_in_targets():
    d = Digraph.build(2, [])
    r = max_routing(d, {0}, {0, 1})
    assert r.paths == ((0,),)


def test_complete_bipartite_three_into_two():
    arcs = [(x, t) for x in (0, 1, 2) for t in (3, 4)]
    d = Digraph.build(5, arcs)
    assert max_routing(d, {0, 1, 2}, {3, 4}).size == 2
    assert brute_max_routing_size(d, {0, 1, 2}, {3, 4}) == 2


def test_paths_stop_at_the_first_target():
    # a -> t1 -> t2 with both targets: the path must end at t1
    d = Digraph.build(3, [(0, 1), (1, 2)])
    r = max_routing(d, {0}, {1, 2})
    assert r.paths == ((0, 1),)


def test_sources_in_targets_stay_single_vertex():
    d = Digraph.build(3, [(1, 0), (0, 2)])
    r = max_routing(d, {0, 1}, {0, 2})
    assert (0,) in r.paths


def test_rerouting_through_residual_arcs():
    # greedy routing of 0 through t would block t in T = {t, w}; the
    # augmentation must reroute 0 to w so that t routes itself
    d = Digraph.build(["x", "t", "w"], [(0, 1), (0, 2)])
    r = max_routing(d, {0, 1}, {1, 2})
    assert r.size == 2
    assert set(r.paths) == {(0, 2), (1,)}


def test_empty_routing_is_valid():
    d = Digraph.build(2, [])
    assert max_routing(d, {0}, {1}).size == 0
    assert max_routing(d, set(), {1}).size == 0


def test_vertex_out_of_range_rejected():
    d = Digraph.build(2, [])
    with pytest.raises(ValueError):
        max_routing(d, {5}, {0})
    d = Digraph.build(2, [(0, 1)])
    for xs, targets in [({0}, {-1}), ({0}, {2}), ({0}, {3}), ({5}, {1})]:
        with pytest.raises(ValueError, match="outside the digraph"):
            routable(d, xs, targets)
        with pytest.raises(ValueError, match="outside the digraph"):
            max_routing(d, xs, targets)


def test_non_integer_vertex_ids_raise_value_error():
    d = Digraph.build(2, [(0, 1)])
    with pytest.raises(ValueError, match="vertex id 0.5 is not an integer"):
        max_routing(d, [0.5], [1])


def test_loops_are_ignored():
    d = Digraph.build(2, [(0, 0), (0, 1)])
    assert routable(d, {0}, {1})
    assert max_routing(d, {0}, {1}).paths == ((0, 1),)


def test_validate_routing_flags_violations():
    d = Digraph.build(3, [(0, 1)])
    validate_routing(d, Routing(((0, 1),), frozenset({1})))
    with pytest.raises(ValueError):
        validate_routing(d, Routing(((0, 2),), frozenset({2})))  # missing arc
    with pytest.raises(ValueError):
        validate_routing(d, Routing(((0, 1),), frozenset({2})))  # wrong end
    with pytest.raises(ValueError):
        validate_routing(d, Routing(((0, 1), (1,)), frozenset({1})))  # overlap


def test_is_independent_on_uniform_representation():
    from gammoids.complexity import uniform_rep

    rep = uniform_rep(2, 4)
    assert is_independent(rep, set())
    for pair in [(0, 1), (0, 3), (2, 3)]:
        assert is_independent(rep, set(pair))
    for triple in [(0, 1, 2), (1, 2, 3)]:
        assert not is_independent(rep, set(triple))


def test_is_independent_rejects_foreign_elements():
    from gammoids.complexity import uniform_rep

    rep = uniform_rep(1, 2)
    with pytest.raises(ValueError):
        is_independent(rep, {7})


def test_deterministic_routing_output():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 6)
        arcs = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.4}
        d = Digraph.build(n, arcs)
        xs = {v for v in range(n) if rng.random() < 0.5}
        ts = {v for v in range(n) if rng.random() < 0.4}
        first = max_routing(d, xs, ts)
        again = max_routing(Digraph.build(n, sorted(arcs)), xs, ts)
        assert first == again


def test_monotonicity_of_independence():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(2, 6)
        arcs = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.35}
        d = Digraph.build(n, arcs)
        ground = frozenset(range(n))
        ts = frozenset(v for v in range(n) if rng.random() < 0.4)
        rep = Representation(d, ts, ground)
        big = {v for v in range(n) if rng.random() < 0.6}
        if is_independent(rep, big):
            for drop in sorted(big):
                assert is_independent(rep, big - {drop})


def test_max_routing_against_oracle_randomized():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(1, 5)
        arcs = {(u, v) for u in range(n) for v in range(n) if rng.random() < 0.35}
        d = Digraph.build(n, arcs)
        xs = {v for v in range(n) if rng.random() < 0.5}
        ts = {v for v in range(n) if rng.random() < 0.5}
        got = max_routing(d, xs, ts)
        validate_routing(d, got)
        assert got.starts() <= xs
        assert got.size == brute_max_routing_size(d, xs, ts)


# sha256 of the outputs below, computed before the routing kernel moved from
# sorted adjacency lists to bit masks; any change to a tie-break (BFS order,
# source order, path extraction) changes them
_ROUTING_DIGEST = "d7737dae3354282bcc67e8bdb561f1ac768c13dc70eae5829b21d5d1f32e5488"
_SURGERY_DIGEST = "7ea0d6a77909542a1da4c68a1d007f3fee5b9c3616625891b0f234edccf95f69"


def test_routings_and_surgery_keep_their_tie_breaks():
    from gammoids.matroid import gamma, matroid_to_dict
    from gammoids.representation import (
        contract_representation,
        rep_to_dict,
        restrict_representation,
        standardize,
    )
    from gammoids.suites import random_representation

    # the routing-oracle corpus of acceptance criterion 8 (seed 2026)
    h = hashlib.sha256()
    rng = random.Random(2026)
    for _ in range(1000):
        n = rng.randint(1, 6)
        density = rng.choice([0.1, 0.2, 0.35, 0.5])
        arcs = {(u, v) for u in range(n) for v in range(n) if rng.random() < (0.08 if u == v else density)}
        d = Digraph.build(n, arcs)
        xs = frozenset(v for v in range(n) if rng.random() < 0.5)
        ts = frozenset(v for v in range(n) if rng.random() < 0.4)
        h.update(repr(max_routing(d, xs, ts).paths).encode())
    assert h.hexdigest() == _ROUTING_DIGEST

    # gamma, standardize onto every base, and restriction and contraction of
    # one standard form to every ground subset
    h = hashlib.sha256()
    rng = random.Random(7)
    for _ in range(300):
        rep = random_representation(rng, 6)
        m = gamma(rep)
        h.update(json.dumps(matroid_to_dict(m), sort_keys=True).encode())
        for b in sorted(m.bases):
            std = standardize(rep, rep.ids_at(b))
            h.update(json.dumps(rep_to_dict(std), sort_keys=True).encode())
        std = standardize(rep, rep.ids_at(min(m.bases)))
        for x in range(m.full_mask + 1):
            xs = std.ids_at(x)
            for minor in (restrict_representation(std, xs), contract_representation(std, xs)):
                h.update(json.dumps(rep_to_dict(minor), sort_keys=True).encode())
    assert h.hexdigest() == _SURGERY_DIGEST
