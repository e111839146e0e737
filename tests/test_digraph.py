import json

import pytest
from hypothesis import given, strategies as st

from gammoids.digraph import (
    Digraph,
    digraph_from_dict,
    digraph_to_dict,
    opposite,
    remove_loops,
    swap,
)


@st.composite
def digraphs(draw, max_vertices=5):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arcs = draw(st.frozensets(pairs, max_size=n * n))
    return Digraph.build(n, arcs)


def test_build_and_queries():
    d = Digraph.build(["a", "b", "c"], [(0, 1), (1, 2)])
    assert d.vertex_count == 3
    assert d.successors == (0b010, 0b100, 0)  # out-neighbour masks
    assert d.ids(["a", "c"]) == frozenset({0, 2})
    assert d.label_set({0, 2}) == frozenset({"a", "c"})


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        Digraph.build(["a", "a"], [])
    # the labels are read first, then each arc is read, checked and stored
    with pytest.raises(ValueError, match="vertex labels must be unique"):
        Digraph(["a", "a"], [(0, 1), (5,)])
    with pytest.raises(ValueError, match=r"arc \(0, 5\) outside vertex range"):
        Digraph(["a", "b"], [(0, 5), (5,)])


def test_arc_out_of_range_rejected():
    with pytest.raises(ValueError):
        Digraph.build(2, [(0, 2)])


def test_non_integer_vertex_ids_are_rejected_not_truncated():
    with pytest.raises(ValueError, match="vertex id 1.7 is not an integer"):
        Digraph.build(2, [(0, 1.7)])


def test_unknown_label_rejected():
    d = Digraph.build(["a"], [])
    with pytest.raises(ValueError):
        d.ids(["missing"])


@pytest.mark.parametrize("bad", [-1, 9])
def test_label_set_rejects_ids_outside_the_digraph(bad):
    # -1 once indexed from the end ("v2") and 9 raised IndexError
    d = Digraph.build(3, [])
    with pytest.raises(ValueError, match=f"vertex {bad} outside the digraph"):
        d.label_set([0, bad])


def test_successors_drop_loops():
    d = Digraph.build(2, [(0, 0), (0, 1)])
    assert d.successors[0] == 0b10


def test_opposite_empty_is_identity():
    d = Digraph.build(3, [])
    assert opposite(d) == d


def test_opposite_reverses_single_arc():
    d = Digraph.build(2, [(0, 1)])
    assert opposite(d).arcs == frozenset({(1, 0)})


@given(digraphs())
def test_opposite_is_involution_and_preserves_arc_count(d):
    assert opposite(opposite(d)) == d
    assert len(opposite(d).arcs) == len(d.arcs)


def test_swap_lone_arc():
    d = Digraph.build(["r", "s"], [(0, 1)])
    assert swap(d, 0, 1).arcs == frozenset({(1, 0)})


def test_swap_redirects_tail_fanout():
    # arcs {(r,s),(r,x)} -> {(s,r),(s,x)}
    d = Digraph.build(["r", "s", "x"], [(0, 1), (0, 2)])
    assert swap(d, 0, 1).arcs == frozenset({(1, 0), (1, 2)})


def test_swap_keeps_other_tails():
    # arcs {(r,s),(x,s)} -> {(x,s),(s,r)}, arc count preserved
    d = Digraph.build(["r", "s", "x"], [(0, 1), (2, 1)])
    out = swap(d, 0, 1)
    assert out.arcs == frozenset({(2, 1), (1, 0)})
    assert len(out.arcs) == len(d.arcs)


def test_swap_drops_arcs_leaving_the_head():
    # s's own out-arcs must go: they would otherwise let routings appear
    # after s leaves the target set
    d = Digraph.build(3, [(1, 0), (0, 2)])
    assert swap(d, 1, 0).arcs == frozenset({(0, 1)})


def test_swap_requires_existing_arc():
    d = Digraph.build(2, [(0, 1)])
    with pytest.raises(ValueError):
        swap(d, 1, 0)
    with pytest.raises(ValueError):
        swap(d, 0, 0)


@given(digraphs())
def test_swap_never_increases_arc_count(d):
    for u, v in sorted(d.arcs):
        if u != v:
            assert len(swap(d, u, v).arcs) <= len(d.arcs)


def test_remove_loops():
    assert remove_loops(Digraph.build(1, [(0, 0)])).arcs == frozenset()
    d = Digraph.build(2, [(0, 1), (1, 1)])
    assert remove_loops(d).arcs == frozenset({(0, 1)})
    clean = Digraph.build(2, [(0, 1)])
    assert remove_loops(clean) == clean


@given(digraphs())
def test_remove_loops_is_idempotent(d):
    once = remove_loops(d)
    assert remove_loops(once) == once


def test_json_round_trip():
    d = Digraph.build(["a", "b", "c"], [(0, 1), (2, 2), (1, 0)])
    blob = json.dumps(digraph_to_dict(d))
    assert digraph_from_dict(json.loads(blob)) == d


def test_json_rejects_unknown_vertex():
    with pytest.raises(ValueError):
        digraph_from_dict({"vertices": ["a"], "arcs": [["a", "b"]]})


def test_json_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="labels must be unique"):
        digraph_from_dict({"vertices": ["a", "b", "a"], "arcs": [["a", "b"]]})


def test_json_rejects_malformed_arcs():
    for arcs in (["a"], 5, None, [["a", ["x"]]]):
        with pytest.raises(ValueError):
            digraph_from_dict({"vertices": ["a"], "arcs": arcs})
