import json
import random

import pytest

from gammoids.bruteforce import brute_contract_bases, brute_gamma_bases, brute_restrict_bases
from gammoids.digraph import Digraph
from gammoids.matroid import (
    EnumerationLimitError,
    Matroid,
    contract_to,
    direct_sum,
    dual,
    gamma,
    matroid_from_dict,
    matroid_to_dict,
    nested_minors,
    relabel,
    restrict,
    uniform,
    validate_matroid,
)
from gammoids.representation import Representation
from gammoids.suites import all_matroids, random_representation


def bases(m):
    return {tuple(sorted(b)) for b in m.bases_label_sets()}


def test_uniform_rank0_and_free():
    assert bases(uniform(0, 2)) == {()}
    assert bases(uniform(2, 2)) == {("1", "2")}
    assert len(uniform(2, 4).bases) == 6


def test_uniform_rejects_bad_rank():
    with pytest.raises(ValueError):
        uniform(3, 2)


def test_construction_guards():
    with pytest.raises(ValueError):
        Matroid(("a",), frozenset())  # no base
    with pytest.raises(ValueError):
        Matroid(("a", "b"), frozenset({0b01, 0b11}))  # not equicardinal
    with pytest.raises(ValueError):
        Matroid(("a",), frozenset({0b10}))  # outside ground
    with pytest.raises(ValueError):
        Matroid(("b", "a"), frozenset({0b100}))  # outside ground, unsorted labels


def test_independence_and_loops():
    m = Matroid.from_label_sets(("a", "b", "c"), [("a",), ("b",)])
    assert m.independent(["a"]) and m.independent([])
    assert not m.independent(["a", "b"])
    assert m.loops() == frozenset({"c"})


def test_dual_examples():
    assert dual(uniform(1, 3)) == uniform(2, 3)
    free = uniform(3, 3)
    assert dual(free) == uniform(0, 3)
    assert dual(dual(uniform(2, 4))) == uniform(2, 4)


def test_dual_rank_complement():
    for m in [uniform(1, 3), uniform(2, 4), uniform(0, 2)]:
        assert m.rank + dual(m).rank == len(m.ground)


def test_restrict_examples():
    m = uniform(2, 4)
    assert restrict(m, m.ground) == m
    assert bases(restrict(m, ("1", "2", "4"))) == {("1", "2"), ("1", "4"), ("2", "4")}
    empty = restrict(m, ())
    assert empty.ground == () and empty.rank == 0


def test_restrict_rejects_foreign_labels():
    with pytest.raises(ValueError):
        restrict(uniform(1, 2), ("9",))


def test_contract_examples():
    m = uniform(2, 4)
    assert contract_to(m, m.ground) == m
    got = contract_to(m, ("1", "2", "3"))
    assert bases(got) == {("1",), ("2",), ("3",)}  # U(1,3) on the kept labels
    free = uniform(3, 3)
    assert bases(contract_to(free, ("1", "3"))) == {("1", "3")}


def test_contract_to_is_dual_of_restricted_dual():
    for size in range(5):
        for m in all_matroids(tuple("abcd"[:size])):
            for x in range(m.full_mask + 1):
                labels = m.labels_of(x)
                assert contract_to(m, labels) == dual(restrict(dual(m), labels))


def test_nested_minors_walk_y_then_x_in_ascending_mask_order():
    m = uniform(1, 2)
    pairs = [(x, y) for x, y, _ in nested_minors(m)]
    assert pairs == [
        ((), ()),
        ((), ("1",)),
        (("1",), ("1",)),
        ((), ("2",)),
        (("2",), ("2",)),
        ((), ("1", "2")),
        (("1",), ("1", "2")),
        (("2",), ("1", "2")),
        (("1", "2"), ("1", "2")),
    ]
    for x, y, minor in nested_minors(m):
        assert minor == restrict(contract_to(m, y), x)
    assert sum(1 for _ in nested_minors(uniform(2, 4))) == 81


def test_direct_sum():
    m = uniform(1, 1)
    n = relabel(uniform(1, 1), {"1": "2"})
    assert bases(direct_sum(m, n)) == {("1", "2")}
    empty = Matroid((), frozenset({0}))
    assert direct_sum(uniform(1, 2), empty) == uniform(1, 2)
    with pytest.raises(ValueError):
        direct_sum(uniform(1, 2), uniform(1, 2))


def test_direct_sum_rank_additive():
    rng = random.Random(1)
    for _ in range(20):
        r1, n1 = rng.randint(0, 2), rng.randint(0, 3)
        r2, n2 = rng.randint(0, 2), rng.randint(0, 3)
        m = uniform(min(r1, n1), n1)
        n = relabel(uniform(min(r2, n2), n2), {str(i): f"x{i}" for i in range(1, n2 + 1)})
        assert direct_sum(m, n).rank == m.rank + n.rank


def test_equality_is_label_based():
    m = Matroid.from_label_sets(("a", "b"), [("a",)])
    n = Matroid.from_label_sets(("b", "a"), [("a",)])
    assert m == n and hash(m) == hash(n)
    assert n.ground == ("a", "b")
    assert uniform(1, 2) != uniform(2, 2)


def test_all_matroids_counts_labelled_matroids():
    # OEIS A058673: labelled matroids on n elements
    counts = [sum(1 for _ in all_matroids(tuple("abcd"[:n]))) for n in range(5)]
    assert counts == [1, 2, 5, 16, 68]


def test_validate_matroid_catches_exchange_violation():
    # {a,b} and {c,d} without exchange partners
    bad = Matroid.from_label_sets(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
    with pytest.raises(ValueError):
        validate_matroid(bad)
    validate_matroid(uniform(2, 4))


def test_gamma_arc_free_cases():
    d = Digraph.build(3, [])
    free = gamma(Representation(d, frozenset({0, 1, 2}), frozenset({0, 1, 2})))
    assert free.rank == 3 and len(free.bases) == 1
    trivial = gamma(Representation(d, frozenset(), frozenset({0, 1})))
    assert trivial.rank == 0


def test_gamma_uniform_representation():
    from gammoids.complexity import uniform_rep

    assert gamma(uniform_rep(2, 4)) == uniform(2, 4)


def test_gamma_validates_when_asked():
    from gammoids.complexity import uniform_rep

    gamma(uniform_rep(2, 3), validate=True)


def test_gamma_matches_path_family_oracle():
    rng = random.Random(21)
    for _ in range(200):
        rep = random_representation(rng, 6)
        oracle = brute_gamma_bases(rep.digraph, rep.targets, rep.ground)
        assert gamma(rep).bases_label_sets() == {rep.digraph.label_set(b) for b in oracle}


def test_gamma_enumeration_limit():
    d = Digraph.build(5, [])
    rep = Representation(d, frozenset(), frozenset(range(5)))
    with pytest.raises(EnumerationLimitError):
        gamma(rep, max_ground=4)


def test_gammas_satisfy_matroid_axioms():
    rng = random.Random(42)
    for _ in range(60):
        rep = random_representation(rng, 6)
        validate_matroid(gamma(rep))


def test_minors_against_rank_oracle():
    rng = random.Random(13)
    for _ in range(60):
        rep = random_representation(rng, 6)
        m = gamma(rep)
        sub = frozenset(lab for lab in m.ground if rng.random() < 0.6)
        mask = m.mask_of(sub)
        got = restrict(m, sub)
        assert {m.labels_of(b) for b in brute_restrict_bases(m.bases, mask)} == got.bases_label_sets()
        got = contract_to(m, sub)
        oracle = brute_contract_bases(m.bases, m.full_mask, mask)
        assert {m.labels_of(b) for b in oracle} == got.bases_label_sets()


def test_minor_composition_matches_oracle():
    # contract then restrict, against the rank-function oracle, |E| <= 6
    rng = random.Random(14)
    for _ in range(40):
        rep = random_representation(rng, 6)
        m = gamma(rep)
        y = frozenset(lab for lab in m.ground if rng.random() < 0.7)
        x = frozenset(lab for lab in y if rng.random() < 0.7)
        minor = restrict(contract_to(m, y), x)
        contracted_oracle = brute_contract_bases(m.bases, m.full_mask, m.mask_of(y))
        mid = Matroid(m.ground, frozenset(contracted_oracle))  # ground positions reused
        x_mask = m.mask_of(x)
        final = {m.labels_of(b) for b in brute_restrict_bases(mid.bases, x_mask)}
        assert final == minor.bases_label_sets()


def test_json_round_trip():
    m = uniform(2, 4)
    blob = json.dumps(matroid_to_dict(m))
    assert matroid_from_dict(json.loads(blob)) == m


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        matroid_from_dict({"ground": "ab", "bases": []})
    with pytest.raises(ValueError):
        matroid_from_dict({"ground": ["a"], "bases": [["b"]]})
    with pytest.raises(ValueError, match="basis-exchange"):
        matroid_from_dict({"ground": ["a", "b", "c", "d"], "bases": [["a", "b"], ["c", "d"]]})
