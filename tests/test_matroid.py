import ast
import json
import pickle
import random
import time
from collections import Counter
from itertools import combinations

import pytest

from gammoids.bruteforce import brute_contract_bases, brute_gamma_bases, brute_restrict_bases
from gammoids.complexity import uniform_rep
from gammoids.digraph import Digraph, digraph_from_dict
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
from gammoids.representation import Representation, rep_from_dict
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


def test_uniform_rejects_non_integer_sizes_by_value():
    with pytest.raises(ValueError, match="rank 2.0 is not an integer"):
        uniform(2.0, 4)


def test_relabel_rejects_a_mapping_that_is_no_mapping():
    with pytest.raises(ValueError, match="label mapping 5 is not a mapping"):
        relabel(uniform(1, 2), 5)


@pytest.mark.parametrize(
    "lookup",
    [
        lambda: Digraph.build(["a", "b"]).ids(["a", "zz"]),
        lambda: uniform(1, 2).mask_of(["1", "zz"]),
        lambda: Matroid.from_label_sets(["a", "b"], [["a"], ["zz"]]),
        lambda: digraph_from_dict({"vertices": ["a", "b"], "arcs": [["a", "b"], ["zz", "a"]]}),
        lambda: rep_from_dict({"digraph": {"vertices": ["a"]}, "targets": ["zz"], "ground": ["a"]}),
        lambda: matroid_from_dict({"ground": ["a", "b"], "bases": [["a"], ["zz"]]}),
    ],
    ids=["Digraph.ids", "Matroid.mask_of", "Matroid.from_label_sets", "digraph_from_dict",
         "rep_from_dict", "matroid_from_dict"],
)
def test_an_unknown_label_is_a_value_error_naming_it(lookup):
    with pytest.raises(ValueError, match="'zz'"):
        lookup()


def test_an_unhashable_label_is_an_unknown_label():
    for lookup in (
        lambda: Digraph.build(["a"]).ids([["a"]]),
        lambda: uniform(1, 2).mask_of([["1"]]),
        lambda: Matroid.from_label_sets(["a"], [[["a"]]]),
    ):
        with pytest.raises(ValueError, match=r"unknown label \['.'\]"):
            lookup()


@pytest.mark.parametrize("labels", ["ab", b"ab"])
def test_a_string_is_one_label_not_a_collection_of_them(labels):
    # on a ground holding a, b and ab, "ab" would read as {a, b}
    m = Matroid.from_label_sets(("a", "ab", "b"), [("a", "ab", "b")])
    d = Digraph.build(["a", "ab", "b"])
    for lookup, what in (
        (lambda: restrict(m, labels), "labels"),
        (lambda: m.mask_of(labels), "labels"),
        (lambda: d.ids(labels), "vertex labels"),
    ):
        with pytest.raises(ValueError, match=f"^{what} {labels!r} is a string, not a collection$"):
            lookup()
    assert restrict(m, ["ab"]).ground == ("ab",) and d.ids(["ab"]) == {1}


def test_construction_guards():
    with pytest.raises(ValueError):
        Matroid(("a",), frozenset())  # no base
    with pytest.raises(ValueError):
        Matroid(("a", "b"), frozenset({0b01, 0b11}))  # not equicardinal
    with pytest.raises(ValueError):
        Matroid(("a",), frozenset({0b10}))  # outside ground
    with pytest.raises(ValueError):
        Matroid(("b", "a"), frozenset({0b100}))  # outside ground, unsorted labels
    with pytest.raises(ValueError, match="twice"):
        Matroid.from_label_sets(("a", "b"), [("a", "a"), ("b", "b")])  # a repeated label


def test_no_matroid_is_built_over_the_limit():
    # every way in reaches the constructor's check; `uniform` and
    # `direct_sum` check before they enumerate
    labels = [f"e{i:02d}" for i in range(17)]
    at_limit = Matroid(labels[:16], [0])
    over = tuple.__new__(Matroid, (tuple(labels), frozenset({0})))
    for build in (
        lambda: Matroid(labels, [0]),
        lambda: Matroid.from_label_sets(labels, [[]]),
        lambda: Matroid._make((labels, [0])),
        lambda: at_limit._replace(ground=tuple(labels)),
        lambda: pickle.loads(pickle.dumps(over)),
        lambda: matroid_from_dict({"ground": labels, "bases": [[]]}),
        lambda: relabel(over, {}),
    ):
        with pytest.raises(EnumerationLimitError, match="^ground set has 17 elements, .* is 16$"):
            build()
    # from_label_sets maps the labels before the constructor runs
    with pytest.raises(ValueError, match="^unknown label 'zz'$"):
        Matroid.from_label_sets(labels, [["zz"]])
    t0 = time.monotonic()
    with pytest.raises(EnumerationLimitError, match="^ground set has 28 elements"):
        uniform(10, 28)  # 13.1M bases
    assert time.monotonic() - t0 < 1.0


def test_direct_sum_checks_the_limit_before_it_builds_the_product():
    class Unread(frozenset):
        def __iter__(self):
            raise AssertionError("the bases were enumerated")

    primed = {str(i): f"x{i}" for i in range(1, 10)}
    u49 = uniform(4, 9)
    m = tuple.__new__(Matroid, (u49.ground, Unread(u49.bases)))  # 126 bases
    with pytest.raises(EnumerationLimitError, match="^ground set has 18 elements"):
        direct_sum(m, relabel(u49, primed))  # 126 * 126 = 15,876 masks
    u48 = uniform(4, 8)
    assert len(direct_sum(u48, relabel(u48, primed)).bases) == 70 * 70  # 16 elements


@pytest.mark.parametrize("mask", [1.9, "1"])
def test_non_integer_base_masks_are_rejected_not_truncated(mask):
    with pytest.raises(ValueError, match="base mask .* is not an integer"):
        Matroid(("a", "b"), [mask])


def test_independence_and_loops():
    m = Matroid.from_label_sets(("a", "b", "c"), [("a",), ("b",)])
    # a set is independent iff its rank is its size; a loop has rank 0
    assert m.rank_of_mask(m.mask_of(["a"])) == 1 and m.rank_of_mask(0) == 0
    assert m.rank_of_mask(m.mask_of(["a", "b"])) == 1
    assert m.rank_of_mask(m.mask_of(["c"])) == 0


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
    assert sum(1 for _ in nested_minors(uniform(2, 4))) == 81


def test_nested_minors_yield_every_minor_of_the_rank_oracle():
    # each X within Y once, and the minor's bases are those of the brute
    # contraction to Y restricted to X, moved onto the minor's positions
    for size in range(5):
        for m in all_matroids(tuple("abcd"[:size])):
            pairs = []
            for x, y, minor in nested_minors(m):
                assert set(x) <= set(y) and minor.ground == x, (m, x, y)
                contracted = brute_contract_bases(m.bases, m.full_mask, m.mask_of(y))
                oracle = brute_restrict_bases(contracted, m.mask_of(x))
                assert {minor.mask_of(m.labels_of(b)) for b in oracle} == minor.bases, (m, x, y)
                pairs.append((x, y))
            assert len(pairs) == len(set(pairs)) == 3**size, m


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


def _bits(mask):
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def _exchange_fails(m, b1, b2):
    """Some x in b1 - b2 has no y in b2 - b1 with b1 - x + y a base."""
    return any(
        all(b1 ^ x | y not in m.bases for y in _bits(b2 & ~b1)) for x in _bits(b1 & ~b2)
    )


def test_exchange_check_agrees_with_the_pairwise_walk():
    # every equicardinal family on at most 5 labels, against the walk over
    # all ordered pairs of bases; a violation must name a failing pair
    families = valid = 0
    for n in range(6):
        labels = tuple("abcde"[:n])
        for r in range(n + 1):
            subsets = [sum(1 << i for i in c) for c in combinations(range(n), r)]
            for fam in range(1, 1 << len(subsets)):
                m = Matroid(labels, frozenset(s for i, s in enumerate(subsets) if fam >> i & 1))
                families += 1
                pairwise = any(_exchange_fails(m, b1, b2) for b1 in m.bases for b2 in m.bases)
                try:
                    validate_matroid(m)
                except ValueError as exc:
                    assert pairwise
                    named = str(exc).split(" for ", 1)[1].split(" / ")
                    assert _exchange_fails(m, *(m.mask_of(ast.literal_eval(b)) for b in named))
                else:
                    assert not pairwise
                    valid += 1
    assert (families, valid) == (2229, 1 + 2 + 5 + 16 + 68 + 406)  # OEIS A058673


def test_gamma_arc_free_cases():
    d = Digraph.build(3, [])
    free = gamma(Representation(d, frozenset({0, 1, 2}), frozenset({0, 1, 2})))
    assert free.rank == 3 and len(free.bases) == 1
    trivial = gamma(Representation(d, frozenset(), frozenset({0, 1})))
    assert trivial.rank == 0


def test_gamma_uniform_representation():
    assert gamma(uniform_rep(2, 4)) == uniform(2, 4)


def _dense_representation(rng):
    """7-8 vertices, arc density 0.3-0.5, 3-5 targets inside a ground of 5-6:
    ranks 3 to 5, which `random_representation` rarely reaches."""
    n = rng.randint(7, 8)
    density = rng.uniform(0.3, 0.5)
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
    ground = rng.sample(range(n), rng.randint(5, 6))
    return Representation(Digraph.build(n, arcs), rng.sample(ground, rng.randint(3, 5)), ground)


def test_gamma_matches_path_family_oracle():
    rng = random.Random(21)
    edge_cases = [
        Representation(Digraph.build(3, [(0, 1), (1, 2)]), {2}, ()),  # empty ground
        Representation(Digraph.build(4, [(0, 3), (1, 3), (2, 0)]), {3}, {0, 1, 2}),  # target outside
        Representation(Digraph.build(3, [(2, 2), (0, 2), (1, 0)]), {2}, {0, 1, 2}),  # loop at a target
    ]
    reps = [random_representation(rng, 6) for _ in range(200)]
    reps += [_dense_representation(rng) for _ in range(100)] + edge_cases
    for rep in reps:
        oracle = brute_gamma_bases(rep.digraph, rep.targets, rep.ground)
        assert gamma(rep).bases_label_sets() == {rep.digraph.label_set(b) for b in oracle}
    assert sum(gamma(rep).rank >= 3 for rep in reps) >= 100


def _small_loop_free_representations():
    """Every loop-free digraph on at most 3 vertices with every target mask
    and every ground mask: the domain of the ``suites`` benchmark workload."""
    for n in range(4):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for arcs in range(1 << len(pairs)):
            d = Digraph.build(n, [a for k, a in enumerate(pairs) if arcs >> k & 1])
            for t_mask in range(1 << n):
                for e_mask in range(1 << n):
                    yield Representation._make((d, t_mask, e_mask))


def _gamma_case(m):
    """Which of `gamma`'s cases builds m, and the size of its level 1 (the
    ground vertices that reach a target, which are the non-loops)."""
    level_1 = 0
    for b in m.bases:
        level_1 |= b
    level_1 = level_1.bit_count()
    if m.rank == level_1:
        return ("rank 0" if level_1 == 0 else "one base"), level_1
    return ("rank 1" if m.rank == 1 else "general walk"), level_1


def test_gamma_matches_the_path_family_oracle_on_every_small_loop_free_representation():
    cases = Counter()
    for rep in _small_loop_free_representations():
        m = gamma(rep)
        oracle = brute_gamma_bases(rep.digraph, rep.targets, rep.ground)
        assert m.bases_label_sets() == {rep.digraph.label_set(b) for b in oracle}, rep
        cases[_gamma_case(m)[0]] += 1
    assert sum(cases.values()) == 1 + 4 + 64 + 4096
    assert set(cases) == {"rank 0", "rank 1", "one base", "general walk"}, cases


def test_gamma_routes_only_rank_sized_sets(monkeypatch):
    # singletons come from reachability and the rank from one maximum
    # routing, so only the r-sets of level 1 reach the flow check
    import gammoids.matroid as matroid_module

    routed = []
    real = matroid_module._routable_ids

    def record(succ, targets, xs):
        routed.append(xs)
        return real(succ, targets, xs)

    monkeypatch.setattr(matroid_module, "_routable_ids", record)
    rng = random.Random(37)
    reps = [random_representation(rng, 7) for _ in range(200)] + [uniform_rep(2, 4), uniform_rep(3, 6)]
    checked = 0
    for rep in reps:
        routed.clear()
        rank = gamma(rep).rank
        assert all(xs.bit_count() == rank for xs in routed)
        checked += len(routed)
    assert checked


def test_gamma_runs_flow_only_outside_its_closed_cases(monkeypatch):
    # rank <= 1 or rank == |level 1| leaves one possible base family, so no
    # r-set is flow-checked, and the rank routing runs only on a level 1
    # of at least 2 elements; a lost case fails a count here, not a timing
    import gammoids.matroid as matroid_module

    links, checks = [], []
    real_link, real_routable = matroid_module._link, matroid_module._routable_ids
    monkeypatch.setattr(matroid_module, "_link", lambda *a: links.append(a) or real_link(*a))
    monkeypatch.setattr(matroid_module, "_routable_ids", lambda *a: checks.append(a) or real_routable(*a))
    seen = Counter()
    for rep in _small_loop_free_representations():
        links.clear()
        checks.clear()
        m = gamma(rep)
        case, level_1 = _gamma_case(m)
        assert len(links) == (level_1 >= 2), (rep, case)
        assert bool(checks) == (case == "general walk"), (rep, case)
        seen[case] += 1
    assert len(seen) == 4, seen


def test_gamma_never_flow_checks_the_base_its_rank_routing_routed(monkeypatch):
    # the routing that gives the rank starts at a base; on U(2,2) that base
    # is level 1's only 2-set, so no flow check is left, and on U(2,4) five
    # of the six 2-sets are checked
    import gammoids.matroid as matroid_module

    def refuse(succ, targets, xs):
        raise AssertionError(f"flow check of {xs:#b}")

    monkeypatch.setattr(matroid_module, "_routable_ids", refuse)
    assert gamma(uniform_rep(2, 2)) == uniform(2, 2)
    routed = []
    monkeypatch.setattr(matroid_module, "_routable_ids", lambda *args: routed.append(args) or True)
    assert gamma(uniform_rep(2, 4)) == uniform(2, 4) and len(routed) == 5


def test_gamma_enumeration_limit():
    at_limit = Representation(Digraph.build(16, []), frozenset(), frozenset(range(16)))
    assert gamma(at_limit).rank == 0
    for r in (8, 12):
        assert gamma(uniform_rep(r, 16)) == uniform(r, 16)
    # 7 isolated targets (coloops) and one target fed by the 8 sources: 9
    # bases among the C(16, 8) rank-sized sets
    d = Digraph.build(16, [(s, 7) for s in range(8, 16)])
    m = Matroid.from_label_sets(d.labels, [d.labels[:7] + (x,) for x in d.labels[7:]])
    assert gamma(Representation(d, frozenset(range(8)), frozenset(range(16)))) == m
    over = Representation(Digraph.build(17, []), frozenset(), frozenset(range(17)))
    with pytest.raises(EnumerationLimitError, match="17 elements, enumeration limit is 16"):
        gamma(over)


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
    with pytest.raises(ValueError, match="lists of strings"):
        matroid_from_dict({"ground": ["x"], "bases": [[["x"]]]})
    with pytest.raises(ValueError, match="basis-exchange"):
        matroid_from_dict({"ground": ["a", "b", "c", "d"], "bases": [["a", "b"], ["c", "d"]]})
