import concurrent.futures
import functools
import hashlib
import json
import random
import time
import types
from fractions import Fraction
from itertools import combinations, count, permutations

import pytest

from gammoids.bruteforce import brute_rank
from gammoids.complexity import (
    BudgetExhaustedError,
    FormRow,
    SearchLimits,
    SuperAdditiveFn,
    WidthReport,
    _search_chunk,
    arc_complexity,
    certificate_to_dict,
    f_width,
    in_class,
    is_superadditive,
    kw_upper_bound,
    lower_bound,
    search_form,
    uniform_rep,
    verify_uniform_conjecture,
    width_report_to_dict,
)
from gammoids.matroid import (
    EnumerationLimitError,
    Matroid,
    contract_to,
    direct_sum,
    dual,
    gamma,
    nested_minors,
    relabel,
    restrict,
    uniform,
)
from gammoids.digraph import Digraph
from gammoids.representation import Representation, is_standard, standardize
from gammoids.routing import _routable_ids
from gammoids.suites import bounds_suite, random_representation


# -- super-additive functions -----------------------------------------------


def test_fhat_is_superadditive():
    assert is_superadditive(SuperAdditiveFn.fhat(), 20)


def test_constant_function_is_not():
    assert not is_superadditive(lambda x: 1, 5)


def test_doubling_table_is_superadditive():
    f = SuperAdditiveFn.from_table([1] + [2 * x for x in range(1, 21)])
    assert is_superadditive(f, 20)


def test_linear_with_integral_values():
    f = SuperAdditiveFn.linear(3)
    assert f(0) == 3 and f(5) == 15
    assert is_superadditive(f, 12)


def test_linear_with_fractional_values_fails_validation():
    with pytest.raises(ValueError, match="must be an integer"):
        SuperAdditiveFn.linear(Fraction(3, 2))  # f(1) = 3/2 is not a natural number
    coeff = SuperAdditiveFn.linear(Fraction(4, 2)).coeff
    assert coeff == 2 and type(coeff) is int


def test_linear_rejects_booleans_and_strings():
    # a value table rejects both kinds of value, and so does the coefficient
    for coeff in (True, False, "2", " 3 "):
        with pytest.raises(ValueError, match=f"must be a number, got {coeff!r}$"):
            SuperAdditiveFn.linear(coeff)


@pytest.mark.parametrize("coeff", [float("inf"), float("-inf"), float("nan")])
def test_linear_rejects_infinities_and_nan_by_value(coeff):
    message = f"^the linear coefficient must be a number, got {coeff!r}$"
    with pytest.raises(ValueError, match=message):
        SuperAdditiveFn.linear(coeff)


def test_denominators_are_defined_on_the_naturals_only():
    for f in (SuperAdditiveFn.fhat(), SuperAdditiveFn.linear(2), SuperAdditiveFn.from_table([1])):
        with pytest.raises(ValueError, match="^defined on the naturals only$"):
            f(-1)


def test_table_out_of_range():
    f = SuperAdditiveFn.from_table([1, 1])
    with pytest.raises(ValueError, match=r"^value table covers 0\.\.1, asked for 2$"):
        f(2)
    assert not is_superadditive(f, 5)
    with pytest.raises(ValueError, match="^value table covers the empty range, asked for 0$"):
        SuperAdditiveFn.from_table([])(0)


def test_table_values_must_be_integers():
    for values in ([1.9, 3.2], [True, 2], ["2", 3], [1, None]):
        with pytest.raises(ValueError, match="table value .* is not an integer"):
            SuperAdditiveFn.from_table(values)
    for values in (5, None, "12"):
        with pytest.raises(ValueError, match="value table .* is (a string, )?not a collection"):
            SuperAdditiveFn.from_table(values)
    assert SuperAdditiveFn.from_table(iter([1, 2])).table == (1, 2)


def test_parse_specs():
    assert SuperAdditiveFn.parse("fhat")(7) == 7
    assert SuperAdditiveFn.parse("linear:2")(3) == 6
    with pytest.raises(ValueError):
        SuperAdditiveFn.parse("cubic")


# -- closed-form pieces --------------------------------------------------------


def test_kw_upper_bound_values():
    assert kw_upper_bound(0, 0) == 0
    assert kw_upper_bound(0, 4) == 16  # only the size-squared term survives
    assert kw_upper_bound(1, 2) == 25
    with pytest.raises(ValueError):
        kw_upper_bound(3, 2)


def test_uniform_rep_shapes():
    rep = uniform_rep(0, 3)
    assert rep.arc_count == 0 and not rep.targets
    rep = uniform_rep(2, 2)
    assert rep.arc_count == 0 and gamma(rep).rank == 2
    rep = uniform_rep(2, 4)
    assert rep.arc_count == 4
    assert gamma(rep) == uniform(2, 4)
    assert is_standard(rep)
    with pytest.raises(ValueError):
        uniform_rep(3, 2)


def test_lower_bound_counts_nonloop_sources():
    assert lower_bound(uniform(3, 3)) == 0
    assert lower_bound(uniform(1, 2)) == 1
    assert lower_bound(uniform(2, 4)) == 2
    assert lower_bound(Matroid.from_label_sets(("a", "b", "c"), [("a",), ("b",)])) == 1  # c is a loop
    # heads: every target that is no coloop needs an in-arc
    assert lower_bound(uniform(2, 3)) == 2
    assert lower_bound(uniform(4, 6)) == 4
    assert lower_bound(Matroid.from_label_sets(("a", "b", "c"), [("a", "b"), ("a", "c")])) == 1  # a is a coloop


# -- arc complexity ---------------------------------------------------------------


def test_arc_complexity_trivial_matroids():
    for n in range(4):
        assert arc_complexity(uniform(n, n)).value == 0
        assert arc_complexity(uniform(0, n)).value == 0


def test_arc_complexity_small_uniforms():
    cases = [(1, 2, 1), (1, 3, 2), (2, 3, 2), (2, 4, 4), (2, 5, 6), (3, 5, 6), (2, 6, 8)]
    for r, n, expected in cases:
        cert = arc_complexity(uniform(r, n))
        assert cert.value == expected
        assert is_standard(cert.witness)
        assert gamma(cert.witness) == uniform(r, n)


def test_arc_complexity_with_loops_and_parallels():
    # one loop, two parallel elements: the loop costs nothing, the parallel
    # class needs one arc from its non-target element
    m = Matroid.from_label_sets(("a", "b", "c"), [("a",), ("b",)])
    cert = arc_complexity(m)
    assert cert.value == 1
    assert gamma(cert.witness) == m


def test_verify_uniform_conjecture_small():
    assert verify_uniform_conjecture(1, 2)
    assert verify_uniform_conjecture(1, 3)
    assert verify_uniform_conjecture(2, 4)


def test_bounds_suite_rejects_doctored_witnesses():
    m, n = uniform(1, 2), uniform(1, 3)
    cm, cn = arc_complexity(m), arc_complexity(n)
    assert bounds_suite([(m, cm), (n, cn)]).passed
    # 2 -> i0 -> 1 represents U(1, 2), but i0 has in-degree 1 and Lemma A
    # allows (2 - 1) // 2 = 0 internal vertices at 2 arcs
    merged = Representation(Digraph(("1", "2", "i0"), {(1, 2), (2, 0)}), {0}, {0, 1})
    other = uniform_rep(2, 3)  # 2 arcs, like the certificate of U(1, 3)
    doctored = [(m, cm._replace(value=2, witness=merged)), (n, cn._replace(witness=other))]
    assert [f.rsplit(": ", 1)[1] for f in bounds_suite(doctored).failures] == [
        "witness has an internal vertex of in- or out-degree below 2",
        "witness has more internal vertices than Lemma A allows",
        "witness represents another matroid",
    ]


def test_verify_uniform_conjecture_checks_the_limit_before_building_bases():
    t0 = time.monotonic()
    with pytest.raises(EnumerationLimitError, match="28 elements, enumeration limit is 16"):
        verify_uniform_conjecture(10, 28)  # U(10, 28) has 13.1M bases
    assert time.monotonic() - t0 < 1.0


def test_budget_max_arcs_too_small():
    with pytest.raises(BudgetExhaustedError):
        arc_complexity(uniform(2, 4), SearchLimits(max_arcs=3))


def test_search_returns_an_exact_value_or_raises(monkeypatch):
    # a clock that passes the deadline at its j-th reading: wherever the
    # search is cut, it raises or certifies
    import gammoids.complexity as complexity

    outcomes = []
    for j in (1, 2, 3, 10, 60, 100, 150, 1000):
        readings = count(1)
        clock = types.SimpleNamespace(
            monotonic=lambda: 0.0 if next(readings) < j else 2.0,
            perf_counter=time.perf_counter,
        )
        monkeypatch.setattr(complexity, "time", clock)
        try:
            cert = arc_complexity(uniform(2, 6), SearchLimits(deadline=1.0))
        except BudgetExhaustedError:
            outcomes.append(None)
            continue
        assert cert.value == 8
        assert all(st.complete for st in cert.levels[:-1])
        outcomes.append(cert.value)
    assert outcomes[0] is None and outcomes[-1] == 8


def test_wall_clock_budget():
    with pytest.raises(BudgetExhaustedError):
        arc_complexity(uniform(3, 6), SearchLimits(deadline=time.monotonic()))


@pytest.fixture
def pool_starts(monkeypatch):
    """Every process pool the search starts, recorded by its worker count."""
    starts = []
    real = concurrent.futures.ProcessPoolExecutor

    class Counting(real):
        def __init__(self, workers):
            starts.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    return starts


def _pairs_except(labels, pair):
    return Matroid.from_label_sets(labels, [p for p in combinations(labels, 2) if p != pair])


def test_workers_do_not_change_the_result(pool_starts):
    # U(2,6): levels of 1,050, 840, 45,465, 51,600 and 1 raw candidates, so
    # levels 7 and 8 are big enough to run on a pool
    m = uniform(2, 6)
    one = arc_complexity(m, SearchLimits(workers=1))
    assert pool_starts == []
    two = arc_complexity(m, SearchLimits(workers=2))
    assert pool_starts and set(pool_starts) == {2}
    assert (one.value, one.witness, one.levels) == (two.value, two.witness, two.levels)


def test_small_searches_start_no_pool(pool_starts):
    fhat = SuperAdditiveFn.fhat()
    pair = relabel(uniform(1, 2), {"1": "a", "2": "b"})
    for m in (uniform(2, 4), direct_sum(uniform(1, 2), pair)):
        assert f_width(m, fhat, SearchLimits(workers=2)) == f_width(m, fhat)
    assert pool_starts == []


@pytest.fixture
def routed(monkeypatch):
    """The vertex sets the search hands to the flow check, in call order."""
    import gammoids.complexity as complexity

    calls = []
    real = complexity._routable_ids

    def counting(succ, t_mask, xs):
        calls.append(xs)
        return real(succ, t_mask, xs)

    monkeypatch.setattr(complexity, "_routable_ids", counting)
    return calls


def test_canonicity_filter_leaves_no_witness_below_the_value(routed):
    # U(2,5) needs 6 arcs, so the bounded search must report an exhausted
    # budget
    with pytest.raises(BudgetExhaustedError):
        arc_complexity(uniform(2, 5), SearchLimits(max_arcs=5))

    # rank 2 on a, b, c, d with c parallel to d, targets a and b, internals
    # 4 and 5, six arcs: of the 3,003 candidates four pass Lemmas A and R,
    # two mirror pairs that differ only by swapping 4 and 5, and none is a
    # witness; in one of each pair 4 first appears before 5, so Lemma C's
    # first-appearance rule passes exactly that one on to routing, which
    # checks the one r-set with two elements outside the targets, {c, d}
    routed.clear()
    chunk = _chunk(_pairs_except(tuple("abcd"), ("c", "d")), 0b0011, 2, 6)
    assert _search_chunk(chunk) == (None, 3003, True)
    assert routed == [0b1100, 0b1100]


def _chunk(m, t_mask, k, a):
    """The chunk tuple `arc_complexity` builds for m, with no deadline."""
    g = len(m.ground)
    rank_sets = tuple(s for s in range(1 << g) if s.bit_count() == m.rank)
    return (g, t_mask, k, a, m.bases, rank_sets, None)


def _chunk_pairs(g, t_mask, k):
    tails = [u for u in range(g + k) if not t_mask >> u & 1]
    heads = [v for v in range(g + k) if v >= g or t_mask >> v & 1]
    return sorted((u, v) for u in tails for v in heads if u != v)


def _first_appearance_ascending(combo, g):
    seen = [w for arc in combo for w in arc if w >= g]
    firsts = sorted(set(seen), key=seen.index)
    return firsts == sorted(firsts)


def test_least_candidate_of_each_relabelling_class_passes_lemma_c():
    g, t_mask = 3, 0b001
    for k in (2, 3):
        pairs = _chunk_pairs(g, t_mask, k)
        relabellings = [
            {g + i: g + j for i, j in enumerate(perm)} for perm in permutations(range(k))
        ]
        least = 0
        for a in range(7):
            for combo in combinations(pairs, a):
                if all(
                    tuple(sorted((p.get(u, u), p.get(v, v)) for u, v in combo)) >= combo
                    for p in relabellings
                ):
                    least += 1
                    assert _first_appearance_ascending(combo, g), combo
        assert least > 0


def _circuit_masks(m):
    """Minimal dependent sets of m, by the brute-force rank function."""
    g = len(m.ground)
    dependent = [brute_rank(m.bases, x) < x.bit_count() for x in range(1 << g)]
    return [
        x
        for x in range(1, 1 << g)
        if dependent[x] and not any(dependent[x ^ 1 << i] for i in range(g) if x >> i & 1)
    ]


def _search_chunk_without_symmetry_rule(m, t_mask, k, a):
    """What `_search_chunk` returns for a chunk of m under the rule it had
    before Lemmas C and R: the first candidate, in lexicographic order, that
    passes Lemma A's degree test, routes every base and routes no circuit,
    with the raw count up to it."""
    g, circuits = len(m.ground), _circuit_masks(m)
    count = 0
    for combo in combinations(_chunk_pairs(g, t_mask, k), a):
        count += 1
        tails = [u for u, _ in combo]
        heads = [v for _, v in combo]
        if any(tails.count(w) < 2 or heads.count(w) < 2 for w in range(g, g + k)):
            continue
        succ = [sum(1 << v for u, v in combo if u == w) for w in range(g + k)]
        if all(_routable_ids(succ, t_mask, b) for b in m.bases) and not any(
            _routable_ids(succ, t_mask, c) for c in circuits
        ):
            return combo, count, True
    return None, count, True


def test_lemma_c_keeps_the_first_witness_and_count_of_every_chunk():
    # every k = 2 and 3 chunk of U(1,3) and U(2,3), and every k = 2 chunk
    # of U(2,4), U(2,4) with c parallel to d, and U(2,3) plus a loop, up to
    # 8 or 9 arcs; most of them hold witnesses, with 2 and 3 internals.
    # Lemma C, Lemma R and the r-set rule together return what the old
    # rule (every base routes, no circuit does) returns with no symmetry rule
    with_loop = Matroid.from_label_sets(tuple("abcd"), [("a", "b"), ("a", "c"), ("b", "c")])
    cases = [
        (uniform(1, 3), (2, 3), 9),
        (uniform(2, 3), (2, 3), 8),
        (uniform(2, 4), (2,), 8),
        (_pairs_except(tuple("abcd"), ("c", "d")), (2,), 8),
        (with_loop, (2,), 8),
    ]
    witnesses = set()
    for m, ks, top in cases:
        union = 0
        for b in m.bases:
            union |= b
        lb = union.bit_count() - m.rank  # tails only, so chunks past the heads' cap stay checked
        for t_mask in sorted(m.bases):
            for k in ks:
                for a in range(lb + 2 * k, top + 1):
                    result = _search_chunk(_chunk(m, t_mask, k, a))
                    expected = _search_chunk_without_symmetry_rule(m, t_mask, k, a)
                    assert result == expected, (m, t_mask, k, a)
                    if result[0] is not None:
                        witnesses.add(k)
    assert witnesses == {2, 3}


def test_candidate_routing_a_circuit_is_rejected(routed):
    # rank 2 on a, b, c, d with c parallel to d: for targets {a, b} and no
    # internal vertex the only 4-arc candidate is U(2,4)'s representation;
    # c and d each reach their fan {a, b}, so Lemma R passes it, and the
    # circuit {c, d}, a non-base with two elements outside the targets, is
    # the one r-set left to routing, which rejects the candidate
    m = _pairs_except(tuple("abcd"), ("c", "d"))
    assert _search_chunk(_chunk(m, 0b0011, 0, 4)) == (None, 1, True)
    assert routed == [0b1100]


def _reaches(arcs, x):
    """Vertices reachable from x, by a plain walk over the arc set."""
    seen, todo = {x}, [x]
    while todo:
        u = todo.pop()
        for tail, head in arcs:
            if tail == u and head not in seen:
                seen.add(head)
                todo.append(head)
    return seen


def test_lemma_r_reach_is_single_exchange_on_standard_representations():
    # Lemma R on standardized random representations: a source x reaches a
    # target t iff B - t + x is a base
    rng = random.Random(12)
    pairs = 0
    for _ in range(300):
        rep = random_representation(rng)
        m = gamma(rep)
        for mask in sorted(m.bases):
            std = standardize(rep, rep.ids_at(mask))
            assert is_standard(std)
            pos = {v: j for j, v in enumerate(std.ground_order())}
            bases = gamma(std).bases
            b = sum(1 << pos[t] for t in std.targets)
            for x in std.ground - std.targets:
                reach = _reaches(std.digraph.arcs, x)
                for t in std.targets:
                    exchange = b ^ 1 << pos[t] | 1 << pos[x]
                    assert (t in reach) == (exchange in bases), (std, x, t)
                    pairs += 1
    assert pairs > 1000, pairs


def test_certificates_keep_their_witnesses_and_level_counts():
    # every certificate, runtime aside, on the matroids on up to four labels,
    # U(2,6) and U(2,4) + U(1,2).  Without their levels they are pinned to
    # the bytes the search gave when it still tested every base and circuit
    # by flow; the levels are pinned as Lemma A counted from both ends left
    # them (no level below max(lb, lb*), no chunk with k > (a - lb*) // 2)
    from gammoids.suites import all_matroids

    pair = relabel(uniform(1, 2), {"1": "e", "2": "f"})
    ms = [m for size in range(5) for m in all_matroids(tuple("abcd"[:size]))]
    ms += [uniform(2, 6), direct_sum(relabel(uniform(2, 4), dict(zip("1234", "abcd"))), pair)]
    certs = []
    for m in ms:
        cert = certificate_to_dict(arc_complexity(m))
        del cert["runtime_secs"]
        certs.append(cert)
    digest = hashlib.sha256(json.dumps(certs).encode()).hexdigest()
    assert (len(certs), digest) == (
        94,
        "8c8ee25b53dae2244a8006569199204c1058443daf42cf07154e36352036784c",
    )
    for cert in certs:
        del cert["levels"]
    digest = hashlib.sha256(json.dumps(certs).encode()).hexdigest()
    assert digest == "0d7f28faa17a7df4c7383f3c6c662c2fc4c8cdf73f785228793e2c1a4e2eec7f"


def test_dual_searches_enumerate_the_same_levels():
    # Lemma A from both ends gives M and M* the same lower bound and the
    # same internal-vertex cap, so every level below the value enumerates
    # the same count on both sides; the witness level may stop at another
    # chunk, since chunks follow the sorted bases
    from gammoids.suites import all_matroids

    ms = [m for size in range(5) for m in all_matroids(tuple("abcd"[:size]))]
    ms += [uniform(r, 5) for r in range(6)] + [uniform(r, 6) for r in range(7) if r != 3]
    assert len(ms) == 104
    for m in ms:
        assert lower_bound(m) == lower_bound(dual(m)), m
        one, other = arc_complexity(m), arc_complexity(dual(m))
        assert one.value == other.value, m
        below = [(st.arcs, st.candidates) for st in one.levels[:-1]]
        assert below == [(st.arcs, st.candidates) for st in other.levels[:-1]], m


def test_search_agrees_with_generate_and_test_oracle():
    # every matroid on up to four elements, against the unfiltered
    # exponential oracle; the search's pruning must not change any value
    from gammoids.bruteforce import brute_arc_complexity
    from gammoids.suites import all_matroids

    for size in range(5):
        for m in all_matroids(tuple("abcd"[:size])):
            expected = brute_arc_complexity(len(m.ground), m.bases)
            assert arc_complexity(m).value == expected, m


def test_search_agrees_with_oracle_on_the_four_element_uniform():
    from gammoids.bruteforce import brute_arc_complexity

    m = uniform(2, 4)
    assert brute_arc_complexity(4, m.bases) == arc_complexity(m).value == 4


# Arc complexity of each of the 406 matroids on "abcde", in the order
# all_matroids yields them, as computed by the search before it bounded the
# internal vertex count by Lemma A (internal vertices up to the arc count,
# degree at least one).
_FIVE_ELEMENT_VALUES = (
    "000101120112122301121223122323340010112011212230112011212230112122312232"
    "334011212231223233340112122312232333412232334233434445011212231223233341"
    "223233423343444512232334233434445233343444534445344454555560010112011201"
    "121223011212231223233340112122301121223122323340112122312232334122323342"
    "333434445011212231223233412232334233343444512232334233433444523343434453"
    "4445445454555600101120112122301121223122323340"
)


def test_five_element_values_and_witness_degrees():
    from gammoids.suites import all_matroids

    matroids = list(all_matroids(tuple("abcde")))
    assert len(matroids) == len(_FIVE_ELEMENT_VALUES)
    for m, expected in zip(matroids, _FIVE_ELEMENT_VALUES):
        cert = arc_complexity(m)
        assert cert.value == int(expected), m
        # Lemma A: the witness's internal vertices have in- and out-degree >= 2
        d = cert.witness.digraph
        for v in range(len(m.ground), d.vertex_count):
            assert sum(1 for arc in d.arcs if arc[0] == v) >= 2, m
            assert sum(1 for arc in d.arcs if arc[1] == v) >= 2, m


def test_fan_recursion_holds_with_equality_up_to_five_elements():
    # Hypothesis F (unproven, so no search may use it): c(M) is the least,
    # over bases B, of the largest of lower_bound(M), c(M\x) + |F_B(x)| for
    # every x outside B that is no loop, and c(M/t) + |F*(t)| for every t in
    # B that is no coloop, where F_B(x) = {t in B : B - t + x is a base} and
    # F*(t) = {s outside B : B - t + s is a base}.  This pins the finite fact
    # that it holds with equality on every matroid on at most five labels.
    from gammoids.suites import all_matroids

    value = functools.cache(lambda m: arc_complexity(m).value)
    checked = 0
    for size in range(6):
        for m in all_matroids(tuple("abcde"[:size])):
            loops = m.full_mask & ~functools.reduce(int.__or__, m.bases)
            coloops = functools.reduce(int.__and__, m.bases)
            least = None
            for b in m.bases:
                terms = [lower_bound(m)]
                for i, lab in enumerate(m.ground):
                    rest, bit = [x for x in m.ground if x != lab], 1 << i
                    # exchange partners of lab: inside B for x, outside B for t
                    partners = [j for j in range(size) if b >> j & 1 != b >> i & 1]
                    fan = sum(b ^ bit ^ 1 << j in m.bases for j in partners)
                    if b & bit and not coloops & bit:  # t = lab, fan F*(t)
                        terms.append(value(contract_to(m, rest)) + fan)
                    elif not b & bit and not loops & bit:  # x = lab, fan F_B(x)
                        terms.append(value(restrict(m, rest)) + fan)
                least = max(terms) if least is None else min(least, max(terms))
            assert value(m) == least, m
            checked += 1
    assert checked == 498


def test_standardize_gives_search_upper_bound():
    rng = random.Random(31)
    for _ in range(10):
        rep = random_representation(rng, 4)
        m = gamma(rep)
        mask = min(sorted(m.bases))
        std = standardize(rep, rep.ids_at(mask))
        cert = arc_complexity(m)
        assert cert.value <= std.arc_count


# -- widths ------------------------------------------------------------------------


def test_width_of_empty_and_free_matroids():
    fhat = SuperAdditiveFn.fhat()
    empty = Matroid((), frozenset({0}))
    assert f_width(empty, fhat).value == 0
    report = f_width(uniform(3, 3), fhat)
    assert report.value == 0 and report.exhaustive


def test_width_of_two_element_circuit():
    report = f_width(uniform(1, 2), SuperAdditiveFn.fhat())
    assert report.value == Fraction(1, 2)
    assert report.argmax == (("1", "2"), ("1", "2"))
    # deleting "1" leaves "2" a coloop, contracted in the row's labels
    assert report.forms == (FormRow(2, 1, ("1", "2"), ("1", "2")), FormRow(0, 0, (), ("1",)))


def test_width_rejects_non_superadditive_denominator():
    f = SuperAdditiveFn.from_table([1, 1, 1])
    with pytest.raises(ValueError):
        f_width(uniform(1, 2), f)


def test_in_class_examples():
    fhat = SuperAdditiveFn.fhat()
    assert in_class(uniform(3, 3), fhat, Fraction(1))
    assert in_class(uniform(1, 2), fhat, Fraction(1, 2))
    assert not in_class(uniform(1, 2), fhat, Fraction(1, 4))


def test_in_class_stops_at_the_first_form_above_the_bound(monkeypatch):
    # U(2,5) is its own first form, with ratio 6/5 > 1/2: one search decides
    from gammoids import complexity

    calls = []

    def counting(m, limits=None):
        calls.append(m)
        return arc_complexity(m, limits)

    monkeypatch.setattr(complexity, "arc_complexity", counting)
    fhat = SuperAdditiveFn.fhat()
    assert not in_class(uniform(2, 5), fhat, Fraction(1, 2))
    assert len(calls) == 1
    report = f_width(uniform(2, 5), fhat)
    assert len(calls) == 1 + report.searches and report.searches == len(report.forms) > 1


def test_truncated_width_is_a_lower_bound():
    # with max_arcs=1 the full direct sum (complexity 2) cannot be searched,
    # but a two-element minor already pushes the width past 1/4, so
    # non-membership is still certified; membership is not decidable
    from gammoids.matroid import direct_sum, relabel

    fhat = SuperAdditiveFn.fhat()
    m = direct_sum(uniform(1, 2), relabel(uniform(1, 2), {"1": "1*", "2": "2*"}))
    report = f_width(m, fhat, SearchLimits(max_arcs=1))
    assert not report.exhaustive
    assert report.value == Fraction(1, 2)
    assert not in_class(m, fhat, Fraction(1, 4), SearchLimits(max_arcs=1))
    with pytest.raises(BudgetExhaustedError, match="truncated at lower bound 1/2"):
        in_class(m, fhat, Fraction(1), SearchLimits(max_arcs=1))


def test_width_wall_clock_truncation():
    report = f_width(uniform(2, 4), SuperAdditiveFn.fhat(), SearchLimits(deadline=time.monotonic()))
    assert not report.exhaustive
    assert report.searches == 0 and all(row.arcs is None for row in report.forms)


def _unfolded_table(m, values=None):
    """``(x_labels, y_labels, arcs)`` for every nested minor, from one
    arc_complexity call per labelled minor, with no search form: the oracle
    the form walk is checked against.  `values` caches the arc values by
    labelled minor and may be shared across calls."""
    values = {} if values is None else values
    table = []
    for x_labels, y_labels, minor in nested_minors(m):
        if minor not in values:
            values[minor] = arc_complexity(minor).value
        table.append((x_labels, y_labels, values[minor]))
    return tuple(table)


def _ratio(f, arcs, x_labels):
    return Fraction(arcs, f(len(x_labels)))


def _check_width(m, f, values=None):
    """The report of `m` against the unfolded oracle: the value is the
    largest ratio, the argmax minor attains it, the rows are the distinct
    forms of the minors, each searched once, with its minor's value."""
    table = _unfolded_table(m, values)
    report = f_width(m, f)
    assert report.exhaustive, m
    assert report.value == max(_ratio(f, arcs, x) for x, _, arcs in table), m
    exact = {(x, y): arcs for x, y, arcs in table}
    assert _ratio(f, exact[report.argmax], report.argmax[0]) == report.value, m
    forms = {search_form(minor) for _, _, minor in nested_minors(m)}
    assert report.searches == len(report.forms) == len(forms), m
    for row in report.forms:
        assert row.size == len(row.restrict_labels), (m, row)
        assert row.arcs == exact[row.restrict_labels, row.contract_labels], (m, row)
    return report


_FIBONACCI = SuperAdditiveFn.from_table([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89])


@pytest.mark.parametrize(
    "f",
    [SuperAdditiveFn.fhat(), SuperAdditiveFn.parse("linear:2"), _FIBONACCI],
    ids=["fhat", "linear2", "fibonacci"],
)
def test_width_is_the_largest_unfolded_ratio_on_every_matroid_of_at_most_four(f):
    from gammoids.suites import all_matroids

    for size in range(5):
        for m in all_matroids(tuple("abcd"[:size])):
            _check_width(m, f)


def test_width_is_the_largest_unfolded_ratio_on_every_five_element_matroid():
    from gammoids.suites import all_matroids

    values = {}  # one labelled-minor cache across all 406
    matroids = list(all_matroids(tuple("abcde")))
    assert len(matroids) == 406
    for m in matroids:
        _check_width(m, SuperAdditiveFn.fhat(), values)


def test_search_form_keeps_every_width_table_and_value():
    # Lemma B on every matroid with at most four labels: the form has the
    # arc complexity of m, and so has each form row's labelled minor
    from gammoids.suites import all_matroids

    for size in range(5):
        for m in all_matroids(tuple("abcd"[:size])):
            assert arc_complexity(search_form(m)).value == arc_complexity(m).value, m
            for row in f_width(m, SuperAdditiveFn.fhat()).forms:
                minor = restrict(contract_to(m, row.contract_labels), row.restrict_labels)
                assert len(search_form(minor).ground) == row.size, (m, row)
                assert arc_complexity(minor).value == row.arcs, (m, row)


def test_width_tables_of_a_connected_and_a_disconnected_matroid():
    fhat = SuperAdditiveFn.fhat()
    u13 = relabel(uniform(1, 3), {"1": "a", "2": "b", "3": "c"})
    for m in (uniform(2, 5), direct_sum(uniform(1, 2), u13)):
        _check_width(m, fhat)


def test_search_form_folds_duality_loops_and_coloops():
    from gammoids.suites import all_matroids

    for size in range(5):
        for m in all_matroids(tuple("bcde"[:size])):
            form = search_form(m)
            assert search_form(dual(m)) == form, m
            for extra in (uniform(0, 1), uniform(1, 1)):
                for label in ("a", "z"):  # sorted before and after the rest
                    assert search_form(direct_sum(m, relabel(extra, {"1": label}))) == form, m
    assert search_form(uniform(2, 4)).ground == ("00", "01", "02", "03")


def test_search_form_of_every_matroid_of_at_most_four_is_pinned():
    # the forms as they were when `search_form` read a base-mask family
    from gammoids.suites import all_matroids

    rows = [
        repr((m, search_form(m))) for size in range(5) for m in all_matroids(tuple("abcd"[:size]))
    ]
    assert len(rows) == 92
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "044f6a28affa018a791c67a299981e6a3cd7eb23bdde899cca387ce16bbca3ff"


def _four_fold_sum(letters: str):
    m = uniform(0, 0)
    for i in range(0, 8, 2):
        m = direct_sum(m, relabel(uniform(1, 2), {"1": letters[i], "2": letters[i + 1]}))
    return m


def test_width_cache_runs_a_few_searches_on_a_four_fold_sum():
    # U(1,2) summed four times, on two shuffled single-letter label orders
    fhat = SuperAdditiveFn.fhat()
    rng = random.Random(8)
    for _ in range(2):
        m = _four_fold_sum(rng.sample("abcdefghijklmnopqrstuvwxyz", 8))
        report = _check_width(m, fhat)
        assert report.searches <= 10
        assert report.value == Fraction(1, 2) and report.exhaustive


def test_four_fold_sum_width_report_is_unchanged():
    # on pairs ab, cd, ef, gh: the forms U(1,2)^k for k = 4, .., 0, each met
    # by deleting the first free element, whose partner is then contracted
    report = f_width(_four_fold_sum("abcdefgh"), SuperAdditiveFn.fhat())
    ground = tuple("abcdefgh")
    assert report.forms == tuple(
        FormRow(8 - 2 * k, 4 - k, ground[2 * k :], tuple("aceg"[:k]) + ground[2 * k :])
        for k in range(5)
    )
    assert report.argmax == (ground, ground) and report.searches == 5
    blob = json.dumps(width_report_to_dict(report), indent=2).encode()
    assert hashlib.sha256(blob).hexdigest().startswith("55ccadd2ac3792e1")


def test_the_width_walk_builds_two_minors_per_free_element_of_each_form(monkeypatch):
    # on pairs ab, cd, ef, gh: the forms have 8, 6, 4, 2 and 0 free
    # elements, each deleted and contracted once through the module-global
    # minor functions, and each of those 40 minors and m itself has its form
    # computed once
    from gammoids import complexity

    calls = {"restrict": 0, "contract_to": 0, "search_form": 0}

    def counting(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return wrapper

    for fn in (restrict, contract_to, search_form):
        monkeypatch.setattr(complexity, fn.__name__, counting(fn))
    report = f_width(_four_fold_sum("abcdefgh"), SuperAdditiveFn.fhat())
    assert calls == {"restrict": 20, "contract_to": 20, "search_form": 41}
    assert report.searches == 5


def test_contractions_that_repeat_under_other_labels_keep_the_width_table():
    # U(2,3) on abc plus U(1,3) on xyz: contracting to a or to x leaves one
    # loop, so the walk meets the same minor under two labels
    abc = relabel(uniform(2, 3), {"1": "a", "2": "b", "3": "c"})
    m = direct_sum(abc, relabel(uniform(1, 3), {"1": "x", "2": "y", "3": "z"}))
    walk = {(x_labels, y_labels): minor for x_labels, y_labels, minor in nested_minors(m)}
    assert walk[(), ("a",)] == walk[(), ("x",)] == Matroid((), {0})
    assert walk[("a",), ("a",)] == Matroid(("a",), {0}) and walk[("x",), ("x",)] == Matroid(("x",), {0})
    _check_width(m, SuperAdditiveFn.fhat())


def _limits(max_arcs=None, secs=None):
    """Limits whose deadline, if any, lies `secs` seconds after this call."""
    return SearchLimits(max_arcs, None if secs is None else time.monotonic() + secs)


@pytest.mark.parametrize("limits", [{"max_arcs": 1}, {"max_arcs": 2}, {"secs": 1.0}])
def test_truncated_width_certifies_only_unfolded_values(limits, monkeypatch):
    # under any limit, a value a form row reports as certified is the
    # exhaustive value of its labelled minor, and the rows are the forms of
    # the exhaustive walk, in its order.  In the deadline case the clock
    # jumps past the deadline once the first search ends, so each walk is
    # cut after one search
    from gammoids import complexity

    now = [0.0]
    if "secs" in limits:
        search = complexity.arc_complexity

        def search_then_jump(m, limits):
            cert = search(m, limits)
            now[0] = 2.0
            return cert

        monkeypatch.setattr(time, "monotonic", lambda: now[0])
        monkeypatch.setattr(complexity, "arc_complexity", search_then_jump)
    fhat = SuperAdditiveFn.fhat()
    pair = relabel(uniform(1, 2), {"1": "x", "2": "y"})
    for m in (uniform(2, 4), uniform(2, 5), direct_sum(uniform(2, 3), pair)):
        now[0] = 0.0
        report = f_width(m, fhat, _limits(**limits))
        exact = f_width(m, fhat)
        assert report.searches <= len(report.forms) == len(exact.forms)
        for row, full in zip(report.forms, exact.forms):
            assert row._replace(arcs=None) == full._replace(arcs=None)
            if row.arcs is not None:
                assert row.arcs == full.arcs, (m, row)
        if "secs" in limits:
            assert not report.exhaustive and report.searches == 1 < len(report.forms), m


def test_width_report_serialization():
    fhat = SuperAdditiveFn.fhat()
    report = f_width(uniform(1, 2), fhat)
    blob = json.loads(json.dumps(width_report_to_dict(report)))
    assert blob["value"] == "1/2"
    assert blob["f"] == {"kind": "fhat"}
    assert blob["forms"][0] == {
        "size": 2, "arcs": 1, "ratio": "1/2", "restrict": ["1", "2"], "contract": ["1", "2"]
    }
    assert len(blob["forms"]) == 2  # the forms of U(1,2) and U(0,0)
    assert blob["searches"] == report.searches == 2


@functools.cache
def _small_width_reports() -> tuple[WidthReport, ...]:
    """Width reports of every matroid on at most four labels under fhat and
    linear:2, exhaustive and under SearchLimits(max_arcs=1) and a deadline
    0.05 s after each width starts, plus U(3,6), whose 12 s search the clock
    cuts, and a pair whose labels need escaping."""
    from gammoids.suites import all_matroids

    reports = []
    for f in (SuperAdditiveFn.fhat(), SuperAdditiveFn.parse("linear:2")):
        for limits in ({}, {"max_arcs": 1}, {"secs": 0.05}):
            for size in range(5):
                for m in all_matroids(tuple("abcd"[:size])):
                    reports.append(f_width(m, f, _limits(**limits)))
    fhat = SuperAdditiveFn.fhat()
    reports.append(f_width(uniform(3, 6), fhat, _limits(secs=0.05)))
    reports.append(f_width(relabel(uniform(1, 2), {"1": 'é"', "2": "a\nb\\"}), fhat))
    return tuple(reports)


def test_width_report_json_is_the_indented_json_of_the_report():
    # the indented JSON of every report reads back to its fields and rows
    reports = _small_width_reports()
    for report in reports:
        blob = json.loads(json.dumps(width_report_to_dict(report), indent=2))
        assert (Fraction(blob["value"]), blob["exhaustive"], blob["searches"]) == (
            report.value, report.exhaustive, report.searches
        ), report
        assert (tuple(blob["argmax"]["restrict"]), tuple(blob["argmax"]["contract"])) == report.argmax
        assert blob["f"] == report.f.describe()
        rows = [
            FormRow(row["size"], row["arcs"], tuple(row["restrict"]), tuple(row["contract"]))
            for row in blob["forms"]
        ]
        assert tuple(rows) == report.forms, report
        for row, text in zip(report.forms, blob["forms"]):
            ratio = None if row.arcs is None else str(Fraction(row.arcs, report.f(row.size)))
            assert text["ratio"] == ratio, report
    # the null, false and empty-list branches are all reached
    rows = [row for report in reports for row in report.forms]
    assert any(row.arcs is None for row in rows)
    assert any(not row.restrict_labels and row.contract_labels for row in rows)
    assert any(report.argmax == ((), ()) for report in reports)
    assert not reports[-2].exhaustive


def test_width_value_and_argmax_are_the_first_maximiser_of_the_table():
    # a plain per-row Fraction walk over the forms agrees with the report,
    # exhaustive or truncated
    for report in _small_width_reports():
        best, arg = Fraction(0), ((), ())
        for row in report.forms:
            ratio = None if row.arcs is None else Fraction(row.arcs, report.f(row.size))
            if ratio is not None and ratio > best:
                best, arg = ratio, (row.restrict_labels, row.contract_labels)
        assert (report.value, report.argmax) == (best, arg), report


def test_certificate_serialization():
    from gammoids.complexity import certificate_to_dict

    cert = arc_complexity(uniform(1, 2))
    blob = certificate_to_dict(cert)
    assert blob["value"] == 1 and blob["exhaustive"]
    assert blob["witness"]["targets"] in (["1"], ["2"])


def test_certificate_witness_round_trips_through_json():
    import json

    from gammoids.complexity import certificate_to_dict
    from gammoids.representation import rep_from_dict

    for m in [uniform(1, 3), uniform(2, 3), Matroid.from_label_sets(("a", "b"), [("a",)])]:
        cert = arc_complexity(m)
        blob = json.loads(json.dumps(certificate_to_dict(cert)))
        assert rep_from_dict(blob["witness"]) == cert.witness
