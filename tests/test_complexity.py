import concurrent.futures
import random
from fractions import Fraction
from itertools import combinations

import pytest

from gammoids.complexity import (
    BudgetExhaustedError,
    SearchLimits,
    SuperAdditiveFn,
    _circuits,
    _search_chunk,
    arc_complexity,
    f_width,
    in_class,
    is_superadditive,
    kw_upper_bound,
    lower_bound,
    uniform_rep,
    verify_uniform_conjecture,
)
from gammoids.matroid import Matroid, direct_sum, gamma, relabel, uniform
from gammoids.representation import is_standard, standardize
from gammoids.suites import random_representation


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
    f = SuperAdditiveFn.linear(Fraction(3, 2))
    assert not is_superadditive(f, 4)  # f(1) = 3/2 is not a natural number


def test_table_out_of_range():
    f = SuperAdditiveFn.from_table([1, 1])
    with pytest.raises(ValueError):
        f(2)
    assert not is_superadditive(f, 5)


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


# -- arc complexity ---------------------------------------------------------------


def test_arc_complexity_trivial_matroids():
    for n in range(4):
        assert arc_complexity(uniform(n, n)).value == 0
        assert arc_complexity(uniform(0, n)).value == 0


def test_arc_complexity_small_uniforms():
    for r, n, expected in [(1, 2, 1), (1, 3, 2), (2, 3, 2), (2, 4, 4)]:
        cert = arc_complexity(uniform(r, n))
        assert cert.value == expected
        assert cert.search_exhaustive
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


def test_budget_max_arcs_too_small():
    with pytest.raises(BudgetExhaustedError):
        arc_complexity(uniform(2, 4), SearchLimits(max_arcs=3))


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_truncation_flags_certificate(workers):
    cert = arc_complexity(uniform(2, 4), SearchLimits(max_internal=0, workers=workers))
    assert cert.value == 4  # witness found, minimality not certified
    assert not cert.search_exhaustive


def test_wall_clock_budget():
    with pytest.raises(BudgetExhaustedError):
        arc_complexity(uniform(3, 6), SearchLimits(wall_secs=0.0))


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
    # U(2,5) with c parallel to e: levels of about 35k, 853k and 8 raw
    # candidates, so the last level is big enough to run on a pool
    m = _pairs_except("abcde", ("c", "e"))
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


def test_canonicity_filter_leaves_no_witness_below_the_value():
    # with two internal vertices, candidates of up to 5 arcs pass the degree
    # and reachability filters and reach the relabelling filter; U(2,5)
    # needs 6 arcs, so the bounded search must report an exhausted budget
    with pytest.raises(BudgetExhaustedError):
        arc_complexity(uniform(2, 5), SearchLimits(max_arcs=5, max_internal=2))


def test_candidate_routing_a_circuit_is_rejected():
    # rank 2 on a, b, c, d with c parallel to d: for targets {a, b} and no
    # internal vertex the only 4-arc candidate is U(2,4)'s representation,
    # which routes every base and also the circuit {c, d}
    m = _pairs_except("abcd", ("c", "d"))
    chunk = (4, 0b0011, 0, 4, tuple(sorted(m.bases)), _circuits(m), 0, None)
    assert _search_chunk(chunk) == (None, 1, True)


def test_search_agrees_with_generate_and_test_oracle():
    # every matroid on up to three elements, against the unfiltered
    # exponential oracle; the search's pruning must not change any value
    from gammoids.bruteforce import brute_arc_complexity
    from gammoids.suites import all_matroids

    for size in range(4):
        for m in all_matroids(tuple("abc"[:size])):
            expected = brute_arc_complexity(len(m.ground), m.bases)
            cert = arc_complexity(m)
            assert cert.search_exhaustive
            assert cert.value == expected, m


def test_search_agrees_with_oracle_on_the_four_element_uniform():
    from gammoids.bruteforce import brute_arc_complexity

    m = uniform(2, 4)
    assert brute_arc_complexity(4, m.bases) == arc_complexity(m).value == 4


def test_standardize_gives_search_upper_bound():
    rng = random.Random(31)
    for _ in range(10):
        rep = random_representation(rng, 4)
        m = gamma(rep)
        mask = min(sorted(m.bases))
        std = standardize(rep, rep.ids_for(m.labels_of(mask)))
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
    ratios = {e.ratio for e in report.table if e.ratio is not None}
    assert Fraction(0) in ratios and Fraction(1, 2) in ratios


def test_width_rejects_non_superadditive_denominator():
    f = SuperAdditiveFn.from_table([1, 1, 1])
    with pytest.raises(ValueError):
        f_width(uniform(1, 2), f)


def test_in_class_examples():
    fhat = SuperAdditiveFn.fhat()
    assert in_class(uniform(3, 3), fhat, Fraction(1))
    assert in_class(uniform(1, 2), fhat, Fraction(1, 2))
    assert not in_class(uniform(1, 2), fhat, Fraction(1, 4))


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
    with pytest.raises(BudgetExhaustedError):
        in_class(m, fhat, Fraction(1), SearchLimits(max_arcs=1))


def test_width_wall_clock_truncation():
    report = f_width(uniform(2, 4), SuperAdditiveFn.fhat(), SearchLimits(wall_secs=0.0))
    assert not report.exhaustive


def test_width_report_serialization():
    from gammoids.complexity import width_report_to_dict

    fhat = SuperAdditiveFn.fhat()
    report = f_width(uniform(1, 2), fhat)
    blob = width_report_to_dict(report, fhat)
    assert blob["value"] == "1/2"
    assert blob["f"] == {"kind": "fhat"}
    assert len(blob["table"]) == 9  # nested subset pairs of a 2-set


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
