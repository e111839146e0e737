"""Acceptance criteria, one test per criterion.

Each test runs its criterion at the pinned size and tolerance (all checks
here are exact), prints one PASS/FAIL line, and fails with the collected
counterexamples if any.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines and runtimes.
"""

import pytest

from gammoids.suites import (
    SuiteResult,
    arc_values_suite,
    bounds_suite,
    closure_suite,
    minor_complexity_suite,
    routing_oracle_suite,
    standardization_suite,
    surgery_suite,
    swap_invariance_suite,
)

SEED = 2026


# Criteria 4 and 5 produce the certificates that criterion 7 re-checks.  The
# module-scoped fixtures run each suite once, whichever test asks first.
@pytest.fixture(scope="module")
def arc_values():
    return arc_values_suite()


@pytest.fixture(scope="module")
def minor_complexity():
    return minor_complexity_suite()


def _report(number: int, label: str, result: SuiteResult, extra: str = "") -> None:
    status = "PASS" if result.passed else "FAIL"
    tail = f" {extra}" if extra else ""
    print(
        f"[criterion {number}] {status} {label}: {result.cases} cases "
        f"in {result.runtime_secs:.1f}s{tail}"
    )
    assert result.passed, (label, result.failures[:10])


def test_criterion_1_swap_invariance_exhaustive():
    # every digraph with at most 4 vertices (loops included), every target
    # set containing the arc head but not the tail, every ground set
    result = swap_invariance_suite(max_vertices=4)
    _report(1, "swap invariance |V| <= 4", result)


def test_criterion_2_standardization_and_duality():
    # 500 random representations with |V| <= 6, every base each: standard
    # output, matroid preserved, dual representation complements the bases
    result = standardization_suite(count=500, max_vertices=6, seed=SEED)
    _report(2, "standardization / duality on 500 random representations", result)


def test_criterion_3_ground_set_surgery():
    # same corpus, every ground subset X: restriction and contraction stay
    # standard, keep the arc count, and represent the right minor
    result = surgery_suite(count=500, max_vertices=6, seed=SEED)
    _report(3, "restriction / contraction surgery over all ground subsets", result)


def test_criterion_4_exact_arc_complexities(arc_values):
    # exhaustive search values: U(n,n) and U(0,n) cost 0 for n <= 5;
    # U(1,2)=1, U(1,3)=2, U(2,3)=2, U(2,4)=4, all equal to rank*(size-rank)
    timings = arc_values.details["timings"]
    _report(4, "exact uniform arc complexities", arc_values, f"runtimes: {timings}")


def test_criterion_5_complexity_under_duality_and_minors(minor_complexity):
    # all matroids on at most 4 labeled elements: complexity equal under
    # duality, non-increasing under restriction and contraction
    _report(5, "arc complexity vs duality and minors, |E| <= 4", minor_complexity)


def test_criterion_6_width_closure():
    # sampled matroids and disjoint pairs: width of every minor bounded by
    # the width, width invariant under duality, direct sums below the max
    result = closure_suite()
    _report(6, "bounded-width closure under duality, minors, direct sums", result)


def test_criterion_7_upper_bounds_on_certificates(arc_values, minor_complexity):
    # every exhaustive certificate of criteria 4 and 5 satisfies the
    # closed-form bound, and its witness is a standard, loop-free
    # representation of the matroid whose internal vertices meet Lemma A
    certificates = arc_values.details["certificates"] + minor_complexity.details["certificates"]
    result = bounds_suite(certificates)
    _report(7, "closed-form bound and Lemma A witnesses on all certificates", result)


def test_criterion_8_routing_oracle_equivalence():
    # 1000 random digraph/source/target instances with |V| <= 6 against
    # exhaustive path-family enumeration
    result = routing_oracle_suite(max_vertices=6, seed=SEED)
    _report(8, "flow engine vs path-family oracle", result)
