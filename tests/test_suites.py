"""The property suites report the failures of their callees.

Each test replaces a callee that a suite looks up in `gammoids.suites`, or
one that `nested_minors` looks up in `gammoids.matroid`, by a wrong one, or
hands the suite a bad certificate, and pins the suite's whole failure list:
the messages, their order and where the list is clipped.
"""

from gammoids import matroid, suites
from gammoids.complexity import ComplexityCertificate, uniform_rep
from gammoids.digraph import Digraph, opposite
from gammoids.matroid import uniform
from gammoids.representation import Representation
from gammoids.routing import Routing


def _complete(rep, xs):
    """Every arc between distinct vertices, on the same targets and ground:
    not standard, more arcs than a standard surgery result, another matroid."""
    n = rep.digraph.vertex_count
    d = Digraph.build(rep.digraph.labels, [(u, v) for u in range(n) for v in range(n) if u != v])
    return Representation(d, rep.targets, rep.ground)


def test_surgery_suite_runs_every_check_on_both_surgeries_in_order(monkeypatch):
    monkeypatch.setattr(suites, "restrict_representation", _complete)
    monkeypatch.setattr(suites, "contract_representation", _complete)
    result = suites.surgery_suite(count=2, max_vertices=2, seed=4)
    assert result.cases == 3
    assert result.failures == [
        "instance 0 X=[]: restriction not standard",
        "instance 0 X=[]: restriction gained arcs",
        "instance 0 X=[]: restriction represents the wrong matroid",
        "instance 0 X=[]: restriction disagrees with the rank oracle",
        "instance 0 X=[]: contraction not standard",
        "instance 0 X=[]: contraction gained arcs",
        "instance 0 X=[]: contraction represents the wrong matroid",
        "instance 0 X=[]: contraction disagrees with the rank oracle",
        "instance 0 X=['v0']: restriction not standard",
        "instance 0 X=['v0']: restriction gained arcs",
        "instance 0 X=['v0']: contraction not standard",
        "instance 0 X=['v0']: contraction gained arcs",
    ]


def test_minor_complexity_suite_checks_restriction_then_contraction(monkeypatch):
    restrict, contract_to = suites.restrict, suites.contract_to
    # one-element restrictions read as U(1,2) (value 1), two-element
    # contractions as U(2,3) (value 2)
    monkeypatch.setattr(
        suites, "restrict", lambda m, labels: uniform(1, 2) if len(labels) == 1 else restrict(m, labels)
    )
    monkeypatch.setattr(
        suites,
        "contract_to",
        lambda m, labels: uniform(2, 3) if len(labels) == 2 else contract_to(m, labels),
    )
    result = suites.minor_complexity_suite()
    assert result.cases == 92
    assert result.failures == [
        "matroid bases=[[]]: restriction to ['a'] exceeds 0",
        "matroid bases=[['a']]: restriction to ['a'] exceeds 0",
        "matroid bases=[[]]: restriction to ['a'] exceeds 0",
        "matroid bases=[[]]: restriction to ['b'] exceeds 0",
        "matroid bases=[[]]: contraction to ['a', 'b'] exceeds 0",
        "matroid bases=[['a']]: restriction to ['a'] exceeds 0",
        "matroid bases=[['a']]: restriction to ['b'] exceeds 0",
        "matroid bases=[['a']]: contraction to ['a', 'b'] exceeds 0",
        "matroid bases=[['b']]: restriction to ['a'] exceeds 0",
        "matroid bases=[['b']]: restriction to ['b'] exceeds 0",
        "matroid bases=[['b']]: contraction to ['a', 'b'] exceeds 0",
        "matroid bases=[['a'], ['b']]: contraction to ['a', 'b'] exceeds 1",
        "matroid bases=[['a', 'b']]: restriction to ['a'] exceeds 0",
        "matroid bases=[['a', 'b']]: restriction to ['b'] exceeds 0",
        "matroid bases=[['a', 'b']]: contraction to ['a', 'b'] exceeds 0",
        "matroid bases=[[]]: restriction to ['a'] exceeds 0",
        "matroid bases=[[]]: restriction to ['b'] exceeds 0",
        "matroid bases=[[]]: contraction to ['a', 'b'] exceeds 0",
        "matroid bases=[[]]: restriction to ['c'] exceeds 0",
        "matroid bases=[[]]: contraction to ['a', 'c'] exceeds 0",
        "matroid bases=[[]]: contraction to ['b', 'c'] exceeds 0",
        "matroid bases=[['a']]: restriction to ['a'] exceeds 0",
        "matroid bases=[['a']]: restriction to ['b'] exceeds 0",
        "matroid bases=[['a']]: contraction to ['a', 'b'] exceeds 0",
        "matroid bases=[['a']]: restriction to ['c'] exceeds 0",
        "... further failures suppressed",
    ]


def test_closure_suite_checks_each_single_against_its_dual_and_minors(monkeypatch):
    restrict = matroid.restrict
    # every dual reads as U(1,2), every three-element minor the walk builds
    # as U(2,4)
    monkeypatch.setattr(suites, "dual", lambda m: uniform(1, 2))
    monkeypatch.setattr(
        matroid, "restrict", lambda m, labels: uniform(2, 4) if len(labels) == 3 else restrict(m, labels)
    )
    result = suites.closure_suite()
    assert result.cases == 180
    u13 = "Matroid(ground=['1', '2', '3'], bases=[['1'], ['2'], ['3']])"
    u23 = "Matroid(ground=['1', '2', '3'], bases=[['1', '2'], ['1', '3'], ['2', '3']])"
    abc = "Matroid(ground=['a', 'b', 'c'], bases=[['a', 'b'], ['a', 'c']])"
    u24 = (
        "Matroid(ground=['1', '2', '3', '4'], "
        "bases=[['1', '2'], ['1', '3'], ['1', '4'], ['2', '3'], ['2', '4'], ['3', '4']])"
    )
    full = "X=['1', '2', '3'] Y=['1', '2', '3']"
    assert result.failures == [
        f"{u13}: width of the dual differs",
        f"{u13}: minor {full} has larger width",
        f"{u23}: width of the dual differs",
        f"{u23}: minor {full} has larger width",
        f"{abc}: minor X=['a', 'b', 'c'] Y=['a', 'b', 'c'] has larger width",
        f"{u24}: width of the dual differs",
    ]


def test_standardization_suite_reports_each_check(monkeypatch):
    # the arc-free digraph on the input's targets plus the base: not standard
    # when a target lies outside the ground, else a one-base matroid; the
    # "dual" is the standard representation itself
    monkeypatch.setattr(
        suites,
        "standardize",
        lambda rep, base: Representation(Digraph.build(rep.digraph.labels), rep.targets | base, rep.ground),
    )
    monkeypatch.setattr(suites, "dual_representation", lambda rep: rep)
    result = suites.standardization_suite(count=3, max_vertices=3, seed=7)
    assert result.cases == 4
    assert result.failures == [
        "instance 0 base [0]: standardize output is not standard",
        "instance 1 base [1]: dual representation does not represent the dual",
        "instance 1 base [1]: dual bases are not the complements",
        "instance 2 base [0]: standardize changed the matroid",
        "instance 2 base [1]: standardize changed the matroid",
    ]


def test_routing_oracle_suite_reports_each_check(monkeypatch):
    # every vertex on its own one-vertex path: invalid unless every vertex is
    # a target, and then it starts outside X and is too large whenever X is
    # not every vertex
    monkeypatch.setattr(
        suites, "max_routing", lambda d, xs, ts: Routing([(v,) for v in range(d.vertex_count)], ts)
    )
    result = suites.routing_oracle_suite(max_vertices=2, seed=1)
    assert result.cases == 1000
    invalid = "invalid routing (path (0,) ends outside the target set)"
    outside, size = "routing starts outside X", "engine size {} != oracle size {}"
    assert result.failures == [
        f"instance 0: n=1 arcs=[] X=[0] T=[]: {invalid}",
        f"instance 1: n=2 arcs=[(0, 1)] X=[1] T=[]: {invalid}",
        f"instance 3: n=1 arcs=[] X=[] T=[]: {invalid}",
        f"instance 4: n=1 arcs=[] X=[] T=[0]: {outside}",
        f"instance 4: n=1 arcs=[] X=[] T=[0]: {size.format(1, 0)}",
        f"instance 5: n=1 arcs=[] X=[] T=[]: {invalid}",
        f"instance 6: n=1 arcs=[] X=[] T=[0]: {outside}",
        f"instance 6: n=1 arcs=[] X=[] T=[0]: {size.format(1, 0)}",
        f"instance 7: n=2 arcs=[(1, 0)] X=[1] T=[1]: {invalid}",
        f"instance 8: n=1 arcs=[] X=[] T=[]: {invalid}",
        f"instance 9: n=1 arcs=[] X=[] T=[]: {invalid}",
        f"instance 11: n=2 arcs=[(1, 0)] X=[] T=[1]: {invalid}",
        f"instance 12: n=2 arcs=[] X=[0] T=[]: {invalid}",
        f"instance 13: n=1 arcs=[] X=[0] T=[]: {invalid}",
        f"instance 15: n=2 arcs=[] X=[0, 1] T=[]: {invalid}",
        f"instance 16: n=2 arcs=[(1, 0), (1, 1)] X=[0] T=[0, 1]: {outside}",
        f"instance 16: n=2 arcs=[(1, 0), (1, 1)] X=[0] T=[0, 1]: {size.format(2, 1)}",
        f"instance 18: n=1 arcs=[] X=[0] T=[]: {invalid}",
        f"instance 19: n=2 arcs=[(0, 1), (1, 0)] X=[0, 1] T=[]: {invalid}",
        f"instance 20: n=2 arcs=[(1, 0)] X=[0] T=[]: {invalid}",
        f"instance 21: n=2 arcs=[(0, 1)] X=[1] T=[1]: {invalid}",
        f"instance 22: n=1 arcs=[] X=[] T=[0]: {outside}",
        f"instance 22: n=1 arcs=[] X=[] T=[0]: {size.format(1, 0)}",
        f"instance 23: n=2 arcs=[(1, 0)] X=[0] T=[]: {invalid}",
        f"instance 25: n=2 arcs=[] X=[0] T=[1]: {invalid}",
        "... further failures suppressed",
    ]


def test_arc_values_suite_reports_each_check(monkeypatch):
    # twice the value, on the witness with every arc reversed: only the
    # arc-free witnesses of value 0 still pass
    arc_complexity = suites.arc_complexity

    def wrong(m, limits):
        cert = arc_complexity(m, limits)
        w = cert.witness
        return cert._replace(
            value=2 * cert.value, witness=Representation(opposite(w.digraph), w.targets, w.ground)
        )

    monkeypatch.setattr(suites, "arc_complexity", wrong)
    result = suites.arc_values_suite()
    assert result.cases == 15
    assert result.failures == [
        message
        for name, value, doubled in (("U(1,2)", 1, 2), ("U(1,3)", 2, 4), ("U(2,3)", 2, 4), ("U(2,4)", 4, 8))
        for message in (
            f"{name}: arc complexity {doubled} != {value}",
            f"{name}: witness is not standard",
            f"{name}: witness arc count mismatch",
            f"{name}: witness fails the path-family oracle",
        )
    ]


def test_bounds_suite_reports_each_check_of_a_bad_certificate():
    # U(1,2) with a value above the closed-form bound, and with one arc for
    # a witness that has two: a loop on its target and a dangling internal
    u12 = uniform(1, 2)
    bad = Representation(Digraph(("1", "2", "i"), [(0, 0), (1, 2)]), [0], [0, 1])
    certificates = [
        (u12, ComplexityCertificate(26, uniform_rep(1, 2), (), 0.0)),
        (u12, ComplexityCertificate(1, bad, (), 0.0)),
    ]
    result = suites.bounds_suite(certificates)
    assert result.cases == 2
    tag = "certificate for Matroid(ground=['1', '2'], bases=[['1'], ['2']])"
    assert result.failures == [
        f"{tag}: value exceeds the closed-form bound",
        f"{tag}: witness arc count differs from the value",
        f"{tag}: witness arc count differs from the value",
        f"{tag}: witness represents another matroid",
        f"{tag}: witness is not standard",
        f"{tag}: witness has a loop",
        f"{tag}: witness has an internal vertex of in- or out-degree below 2",
        f"{tag}: witness has more internal vertices than Lemma A allows",
    ]
