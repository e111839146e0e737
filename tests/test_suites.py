"""The property suites report the failures of their callees.

Each test replaces a callee that a suite looks up in `gammoids.suites` by a
wrong one and pins the suite's whole failure list: the messages, their
order and where the list is clipped.
"""

from gammoids import suites
from gammoids.digraph import Digraph
from gammoids.matroid import uniform
from gammoids.representation import Representation


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
    restrict = suites.restrict
    # every dual reads as U(1,2), every three-element minor as U(2,4)
    monkeypatch.setattr(suites, "dual", lambda m: uniform(1, 2))
    monkeypatch.setattr(
        suites, "restrict", lambda m, labels: uniform(2, 4) if len(labels) == 3 else restrict(m, labels)
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
