"""Representation triples and the transformations between them.

A representation is ``(digraph, targets, ground)``: a subset of the ground
set is independent in the represented matroid iff it admits a vertex-disjoint
routing into the target set.  A representation is *standard* when the targets
lie inside the ground set, every target is a sink, and every non-target
ground element is a source.  Standard representations respect duality:
reversing all arcs and complementing the targets within the ground set
represents the dual matroid.

The surgery operations below (rebasing via arc swaps, standardization through
a primed vertex copy, ground restriction and contraction) all preserve the
represented matroid and never increase the arc count; those two facts carry
the arc-complexity bounds in :mod:`gammoids.complexity`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .digraph import Digraph, digraph_from_dict, digraph_to_dict, fresh_label, opposite, swap
from .matroid import dual, gamma
from .routing import Routing, _vertex_mask, max_routing, validate_routing


class NotStandardError(ValueError):
    """The operation needs a standard representation."""


class NotABaseError(ValueError):
    """The supplied element set is not a base of the represented matroid."""


@dataclass(frozen=True)
class Representation:
    digraph: Digraph
    targets: frozenset[int]
    ground: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "targets", frozenset(self.targets))
        object.__setattr__(self, "ground", frozenset(self.ground))
        _vertex_mask(self.digraph, self.targets | self.ground)  # every vertex in range

    @property
    def arc_count(self) -> int:
        return len(self.digraph.arcs)

    def ground_labels(self) -> tuple[str, ...]:
        return tuple(self.digraph.labels[i] for i in sorted(self.ground))

    def target_labels(self) -> tuple[str, ...]:
        return tuple(self.digraph.labels[i] for i in sorted(self.targets))

    def ids_for(self, labels: Iterable[str]) -> frozenset[int]:
        return self.digraph.ids(labels)

    def __repr__(self):
        return (
            f"Representation(targets={sorted(self.target_labels())}, "
            f"ground={sorted(self.ground_labels())}, digraph={self.digraph!r})"
        )


# -- standardness ------------------------------------------------------------


def standard_defects(rep: Representation) -> list[str]:
    """Human-readable list of violated standardness conditions (empty if none):
    targets inside the ground set, targets all sinks, non-target ground all
    sources."""
    defects = []
    d = rep.digraph
    if not rep.targets <= rep.ground:
        extra = sorted(d.labels[v] for v in rep.targets - rep.ground)
        defects.append(f"targets {extra} lie outside the ground set")
    bad_sinks = sorted(d.labels[t] for t in rep.targets if not d.is_sink(t))
    if bad_sinks:
        defects.append(f"targets {bad_sinks} have outgoing arcs (must be sinks)")
    bad_sources = sorted(d.labels[e] for e in rep.ground - rep.targets if not d.is_source(e))
    if bad_sources:
        defects.append(f"ground elements {bad_sources} have incoming arcs (must be sources)")
    return defects


def is_standard(rep: Representation) -> bool:
    return not standard_defects(rep)


def _require_standard(rep: Representation) -> None:
    defects = standard_defects(rep)
    if defects:
        raise NotStandardError("; ".join(defects))


def is_duality_respecting(rep: Representation) -> bool:
    """True iff reversing all arcs and taking ground-minus-targets as the new
    targets represents the dual matroid."""
    m = gamma(rep)
    opp = Representation(opposite(rep.digraph), rep.ground - rep.targets, rep.ground)
    return gamma(opp) == dual(m)


def dual_representation(rep: Representation) -> Representation:
    """For standard input: reverse all arcs and complement the targets within
    the ground set.  The result is standard, represents the dual matroid, and
    has the same arc count."""
    _require_standard(rep)
    return Representation(opposite(rep.digraph), rep.ground - rep.targets, rep.ground)


# -- swap sequences -----------------------------------------------------------


def _run_swaps(d: Digraph, targets: frozenset[int], routing: Routing) -> tuple[Digraph, frozenset[int]]:
    """Swap every arc of `routing`, path by path in stored order, each path in
    reverse order of traversal, replacing each swapped arc's head by its tail
    in the evolving target set.

    Each individual swap preserves the represented matroid only when the arc
    head is a current target and the tail is not; both are checked and a
    violation raises, since we assign no matroid meaning to other swaps.
    A single-vertex path contributes zero swaps.
    """
    cur = d
    tcur = set(targets)
    for p in routing.paths:
        for k in range(1, len(p)):
            r, s = p[-k - 1], p[-k]
            if s not in tcur or r in tcur:
                raise ValueError(
                    f"swap of ({r}, {s}) falls outside the matroid-preserving case "
                    "(head must be a current target, tail must not)"
                )
            cur = swap(cur, r, s)
            tcur.discard(s)
            tcur.add(r)
    return cur, frozenset(tcur)


def swap_sequence(rep: Representation, routing: Routing) -> Representation:
    """Move the target set onto a base B along a routing B into the targets.

    Applies the reverse-traversal swaps of every routing path, then removes
    all arcs leaving vertices of B that were already targets.  The result
    represents the same matroid with target set exactly B, every b in B a
    sink, and no more arcs than before.  Requires the routing's start set to
    be a base (unused old targets can only be dropped from a base's routing).
    """
    d = rep.digraph
    validate_routing(d, routing)
    starts = routing.starts()
    if not starts <= rep.ground:
        raise NotABaseError("routing must start inside the ground set")
    if not routing.ends() <= rep.targets:
        raise ValueError("routing must end inside the representation's targets")
    rank = max_routing(d, rep.ground, rep.targets).size
    if len(starts) != rank:
        raise NotABaseError(
            f"routing starts {sorted(starts)} have size {len(starts)}, rank is {rank}"
        )
    swapped, _ = _run_swaps(d, rep.targets, routing)
    keep_sinks = starts & rep.targets
    arcs = frozenset((u, v) for (u, v) in swapped.arcs if u not in keep_sinks)
    return Representation(Digraph(d.labels, arcs), starts, rep.ground)


def rebase(rep: Representation, base: Iterable[int]) -> Representation:
    """Re-target the representation onto the base B: route B into the targets
    by a maximum routing and apply the swap sequence."""
    base = frozenset(base)
    if not base <= rep.ground:
        raise NotABaseError("base must be a subset of the ground set")
    routing = max_routing(rep.digraph, base, rep.targets)
    if routing.size < len(base):
        raise NotABaseError(f"{sorted(base)} admits no linking of size {len(base)}")
    return swap_sequence(rep, routing)


def standardize(rep: Representation, base: Iterable[int]) -> Representation:
    """Produce a standard representation of the same matroid with target set B.

    First rebases onto B, then builds the primed-copy digraph: a fresh vertex
    v' for every old vertex, arcs (u', v') mirroring the rebased arcs, an arc
    (b', b) for every b in B and an arc (e, e') for every other ground
    element.  Ground labels stay put; primed copies get a trailing prime.
    The arc count grows by exactly |ground|.  No arc minimization is
    attempted here (that is the complexity search's job).
    """
    based = rebase(rep, base)
    d0 = based.digraph
    n0 = d0.vertex_count
    ground_ids = sorted(rep.ground)
    base_ids = set(based.targets)

    labels = [d0.labels[i] for i in ground_ids]
    taken = set(labels)
    primed_labels = [fresh_label(lab + "'", taken) for lab in d0.labels]

    new_id = {v: i for i, v in enumerate(ground_ids)}
    primed = {v: len(ground_ids) + v for v in range(n0)}

    arcs = {(primed[u], primed[v]) for (u, v) in d0.arcs}
    arcs.update((primed[b], new_id[b]) for b in base_ids)
    arcs.update((new_id[e], primed[e]) for e in ground_ids if e not in base_ids)

    return Representation(
        Digraph(tuple(labels) + tuple(primed_labels), frozenset(arcs)),
        frozenset(new_id[b] for b in base_ids),
        frozenset(new_id[e] for e in ground_ids),
    )


# -- minor surgery ------------------------------------------------------------


def restrict_representation(rep: Representation, xs: Iterable[int]) -> Representation:
    """Standard representation of the restriction to the ground subset X.

    When all targets survive in X the triple just shrinks its ground set.
    Otherwise a maximum-cardinality subset of X routable into the lost
    targets is swapped into the target set, which keeps the representation
    standard and the arc count non-increasing.
    """
    _require_standard(rep)
    xs = frozenset(xs)
    if not xs <= rep.ground:
        raise ValueError("restriction set must be a subset of the ground set")
    d = rep.digraph
    if rep.targets <= xs:
        return Representation(d, rep.targets, xs)
    lost = rep.targets - xs
    routing = max_routing(d, xs, lost)
    swapped, _ = _run_swaps(d, rep.targets, routing)
    new_targets = (rep.targets & xs) | routing.starts()
    return Representation(swapped, new_targets, xs)


def contract_representation(rep: Representation, xs: Iterable[int]) -> Representation:
    """Standard representation of the contraction to the ground subset X:
    dualize, restrict, dualize back."""
    return dual_representation(restrict_representation(dual_representation(rep), xs))


# -- JSON ---------------------------------------------------------------------


def rep_to_dict(rep: Representation) -> dict:
    """JSON form: ``{"digraph": .., "targets": [..], "ground": [..]}``."""
    return {
        "digraph": digraph_to_dict(rep.digraph),
        "targets": sorted(rep.target_labels()),
        "ground": sorted(rep.ground_labels()),
    }


def rep_from_dict(obj: dict) -> Representation:
    if not isinstance(obj, dict):
        raise ValueError("representation object must be a JSON object")
    if "digraph" not in obj:
        raise ValueError('representation is missing the "digraph" field')
    d = digraph_from_dict(obj["digraph"])
    for field in ("targets", "ground"):
        val = obj.get(field, [])
        if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
            raise ValueError(f'representation field "{field}" must be a list of strings')
    return Representation(d, d.ids(obj.get("targets", [])), d.ids(obj.get("ground", [])))
