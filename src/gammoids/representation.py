"""Representation triples and the transformations between them.

A representation is ``(digraph, targets, ground)``: a subset of the ground
set is independent in the represented matroid iff it admits a vertex-disjoint
routing into the target set.  It stores the target and ground sets as bit
masks over vertex ids, so ``digraph, target_mask, ground_mask = rep``; the id
sets `targets` and `ground` are derived on request.  A representation is
*standard* when the targets lie inside the ground set, every target is a
sink, and every non-target ground element is a source.  Standard
representations respect duality: reversing all arcs and complementing the
targets within the ground set represents the dual matroid.

The surgery operations below (rebasing via arc swaps, standardization through
a primed vertex copy, ground restriction and contraction) all preserve the
represented matroid and never increase the arc count; those two facts carry
the arc-complexity bounds in :mod:`gammoids.complexity`.  They run on the
digraph's out-masks and the two masks, and build their results with the
tuples' own constructors, without a second check.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .digraph import (
    Digraph,
    as_int,
    collection,
    digraph_from_dict,
    digraph_to_dict,
    fresh_label,
    mask_in_range,
    members,
    opposite,
    swap,
)
from .matroid import dual, gamma
from .routing import Routing, _vertex_mask, max_routing, validate_routing


class NotStandardError(ValueError):
    """The operation needs a standard representation."""


class NotABaseError(ValueError):
    """The supplied element set is not a base of the represented matroid."""


class _RepresentationFields(NamedTuple):
    digraph: Digraph
    target_mask: int
    ground_mask: int


class Representation(_RepresentationFields):
    __slots__ = ()

    def __new__(cls, digraph: Digraph, targets: Iterable[int], ground: Iterable[int]):
        targets, ground = _vertex_mask(digraph, targets), _vertex_mask(digraph, ground)
        return super().__new__(cls, digraph, targets, ground)

    @classmethod
    def _make(cls, fields: Iterable) -> "Representation":
        """Build from the stored fields ``(digraph, target_mask, ground_mask)``,
        checked; `_replace` and unpickling come through here."""
        digraph, targets, ground = fields
        n = digraph.vertex_count
        return super().__new__(cls, digraph, mask_in_range(targets, n), mask_in_range(ground, n))

    def __reduce__(self):
        return type(self)._make, (tuple(self),)

    @property
    def targets(self) -> frozenset[int]:
        return frozenset(members(self.target_mask))

    @property
    def ground(self) -> frozenset[int]:
        return frozenset(members(self.ground_mask))

    @property
    def arc_count(self) -> int:
        return sum(map(int.bit_count, self.digraph.out))

    def ground_labels(self) -> tuple[str, ...]:
        return tuple(self.digraph.labels[i] for i in members(self.ground_mask))

    def target_labels(self) -> tuple[str, ...]:
        return tuple(self.digraph.labels[i] for i in members(self.target_mask))

    def ids_for(self, labels: Iterable[str]) -> frozenset[int]:
        return self.digraph.ids(labels)

    def __repr__(self):
        return (
            f"Representation(targets={sorted(self.target_labels())}, "
            f"ground={sorted(self.ground_labels())}, digraph={self.digraph!r})"
        )


def _ground_subset(rep: Representation, ids: Iterable[int]) -> int | None:
    """Mask of the ids, or None when one of them lies outside the ground set."""
    mask = 0
    for v in collection(ids, "vertex ids"):
        if type(v) is not int:
            v = as_int(v, "vertex id")
        if v < 0 or not rep.ground_mask >> v & 1:
            return None
        mask |= 1 << v
    return mask


# -- standardness ------------------------------------------------------------


def standard_defects(rep: Representation) -> list[str]:
    """Human-readable list of violated standardness conditions (empty if none):
    targets inside the ground set, targets all sinks, non-target ground all
    sources.  Loops count as both out- and in-arcs."""
    d, targets, ground = rep.digraph, rep.target_mask, rep.ground_mask
    heads = 0
    tails = 0
    for v, out in enumerate(d.out):
        heads |= out
        if out:
            tails |= 1 << v
    outside, bad_sinks = targets & ~ground, targets & tails
    bad_sources = ground & ~targets & heads
    if not (outside or bad_sinks or bad_sources):
        return []

    def labels(mask: int) -> list[str]:
        return sorted(d.labels[v] for v in members(mask))

    defects = []
    if outside:
        defects.append(f"targets {labels(outside)} lie outside the ground set")
    if bad_sinks:
        defects.append(f"targets {labels(bad_sinks)} have outgoing arcs (must be sinks)")
    if bad_sources:
        defects.append(f"ground elements {labels(bad_sources)} have incoming arcs (must be sources)")
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
    return gamma(_reverse(rep)) == dual(gamma(rep))


def _reverse(rep: Representation) -> Representation:
    """Reverse all arcs and complement the targets within the ground set,
    without checking standardness."""
    ground = rep.ground_mask
    return tuple.__new__(Representation, (opposite(rep.digraph), ground & ~rep.target_mask, ground))


def dual_representation(rep: Representation) -> Representation:
    """For standard input: reverse all arcs and complement the targets within
    the ground set.  The result is standard, represents the dual matroid, and
    has the same arc count."""
    _require_standard(rep)
    return _reverse(rep)


# -- swap sequences -----------------------------------------------------------


def _run_swaps(d: Digraph, targets: int, routing: Routing) -> Digraph:
    """Swap every arc of `routing`, path by path in stored order, each path in
    reverse order of traversal, replacing each swapped arc's head by its tail
    in the evolving target mask.

    Each individual swap preserves the represented matroid only when the arc
    head is a current target and the tail is not; both are checked and a
    violation raises, since we assign no matroid meaning to other swaps.
    A single-vertex path contributes zero swaps.
    """
    for p in routing.paths:
        for k in range(1, len(p)):
            r, s = p[-k - 1], p[-k]
            if not targets >> s & 1 or targets >> r & 1:
                raise ValueError(
                    f"swap of ({r}, {s}) falls outside the matroid-preserving case "
                    "(head must be a current target, tail must not)"
                )
            d = swap(d, r, s)
            targets ^= 1 << s | 1 << r
    return d


def _starts_mask(routing: Routing) -> int:
    return sum(1 << p[0] for p in routing.paths)


def swap_sequence(rep: Representation, routing: Routing) -> Representation:
    """Move the target set onto a base B along a routing B into the targets.

    Applies the reverse-traversal swaps of every routing path, then removes
    all arcs leaving vertices of B that were already targets.  The result
    represents the same matroid with target set exactly B, every b in B a
    sink, and no more arcs than before.  Requires the routing's start set to
    be a base (unused old targets can only be dropped from a base's routing).
    """
    validate_routing(rep.digraph, routing)  # so every path vertex is an id in range
    if _starts_mask(routing) & ~rep.ground_mask:
        raise NotABaseError("routing must start inside the ground set")
    if sum(1 << p[-1] for p in routing.paths) & ~rep.target_mask:
        raise ValueError("routing must end inside the representation's targets")
    return _swap_sequence(rep, routing)


def _swap_sequence(rep: Representation, routing: Routing) -> Representation:
    """`swap_sequence` for a routing that is known to be valid, to start
    inside the ground set and to end inside the targets; it still checks
    that the routing's start set is a base."""
    d, targets, ground = rep.digraph, rep.target_mask, rep.ground_mask
    starts = _starts_mask(routing)
    rank = max_routing(d, members(ground), members(targets)).size
    if routing.size != rank:
        raise NotABaseError(
            f"routing starts {members(starts)} have size {routing.size}, rank is {rank}"
        )
    swapped = _run_swaps(d, targets, routing)
    keep_sinks = starts & targets
    out = tuple(0 if keep_sinks >> u & 1 else heads for u, heads in enumerate(swapped.out))
    stripped = tuple.__new__(Digraph, (d.labels, out))
    return tuple.__new__(Representation, (stripped, starts, ground))


def rebase(rep: Representation, base: Iterable[int]) -> Representation:
    """Re-target the representation onto the base B: route B into the targets
    by a maximum routing and apply the swap sequence.  The routing is built
    here, so only B is checked, not the routing."""
    base_mask = _ground_subset(rep, base)
    if base_mask is None:
        raise NotABaseError("base must be a subset of the ground set")
    base = members(base_mask)
    routing = max_routing(rep.digraph, base, members(rep.target_mask))
    if routing.size < len(base):
        raise NotABaseError(f"{base} admits no linking of size {len(base)}")
    return _swap_sequence(rep, routing)


def standardize(rep: Representation, base: Iterable[int]) -> Representation:
    """Produce a standard representation of the same matroid with target set B.

    First rebases onto B, then builds the primed-copy digraph: a fresh vertex
    v' for every old vertex, arcs (u', v') mirroring the rebased arcs, an arc
    (b', b) for every b in B and an arc (e, e') for every other ground
    element.  Ground labels stay put; primed copies get a trailing prime.
    On the masks, the ground elements become ids ``0..k-1`` in ascending
    order and v' is ``k + v``, so ``out[k + v]`` is the rebased ``out[v]``
    shifted by k.  The arc count grows by exactly |ground|.  No arc
    minimization is attempted here (that is the complexity search's job).
    """
    based = rebase(rep, base)
    d0, base_mask = based.digraph, based.target_mask
    ground_ids = members(rep.ground_mask)
    k = len(ground_ids)

    labels = [d0.labels[i] for i in ground_ids]
    taken = set(labels)
    primed_labels = [fresh_label(lab + "'", taken) for lab in d0.labels]

    out = [0] * k + [heads << k for heads in d0.out]
    targets = 0
    for i, e in enumerate(ground_ids):
        if base_mask >> e & 1:
            out[k + e] |= 1 << i  # (b', b)
            targets |= 1 << i
        else:
            out[i] = 1 << (k + e)  # (e, e')
    primed = tuple.__new__(Digraph, (tuple(labels + primed_labels), tuple(out)))
    return tuple.__new__(Representation, (primed, targets, (1 << k) - 1))


# -- minor surgery ------------------------------------------------------------


def restrict_representation(rep: Representation, xs: Iterable[int]) -> Representation:
    """Standard representation of the restriction to the ground subset X.

    When all targets survive in X the triple just shrinks its ground set.
    Otherwise a maximum-cardinality subset of X routable into the lost
    targets is swapped into the target set, which keeps the representation
    standard and the arc count non-increasing.
    """
    _require_standard(rep)
    return _restrict(rep, xs)


def _restrict(rep: Representation, xs: Iterable[int]) -> Representation:
    """`restrict_representation` without the standardness check."""
    keep = _ground_subset(rep, xs)
    if keep is None:
        raise ValueError("restriction set must be a subset of the ground set")
    d, targets = rep.digraph, rep.target_mask
    lost = targets & ~keep
    if not lost:
        return tuple.__new__(Representation, (d, targets, keep))
    routing = max_routing(d, members(keep), members(lost))
    swapped = _run_swaps(d, targets, routing)
    targets = targets & keep | _starts_mask(routing)
    return tuple.__new__(Representation, (swapped, targets, keep))


def contract_representation(rep: Representation, xs: Iterable[int]) -> Representation:
    """Standard representation of the contraction to the ground subset X:
    dualize, restrict, dualize back.  Each step keeps the triple standard,
    so standardness is checked once, on the input."""
    _require_standard(rep)
    return _reverse(_restrict(_reverse(rep), xs))


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
