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
digraph's out-masks and the two masks, route through the unchecked routing
core (`_link`, `_paths`) and build their results with the tuples' own
constructors, without a second check.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .digraph import (
    Digraph,
    _ground_subset,
    _vertex_mask,
    digraph_from_dict,
    digraph_to_dict,
    fresh_label,
    mask_in_range,
    members,
    opposite,
    swap,
)
from .matroid import dual, gamma
from .routing import Path, Routing, _link, _paths, validate_routing


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
        if not isinstance(digraph, Digraph):
            raise ValueError(f"digraph {digraph!r} is not a Digraph")
        targets, ground = _vertex_mask(digraph, targets), _vertex_mask(digraph, ground)
        return super().__new__(cls, digraph, targets, ground)

    @classmethod
    def _make(cls, fields: Iterable) -> "Representation":
        """Build from the stored fields ``(digraph, target_mask, ground_mask)``,
        checked; `_replace` and unpickling come through here."""
        digraph, targets, ground = fields
        if not isinstance(digraph, Digraph):
            raise ValueError(f"digraph {digraph!r} is not a Digraph")
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

    def ground_order(self) -> list[int]:
        """The ground ids in label order, the positions of ``gamma(self)``'s ground."""
        return sorted(members(self.ground_mask), key=self.digraph.labels.__getitem__)

    def ids_at(self, mask: int) -> frozenset[int]:
        """The ground ids at the positions in `mask` of ``gamma(self)``'s ground."""
        order = self.ground_order()
        return frozenset(map(order.__getitem__, members(mask_in_range(mask, len(order)))))

    def __repr__(self):
        return (
            f"Representation(targets={sorted(self.target_labels())}, "
            f"ground={sorted(self.ground_labels())}, digraph={self.digraph!r})"
        )


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


def _run_swaps(d: Digraph, paths: Iterable[Path]) -> Digraph:
    """Swap every arc of `paths`, path by path, each path in reverse order of
    traversal.  A single-vertex path contributes zero swaps.

    Nothing is checked: each swap preserves the represented matroid, since
    its head is a current target and its tail is not.  The routing core's
    paths are vertex-disjoint and stop at the first target they reach, and
    `_restrict`'s input is standard (its kept targets are sinks), so no
    vertex but a path's last is a target; `swap_sequence` checks that of a
    caller's routing.
    """
    for p in paths:
        for k in range(len(p) - 1, 0, -1):
            d = swap(d, p[k - 1], p[k])
    return d


def swap_sequence(rep: Representation, routing: Routing) -> Representation:
    """Move the target set onto a base B along a routing B into the targets.

    Applies the reverse-traversal swaps of every routing path, then removes
    all arcs leaving vertices of B that were already targets.  The result
    represents the same matroid with target set exactly B, every b in B a
    sink, and no more arcs than before.  Requires the routing's start set to
    be a base (unused old targets can only be dropped from a base's routing)
    and no target before the end of a path, where a swap has no meaning.
    """
    validate_routing(rep.digraph, routing)  # so every path vertex is an id in range
    if sum(1 << p[0] for p in routing.paths) & ~rep.ground_mask:
        raise NotABaseError("routing must start inside the ground set")
    targets = rep.target_mask
    if sum(1 << p[-1] for p in routing.paths) & ~targets:
        raise ValueError("routing must end inside the representation's targets")
    for p in routing.paths:  # the first swap that `_run_swaps` would get wrong
        for k in range(len(p) - 2, -1, -1):
            if targets >> p[k] & 1:
                raise ValueError(
                    f"swap of ({p[k]}, {p[k + 1]}) falls outside the matroid-preserving case "
                    "(head must be a current target, tail must not)"
                )
    return _swap_sequence(rep, routing.paths)


def _swap_sequence(rep: Representation, paths: Sequence[Path]) -> Representation:
    """`swap_sequence` for paths that `_run_swaps` may swap unchecked; it
    still checks that their start set is a base."""
    d, targets, ground = rep.digraph, rep.target_mask, rep.ground_mask
    starts = sum(1 << p[0] for p in paths)
    rank = len(_link(d.out, targets, ground)[0])
    if len(paths) != rank:
        raise NotABaseError(f"routing starts {members(starts)} have size {len(paths)}, rank is {rank}")
    swapped = _run_swaps(d, paths)
    keep_sinks = starts & targets
    out = tuple(0 if keep_sinks >> u & 1 else heads for u, heads in enumerate(swapped.out))
    stripped = tuple.__new__(Digraph, (d.labels, out))
    return tuple.__new__(Representation, (stripped, starts, ground))


def rebase(rep: Representation, base: Iterable[int]) -> Representation:
    """Re-target the representation onto the base B: route B into the targets
    by a maximum routing and apply the swap sequence.  The routing comes from
    the unchecked core, so only B is checked, not the routing."""
    base_mask = _ground_subset(rep.ground_mask, base)
    if base_mask is None:
        raise NotABaseError("base must be a subset of the ground set")
    paths = _paths(rep.digraph.out, rep.target_mask, base_mask)
    if len(paths) < base_mask.bit_count():
        raise NotABaseError(f"{members(base_mask)} admits no linking of size {base_mask.bit_count()}")
    return _swap_sequence(rep, paths)


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
    keep = _ground_subset(rep.ground_mask, xs)
    if keep is None:
        raise ValueError("restriction set must be a subset of the ground set")
    d, targets = rep.digraph, rep.target_mask
    lost = targets & ~keep
    paths = _paths(d.out, lost, keep) if lost else []
    targets = targets & keep | sum(1 << p[0] for p in paths)
    return tuple.__new__(Representation, (_run_swaps(d, paths), targets, keep))


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
