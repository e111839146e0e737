"""Finite simple digraphs with value semantics.

A digraph is a dense vertex set ``{0, .., n-1}`` together with a frozen set
of ordered vertex pairs.  Loops ``(v, v)`` are admitted in storage, but a
non-repeating path can never traverse one, so all routing machinery treats
them as absent.  Every vertex carries a unique string label; labels are what
the JSON interchange format speaks, ids are positional.

Every transformation returns a fresh digraph.  Instances are immutable and
can be shared freely across concurrent tasks.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

Arc = tuple[int, int]


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(n))


class _DigraphFields(NamedTuple):
    labels: tuple[str, ...]
    arcs: frozenset[Arc]


class Digraph(_DigraphFields):
    """Immutable digraph over vertex ids ``0..n-1`` with per-vertex labels."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` checks too

    def __new__(cls, labels: Iterable[str], arcs: Iterable[Arc]):
        labels = tuple(labels)
        arcs = frozenset((int(u), int(v)) for u, v in arcs)
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("vertex labels must be unique")
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) outside vertex range 0..{n - 1}")
        return super().__new__(cls, labels, arcs)

    @classmethod
    def build(cls, vertices: int | Iterable[str], arcs: Iterable[Arc] = ()) -> "Digraph":
        """Construct from a vertex count (labels auto-generated) or label list."""
        if isinstance(vertices, int):
            labels = default_labels(vertices)
        else:
            labels = tuple(vertices)
        return cls(labels, frozenset(arcs))

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @cached_property
    def label_to_id(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def successors(self) -> tuple[int, ...]:
        """Out-neighbours per vertex as a bit mask over vertex ids, loops
        dropped (routing view); bit w of ``successors[v]`` is the arc (v, w)."""
        out = [0] * self.vertex_count
        for u, v in self.arcs:
            if u != v:
                out[u] |= 1 << v
        return tuple(out)

    def ids(self, labels: Iterable[str]) -> frozenset[int]:
        """Map a collection of labels to vertex ids, rejecting unknown labels."""
        idx = self.label_to_id
        out = set()
        for lab in labels:
            if lab not in idx:
                raise ValueError(f"unknown vertex label {lab!r}")
            out.add(idx[lab])
        return frozenset(out)

    def label_set(self, ids: Iterable[int]) -> frozenset[str]:
        return frozenset(self.labels[i] for i in ids)

    def __repr__(self):
        arcs = sorted(self.arcs)
        return f"Digraph({self.vertex_count} vertices, arcs={arcs})"


def fresh_label(label: str, taken: set[str]) -> str:
    """`label` with primes appended until it is not in `taken`; the result
    is added to `taken`, so repeated calls never hand out a label twice."""
    while label in taken:
        label += "'"
    taken.add(label)
    return label


def opposite(d: Digraph) -> Digraph:
    """Reverse every arc; vertex set and labels are unchanged."""
    return Digraph(d.labels, frozenset((v, u) for u, v in d.arcs))


def swap(d: Digraph, r: int, s: int) -> Digraph:
    """Rewire the arc ``(r, s)``: drop all arcs leaving ``r`` and all arcs
    leaving ``s``, re-attach ``r``'s old heads to ``s``, and add the reversed
    arc ``(s, r)``.

    This is the operation that exchanges ``s`` for ``r`` in a target set
    without changing the represented matroid (whenever ``s`` is a target and
    ``r`` is not).  Dropping the arcs that leave ``s`` is essential for that:
    a routing may always stop at the first target it touches, so arcs leaving
    a target are never needed, but once ``s`` stops being a target its old
    out-arcs would create routings the original digraph does not have.

    Only defined when ``(r, s)`` is an arc and ``r != s``; asking for anything
    else signals a caller bug and raises.  The resulting arc count never
    exceeds the original one.
    """
    if r == s:
        raise ValueError("swap of a loop is undefined")
    if (r, s) not in d.arcs:
        raise ValueError(f"swap undefined: ({r}, {s}) is not an arc")
    new_arcs = {(u, v) for (u, v) in d.arcs if u != r and u != s}
    new_arcs.update((s, v) for (u, v) in d.arcs if u == r and v != s)
    new_arcs.add((s, r))
    return Digraph(d.labels, frozenset(new_arcs))


def remove_loops(d: Digraph) -> Digraph:
    """Drop every arc ``(v, v)``; no non-repeating path can use one."""
    return Digraph(d.labels, frozenset((u, v) for (u, v) in d.arcs if u != v))


def digraph_to_dict(d: Digraph) -> dict:
    """JSON form: ``{"vertices": [...labels], "arcs": [[tail, head], ...]}``."""
    return {
        "vertices": list(d.labels),
        "arcs": [[d.labels[u], d.labels[v]] for u, v in sorted(d.arcs)],
    }


def digraph_from_dict(obj: dict) -> Digraph:
    if not isinstance(obj, dict):
        raise ValueError("digraph object must be a JSON object")
    vertices = obj.get("vertices")
    arcs = obj.get("arcs", [])
    if not isinstance(vertices, list) or not all(isinstance(x, str) for x in vertices):
        raise ValueError('digraph field "vertices" must be a list of strings')
    if not isinstance(arcs, list):
        raise ValueError('digraph field "arcs" must be a list of [tail, head] pairs')
    labels = tuple(vertices)
    idx = {lab: i for i, lab in enumerate(labels)}
    arc_set = set()
    for entry in arcs:
        if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(x, str) for x in entry)):
            raise ValueError(f'digraph field "arcs" entries must be [tail, head] pairs, got {entry!r}')
        u, v = entry
        if u not in idx or v not in idx:
            raise ValueError(f"arc {entry!r} names an unknown vertex")
        arc_set.add((idx[u], idx[v]))
    return Digraph(labels, frozenset(arc_set))
