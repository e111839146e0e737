"""Finite simple digraphs with value semantics.

A digraph is a dense vertex set ``{0, .., n-1}`` stored as one out-mask per
vertex: bit w of ``out[v]`` is the arc (v, w), so ``labels, out = d``.
Loops ``(v, v)`` are admitted in storage, but a non-repeating path can never
traverse one, so all routing machinery treats them as absent.  Every vertex
carries a unique string label; labels are what the JSON interchange format
speaks, ids are positional.  The arc set (`arcs`) and the loop-free masks
(`successors`) are derived from the out-masks on request.

Every transformation returns a fresh digraph, built from its out-masks with
the tuple's own constructor and no second check.  Instances are immutable
and can be shared freely across concurrent tasks.

Caller input is checked once, where it enters.  `collection` is the one
guard that the public constructors, and the public functions of `digraph`,
`routing`, `matroid` and `representation` that take vertex ids, labels, arcs
or bases, put around that argument: a string or a non-collection there, or
an arc that is not a pair, is a ValueError naming it.  A value-type argument
of a function (a `Digraph`, `Matroid` or `Representation`) is the caller's
contract, not checked: `gamma(5)` or `direct_sum(m, 5)` fails as Python does.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, NamedTuple

Arc = tuple[int, int]


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(n))


def as_int(value, what: str) -> int:
    """`value` through `operator.index`, the one integer rule for caller
    input: a bool, float, string or other non-integer raises ValueError
    naming it instead of being read as 0 or 1 or truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} {value!r} is not an integer")


def collection(value, what: str) -> Iterator:
    """An iterator over `value`, or a ValueError naming `value` when it is
    not a collection.  It looks at the argument once, never at its items; a
    str or bytes is one value, not a collection of characters."""
    if isinstance(value, (str, bytes)):
        raise ValueError(f"{what} {value!r} is a string, not a collection")
    try:
        return iter(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not a collection") from None


def members(mask: int) -> list[int]:
    """The positions of the set bits of a non-negative `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_in_range(mask, n: int) -> int:
    """`mask` as an int whose bits all lie in the vertex range ``0..n-1``."""
    mask = as_int(mask, "mask")
    if mask < 0 or mask >> n:
        raise ValueError(f"mask {mask:#b} outside vertex range 0..{n - 1}")
    return mask


def _unique(labels: tuple[str, ...]) -> None:
    if len(set(labels)) != len(labels):
        raise ValueError("vertex labels must be unique")


class _DigraphFields(NamedTuple):
    labels: tuple[str, ...]
    out: tuple[int, ...]


class Digraph(_DigraphFields):
    """Immutable digraph over vertex ids ``0..n-1`` with per-vertex labels."""

    __slots__ = ()

    def __new__(cls, labels: Iterable[str], arcs: Iterable[Arc]):
        labels = tuple(collection(labels, "vertex labels"))
        _unique(labels)
        n = len(labels)
        out = [0] * n
        for arc in collection(arcs, "arcs"):
            try:
                u, v = arc
            except (TypeError, ValueError):
                raise ValueError(f"arc {arc!r} is not a (tail, head) pair") from None
            u, v = as_int(u, "vertex id"), as_int(v, "vertex id")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) outside vertex range 0..{n - 1}")
            out[u] |= 1 << v
        return super().__new__(cls, labels, tuple(out))

    @classmethod
    def _make(cls, fields: Iterable) -> "Digraph":
        """Build from the stored fields ``(labels, out)``, checked; `_replace`
        and unpickling come through here."""
        labels, out = fields
        labels = tuple(labels)
        _unique(labels)
        n, out = len(labels), tuple(out)
        if len(out) != n:
            raise ValueError(f"{len(out)} out-masks for {n} vertices")
        return super().__new__(cls, labels, tuple(mask_in_range(m, n) for m in out))

    def __reduce__(self):
        return type(self)._make, (tuple(self),)

    @classmethod
    def build(cls, vertices: int | Iterable[str], arcs: Iterable[Arc] = ()) -> "Digraph":
        """Construct from a vertex count (labels auto-generated) or label list."""
        if isinstance(vertices, int):
            return cls(default_labels(as_int(vertices, "vertex count")), arcs)
        return cls(vertices, arcs)

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def arcs(self) -> frozenset[Arc]:
        """Every arc ``(u, v)``, loops included."""
        return frozenset((u, v) for u, heads in enumerate(self.out) for v in members(heads))

    @property
    def successors(self) -> tuple[int, ...]:
        """The out-masks with the loops dropped (the routing view)."""
        return tuple(heads & ~(1 << v) for v, heads in enumerate(self.out))

    def ids(self, labels: Iterable[str]) -> frozenset[int]:
        """Map a collection of labels to vertex ids, rejecting unknown labels."""
        return frozenset(label_positions(self.labels, collection(labels, "vertex labels")))

    def label_set(self, ids: Iterable[int]) -> frozenset[str]:
        """The labels of a vertex-id collection; rejects ids outside the digraph."""
        return frozenset(map(self.labels.__getitem__, members(_vertex_mask(self, ids))))

    def __repr__(self):
        arcs = sorted(self.arcs)
        return f"Digraph({self.vertex_count} vertices, arcs={arcs})"


def label_positions(labels: tuple[str, ...], names: Iterable[str]) -> list[int]:
    """The position in `labels` of each of `names`, in order; a name not in
    `labels`, an unhashable one included, is a ValueError naming it."""
    position = {lab: i for i, lab in enumerate(labels)}
    out = []
    for name in names:
        try:
            out.append(position[name])
        except (KeyError, TypeError):
            raise ValueError(f"unknown label {name!r}") from None
    return out


def _vertex_mask(d: Digraph, ids: Iterable[int]) -> int:
    """Bit mask of a vertex-id collection; rejects ids outside `d`."""
    mask, n = 0, d.vertex_count
    for v in collection(ids, "vertex ids"):
        v = as_int(v, "vertex id")
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside the digraph")
        mask |= 1 << v
    return mask


def _ground_subset(ground: int, ids: Iterable[int]) -> int | None:
    """Mask of a vertex-id collection, or None when an id lies outside `ground`."""
    mask = 0
    for v in collection(ids, "vertex ids"):
        v = as_int(v, "vertex id")
        if v < 0 or not ground >> v & 1:
            return None
        mask |= 1 << v
    return mask


def fresh_label(label: str, taken: set[str]) -> str:
    """`label` with primes appended until it is not in `taken`; the result
    is added to `taken`, so repeated calls never hand out a label twice."""
    while label in taken:
        label += "'"
    taken.add(label)
    return label


def opposite(d: Digraph) -> Digraph:
    """Reverse every arc; vertex set and labels are unchanged."""
    rev = [0] * len(d.out)
    for u, heads in enumerate(d.out):
        while heads:
            low = heads & -heads
            rev[low.bit_length() - 1] |= 1 << u
            heads ^= low
    return tuple.__new__(Digraph, (d.labels, tuple(rev)))


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
    r, s = as_int(r, "vertex id"), as_int(s, "vertex id")
    if r == s:
        raise ValueError("swap of a loop is undefined")
    out = list(d.out)
    if not (0 <= r < len(out) and 0 <= s < len(out) and out[r] >> s & 1):
        raise ValueError(f"swap undefined: ({r}, {s}) is not an arc")
    out[s] = out[r] & ~(1 << s) | 1 << r
    out[r] = 0
    return tuple.__new__(Digraph, (d.labels, tuple(out)))


def remove_loops(d: Digraph) -> Digraph:
    """Drop every arc ``(v, v)``; no non-repeating path can use one."""
    return tuple.__new__(Digraph, (d.labels, d.successors))


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
    for entry in arcs:
        if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(x, str) for x in entry)):
            raise ValueError(f'digraph field "arcs" entries must be [tail, head] pairs, got {entry!r}')
    ends = label_positions(tuple(vertices), [lab for entry in arcs for lab in entry])
    return Digraph(vertices, zip(ends[::2], ends[1::2]))
