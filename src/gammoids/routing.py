"""Maximum vertex-disjoint routings via unit-capacity flow.

A routing from X to Y is a family of pairwise vertex-disjoint paths, one
starting at each routed x in X, all ending in Y; a single-vertex path ``(x)``
is valid whenever x lies in Y.  Menger's theorem makes the maximum routing
size equal to a vertex-capacitated max flow, computed here with the usual
vertex-splitting gadget (v_in -> v_out, capacity one everywhere).

Determinism: sources are processed in ascending id order, one augmentation
per source, and every breadth-first search expands neighbours in ascending
node order.  The returned routing, not just its size, is therefore a
function of the input alone.  Processing sources one at a time is exact
because the routable subsets of X form a matroid: a source that cannot be
augmented now can never be routed alongside the current ones.

Extracted paths are truncated at the first target they touch, which keeps
the routing size and turns every routed x in X ∩ Y into the single-vertex
path ``(x)``.

Below the public functions every vertex set is an int bit mask over vertex
ids; the public functions take id collections and reject ids outside the
digraph through one helper, `_vertex_mask`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence, TYPE_CHECKING

from .digraph import Digraph

if TYPE_CHECKING:  # pragma: no cover
    from .representation import Representation

Path = tuple[int, ...]


@dataclass(frozen=True)
class Routing:
    """Vertex-disjoint paths into a declared target set, sorted by start id."""

    paths: tuple[Path, ...]
    targets: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(tuple(p) for p in self.paths))
        object.__setattr__(self, "targets", frozenset(self.targets))

    @property
    def size(self) -> int:
        return len(self.paths)

    def starts(self) -> frozenset[int]:
        return frozenset(p[0] for p in self.paths)

    def ends(self) -> frozenset[int]:
        return frozenset(p[-1] for p in self.paths)


def validate_routing(d: Digraph, routing: Routing) -> None:
    """Raise ValueError unless `routing` satisfies every routing invariant in `d`."""
    seen: set[int] = set()
    starts: set[int] = set()
    for p in routing.paths:
        if not p:
            raise ValueError("routing contains an empty path")
        if len(set(p)) != len(p):
            raise ValueError(f"path {p} repeats a vertex")
        _vertex_mask(d, p)  # every vertex in range
        for u, v in zip(p, p[1:]):
            if (u, v) not in d.arcs:
                raise ValueError(f"path {p} uses the missing arc ({u}, {v})")
        if p[-1] not in routing.targets:
            raise ValueError(f"path {p} ends outside the target set")
        if p[0] in starts:
            raise ValueError(f"two paths start at vertex {p[0]}")
        starts.add(p[0])
        if seen & set(p):
            raise ValueError("paths are not vertex-disjoint")
        seen.update(p)


def _link(
    succ: Sequence[int], targets: int, sources: int, early_abort: bool = False
) -> tuple[list[int], list[int]]:
    """Core flow routine on out-neighbour masks (``Digraph.successors``) with
    the target and source sets as bit masks over vertex ids.

    Returns ``(routed, res)``: the sources that got a path (ascending) and
    the residual graph as one out-mask per node, ``v_in = v``, ``v_out = n + v``
    and sink ``2n``; a flow path leaves v by the one successor missing from
    ``res[n + v]``.  With `early_abort`, gives up once a source fails, enough
    for independence tests.
    """
    n = len(succ)
    snk = 2 * n
    res = [1 << (n + v) for v in range(n)]
    res += [heads | (targets >> v & 1) << snk for v, heads in enumerate(succ)] + [0]
    routed: list[int] = []
    parent = [0] * (snk + 1)
    for x in range(n):
        if not sources >> x & 1:
            continue
        seen, queue = 1 << x, deque([x])
        while queue and not seen >> snk:
            a = queue.popleft()
            new = res[a] & ~seen
            seen |= new
            while new:  # ascending node order
                b = (new & -new).bit_length() - 1
                new &= new - 1
                parent[b] = a
                queue.append(b)
        if not seen >> snk:
            if early_abort:
                return routed, res
            continue
        node = snk
        while node != x:
            prev = parent[node]
            res[prev] &= ~(1 << node)
            res[node] |= 1 << prev
            node = prev
        routed.append(x)
    return routed, res


def _routable_ids(succ: Sequence[int], targets: int, xs: int) -> bool:
    """True iff every vertex in the mask `xs` can be routed simultaneously
    into the mask `targets`.  The flow entry point that `gamma` and the
    search call directly; the name stays because the benchmark's tracer
    wraps it as the routing layer (``perfbench/spans.py``)."""
    routed, _ = _link(succ, targets, xs, early_abort=True)
    return len(routed) == xs.bit_count()


def _vertex_mask(d: Digraph, ids: Iterable[int]) -> int:
    """Bit mask of a vertex-id collection; rejects ids outside `d`."""
    mask = 0
    for v in ids:
        if not 0 <= v < d.vertex_count:
            raise ValueError(f"vertex {v} outside the digraph")
        mask |= 1 << v
    return mask


def max_routing(d: Digraph, sources: Iterable[int], targets: Iterable[int]) -> Routing:
    """Maximum-cardinality routing from a subset of `sources` into `targets`.

    The empty routing is a valid result.  Paths stop at the first target they
    reach, so a source that is itself a target is always routed as ``(x)``.
    """
    n = d.vertex_count
    targets = frozenset(targets)
    src, tmask = _vertex_mask(d, sources), _vertex_mask(d, targets)
    routed, res = _link(d.successors, tmask, src)
    paths = []
    for v in routed:  # ascending starts, so the paths come out sorted
        path = [v]
        while not tmask >> v & 1:
            flow = d.successors[v] & ~res[n + v]
            v = (flow & -flow).bit_length() - 1
            path.append(v)
        paths.append(path)
    return Routing(paths, targets)


def routable(d: Digraph, xs: Iterable[int], targets: Iterable[int]) -> bool:
    """True iff all of `xs` can be routed into `targets` at once."""
    return _routable_ids(d.successors, _vertex_mask(d, targets), _vertex_mask(d, xs))


def is_independent(rep: "Representation", xs: Iterable[int]) -> bool:
    """True iff `xs` routes into the targets of `rep`, i.e. is independent in
    the represented matroid.  Rejects sets outside the ground set."""
    xs = frozenset(xs)
    if not xs <= rep.ground:
        raise ValueError("independence queries must stay inside the ground set")
    return routable(rep.digraph, xs, rep.targets)
