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
        for v in p:
            if not 0 <= v < d.vertex_count:
                raise ValueError(f"path {p} leaves the vertex range")
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
    succ: Sequence[Sequence[int]],
    targets: Iterable[int],
    sources: Iterable[int],
    early_abort: bool = False,
) -> tuple[list[int], list[set[int]]]:
    """Core flow routine on raw adjacency lists.

    Returns ``(routed, res)``: the sources that got a path (ascending) and
    the residual graph on ``v_in = v``, ``v_out = n + v``; a flow path leaves
    v by the one successor missing from ``res[n + v]`` (which holds v).  With
    `early_abort`, gives up once a source fails, enough for independence tests.
    """
    n = len(succ)
    snk = 2 * n  # node ids: v_in = v, v_out = n + v
    res: list[set[int]] = [set() for _ in range(2 * n + 1)]
    for v in range(n):
        res[v].add(n + v)
        for w in succ[v]:
            if w != v:
                res[n + v].add(w)
    tset = set(targets)
    for t in tset:
        res[n + t].add(snk)

    routed: list[int] = []
    for x in sorted(set(sources)):
        parent = {x: -1}
        queue = deque([x])
        found = False
        while queue and not found:
            a = queue.popleft()
            for b in sorted(res[a]):
                if b not in parent:
                    parent[b] = a
                    if b == snk:
                        found = True
                        break
                    queue.append(b)
        if not found:
            if early_abort:
                return routed, res
            continue
        node = snk
        while node != x:
            prev = parent[node]
            res[prev].discard(node)
            res[node].add(prev)
            node = prev
        routed.append(x)
    return routed, res


def _routable_ids(succ: Sequence[Sequence[int]], targets: Iterable[int], xs: Iterable[int]) -> bool:
    """True iff every vertex in `xs` can be routed simultaneously into `targets`."""
    xs = set(xs)
    routed, _ = _link(succ, targets, xs, early_abort=True)
    return len(routed) == len(xs)


def max_routing(d: Digraph, sources: Iterable[int], targets: Iterable[int]) -> Routing:
    """Maximum-cardinality routing from a subset of `sources` into `targets`.

    The empty routing is a valid result.  Paths stop at the first target they
    reach, so a source that is itself a target is always routed as ``(x)``.
    """
    n = d.vertex_count
    src = sorted(set(sources))
    tset = set(targets)
    for v in src + sorted(tset):
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside the digraph")
    routed, res = _link(d.successors, tset, src)
    paths = []
    for x in routed:
        path = [x]
        v = x
        while v not in tset:
            v = next(w for w in d.successors[v] if w not in res[n + v])
            path.append(v)
        paths.append(tuple(path))
    return Routing(tuple(sorted(paths)), frozenset(tset))


def routable(d: Digraph, xs: Iterable[int], targets: Iterable[int]) -> bool:
    """True iff all of `xs` can be routed into `targets` at once."""
    return _routable_ids(d.successors, targets, xs)


def is_independent(rep: "Representation", xs: Iterable[int]) -> bool:
    """True iff `xs` routes into the targets of `rep`, i.e. is independent in
    the represented matroid.  Rejects sets outside the ground set."""
    xs = frozenset(xs)
    if not xs <= rep.ground:
        raise ValueError("independence queries must stay inside the ground set")
    return _routable_ids(rep.digraph.successors, rep.targets, xs)
