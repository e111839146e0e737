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
ids and the digraph is its stored out-masks (``Digraph.out``), loops
included: the flow kernel `_link` drops them itself.  The package routes
its own masks through the unchecked core, `_link`, `_paths` (the paths of
a maximum routing) and `_routable_ids`.  The public functions are the edge:
they check the id collections they take once, where they enter, through
`digraph._vertex_mask` (`is_independent` through `digraph._ground_subset`):
an argument that is not a collection, an id that is no integer, or an id
outside the digraph is a ValueError.  Then they call the core.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence, TYPE_CHECKING

from .digraph import Digraph, _ground_subset, _vertex_mask, collection

if TYPE_CHECKING:  # pragma: no cover
    from .representation import Representation

Path = tuple[int, ...]


class _RoutingFields(NamedTuple):
    paths: tuple[Path, ...]
    targets: frozenset[int]


class Routing(_RoutingFields):
    """Vertex-disjoint paths into a declared target set, sorted by start id."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` checks too

    def __new__(cls, paths: Iterable[Iterable[int]], targets: Iterable[int]):
        paths = tuple(tuple(collection(p, "path")) for p in collection(paths, "paths"))
        return super().__new__(cls, paths, frozenset(collection(targets, "targets")))

    @property
    def size(self) -> int:
        return len(self.paths)

    def starts(self) -> frozenset[int]:
        return frozenset(p[0] for p in self.paths)


def validate_routing(d: Digraph, routing: Routing) -> None:
    """Raise ValueError unless `routing` satisfies every routing invariant in `d`."""
    if not isinstance(routing, Routing):
        raise ValueError(f"routing {routing!r} is not a Routing")
    seen: set[int] = set()
    starts: set[int] = set()
    for p in routing.paths:
        if not p:
            raise ValueError("routing contains an empty path")
        if len(set(p)) != len(p):
            raise ValueError(f"path {p} repeats a vertex")
        _vertex_mask(d, p)  # every vertex in range
        for u, v in zip(p, p[1:]):
            if not d.out[u] >> v & 1:
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
    """Flow kernel on out-neighbour masks (``Digraph.out``; a loop bit is
    dropped here) and target and source masks.  Returns ``(routed, res)``:
    the sources that got a path (ascending) and the residual graph as one
    out-mask per node, ``v_in = v``, ``v_out = n + v`` and sink ``2n``; a
    flow path leaves v by the one successor missing from ``res[n + v]``.
    Sources are taken lowest bit first; each breadth-first search walks a
    plain list as its FIFO queue, appends neighbours in ascending node
    order and stops once the sink is seen.  With `early_abort`, gives up
    once a source fails, enough for independence tests."""
    n = len(succ)
    snk = 2 * n
    sink = 1 << snk
    res = [1 << (n + v) for v in range(n)]
    res += [heads & ~(1 << v) | (targets >> v & 1) << snk for v, heads in enumerate(succ)] + [0]
    routed: list[int] = []
    parent = [0] * (snk + 1)
    while sources:  # ascending source order
        x = (sources & -sources).bit_length() - 1
        sources &= sources - 1
        seen, queue = 1 << x, [x]
        for a in queue:  # the list grows as the search runs: a FIFO queue
            new = res[a] & ~seen
            seen |= new
            while new:  # ascending node order
                b = (new & -new).bit_length() - 1
                new &= new - 1
                parent[b] = a
                queue.append(b)
            if seen & sink:
                break
        else:
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


def _paths(out: Sequence[int], targets: int, sources: int) -> list[Path]:
    """The routing core: the paths of a maximum routing from the mask
    `sources` into the mask `targets`, in ascending start order, each
    stopping at the first target it reaches."""
    n = len(out)
    routed, res = _link(out, targets, sources)
    paths = []
    for v in routed:
        path = [v]
        while not targets >> v & 1:
            flow = out[v] & ~(1 << v) & ~res[n + v]
            v = (flow & -flow).bit_length() - 1
            path.append(v)
        paths.append(tuple(path))
    return paths


def max_routing(d: Digraph, sources: Iterable[int], targets: Iterable[int]) -> Routing:
    """Maximum-cardinality routing from a subset of `sources` into `targets`.

    The empty routing is a valid result.  Paths stop at the first target they
    reach, so a source that is itself a target is always routed as ``(x)``.
    """
    targets = frozenset(collection(targets, "targets"))
    src, tmask = _vertex_mask(d, sources), _vertex_mask(d, targets)
    return tuple.__new__(Routing, (tuple(_paths(d.out, tmask, src)), targets))


def routable(d: Digraph, xs: Iterable[int], targets: Iterable[int]) -> bool:
    """True iff all of `xs` can be routed into `targets` at once."""
    return _routable_ids(d.out, _vertex_mask(d, targets), _vertex_mask(d, xs))


def is_independent(rep: "Representation", xs: Iterable[int]) -> bool:
    """True iff `xs` routes into the targets of `rep`, i.e. is independent in
    the represented matroid.  Rejects sets outside the ground set."""
    xs = _ground_subset(rep.ground_mask, xs)
    if xs is None:
        raise ValueError("independence queries must stay inside the ground set")
    return _routable_ids(rep.digraph.out, rep.target_mask, xs)
