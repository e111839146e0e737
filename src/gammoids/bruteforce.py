"""Independent brute-force oracles.

Everything here re-derives its answer from first principles: routings by
enumerating vertex-disjoint path families, minors by the rank function over
stored bases.  Nothing calls the flow engine or the matroid operations it is
used to check, so these stay valid as independent cross-checks.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .digraph import Digraph


def brute_max_routing_size(d: Digraph, sources: Iterable[int], targets: Iterable[int]) -> int:
    """Maximum number of vertices of `sources` simultaneously routable into
    `targets`, by exhausting all vertex-disjoint path families."""
    xs = sorted(set(sources))
    tset = set(targets)
    # successor lists without loops: a non-repeating path cannot use one
    succ = [sorted(v for u, v in d.arcs if u == w != v) for w in range(d.vertex_count)]
    best = 0

    def paths(path: list[int], used: set[int]) -> Iterator[tuple[int, ...]]:
        # every non-repeating extension of `path` that ends in `tset` and avoids `used`
        v = path[-1]
        if v in tset:
            yield tuple(path)
        for w in succ[v]:
            if w not in used:
                path.append(w)
                used.add(w)
                yield from paths(path, used)
                used.discard(w)
                path.pop()

    def go(i: int, used: set[int], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if i == len(xs) or count + (len(xs) - i) <= best:
            return
        go(i + 1, used, count)  # leave xs[i] unrouted
        x = xs[i]
        if x in used:
            return
        for p in paths([x], used | {x}):
            go(i + 1, used | set(p), count + 1)

    go(0, set(), 0)
    return best


def brute_routable(d: Digraph, xs: Iterable[int], targets: Iterable[int]) -> bool:
    xs = set(xs)
    return brute_max_routing_size(d, xs, targets) == len(xs)


def brute_gamma_bases(d: Digraph, targets: Iterable[int], ground: Iterable[int]) -> set[frozenset[int]]:
    """Bases of the represented matroid by plain subset enumeration on top of
    the path-family oracle; returned as id sets."""
    ids = sorted(set(ground))
    tset = set(targets)
    independent = []
    for mask in range(1 << len(ids)):
        xs = {ids[i] for i in range(len(ids)) if mask >> i & 1}
        if brute_routable(d, xs, tset):
            independent.append(frozenset(xs))
    rank = max(len(s) for s in independent)
    return {s for s in independent if len(s) == rank}


# -- matroid-side oracles (rank function over bases) ---------------------------


def brute_rank(bases: Iterable[int], mask: int) -> int:
    """Rank of a ground subset: largest intersection with a base."""
    return max((b & mask).bit_count() for b in bases)


def brute_restrict_bases(bases: Iterable[int], mask: int) -> set[int]:
    """Bases of the restriction to `mask`, via the rank function."""
    bases = list(bases)
    r = brute_rank(bases, mask)
    return {b & mask for b in bases if (b & mask).bit_count() == r}


def brute_contract_bases(bases: Iterable[int], full: int, mask: int) -> set[int]:
    """Bases of the contraction to `mask` (complement contracted away): a
    subset A of `mask` is independent iff rank(A | complement) - rank(complement)
    equals |A|; bases are the largest such sets."""
    bases = list(bases)
    comp = full & ~mask
    r_comp = brute_rank(bases, comp)
    indep = []
    sub = mask
    while True:
        if brute_rank(bases, sub | comp) - r_comp == sub.bit_count():
            indep.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    top = max(s.bit_count() for s in indep)
    return {s for s in indep if s.bit_count() == top}


def brute_arc_complexity(ground_size: int, bases: Iterable[int]) -> int:
    """Minimum arc count of a standard representation, by plain generate-and-
    test: deepen on the arc count, try every base as the target set, every
    internal vertex count up to the arc count, and every arc subset of the
    allowed shape, comparing the represented matroid subset-by-subset with
    the path-family oracle.  No flow, no symmetry pruning, no degree or
    reachability filters; exponential, for cross-checking only."""
    bases = sorted(set(bases))
    indep = set()
    for b in bases:
        sub = b
        while True:
            indep.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & b
    g = ground_size
    a = 0
    while True:
        for t_mask in bases:
            targets = [i for i in range(g) if t_mask >> i & 1]
            sources = [i for i in range(g) if not t_mask >> i & 1]
            for k in range(a + 1):
                internals = list(range(g, g + k))
                pairs = [
                    (u, v)
                    for u in sources + internals
                    for v in internals + targets
                    if u != v
                ]
                if len(pairs) < a:
                    continue
                for combo in combinations(pairs, a):
                    d = Digraph.build(g + k, combo)
                    ok = True
                    for x_mask in range(1 << g):
                        xs = {i for i in range(g) if x_mask >> i & 1}
                        if brute_routable(d, xs, targets) != (x_mask in indep):
                            ok = False
                            break
                    if ok:
                        return a
        a += 1
