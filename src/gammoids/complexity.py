"""Arc complexity, super-additive widths, and bounded-width class membership.

The arc complexity of a matroid is the least arc count over all standard
representations, a minimum over an unbounded universe of digraphs.  The
search space is made finite by three facts about arc-minimal standard
representations, recorded here because every exhaustiveness claim rests on
them:

* the target set of a standard representation is a base of the represented
  matroid: targets are independent via single-vertex paths, and a routing
  into the targets caps independent sets at the target count, so only bases
  need to be tried;
* an internal vertex (one outside the ground set) with in-degree zero or
  out-degree zero lies on no routing path, so its incident arcs can be
  deleted without changing the represented matroid or standardness; an
  arc-minimal representation therefore has every internal vertex with in-
  and out-degree at least one, which bounds the internal vertex count by the
  arc count;
* a loop can never be traversed, so dropping one also preserves everything.

Iterative deepening on the arc count hence only needs, at level a,
candidates with at most a internal vertices, no loops, and no useless
internal vertex: pruning any standard representation with a arcs yields one
inside this restricted space with at most a arcs, which the current or an
earlier level finds.  Standardness itself fixes the allowed arc shapes:
tails range over non-target ground elements and internal vertices, heads
over internal vertices and targets.

Internal vertices are anonymous, so candidates are enumerated up to
internal-vertex relabeling only; ground elements are labeled and never
permuted.  A candidate digraph represents the matroid iff every base routes
into the targets and no circuit does (downward closure on one side, a
contained circuit on the other).

Widths are exact rationals throughout; no floating point is involved in any
comparison.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable

from .digraph import Digraph, fresh_label
from .matroid import Matroid, check_enumeration_limit, nested_minors, uniform
from .representation import Representation, rep_to_dict
from .routing import _routable_ids


class BudgetExhaustedError(RuntimeError):
    """Search limits were hit before any representation was found."""

    def __init__(self, message: str, levels: tuple["LevelStats", ...] = ()):
        super().__init__(message)
        self.levels = levels


@dataclass(frozen=True)
class SearchLimits:
    """Budgets for the arc-complexity search.  ``max_arcs`` caps the deepening
    level (default: the rank/size upper bound, which is always sufficient for
    a gammoid), ``max_internal`` caps internal vertices per level,
    ``wall_secs`` is a total wall-clock budget, and ``workers`` is the number
    of search processes for the levels big enough to pay for them (see
    ``_POOL_MIN_CANDIDATES``).  A truncated search never claims
    exhaustiveness."""

    max_arcs: int | None = None
    max_internal: int | None = None
    wall_secs: float | None = None
    workers: int = 1


@dataclass(frozen=True)
class LevelStats:
    arcs: int
    candidates: int
    complete: bool


@dataclass(frozen=True)
class ComplexityCertificate:
    """Result of an arc-complexity search: the value, a standard witness
    representation achieving it, and whether the completed levels prove that
    no smaller standard representation exists."""

    value: int
    witness: Representation
    search_exhaustive: bool
    levels: tuple[LevelStats, ...]
    runtime_secs: float


@dataclass(frozen=True)
class MinorEntry:
    restrict_labels: tuple[str, ...]
    contract_labels: tuple[str, ...]
    arcs: int | None
    exhaustive: bool
    ratio: Fraction | None


@dataclass(frozen=True)
class WidthReport:
    """Maximum of arc-complexity over f over all nested minors.  When some
    inner search was truncated the value is still a certified lower bound on
    the width (it maximizes over the exhaustively solved minors only)."""

    value: Fraction
    argmax: tuple[tuple[str, ...], tuple[str, ...]]
    table: tuple[MinorEntry, ...]
    exhaustive: bool


# -- super-additive functions ------------------------------------------------


@dataclass(frozen=True)
class SuperAdditiveFn:
    """Positive-integer-valued function used as the width denominator.

    Families: the built-in ``max(1, x)``, linear ``c * max(1, x)``, and an
    explicit value table for ``0..len-1``.  Values must be integers >= 1;
    the linear coefficient may be rational as long as every value stays a
    positive integer.
    """

    kind: str
    coeff: Fraction = Fraction(1)
    table: tuple[int, ...] = ()

    @classmethod
    def fhat(cls) -> "SuperAdditiveFn":
        return cls("fhat")

    @classmethod
    def linear(cls, coeff) -> "SuperAdditiveFn":
        return cls("linear", coeff=Fraction(coeff))

    @classmethod
    def from_table(cls, values: Iterable[int]) -> "SuperAdditiveFn":
        return cls("table", table=tuple(int(v) for v in values))

    @classmethod
    def parse(cls, spec: str) -> "SuperAdditiveFn":
        """Parse "fhat" or "linear:<c>" (tables need a file and are handled by
        the CLI)."""
        if spec == "fhat":
            return cls.fhat()
        if spec.startswith("linear:"):
            try:
                return cls.linear(Fraction(spec.split(":", 1)[1]))
            except ZeroDivisionError as exc:
                raise ValueError(f"function spec {spec!r} divides by zero") from exc
        raise ValueError(f"unknown function spec {spec!r} (expected fhat or linear:<c>)")

    def __call__(self, x: int) -> int:
        if x < 0:
            raise ValueError("defined on the naturals only")
        if self.kind == "fhat":
            return max(1, x)
        if self.kind == "linear":
            val = self.coeff * max(1, x)
            if val.denominator != 1:
                raise ValueError(f"value at {x} is {val}, not a natural number")
            return int(val)
        if self.kind == "table":
            if x >= len(self.table):
                raise ValueError(f"value table covers 0..{len(self.table) - 1}, asked for {x}")
            return self.table[x]
        raise ValueError(f"unknown function kind {self.kind!r}")

    def describe(self) -> dict:
        if self.kind == "linear":
            return {"kind": "linear", "coeff": str(self.coeff)}
        if self.kind == "table":
            return {"kind": "table", "values": list(self.table)}
        return {"kind": self.kind}


def is_superadditive(f, upto: int) -> bool:
    """Check ``f(n + m) >= f(n) + f(m)`` for all ``1 <= n, m`` with
    ``n + m <= upto`` and that values on ``0..upto`` are integers >= 1."""
    values = []
    for x in range(upto + 1):
        try:
            v = f(x)
        except ValueError:
            return False
        if not isinstance(v, int) or v < 1:
            return False
        values.append(v)
    for n in range(1, upto + 1):
        for m in range(n, upto - n + 1):
            if values[n + m] < values[n] + values[m]:
                return False
    return True


# -- closed-form pieces --------------------------------------------------------


def kw_upper_bound(rank: int, size: int) -> int:
    """Polynomial arc-count bound valid for every gammoid of the given rank
    and ground size (vertex bound squared, after loop removal and
    standardization)."""
    if rank < 0 or size < 0 or rank > size:
        raise ValueError(f"need 0 <= rank <= size, got rank={rank}, size={size}")
    return (
        rank**4 * size**2
        + 2 * rank**3 * size
        + 2 * rank**2 * size**2
        + rank**2
        + 2 * rank * size
        + size**2
    )


def uniform_rep(r: int, n: int) -> Representation:
    """Standard representation of the rank-r uniform matroid on n elements:
    targets "1".."r", sources "r+1".."n", all source-to-target arcs;
    r * (n - r) arcs in total."""
    if r < 0 or n < 0 or r > n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    labels = tuple(str(i) for i in range(1, n + 1))
    arcs = frozenset((x, t) for x in range(r, n) for t in range(r))
    return Representation(Digraph(labels, arcs), frozenset(range(r)), frozenset(range(n)))


def lower_bound(m: Matroid) -> int:
    """Arcs any standard representation needs: its targets form a base, and
    every non-loop element outside that base must reach the targets, so it
    has an out-arc of its own.  The count is the same for every base."""
    return len(m.ground) - len(m.loops()) - m.rank


def _circuits(m: Matroid) -> tuple[int, ...]:
    """Minimal dependent sets, as ascending bit masks over ground positions."""
    g = len(m.ground)
    table = bytearray(1 << g)
    for b in m.bases:
        sub = b
        while True:
            table[sub] = 1
            if sub == 0:
                break
            sub = (sub - 1) & b
    return tuple(
        x
        for x in range(1, 1 << g)
        if not table[x] and all(table[x ^ (1 << i)] for i in range(g) if x >> i & 1)
    )


# -- the exhaustive search ------------------------------------------------------

# A level runs on a process pool only if the level before it enumerated at
# least this many raw candidates.  Starting and stopping a two-worker pool
# takes about 10 ms (2-core x86 Linux, fork), in which the serial loop covers
# about 20k candidates (1.4-2.4M per second on 5- and 6-element inputs); two
# workers save at most half a level, so a level pays for its pool from about
# 40k.  Levels grow with the arc count until the witness level, so the count
# the search already has for the previous level is a deterministic estimate.
_POOL_MIN_CANDIDATES = 40_000


def _search_chunk(args) -> tuple[tuple | None, int, bool]:
    """Enumerate the candidates of one (level, target base, internal count)
    chunk in lexicographic order; return the first matching arc set, the
    number of raw candidates generated, and whether the chunk ran to
    completion.  Top-level and picklable so it can run in worker processes.

    The chunk is ``(g, t_mask, k, a, bases, circuits, loops, deadline)``:
    vertices ``0..g-1`` are the ground positions and ``g..g+k-1`` the
    internal vertices, and every vertex set (the target base, the sorted
    bases, the circuits, the matroid's loops) is a bit mask over them.
    """
    (g, t_mask, k, a, bases, circuits, loops, deadline) = args
    tails = [u for u in range(g + k) if not t_mask >> u & 1]  # sources, internals
    heads = [v for v in range(g + k) if v >= g or t_mask >> v & 1]  # internals, targets
    pairs = sorted((u, v) for u in tails for v in heads if u != v)
    if len(pairs) < a:
        return None, 0, True

    nonloops = ((1 << g) - 1) & ~loops
    full_k = (1 << k) - 1
    perms = list(permutations(range(k)))[1:] if k >= 2 else []
    count = 0
    for combo in combinations(pairs, a):
        count += 1
        if deadline is not None and count % 512 == 0 and time.monotonic() > deadline:
            return None, count, False

        if k:
            din = dout = 0
            for u, v in combo:
                if u >= g:
                    dout |= 1 << (u - g)
                if v >= g:
                    din |= 1 << (v - g)
            if din != full_k or dout != full_k:
                continue

        # reverse reachability: every non-loop element must reach the
        # targets, no matroid loop may
        reach, grown = 0, t_mask
        while grown != reach:
            reach = grown
            for u, v in combo:
                if grown >> v & 1:
                    grown |= 1 << u
        if reach & ~(-1 << g) != nonloops:
            continue

        if perms:
            canonical = True
            for perm in perms:
                remap = tuple(
                    sorted(
                        (
                            u if u < g else g + perm[u - g],
                            v if v < g else g + perm[v - g],
                        )
                        for u, v in combo
                    )
                )
                if remap < combo:
                    canonical = False
                    break
            if not canonical:
                continue

        succ = [0] * (g + k)
        for u, v in combo:
            succ[u] |= 1 << v
        if not all(_routable_ids(succ, t_mask, base) for base in bases):
            continue
        if any(_routable_ids(succ, t_mask, circ) for circ in circuits):
            continue
        return combo, count, True
    return None, count, True


def arc_complexity(m: Matroid, limits: SearchLimits | None = None) -> ComplexityCertificate:
    """Exhaustive iterative-deepening search for an arc-minimal standard
    representation of `m`.

    Deepens on the arc count from the source lower bound up to ``max_arcs``
    (default: the closed-form upper bound, sufficient whenever `m` is a
    gammoid).  Raises :class:`BudgetExhaustedError` when the limits stop the
    search before any representation is found; if a level had to be truncated
    earlier, a later success is still returned but flagged non-exhaustive.
    """
    limits = limits or SearchLimits()
    t0 = time.perf_counter()
    deadline = time.monotonic() + limits.wall_secs if limits.wall_secs is not None else None
    g = len(m.ground)
    check_enumeration_limit(g)

    bases = tuple(sorted(m.bases))
    circuits = _circuits(m)
    loops = m.mask_of(m.loops())

    lb = lower_bound(m)
    cap = limits.max_arcs if limits.max_arcs is not None else kw_upper_bound(m.rank, g)
    if cap < lb:
        raise BudgetExhaustedError(
            f"max_arcs={cap} is below the lower bound {lb}; nothing to search"
        )

    level_stats: list[LevelStats] = []
    for a in range(lb, cap + 1):
        k_cap = a if limits.max_internal is None else min(a, limits.max_internal)
        todo = [
            (g, t_mask, k, a, bases, circuits, loops, deadline)
            for k in range(k_cap + 1)
            for t_mask in bases
        ]
        level_complete = k_cap == a
        candidates = 0
        found = None

        # chunks are consumed in submission order, so the first witness is
        # the same for every worker count; once it is found the pending
        # chunks are cancelled
        previous = level_stats[-1].candidates if level_stats else 0
        parallel = limits.workers > 1 and len(todo) > 1 and previous >= _POOL_MIN_CANDIDATES
        if parallel:
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(limits.workers) if parallel else nullcontext() as pool:
            results = pool.map(_search_chunk, todo) if parallel else map(_search_chunk, todo)
            for chunk, (combo, n_cand, complete) in zip(todo, results):
                candidates += n_cand
                level_complete &= complete
                if combo is not None:
                    found = combo, chunk[1], chunk[2]
                    break
            if parallel:
                pool.shutdown(cancel_futures=True)

        level_stats.append(LevelStats(a, candidates, level_complete))

        if found is not None:
            combo, t_mask, k = found
            taken = set(m.ground)
            internal_labels = tuple(fresh_label(f"i{j}", taken) for j in range(k))
            dig = Digraph(m.ground + internal_labels, frozenset(combo))
            targets = frozenset(i for i in range(g) if t_mask >> i & 1)
            witness = Representation(dig, targets, frozenset(range(g)))
            exhaustive = all(st.complete for st in level_stats[:-1])
            return ComplexityCertificate(
                value=a,
                witness=witness,
                search_exhaustive=exhaustive,
                levels=tuple(level_stats),
                runtime_secs=time.perf_counter() - t0,
            )

        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhaustedError(
                f"wall-clock budget hit at level {a} with no representation found",
                tuple(level_stats),
            )

    raise BudgetExhaustedError(
        f"no standard representation with at most {cap} arcs found "
        "(not a gammoid, or max_arcs too small)",
        tuple(level_stats),
    )


def verify_uniform_conjecture(r: int, n: int, limits: SearchLimits | None = None) -> bool:
    """True iff the exhaustive search certifies that the rank-r uniform
    matroid on n elements has arc complexity exactly r * (n - r)."""
    cert = arc_complexity(uniform(r, n), limits)
    return cert.search_exhaustive and cert.value == r * (n - r)


# -- widths ---------------------------------------------------------------------


def f_width(
    m: Matroid,
    f: SuperAdditiveFn,
    limits: SearchLimits | None = None,
    *,
    arc_cache: dict | None = None,
) -> WidthReport:
    """Maximum over all nested ground subsets X within Y of the arc complexity
    of (m contracted to Y) restricted to X, divided by f(|X|); exact rational
    arithmetic throughout.

    `f` is validated super-additive on 1..2|E| first.  `arc_cache` may be
    shared across calls to reuse inner search results.
    """
    check_enumeration_limit(len(m.ground))
    if not is_superadditive(f, max(2 * len(m.ground), 2)):
        raise ValueError("the width denominator must be super-additive with values >= 1")
    limits = limits or SearchLimits()
    deadline = time.monotonic() + limits.wall_secs if limits.wall_secs is not None else None
    cache = arc_cache if arc_cache is not None else {}

    best = Fraction(0)
    best_arg: tuple[tuple[str, ...], tuple[str, ...]] = ((), ())
    entries: list[MinorEntry] = []
    exhaustive = True
    for x_labels, y_labels, minor in nested_minors(m):
        cached = cache.get(minor)
        remaining = None if deadline is None else deadline - time.monotonic()
        if cached is None and (remaining is None or remaining > 0):
            try:
                cert = arc_complexity(minor, replace(limits, wall_secs=remaining))
                cached = cert.value, cert.search_exhaustive
            except BudgetExhaustedError:
                cached = None, False
            cache[minor] = cached
        value, certified = cached or (None, False)  # out of time: not searched, not cached
        ratio = Fraction(value, f(len(x_labels))) if certified else None
        entries.append(MinorEntry(x_labels, y_labels, value, certified, ratio))
        exhaustive &= certified
        if ratio is not None and ratio > best:
            best = ratio
            best_arg = (x_labels, y_labels)
    return WidthReport(value=best, argmax=best_arg, table=tuple(entries), exhaustive=exhaustive)


def in_class(
    m: Matroid,
    f: SuperAdditiveFn,
    q: Fraction,
    limits: SearchLimits | None = None,
) -> bool:
    """Exact membership test for the bounded-width class: width of `m` at most
    `q`.  A truncated width can still certify non-membership (the computed
    value is a lower bound); certifying membership needs the full width."""
    q = Fraction(q)
    report = f_width(m, f, limits)
    if report.exhaustive:
        return report.value <= q
    if report.value > q:
        return False
    raise BudgetExhaustedError(
        f"width search truncated at lower bound {report.value}; cannot certify membership"
    )


# -- JSON -------------------------------------------------------------------------


def certificate_to_dict(cert: ComplexityCertificate) -> dict:
    return {
        "value": cert.value,
        "exhaustive": cert.search_exhaustive,
        "witness": rep_to_dict(cert.witness),
        "levels": [
            {"arcs": st.arcs, "candidates": st.candidates, "complete": st.complete}
            for st in cert.levels
        ],
        "runtime_secs": round(cert.runtime_secs, 3),
    }


def width_report_to_dict(report: WidthReport, f: SuperAdditiveFn) -> dict:
    return {
        "value": str(report.value),
        "exhaustive": report.exhaustive,
        "argmax": {"restrict": list(report.argmax[0]), "contract": list(report.argmax[1])},
        "table": [
            {
                "restrict": list(e.restrict_labels),
                "contract": list(e.contract_labels),
                "arcs": e.arcs,
                "exhaustive": e.exhaustive,
                "ratio": None if e.ratio is None else str(e.ratio),
            }
            for e in report.table
        ],
        "f": f.describe(),
    }
