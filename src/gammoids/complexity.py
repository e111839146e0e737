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
  deleted without changing the represented matroid or standardness;
* Lemma A (merge): if an internal vertex v has exactly one in-neighbour u,
  delete u->v and re-tail each v->w to u->w (dropping a loop u->u and any
  duplicate).  A path through v entered it from u, so it becomes the
  shorter path through u->w; a path using a new arc u->w lengthens back to
  u->v->w, and v was on no other path.  Every routing therefore survives in
  both directions.  Standardness survives too: u was already a tail, so it
  is no target, and each w was already a head, so it is no source.  The
  merge removes v and at least one arc.  The mirror case, one out-neighbour
  w, deletes v->w and re-heads each u->v to u->w.  An arc-minimal standard
  representation therefore has every internal vertex with in- and
  out-degree at least two;
* a loop can never be traversed, so dropping one also preserves everything.

Counting arcs by either end bounds the internal vertex count.  Let r be the
rank, U the union of the bases (the non-loops) and I their intersection (the
coloops), and let k be the number of internal vertices.  Tails are sources
and internal vertices: a non-loop source x lies in some base, so by exchange
in some base B - t + x, which routes, so x has an out-arc; each internal
vertex has at least two, so a >= |U| - r + 2k.  Heads are targets and
internal vertices: a target t that is no coloop is missed by some base B',
and B' routes onto all r targets, so the path that ends at t starts at an
element of B' other than t, has at least one arc, and enters t by an in-arc;
each internal vertex has at least two, so a >= r - |I| + 2k.  With lb the
larger count (``lower_bound``), k <= (a - lb) // 2.  The cobases have union
E - I and rank |E| - r, so duality swaps the two counts, and M and M*
search the same levels.

Iterative deepening on the arc count hence only needs, at level a,
candidates with at most (a - lb) // 2 internal vertices, no loops, and
every internal vertex of in- and out-degree at least two: pruning and
merging any standard representation with a arcs yields one inside this
restricted space with at most a arcs, which the current or an earlier level
finds.  Standardness itself fixes the allowed arc shapes: tails range over
non-target ground elements and internal vertices, heads over internal
vertices and targets.

Ground elements are labeled and never permuted.  A candidate with target
base B routes B trivially and no larger set, so it represents M iff the
r(M)-subsets of the ground that route into the targets are exactly the bases.

Lemma R (reach): in a standard representation with target set B, a source x
reaches a target t iff B - t + x routes.  Sources have no in-arcs and targets
no out-arcs, so a path from x to t has only internal vertices inside it, and
with the trivial paths of B - t it routes B - t + x.  Conversely, in a routing
of B - t + x every member of B - t is a sink on its own trivial path, so the
path of x ends at t.  A candidate thus represents M only if every source x
reaches exactly its fan F(x) = {t in B : B - t + x is a base}; then an
r(M)-set with at most one element outside B (B or some B - t + x) routes iff
it is a base, and only the r(M)-sets with two or more need a flow check.  A
loop's fan is empty and any other source's is not, so a loop reaches no
target and every other source reaches one.

Lemma C (first appearance): internal vertices are anonymous.  Swapping two
internals maps a chunk's candidates onto candidates of the same chunk and
keeps the degree test, every reach set and every routing result.  Scan a
candidate's sorted arcs, tail before head, and suppose internal w first
appears, in arc p, while a smaller internal n has not appeared yet.  Swapping
n and w fixes every earlier arc and lowers arc p, and a sorted tuple that
keeps the first p - 1 arcs and gains an arc below arc p is smaller.  So the
least candidate of each relabelling class meets its internals in ascending
order, the only order the search keeps.  The first witness of a chunk is
least in its class (witnesses of the same chunk), so the rule never skips it;
raw candidates are counted before any filter, so each chunk returns the
witness and count it had without the rule.

Lemma B (search form): ``search_form(m)`` drops the loops and
coloops of m, renames the other elements by position, and keeps the smaller
of that matroid and its dual; its arc complexity is that of m.  Relabelling
is trivial, since standardness and routing never read a label.  A loop added to
a standard representation as an isolated source reaches no target, and a
coloop added as an isolated target routes to itself beside any routing of the
rest, so neither adds an arc; ``restrict_representation`` deletes either
element again and never gains arcs, so both add exactly zero arcs.
``dual_representation`` reverses every arc of a standard representation of M
into one of M* with the same arc count (the paper's main theorem), so
c(M) = c(M*).  A certified value of the form therefore certifies every minor
with that form.

Lemma W (width over forms): the width is the largest c(F) / f(|F|) over the
search forms F of the minors of m.  A super-additive f with values >= 1 has
f(n + 1) >= f(n) + f(1) > f(n) for n >= 1.  A minor N with its loops deleted
and its coloops contracted is a minor N' with N's form F: c(N') = c(N)
(Lemma B) and |N'| = |F| <= |N|, so the ratio of N is at most that of N'
(both are 0 when c(N) = 0, else |N'| >= 1).  The forms of a matroid's minors
depend on its form alone, since the minors of M* are the duals of those of M
and a loop or coloop stays one in every minor that keeps it; deleting or
contracting any other element leaves fewer others.  So a breadth-first pass
from the form of m, expanding one labelled minor per form by each single
deletion and contraction of an element that is no loop or coloop, meets
every form once.

Widths are exact rationals throughout; no floating point is involved in any
comparison.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import nullcontext
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from .digraph import Digraph, as_int, collection, fresh_label
from .matroid import ENUMERATION_LIMIT, Matroid, contract_to, restrict, uniform
from .representation import Representation, rep_to_dict
from .routing import _routable_ids


class BudgetExhaustedError(RuntimeError):
    """Search limits were hit before any representation was found."""

    def __init__(self, message: str, levels: tuple["LevelStats", ...] = ()):
        super().__init__(message)
        self.levels = levels


class SearchLimits(NamedTuple):
    """Budgets for the arc-complexity search.  ``max_arcs`` caps the deepening
    level (default: the rank/size upper bound, which is always sufficient for
    a gammoid), ``wall_secs`` is a total wall-clock budget, and ``workers`` is
    the number of search processes for the levels big enough to pay for them
    (see ``_POOL_MIN_CANDIDATES``).  The internal vertices a level needs
    follow from Lemma A in the module docstring, so they are no budget.  A
    search that either budget stops before it finds a witness raises
    :class:`BudgetExhaustedError`; it never returns an uncertified value."""

    max_arcs: int | None = None
    wall_secs: float | None = None
    workers: int = 1


class LevelStats(NamedTuple):
    arcs: int
    candidates: int
    complete: bool


class ComplexityCertificate(NamedTuple):
    """Result of an arc-complexity search: the exact value and a standard
    witness representation achieving it.  Every level in ``levels`` below
    the value ran to completion, which proves that no smaller standard
    representation exists; only the witness level may stop early."""

    value: int
    witness: Representation
    levels: tuple[LevelStats, ...]
    runtime_secs: float


class FormRow(NamedTuple):
    """A width-report row: a search form of the minors, its size and arc
    value (None when the limits left it unsolved), and the labels X within Y
    of a minor ``restrict(contract_to(m, Y), X)`` with that form and no loop
    or coloop, so |X| is the size; its ratio arcs / f(size) is derived."""

    size: int
    arcs: int | None
    restrict_labels: tuple[str, ...]
    contract_labels: tuple[str, ...]


class WidthReport(NamedTuple):
    """Maximum of arc complexity over f over all minors, taken over their
    search forms (Lemma W), one row each in the order they were met.  When
    some inner search was truncated the value is still a certified lower
    bound on the width (it maximizes over the solved forms only)."""

    value: Fraction
    argmax: tuple[tuple[str, ...], tuple[str, ...]]
    forms: tuple[FormRow, ...]
    exhaustive: bool
    searches: int  # inner searches run, at most one per form
    f: SuperAdditiveFn  # the denominator the ratios divide by


# -- super-additive functions ------------------------------------------------


class SuperAdditiveFn(NamedTuple):
    """Positive-integer-valued function used as the width denominator.

    Families: the built-in ``max(1, x)``, linear ``c * max(1, x)``, and an
    explicit value table for ``0..len-1``.  Values must be integers >= 1,
    so the linear coefficient c = f(1) is an integer.
    """

    kind: str
    coeff: int = 1
    table: tuple[int, ...] = ()

    @classmethod
    def fhat(cls) -> "SuperAdditiveFn":
        return cls("fhat")

    @classmethod
    def linear(cls, coeff) -> "SuperAdditiveFn":
        try:  # a bool or a string is no number; Fraction rejects None, nan and infinity
            c = Fraction(None if isinstance(coeff, (bool, str)) else coeff)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"the linear coefficient must be a number, got {coeff!r}") from None
        if c.denominator != 1:
            raise ValueError(f"the linear coefficient must be an integer, got {c}")
        return cls("linear", coeff=int(c))

    @classmethod
    def from_table(cls, values: Iterable[int]) -> "SuperAdditiveFn":
        table = tuple(as_int(v, "table value") for v in collection(values, "value table"))
        return cls("table", table=table)

    @classmethod
    def parse(cls, spec: str) -> "SuperAdditiveFn":
        """Parse "fhat" or "linear:<c>" (tables need a file and are handled by
        the CLI)."""
        if spec == "fhat":
            return cls.fhat()
        if spec.startswith("linear:"):
            coeff = spec.split(":", 1)[1]
            try:
                c = Fraction(coeff)
            except ZeroDivisionError as exc:
                raise ValueError(f"function spec {spec!r} divides by zero") from exc
            except ValueError as exc:
                raise ValueError(f"function spec {spec!r}: {coeff!r} is not a rational number") from exc
            return cls.linear(c)
        raise ValueError(f"unknown function spec {spec!r} (expected fhat or linear:<c>)")

    def __call__(self, x: int) -> int:
        if x < 0:
            raise ValueError("defined on the naturals only")
        if self.kind in ("fhat", "linear"):
            return self.coeff * max(1, x)
        if self.kind == "table":
            if x >= len(self.table):
                covers = f"0..{len(self.table) - 1}" if self.table else "the empty range"
                raise ValueError(f"value table covers {covers}, asked for {x}")
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
    rank, size = as_int(rank, "rank"), as_int(size, "ground size")
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
    r, n = as_int(r, "rank"), as_int(n, "ground size")
    if r < 0 or n < 0 or r > n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    labels = tuple(str(i) for i in range(1, n + 1))
    arcs = frozenset((x, t) for x in range(r, n) for t in range(r))
    return Representation(Digraph(labels, arcs), frozenset(range(r)), frozenset(range(n)))


def _union_and_intersection(bases: Iterable[int]) -> tuple[int, int]:
    """The OR and the AND of a base-mask family: its non-loops and its
    coloops (the AND of no masks is -1, every position)."""
    union, inter = 0, -1
    for b in bases:
        union |= b
        inter &= b
    return union, inter


def lower_bound(m: Matroid) -> int:
    """Arcs any standard representation needs, counted from either end
    (Lemma A in the module docstring): every non-loop source has an out-arc
    and every non-coloop target an in-arc.  The count is the same for every
    target base and for the dual."""
    union, inter = _union_and_intersection(m.bases)
    return max(union.bit_count() - m.rank, m.rank - inter.bit_count())


# -- the exhaustive search ------------------------------------------------------

# A level runs on a process pool only if the level before it enumerated at
# least this many raw candidates.  Starting and stopping a two-worker pool
# takes about 10 ms (2-core x86 Linux, fork), in which the serial loop covers
# about 10k candidates (0.9-1.2M per second in serial U(2,6), U(4,6) and
# U(3,6) searches); two workers save at most half a level, so a level pays
# for its pool from about 20k, and the threshold keeps twice that.  Levels
# grow with the arc count until the witness level, so the count the search
# already has for the previous level is a deterministic estimate.
_POOL_MIN_CANDIDATES = 40_000


def _search_chunk(args) -> tuple[tuple | None, int, bool]:
    """Enumerate the candidates of one (level, target base, internal count)
    chunk in lexicographic order; return the first matching arc set, the
    number of raw candidates generated, and whether the chunk ran to
    completion.  Top-level and picklable so it can run in worker processes.

    The chunk is ``(g, t_mask, k, a, bases, rank_sets, deadline)``:
    vertices ``0..g-1`` are the ground positions and ``g..g+k-1`` the
    internal vertices, and every vertex set is a bit mask over them: the
    target base, the frozenset of the matroid's bases, and ``rank_sets``,
    every r(M)-subset of the ground in ascending order.
    """
    (g, t_mask, k, a, bases, rank_sets, deadline) = args
    tails = [u for u in range(g + k) if not t_mask >> u & 1]  # sources, internals
    heads = [v for v in range(g + k) if v >= g or t_mask >> v & 1]  # internals, targets
    pairs = sorted((u, v) for u in tails for v in heads if u != v)

    # Lemma R: each ground vertex's fan (a target's is itself), and the r-sets left to flow
    ends = [t for t in range(g) if t_mask >> t & 1]
    fans = [sum(1 << t for t in ends if (t_mask ^ 1 << t | 1 << x) in bases) for x in range(g)]
    far = [(s in bases, s) for s in rank_sets if (s & ~t_mask).bit_count() > 1]
    selves = [t_mask & 1 << v for v in range(g + k)]  # a target reaches itself

    full_k = (1 << k) - 1
    count = 0
    for combo in combinations(pairs, a):
        count += 1
        if deadline is not None and count % 512 == 0 and time.monotonic() > deadline:
            return None, count, False

        if k:  # Lemma A: every internal vertex has in- and out-degree >= 2
            in1 = in2 = out1 = out2 = 0  # internals seen once, seen twice
            nxt = g  # Lemma C: the next internal allowed to appear
            for u, v in combo:
                if u >= g:
                    if u >= nxt:
                        if u > nxt:  # a first appearance: no arc counted yet,
                            break  # so the degree test rejects the candidate
                        nxt += 1
                    bit = 1 << (u - g)
                    out2 |= out1 & bit
                    out1 |= bit
                if v >= g:
                    if v >= nxt:
                        if v > nxt:
                            break
                        nxt += 1
                    bit = 1 << (v - g)
                    in2 |= in1 & bit
                    in1 |= bit
            if in2 != full_k or out2 != full_k:
                continue

        # Lemma R: the targets each vertex reaches (a path has <= k + 1 arcs)
        reach = selves.copy()
        for _ in range(k + 1):
            for u, v in reversed(combo):
                reach[u] |= reach[v]
        if reach[:g] != fans:
            continue

        succ = [0] * (g + k)
        for u, v in combo:
            succ[u] |= 1 << v
        if all(_routable_ids(succ, t_mask, s) == is_base for is_base, s in far):
            return combo, count, True
    return None, count, True


def arc_complexity(m: Matroid, limits: SearchLimits | None = None) -> ComplexityCertificate:
    """Exhaustive iterative-deepening search for an arc-minimal standard
    representation of `m`.

    Deepens on the arc count from ``lower_bound`` up to ``max_arcs``
    (default: the closed-form upper bound, sufficient whenever `m` is a
    gammoid).  Returns the exact value or raises :class:`BudgetExhaustedError`:
    a chunk stops early only once the deadline has passed, and a level that
    ends without a witness then raises, so every level below a returned value
    is complete.
    """
    limits = limits or SearchLimits()
    t0 = time.perf_counter()
    deadline = time.monotonic() + limits.wall_secs if limits.wall_secs is not None else None
    g = len(m.ground)

    t_masks = sorted(m.bases)
    rank_sets = tuple(s for s in range(1 << g) if s.bit_count() == m.rank)

    lb = lower_bound(m)
    cap = limits.max_arcs if limits.max_arcs is not None else kw_upper_bound(m.rank, g)
    if cap < lb:
        raise BudgetExhaustedError(
            f"max_arcs={cap} is below the lower bound {lb}; nothing to search"
        )

    level_stats: list[LevelStats] = []
    for a in range(lb, cap + 1):
        todo = [
            (g, t_mask, k, a, m.bases, rank_sets, deadline)
            for k in range((a - lb) // 2 + 1)  # Lemma A, counted from both ends
            for t_mask in t_masks
        ]
        level_complete = True
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
            return ComplexityCertificate(
                value=a,
                witness=witness,
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
    return arc_complexity(uniform(r, n), limits).value == r * (n - r)


# -- widths ---------------------------------------------------------------------

_POSITION_LABELS = tuple(f"{i:02d}" for i in range(ENUMERATION_LIMIT))


def search_form(m: Matroid) -> Matroid:
    """The matroid `m` searches as (Lemma B): the positions in every base or
    in none (the coloops and loops) dropped, the rest compressed in ascending
    order and labelled "00", "01", .., and of that family and its complements
    the one with the smaller sorted base tuple.  Equal for `m`, its dual,
    `m` plus loops or coloops, and any relabelling of `m` that keeps the
    ground order.  Sorted labels, equicardinal kept masks and the bound on
    the ground of `m` make the result valid unchecked."""
    union, inter = _union_and_intersection(m.bases)
    free = union & ~inter
    kept = [i for i in range(free.bit_length()) if free >> i & 1]
    full = (1 << len(kept)) - 1
    masks = sorted(sum(1 << j for j, i in enumerate(kept) if b >> i & 1) for b in m.bases)
    cobases = sorted(full & ~b for b in masks)
    return tuple.__new__(Matroid, (_POSITION_LABELS[: len(kept)], frozenset(min(masks, cobases))))


def _form_rows(m: Matroid, f: SuperAdditiveFn, limits) -> Iterator[tuple[FormRow, bool]]:
    """Each search form of the minors of `m` once, breadth first from the
    form of m (Lemma W), as its row and whether its search ran; `f` is
    first validated super-additive on 1..2|E|.

    A form keeps the first labelled minor that met it, with the labels Y it
    is contracted to.  Its children are the deletion and then the
    contraction of each element that is no loop or coloop, in ascending
    position order, built through `restrict` and `contract_to`.  Each form
    is searched once while time remains; its arcs are None when the limits
    stopped that search or the deadline had passed before it."""
    upto = max(2 * len(m.ground), 2)
    if f.kind == "table" and len(f.table) <= upto:
        covers = f"0..{len(f.table) - 1}" if f.table else "the empty range"
        raise ValueError(f"the value table covers {covers}, the width needs 0..{upto}")
    if not is_superadditive(f, upto):
        raise ValueError("the width denominator must be super-additive with values >= 1")
    limits = limits or SearchLimits()
    deadline = time.monotonic() + limits.wall_secs if limits.wall_secs is not None else None
    start = search_form(m)
    seen = {start}
    queue = deque([(start, m, m.ground)])
    while queue:
        form, minor, y_labels = queue.popleft()
        union, inter = _union_and_intersection(minor.bases)
        free = tuple(lab for i, lab in enumerate(minor.ground) if (union & ~inter) >> i & 1)
        coloops = minor.labels_of(inter)
        remaining = None if deadline is None else deadline - time.monotonic()
        searched = remaining is None or remaining > 0
        arcs = None
        if searched:
            try:
                arcs = arc_complexity(form, limits._replace(wall_secs=remaining)).value
            except BudgetExhaustedError:
                pass
        # the loops deleted and the coloops contracted
        yield FormRow(len(free), arcs, free, tuple(y for y in y_labels if y not in coloops)), searched
        for lab in free:
            rest = [x for x in minor.ground if x != lab]
            less = tuple(y for y in y_labels if y != lab)
            for child, y in ((restrict(minor, rest), y_labels), (contract_to(minor, rest), less)):
                child_form = search_form(child)
                if child_form not in seen:
                    seen.add(child_form)
                    queue.append((child_form, child, y))


def f_width(m: Matroid, f: SuperAdditiveFn, limits: SearchLimits | None = None) -> WidthReport:
    """Maximum over all nested ground subsets X within Y of the arc complexity
    of (m contracted to Y) restricted to X, divided by f(|X|); exact rational
    arithmetic throughout.

    `f` is validated super-additive on 1..2|E| first.  The maximum is taken
    over the search forms of the minors (Lemma W), one search each; the
    argmax is the first maximising form in the order they were met."""
    best = Fraction(0)
    best_arg: tuple[tuple[str, ...], tuple[str, ...]] = ((), ())
    rows: list[FormRow] = []
    exhaustive, searches = True, 0
    for row, searched in _form_rows(m, f, limits):
        rows.append(row)
        searches += searched
        if row.arcs is None:
            exhaustive = False
        elif (ratio := Fraction(row.arcs, f(row.size))) > best:
            best, best_arg = ratio, (row.restrict_labels, row.contract_labels)
    return WidthReport(best, best_arg, tuple(rows), exhaustive, searches, f)


def in_class(m: Matroid, f: SuperAdditiveFn, q: Fraction, limits: SearchLimits | None = None) -> bool:
    """Exact membership test for the bounded-width class: width of `m` at most
    `q`.  It is False at the first solved form whose ratio exceeds `q`, with
    no further search; a truncated width can still certify non-membership
    (the computed value is a lower bound), but certifying membership needs
    the full width."""
    q = Fraction(q)
    best, exhaustive = Fraction(0), True
    for row, _ in _form_rows(m, f, limits):
        if row.arcs is None:
            exhaustive = False
        elif (ratio := Fraction(row.arcs, f(row.size))) > q:
            return False
        else:
            best = max(best, ratio)
    if exhaustive:
        return True
    raise BudgetExhaustedError(
        f"width search truncated at lower bound {best}; cannot certify membership"
    )


# -- JSON -------------------------------------------------------------------------


def certificate_to_dict(cert: ComplexityCertificate) -> dict:
    return {
        "value": cert.value,
        "exhaustive": True,  # a returned certificate always is
        "witness": rep_to_dict(cert.witness),
        "levels": [
            {"arcs": st.arcs, "candidates": st.candidates, "complete": st.complete}
            for st in cert.levels
        ],
        "runtime_secs": round(cert.runtime_secs, 3),
    }


def width_report_to_dict(report: WidthReport) -> dict:
    return {
        "value": str(report.value),
        "exhaustive": report.exhaustive,
        "searches": report.searches,
        "argmax": {"restrict": list(report.argmax[0]), "contract": list(report.argmax[1])},
        "forms": [
            {
                "size": row.size,
                "arcs": row.arcs,
                "ratio": None if row.arcs is None else str(Fraction(row.arcs, report.f(row.size))),
                "restrict": list(row.restrict_labels),
                "contract": list(row.contract_labels),
            }
            for row in report.forms
        ],
        "f": report.f.describe(),
    }
