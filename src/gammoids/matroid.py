"""Explicit finite matroids stored by their bases.

The ground set is stored as a tuple of element labels in sorted order,
whatever order the caller gave, and bases are bit masks over those
positions.  So there is one stored form per labelled matroid: the generated
equality and hash compare labels and labelled bases, every emitted ground
list is in sorted label order, and representation surgery can rename or
re-order vertices without disturbing element identity.

Bases are the canonical stored form; rank, duals and minors are read off
the base masks, at the desk scale the constructor enforces (|E| <= 16);
duals and minors never grow a ground, so no consumer checks it again.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, TYPE_CHECKING

from .digraph import as_int, collection, label_positions
from .routing import _link, _routable_ids

if TYPE_CHECKING:  # pragma: no cover
    from .representation import Representation

ENUMERATION_LIMIT = 16


class EnumerationLimitError(ValueError):
    """Ground set too large for explicit subset enumeration."""


def check_enumeration_limit(size: int) -> None:
    """Raise :class:`EnumerationLimitError` for more than `ENUMERATION_LIMIT`
    elements: `Matroid` checks, and `uniform`, `direct_sum` and `gamma` before enumerating."""
    if size > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"ground set has {size} elements, enumeration limit is {ENUMERATION_LIMIT}"
        )


class _MatroidFields(NamedTuple):
    ground: tuple[str, ...]
    bases: frozenset[int]


class Matroid(_MatroidFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` checks too

    def __new__(cls, ground: Iterable[str], bases: Iterable[int]):
        ground = tuple(collection(ground, "ground set"))
        check_enumeration_limit(len(ground))
        bases = frozenset(as_int(b, "base mask") for b in collection(bases, "bases"))
        if len(set(ground)) != len(ground):
            raise ValueError("ground set labels must be unique")
        if not bases:
            raise ValueError("a matroid needs at least one base")
        full = (1 << len(ground)) - 1
        if any(b & ~full for b in bases):
            raise ValueError("base mask outside the ground set")
        if len({b.bit_count() for b in bases}) != 1:
            raise ValueError("bases must be equicardinal")
        labels = tuple(sorted(ground))
        if labels != ground:
            # checked above on the input masks: the remap drops stray bits
            weight = [1 << i for i in label_positions(labels, ground)]
            bases = frozenset(sum(w for i, w in enumerate(weight) if b >> i & 1) for b in bases)
        return super().__new__(cls, labels, bases)

    # -- queries ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return next(iter(self.bases)).bit_count()

    @property
    def full_mask(self) -> int:
        return (1 << len(self.ground)) - 1

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for i in label_positions(self.ground, collection(labels, "labels")):
            mask |= 1 << i
        return mask

    def labels_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.ground[i] for i in range(len(self.ground)) if mask >> i & 1)

    def rank_of_mask(self, mask: int) -> int:
        return max((b & mask).bit_count() for b in self.bases)

    def bases_label_sets(self) -> frozenset[frozenset[str]]:
        return frozenset(self.labels_of(b) for b in self.bases)

    def __repr__(self):
        bases = sorted(sorted(self.labels_of(b)) for b in self.bases)
        return f"Matroid(ground={list(self.ground)}, bases={bases})"

    @classmethod
    def from_label_sets(cls, ground: Iterable[str], bases: Iterable[Iterable[str]]) -> "Matroid":
        ground = tuple(collection(ground, "ground set"))
        masks = set()
        for base in collection(bases, "bases"):
            mask = 0
            for i in label_positions(ground, collection(base, "base")):
                if mask >> i & 1:
                    raise ValueError(f"a base lists element {ground[i]!r} twice")
                mask |= 1 << i
            masks.add(mask)
        return cls(ground, frozenset(masks))


def subset_table(size: int, masks: Iterable[int]) -> bytearray:
    """A byte per mask over `size` positions: 1 on the subsets of `masks`."""
    table = bytearray(1 << size)
    for b in masks:
        table[0] = 1
        sub = b
        while sub:
            table[sub] = 1
            sub = (sub - 1) & b
    return table


def validate_matroid(m: Matroid) -> None:
    """Check the basis-exchange axiom; raise ValueError on a violation.

    For a base B and x in B, let Y be the y outside B with B - x + y a base.
    Exchange holds for (B, x) iff every base avoiding x meets Y, that is iff
    no cobase contains Y + x: one lookup in a table of the cobases' subsets.
    A base disjoint from Y + x then violates exchange with B.  Construction
    enforces at most 16 elements and non-empty, equicardinal bases, so this
    completes the axioms with a table of at most 2^16 bytes.
    """
    g, bases = len(m.ground), sorted(m.bases)
    in_cobase = subset_table(g, (m.full_mask & ~b for b in bases))
    for b1 in bases:
        outside = [1 << j for j in range(g) if not b1 >> j & 1]
        for x in (1 << i for i in range(g) if b1 >> i & 1):
            blocked = x | sum(y for y in outside if b1 ^ x | y in m.bases)  # Y + x
            if in_cobase[blocked]:
                b2 = next(b for b in bases if not b & blocked)
                pair = " / ".join(str(sorted(m.labels_of(b))) for b in (b1, b2))
                raise ValueError(f"basis-exchange fails for {pair}")


# -- constructions ---------------------------------------------------------


def uniform(r: int, n: int) -> Matroid:
    """Uniform matroid of rank r on ground set {"1", .., "n"}."""
    r, n = as_int(r, "rank"), as_int(n, "ground size")
    check_enumeration_limit(n)
    if r < 0 or n < 0 or r > n:
        raise ValueError(f"uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
    ground = tuple(str(i) for i in range(1, n + 1))
    masks = frozenset(sum(1 << i for i in combo) for combo in combinations(range(n), r))
    return Matroid(ground, masks)


def dual(m: Matroid) -> Matroid:
    """Bases of the dual are exactly the complements of the bases."""
    full = m.full_mask
    return tuple.__new__(Matroid, (m.ground, frozenset(full & ~b for b in m.bases)))


def _project(m: Matroid, keep: int, by: int) -> Matroid:
    """The bases of `m` that meet the positions in `by` in the most elements,
    cut down to the positions in `keep`.  They are equicardinal whenever
    `keep` is `by` or its complement, the only two callers' choices, and the
    kept labels stay sorted, so the result needs no check."""
    rank_by = m.rank_of_mask(by)
    kept = [i for i in range(len(m.ground)) if keep >> i & 1]
    bases = frozenset(
        sum(1 << j for j, i in enumerate(kept) if b >> i & 1)
        for b in m.bases
        if (b & by).bit_count() == rank_by
    )
    return tuple.__new__(Matroid, (tuple(m.ground[i] for i in kept), bases))


def restrict(m: Matroid, labels: Iterable[str]) -> Matroid:
    """Restriction to `labels`: independent sets are the independent subsets."""
    mask = m.mask_of(labels)
    return _project(m, mask, mask)


def contract_to(m: Matroid, labels: Iterable[str]) -> Matroid:
    """Contraction of m to `labels`, computed directly: the bases are B - C
    for the bases B of m that meet the complement C of `labels` in r(C)
    elements.  This equals ``dual(restrict(dual(m), labels))``."""
    mask = m.mask_of(labels)
    return _project(m, mask, m.full_mask & ~mask)


def nested_minors(m: Matroid) -> Iterator[tuple[tuple[str, ...], tuple[str, ...], Matroid]]:
    """Every minor of m: for each X within Y within the ground, yield
    ``(x_labels, y_labels, restrict(contract_to(m, Y), X))`` with the labels
    as sorted tuples, Y and then X in ascending mask order.  Each Y is
    contracted once, through the module-global `contract_to` and `restrict`."""
    for y in range(1 << len(m.ground)):
        contracted = contract_to(m, m.labels_of(y))
        for x in range(1 << len(contracted.ground)):  # X ascends as the submasks of y
            x_labels = tuple(lab for i, lab in enumerate(contracted.ground) if x >> i & 1)
            yield x_labels, contracted.ground, restrict(contracted, x_labels)


def direct_sum(m: Matroid, n: Matroid) -> Matroid:
    """Direct sum on disjoint ground sets; overlapping labels are rejected
    rather than silently renamed."""
    overlap = set(m.ground) & set(n.ground)
    if overlap:
        raise ValueError(f"direct sum needs disjoint ground sets; both contain {sorted(overlap)}")
    ground = m.ground + n.ground
    check_enumeration_limit(len(ground))
    shift = len(m.ground)
    bases = frozenset(b | (c << shift) for b in m.bases for c in n.bases)
    return Matroid(ground, bases)


def relabel(m: Matroid, mapping: dict[str, str]) -> Matroid:
    """Rename ground elements through a label mapping (missing keys keep
    their label); the result must again have unique labels."""
    if not hasattr(mapping, "get"):
        raise ValueError(f"label mapping {mapping!r} is not a mapping")
    ground = tuple(mapping.get(lab, lab) for lab in m.ground)
    return Matroid(ground, m.bases)


# -- from representations ---------------------------------------------------


def gamma(rep: "Representation") -> Matroid:
    """Materialize the matroid represented by ``(digraph, targets, ground)``:
    a set is independent iff it routes into the targets.

    Everything runs on the stored masks, through the unchecked routing core.
    The bases are the r-subsets of level 1 that route.  Level 1, the ground
    vertices that reach a target (one backward reachability pass), holds
    every independent set, and each of its 1-sets routes along a shortest
    path; by Menger's theorem one maximum routing from level 1 routes a
    largest routable subset, so the routed starts of one `_link` call are
    the rank r and a base.  That base is never flow-checked; the other
    r-sets are, with `_routable_ids`, when r >= 2.  The positions are the
    ground ids in label order, ``rep.ground_order()``, which is the
    `Matroid`'s stored order, so it is built without a second check.
    """
    d, targets = rep.digraph, rep.target_mask
    out = d.out
    ids = rep.ground_order()
    check_enumeration_limit(len(ids))

    reach, prev = targets, -1
    while reach != prev:  # grow by the vertices with an arc into `reach`
        prev = reach
        for v, heads in enumerate(out):
            if heads & reach:
                reach |= 1 << v
    ones = [i for i in ids if reach >> i & 1]
    routed = ones if len(ones) <= 1 else _link(out, targets, rep.ground_mask & reach)[0]
    rank, base = len(routed), sum(1 << i for i in routed)

    # the r-sets as vertex masks and, in the same order, as position masks
    sets = map(sum, combinations([1 << i for i in ones], rank))
    positions = map(sum, combinations([1 << p for p, i in enumerate(ids) if reach >> i & 1], rank))
    bases = frozenset(
        b for s, b in zip(sets, positions) if rank < 2 or s == base or _routable_ids(out, targets, s)
    )
    return tuple.__new__(Matroid, (tuple(map(d.labels.__getitem__, ids)), bases))


# -- JSON -------------------------------------------------------------------


def matroid_to_dict(m: Matroid) -> dict:
    """JSON form: ``{"ground": [...], "bases": [[...], ...]}``."""
    return {
        "ground": list(m.ground),
        "bases": sorted(sorted(m.labels_of(b)) for b in m.bases),
    }


def matroid_from_dict(obj: dict) -> Matroid:
    if not isinstance(obj, dict):
        raise ValueError("matroid object must be a JSON object")
    ground = obj.get("ground")
    bases = obj.get("bases")
    if not isinstance(ground, list) or not all(isinstance(x, str) for x in ground):
        raise ValueError('matroid field "ground" must be a list of strings')
    if not isinstance(bases, list) or not all(
        isinstance(b, list) and all(isinstance(x, str) for x in b) for b in bases
    ):
        raise ValueError('matroid field "bases" must be a list of lists of strings')
    m = Matroid.from_label_sets(ground, bases)
    validate_matroid(m)
    return m
