"""Explicit finite matroids stored by their bases.

The ground set is stored as a tuple of element labels in sorted order,
whatever order the caller gave, and bases are bit masks over those
positions.  So there is one stored form per labelled matroid: the generated
equality and hash compare labels and labelled bases, every emitted ground
list is in sorted label order, and representation surgery can rename or
re-order vertices without disturbing element identity.

Bases are the canonical stored form; independence is answered by a
subset-of-some-base query.  This is compact and sufficient for the desk
scale this library targets (|E| <= 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, TYPE_CHECKING

from .routing import _routable_ids

if TYPE_CHECKING:  # pragma: no cover
    from .representation import Representation

ENUMERATION_LIMIT = 16


class EnumerationLimitError(ValueError):
    """Ground set too large for explicit subset enumeration."""


def check_enumeration_limit(size: int) -> None:
    """Raise :class:`EnumerationLimitError` for a ground set of more than
    `ENUMERATION_LIMIT` elements, before anything enumerates its subsets."""
    if size > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"ground set has {size} elements, enumeration limit is {ENUMERATION_LIMIT}"
        )


@dataclass(frozen=True)
class Matroid:
    ground: tuple[str, ...]
    bases: frozenset[int]

    def __post_init__(self):
        ground = tuple(self.ground)
        bases = frozenset(int(b) for b in self.bases)
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
            weight = [1 << labels.index(lab) for lab in ground]
            bases = frozenset(sum(w for i, w in enumerate(weight) if b >> i & 1) for b in bases)
        object.__setattr__(self, "ground", labels)
        object.__setattr__(self, "bases", bases)

    # -- queries ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return next(iter(self.bases)).bit_count()

    @property
    def size(self) -> int:
        return len(self.ground)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.ground)) - 1

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lab in labels:
            if lab not in self.ground:
                raise ValueError(f"{lab!r} is not a ground set element")
            mask |= 1 << self.ground.index(lab)
        return mask

    def labels_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.ground[i] for i in range(len(self.ground)) if mask >> i & 1)

    def independent_mask(self, mask: int) -> bool:
        return any(mask & ~b == 0 for b in self.bases)

    def independent(self, labels: Iterable[str]) -> bool:
        return self.independent_mask(self.mask_of(labels))

    def rank_of_mask(self, mask: int) -> int:
        return max((b & mask).bit_count() for b in self.bases)

    def loops(self) -> frozenset[str]:
        """Elements contained in no base, i.e. never independent."""
        union = 0
        for b in self.bases:
            union |= b
        return self.labels_of(self.full_mask & ~union)

    def bases_label_sets(self) -> frozenset[frozenset[str]]:
        return frozenset(self.labels_of(b) for b in self.bases)

    def __repr__(self):
        bases = sorted(sorted(self.labels_of(b)) for b in self.bases)
        return f"Matroid(ground={list(self.ground)}, bases={bases})"

    @classmethod
    def from_label_sets(cls, ground: Iterable[str], bases: Iterable[Iterable[str]]) -> "Matroid":
        ground = tuple(ground)
        pos = {lab: i for i, lab in enumerate(ground)}
        masks = set()
        for base in bases:
            mask = 0
            for lab in base:
                if lab not in pos:
                    raise ValueError(f"base element {lab!r} is not in the ground set")
                mask |= 1 << pos[lab]
            masks.add(mask)
        return cls(ground, frozenset(masks))


def validate_matroid(m: Matroid) -> None:
    """Check the basis-exchange axiom; raise ValueError on a violation.

    Non-emptiness and equicardinality are already enforced on construction,
    so together with exchange the stored family is a genuine basis system.
    """
    bases = sorted(m.bases)
    for b1 in bases:
        for b2 in bases:
            out = b1 & ~b2
            cand = b2 & ~b1
            x = out
            while x:
                low = x & -x
                x ^= low
                stripped = b1 ^ low
                y = cand
                ok = False
                while y:
                    ylow = y & -y
                    y ^= ylow
                    if stripped | ylow in m.bases:
                        ok = True
                        break
                if not ok:
                    raise ValueError(
                        f"basis-exchange fails for {sorted(m.labels_of(b1))} / {sorted(m.labels_of(b2))}"
                    )


# -- constructions ---------------------------------------------------------


def uniform(r: int, n: int) -> Matroid:
    """Uniform matroid of rank r on ground set {"1", .., "n"}."""
    if r < 0 or n < 0 or r > n:
        raise ValueError(f"uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
    ground = tuple(str(i) for i in range(1, n + 1))
    masks = frozenset(sum(1 << i for i in combo) for combo in combinations(range(n), r))
    return Matroid(ground, masks)


def dual(m: Matroid) -> Matroid:
    """Bases of the dual are exactly the complements of the bases."""
    full = m.full_mask
    return Matroid(m.ground, frozenset(full & ~b for b in m.bases))


def _project(m: Matroid, keep: int, by: int) -> Matroid:
    """The bases of `m` that meet the positions in `by` in the most elements,
    cut down to the positions in `keep`."""
    rank_by = m.rank_of_mask(by)
    kept = [i for i in range(len(m.ground)) if keep >> i & 1]
    bases = frozenset(
        sum(1 << j for j, i in enumerate(kept) if b >> i & 1)
        for b in m.bases
        if (b & by).bit_count() == rank_by
    )
    return Matroid(tuple(m.ground[i] for i in kept), bases)


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
    as sorted tuples, Y and then X in ascending mask order."""
    for y in range(1 << len(m.ground)):
        y_labels = tuple(sorted(m.labels_of(y)))
        contracted = contract_to(m, y_labels)
        for x in range(y + 1):
            if x & ~y == 0:
                x_labels = tuple(sorted(m.labels_of(x)))
                yield x_labels, y_labels, restrict(contracted, x_labels)


def direct_sum(m: Matroid, n: Matroid) -> Matroid:
    """Direct sum on disjoint ground sets; overlapping labels are rejected
    rather than silently renamed."""
    overlap = set(m.ground) & set(n.ground)
    if overlap:
        raise ValueError(f"direct sum needs disjoint ground sets; both contain {sorted(overlap)}")
    ground = m.ground + n.ground
    shift = len(m.ground)
    bases = frozenset(b | (c << shift) for b in m.bases for c in n.bases)
    return Matroid(ground, bases)


def relabel(m: Matroid, mapping: dict[str, str]) -> Matroid:
    """Rename ground elements through a label mapping (missing keys keep
    their label); the result must again have unique labels."""
    ground = tuple(mapping.get(lab, lab) for lab in m.ground)
    return Matroid(ground, m.bases)


# -- from representations ---------------------------------------------------


def gamma(rep: "Representation") -> Matroid:
    """Materialize the matroid represented by ``(digraph, targets, ground)``:
    a set is independent iff it routes into the targets.

    Subsets are bit masks over vertex ids, the form `_routable_ids` takes,
    enumerated in rank-bounded order: level k+1 candidates extend
    independent k-sets by a ground vertex above their top bit and have only
    independent k-subsets, so the enumeration stops at the rank.  Only the
    bases are re-indexed, onto the ascending ground ids.
    """
    ids = sorted(rep.ground)
    check_enumeration_limit(len(ids))
    succ = rep.digraph.successors
    targets = sum(1 << t for t in rep.targets)

    level, nxt = set(), {0}
    while nxt:  # the last non-empty level holds the bases
        level, nxt = nxt, set()
        for s in level:
            for j in ids:
                cand = s | 1 << j
                if s >> j or not all(cand ^ 1 << i in level for i in ids if s >> i & 1):
                    continue
                if _routable_ids(succ, targets, cand):
                    nxt.add(cand)

    bases = frozenset(sum(1 << p for p, i in enumerate(ids) if b >> i & 1) for b in level)
    return Matroid(tuple(rep.digraph.labels[i] for i in ids), bases)


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
    check_enumeration_limit(len(ground))  # before the exchange check walks base pairs
    m = Matroid.from_label_sets(ground, bases)
    validate_matroid(m)
    return m
