"""Seeded input files for the benchmark workloads.

The seed chooses the ground labels and permutes their order, the order of
the bases and the order inside each base.  Every seeded file is a
relabelling of the same matroid, so the known answers do not depend on the
seed, and no change can be tuned to one labelling or to the label-keyed
width cache.  Labels are single letters, so every seed also emits the same
number of bytes.
"""

from __future__ import annotations

import json
import random
import string
from itertools import combinations, product
from pathlib import Path

LABEL_POOL = string.ascii_lowercase


def _seeded(name: str, seed: int, parts) -> dict:
    """A direct sum of uniform matroids, one per ``(rank, size)`` part, on
    labels drawn by the seed."""
    rng = random.Random(f"{name}:{seed}")
    ground = rng.sample(LABEL_POOL, sum(size for _, size in parts))
    blocks = []
    start = 0
    for rank, size in parts:
        blocks.append(list(combinations(ground[start : start + size], rank)))
        start += size
    rng.shuffle(ground)
    bases = [[lab for piece in pick for lab in piece] for pick in product(*blocks)]
    for b in bases:
        rng.shuffle(b)
    rng.shuffle(bases)
    return {"ground": ground, "bases": bases}


def search_matroid(seed: int) -> dict:
    """U(2,4) + U(1,2): 6 elements, rank 3, 12 bases, arc complexity 5."""
    return _seeded("search", seed, [(2, 4), (1, 2)])


def width_matroid(seed: int) -> dict:
    """U(1,2) summed four times: four disjoint parallel pairs, a base picks
    one element of each (8 elements, rank 4, 16 bases)."""
    return _seeded("width", seed, [(1, 2)] * 4)


def write_input(obj: dict, path: Path) -> Path:
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return path
