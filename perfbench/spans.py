"""Spans around the calls into each gammoids module, installed from outside.

The tracer rebinds every entry point listed in `ENTRY_POINTS` in the
namespace of every loaded ``gammoids`` module that holds it, so calls made
through ``from .x import f`` bindings and aliases are all seen.  A call from
a layer into the same layer (``contract_to`` calling ``dual``) opens no new
span: spans mark calls *into* a layer.

Spans are aggregated as they close rather than kept, because a traced
`check all` opens millions of them.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# A span of a layer with one of these prefixes becomes the scope of the
# spans it causes, so counts can be taken "inside" a suite, a width
# computation or a search.
SCOPE_PREFIXES = ("suites.", "complexity.")


class Tracer:
    """Aggregating span recorder.  `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # frames: [layer, start, child_time, scope]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[tuple[str, str, str], int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)

    def enter(self, layer: str, func: str) -> None:
        scope = self.stack[-1][3] if self.stack else ""
        self.calls[(scope, layer, func)] += 1
        if layer.startswith(SCOPE_PREFIXES):
            scope = layer
        self.stack.append([layer, self.clock(), 0.0, scope])

    def exit(self) -> None:
        layer, start, child_time, _ = self.stack.pop()
        duration = self.clock() - start
        self.total[layer] += duration
        self.self_time[layer] += duration - child_time
        if self.stack:
            self.stack[-1][2] += duration

    def snapshot(self) -> dict:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": [[*key, n] for key, n in sorted(self.calls.items())],
            "counters": dict(self.counters),
        }


def _count_routable(tracer: Tracer, outcome) -> None:
    if outcome is True:
        tracer.counters["routing.routable"] += 1


def _count_candidates(tracer: Tracer, outcome) -> None:
    # certificates and BudgetExhaustedError both carry the per-level stats
    for level in getattr(outcome, "levels", ()):
        tracer.counters["complexity.search.candidates"] += level.candidates


SUITE_FUNCTIONS = {
    "swap-invariance": "swap_invariance_suite",
    "standardization": "standardization_suite",
    "surgery": "surgery_suite",
    "routing-oracle": "routing_oracle_suite",
    "arc-values": "arc_values_suite",
    "minor-complexity": "minor_complexity_suite",
    "closure": "closure_suite",
    "bounds": "bounds_suite",
}

# (defining module, function, layer, observer of the call's outcome)
ENTRY_POINTS = [
    ("gammoids.routing", "_routable_ids", "routing", _count_routable),
    ("gammoids.routing", "max_routing", "routing", None),
    ("gammoids.matroid", "gamma", "matroid.gamma", None),
    ("gammoids.matroid", "restrict", "matroid.minor", None),
    ("gammoids.matroid", "contract_to", "matroid.minor", None),
    ("gammoids.matroid", "dual", "matroid.minor", None),
    ("gammoids.digraph", "swap", "digraph.swap", None),
    ("gammoids.representation", "standardize", "representation.standardize", None),
    ("gammoids.representation", "rebase", "representation.surgery", None),
    ("gammoids.representation", "swap_sequence", "representation.surgery", None),
    ("gammoids.representation", "dual_representation", "representation.surgery", None),
    ("gammoids.representation", "restrict_representation", "representation.surgery", None),
    ("gammoids.representation", "contract_representation", "representation.surgery", None),
    ("gammoids.complexity", "arc_complexity", "complexity.search", _count_candidates),
    ("gammoids.complexity", "f_width", "complexity.width", None),
    ("gammoids.complexity", "in_class", "complexity.width", None),
    ("gammoids.bruteforce", "brute_max_routing_size", "bruteforce", None),
    ("gammoids.bruteforce", "brute_routable", "bruteforce", None),
    ("gammoids.bruteforce", "brute_gamma_bases", "bruteforce", None),
    ("gammoids.bruteforce", "brute_rank", "bruteforce", None),
    ("gammoids.bruteforce", "brute_restrict_bases", "bruteforce", None),
    ("gammoids.bruteforce", "brute_contract_bases", "bruteforce", None),
    ("gammoids.bruteforce", "brute_arc_complexity", "bruteforce", None),
    *[("gammoids.suites", fn, f"suites.{name}", None) for name, fn in SUITE_FUNCTIONS.items()],
    ("gammoids.cli", "_load_matroid", "cli.load", None),
    ("gammoids.cli", "_load_rep", "cli.load", None),
    ("gammoids.cli", "_emit", "cli.emit", None),
]


def _wrap(tracer: Tracer, layer: str, func: str, fn, observe):
    stack = tracer.stack

    def wrapper(*args, **kwargs):
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        tracer.enter(layer, func)
        outcome = None
        try:
            outcome = fn(*args, **kwargs)
            return outcome
        except Exception as exc:
            outcome = exc
            raise
        finally:
            tracer.exit()
            if observe is not None:
                observe(tracer, outcome)

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Rebind every entry point to a span-recording wrapper for the duration
    of the block, then restore the originals."""
    importlib.import_module("gammoids.cli")  # imports every gammoids module
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gammoids"]
    restore = []
    try:
        for module_name, func, layer, observe in ENTRY_POINTS:
            original = getattr(importlib.import_module(module_name), func)
            wrapper = _wrap(tracer, layer, func, original, observe)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    setattr(module, attr, wrapper)
                    restore.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)


# -- per-layer metrics ---------------------------------------------------------

# name -> (unit, better); this order is the order of BENCHMARK.json's per_layer
PER_LAYER = {
    "routing.calls": ("count", "lower"),
    "routing.self_s": ("s", "lower"),
    "routing.calls_per_s": ("1/s", "higher"),
    "routing.routable_ratio": ("ratio", "higher"),
    "matroid.gamma.calls": ("count", "lower"),
    "matroid.gamma.self_s": ("s", "lower"),
    "matroid.gamma.per_s": ("1/s", "higher"),
    "matroid.minor.calls": ("count", "lower"),
    "matroid.minor.self_s": ("s", "lower"),
    "digraph.swap.calls": ("count", "lower"),
    "digraph.swap.self_s": ("s", "lower"),
    "representation.standardize.calls": ("count", "lower"),
    "representation.standardize.self_s": ("s", "lower"),
    "representation.surgery.calls": ("count", "lower"),
    "representation.surgery.self_s": ("s", "lower"),
    "complexity.search.calls": ("count", "lower"),
    "complexity.search.self_s": ("s", "lower"),
    "complexity.search.candidates": ("count", "lower"),
    "complexity.search.candidates_per_s": ("1/s", "higher"),
    "complexity.search.flow_per_candidate": ("ratio", "lower"),
    "complexity.search.ms_per_call": ("ms", "lower"),
    "complexity.width.minors": ("count", "lower"),
    "complexity.width.self_s": ("s", "lower"),
    "complexity.width.minors_per_s": ("1/s", "higher"),
    "complexity.width.cache_hit_ratio": ("ratio", "higher"),
    "bruteforce.calls": ("count", "lower"),
    "bruteforce.self_s": ("s", "lower"),
    **{f"suites.{name}.s": ("s", "lower") for name in SUITE_FUNCTIONS},
    "cli.main_s": ("s", "lower"),
    "cli.load_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.emit_mb": ("MB", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_calls(snapshot: dict, layer: str, *, scope: str | None = None, func: str | None = None) -> int:
    """Spans opened for `layer`, optionally only those caused inside `scope`
    and only those for entry point `func`."""
    return sum(
        n
        for s, lay, f, n in snapshot["calls"]
        if lay == layer and (scope is None or s == scope) and (func is None or f == func)
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(snapshot: dict, traced_wall_s: float, untraced_wall_s: float, emit_bytes: int) -> dict:
    """Every `PER_LAYER` metric from one traced run.  Rates divide by the
    layer's inclusive time; a layer that did not run reads 0."""
    total = snapshot["total"]
    self_s = snapshot["self"]
    counters = snapshot["counters"]

    def calls(layer, **kw):
        return layer_calls(snapshot, layer, **kw)

    candidates = counters.get("complexity.search.candidates", 0)
    minors = calls("matroid.minor", scope="complexity.width", func="restrict")
    width_searches = calls("complexity.search", scope="complexity.width")
    values = {
        "routing.calls": calls("routing"),
        "routing.self_s": self_s.get("routing", 0.0),
        "routing.calls_per_s": _ratio(calls("routing"), total.get("routing", 0.0)),
        "routing.routable_ratio": _ratio(
            counters.get("routing.routable", 0), calls("routing", func="_routable_ids")
        ),
        "matroid.gamma.calls": calls("matroid.gamma"),
        "matroid.gamma.self_s": self_s.get("matroid.gamma", 0.0),
        "matroid.gamma.per_s": _ratio(calls("matroid.gamma"), total.get("matroid.gamma", 0.0)),
        "matroid.minor.calls": calls("matroid.minor"),
        "matroid.minor.self_s": self_s.get("matroid.minor", 0.0),
        "digraph.swap.calls": calls("digraph.swap"),
        "digraph.swap.self_s": self_s.get("digraph.swap", 0.0),
        "representation.standardize.calls": calls("representation.standardize"),
        "representation.standardize.self_s": self_s.get("representation.standardize", 0.0),
        "representation.surgery.calls": calls("representation.surgery"),
        "representation.surgery.self_s": self_s.get("representation.surgery", 0.0),
        "complexity.search.calls": calls("complexity.search"),
        "complexity.search.self_s": self_s.get("complexity.search", 0.0),
        "complexity.search.candidates": candidates,
        "complexity.search.candidates_per_s": _ratio(candidates, total.get("complexity.search", 0.0)),
        "complexity.search.flow_per_candidate": _ratio(
            calls("routing", scope="complexity.search"), candidates
        ),
        "complexity.search.ms_per_call": 1000 * _ratio(
            total.get("complexity.search", 0.0), calls("complexity.search")
        ),
        "complexity.width.minors": minors,
        "complexity.width.self_s": self_s.get("complexity.width", 0.0),
        "complexity.width.minors_per_s": _ratio(minors, total.get("complexity.width", 0.0)),
        "complexity.width.cache_hit_ratio": 1 - _ratio(width_searches, minors) if minors else 0.0,
        "bruteforce.calls": calls("bruteforce"),
        "bruteforce.self_s": self_s.get("bruteforce", 0.0),
        **{f"suites.{name}.s": total.get(f"suites.{name}", 0.0) for name in SUITE_FUNCTIONS},
        "cli.main_s": total.get("cli", 0.0),
        "cli.load_s": total.get("cli.load", 0.0),
        "cli.emit_s": total.get("cli.emit", 0.0),
        "cli.emit_mb": emit_bytes / 1e6,
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
