"""Property suites: exhaustive and randomized checks runnable from the CLI.

Each suite returns a :class:`SuiteResult` with a case count and a list of
failure descriptions (empty = pass); randomized suites take an explicit seed
and are reproducible.  `SUITES` maps each suite's name, in run order, to a
call on the command's keyword options; ``gammoids check`` runs it and prints
each verdict as its suite ends.  The acceptance tests call the suites on
cases of their own: criterion 7 checks the 186 certificates of criteria 4
and 5, ``check bounds`` 15.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .bruteforce import (
    brute_contract_bases,
    brute_gamma_bases,
    brute_max_routing_size,
    brute_restrict_bases,
)
from .complexity import (
    BudgetExhaustedError,
    ComplexityCertificate,
    SearchLimits,
    SuperAdditiveFn,
    arc_complexity,
    f_width,
    kw_upper_bound,
    lower_bound,
)
from .digraph import Digraph, default_labels, members, swap
from .matroid import (
    Matroid,
    _project,
    contract_to,
    direct_sum,
    dual,
    gamma,
    nested_minors,
    relabel,
    restrict,
    uniform,
    validate_matroid,
)
from .representation import (
    Representation,
    dual_representation,
    contract_representation,
    is_standard,
    restrict_representation,
    standardize,
)
from .routing import max_routing, validate_routing


class SuiteResult(NamedTuple):
    name: str
    cases: int
    failures: list[str]
    runtime_secs: float
    details: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        count = f"more than {_MAX_FAILURES}" if _SUPPRESSED in self.failures else len(self.failures)
        verdict = "PASS" if self.passed else f"FAIL ({count} failures)"
        return f"{self.name}: {self.cases} cases, {verdict}, {self.runtime_secs:.1f}s"


_MAX_FAILURES = 25  # messages kept per suite; one more line says the rest were dropped
_SUPPRESSED = "... further failures suppressed"
_ORACLE_INSTANCES = 1000  # random instances in the routing-oracle suite


def _clip(failures: list[str], message: str) -> None:
    if len(failures) < _MAX_FAILURES:
        failures.append(message)
    elif len(failures) == _MAX_FAILURES:
        failures.append(_SUPPRESSED)


# -- generators ---------------------------------------------------------------


def _random_arcs(rng: random.Random, n: int, density: float, loops: float) -> set[tuple[int, int]]:
    """Each ordered pair on ``0..n-1`` is an arc with probability `loops` when
    it is a loop and `density` otherwise: one draw per pair, in row order."""
    return {(u, v) for u in range(n) for v in range(n) if rng.random() < (loops if u == v else density)}


def random_representation(rng: random.Random, max_vertices: int = 6) -> Representation:
    """Random representation triple: arcs by density, loops occasionally,
    ground and targets as independent random subsets (targets need not lie in
    the ground set)."""
    n = rng.randint(1, max_vertices)
    arcs = _random_arcs(rng, n, rng.choice([0.15, 0.3, 0.5]), 0.05)
    ground = frozenset(v for v in range(n) if rng.random() < 0.75)
    targets = frozenset(v for v in range(n) if rng.random() < 0.35)
    return Representation(Digraph.build(n, arcs), targets, ground)


def all_matroids(labels: tuple[str, ...]):
    """Every matroid on the given labeled ground set, by filtering each
    equicardinal subset family through the basis-exchange axiom."""
    n = len(labels)
    for r in range(n + 1):
        subsets = [sum(1 << i for i in combo) for combo in combinations(range(n), r)]
        for fam in range(1, 1 << len(subsets)):
            m = Matroid(labels, frozenset(subsets[i] for i in range(len(subsets)) if fam >> i & 1))
            try:
                validate_matroid(m)
            except ValueError:
                continue
            yield m


# -- suites -------------------------------------------------------------------

_SAMPLE_EVERY = 2048


def swap_invariance_suite(max_vertices: int = 4) -> SuiteResult:
    """Exhaustive swap invariance: for every digraph (loops included) up to
    the vertex bound, every arc (r, s) and every target set with s inside and
    r outside, rewiring the arc and exchanging s for r in the targets leaves
    the represented matroid unchanged for every choice of ground set.

    The all-ground-sets claim is checked through the full-ground matroid:
    independence of X in (D, T, E) only asks whether X routes to T, so two
    triples agree for every E iff they agree for E = V.  Each digraph is
    built straight from its arc bits, one out-mask per vertex, and
    full-ground results are memoized on the loop-free out-masks
    (``Digraph.successors``), since routing ignores loops; every
    `_SAMPLE_EVERY`-th case additionally re-compares all ground sets
    directly."""
    t0 = time.perf_counter()
    failures: list[str] = []
    cases = 0
    for n in range(1, max_vertices + 1):
        labels = default_labels(n)
        full = (1 << n) - 1
        tables: dict[tuple[tuple[int, ...], int], frozenset[int]] = {}
        # per arc (r, s): the target masks with s in and r out, ascending,
        # each beside its exchange with r in and s out
        exchanges = {
            (r, s): [(t | 1 << s, t | 1 << r) for t in range(full + 1) if not t & (1 << r | 1 << s)]
            for r in range(n)
            for s in range(n)
            if r != s
        }

        def table(d: Digraph, key: tuple[int, ...], t_mask: int) -> frozenset[int]:
            if (key, t_mask) not in tables:
                tables[key, t_mask] = gamma(Representation._make((d, t_mask, full))).bases
            return tables[key, t_mask]

        for arc_bits in range(1 << (n * n)):
            # bit u*n + v is the arc (u, v), so vertex u's out-mask is a slice
            out = tuple(arc_bits >> (u * n) & full for u in range(n))
            d = Digraph._make((labels, out))
            key = d.successors
            for r, s in [(r, s) for r in range(n) for s in members(key[r])]:
                d2 = swap(d, r, s)
                key2 = d2.successors
                for t_mask, t2_mask in exchanges[r, s]:
                    cases += 1
                    if table(d, key, t_mask) != table(d2, key2, t2_mask):
                        _clip(
                            failures,
                            f"swap mismatch: n={n} arcs={sorted(d.arcs)} swap=({r},{s}) "
                            f"targets_mask={t_mask}",
                        )
                    elif cases % _SAMPLE_EVERY == 0:
                        for e_bits in range(1 << n):
                            m1 = gamma(Representation._make((d, t_mask, e_bits)))
                            m2 = gamma(Representation._make((d2, t2_mask, e_bits)))
                            if m1 != m2:
                                _clip(
                                    failures,
                                    f"direct ground-set mismatch: n={n} arcs={sorted(d.arcs)} "
                                    f"swap=({r},{s}) E={members(e_bits)}",
                                )
    return SuiteResult("swap-invariance", cases, failures, time.perf_counter() - t0)


def standardization_suite(count: int = 500, max_vertices: int = 6, seed: int = 7) -> SuiteResult:
    """Random representations, every base each: standardize must yield a
    standard representation of the same matroid, and dualizing it must yield
    the dual matroid with exactly complemented bases."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures: list[str] = []
    cases = 0
    for i in range(count):
        rep = random_representation(rng, max_vertices)
        m = gamma(rep)
        complemented = frozenset(m.full_mask & ~b for b in m.bases)
        for b in sorted(m.bases):
            base = rep.ids_at(b)
            cases += 1
            tag = f"instance {i} base {sorted(base)}"
            std = standardize(rep, base)
            if not is_standard(std):
                _clip(failures, f"{tag}: standardize output is not standard")
                continue
            if gamma(std) != m:
                _clip(failures, f"{tag}: standardize changed the matroid")
                continue
            ddual = dual_representation(std)
            md = gamma(ddual)
            if md != dual(m):
                _clip(failures, f"{tag}: dual representation does not represent the dual")
            if md.bases != complemented:
                _clip(failures, f"{tag}: dual bases are not the complements")
    return SuiteResult("standardization", cases, failures, time.perf_counter() - t0)


def surgery_suite(count: int = 500, max_vertices: int = 6, seed: int = 7) -> SuiteResult:
    """Ground-set surgery on standardized random representations: for every
    subset X of the ground set, restriction and contraction must stay
    standard, never gain arcs, and represent the right minor (cross-checked
    against the rank-function oracle)."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures: list[str] = []
    cases = 0
    # (name, surgery, positions the minor's bases meet most, rank oracle),
    # built at call time so that a rebound module global is the one called
    surgeries = (
        ("restriction", restrict_representation, lambda _, x: x, lambda b, _, x: brute_restrict_bases(b, x)),
        ("contraction", contract_representation, lambda full, x: full & ~x, brute_contract_bases),
    )
    for i in range(count):
        rep = random_representation(rng, max_vertices)
        std = standardize(rep, rep.ids_at(min(gamma(rep).bases)))
        m = gamma(std)
        order, arcs, full = std.ground_order(), std.arc_count, m.full_mask
        for x_mask in range(full + 1):
            kept = members(x_mask)
            xs = frozenset(map(order.__getitem__, kept))
            cases += 1
            tag = f"instance {i} X={[m.ground[p] for p in kept]}"
            for name, surgery, by, oracle in surgeries:
                cut = surgery(std, xs)
                if not is_standard(cut):
                    _clip(failures, f"{tag}: {name} not standard")
                if cut.arc_count > arcs:
                    _clip(failures, f"{tag}: {name} gained arcs")
                got = gamma(cut)
                if got != _project(m, x_mask, by(full, x_mask)):
                    _clip(failures, f"{tag}: {name} represents the wrong matroid")
                want = oracle(m.bases, full, x_mask)  # masks over m's positions
                if got.bases != {sum(1 << j for j, p in enumerate(kept) if b >> p & 1) for b in want}:
                    _clip(failures, f"{tag}: {name} disagrees with the rank oracle")
    return SuiteResult("surgery", cases, failures, time.perf_counter() - t0)


def routing_oracle_suite(max_vertices: int = 6, seed: int = 7) -> SuiteResult:
    """Random digraph/source/target instances: the flow engine must agree
    with exhaustive path-family enumeration, and its returned routing must
    satisfy every routing invariant."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures: list[str] = []
    for i in range(_ORACLE_INSTANCES):
        n = rng.randint(1, max_vertices)
        density = rng.choice([0.1, 0.2, 0.35, 0.5])
        arcs = _random_arcs(rng, n, density, 0.08)
        d = Digraph.build(n, arcs)
        xs = frozenset(v for v in range(n) if rng.random() < 0.5)
        ts = frozenset(v for v in range(n) if rng.random() < 0.4)
        routing = max_routing(d, xs, ts)
        tag = f"instance {i}: n={n} arcs={sorted(arcs)} X={sorted(xs)} T={sorted(ts)}"
        try:
            validate_routing(d, routing)
        except ValueError as exc:
            _clip(failures, f"{tag}: invalid routing ({exc})")
            continue
        if not routing.starts() <= xs:
            _clip(failures, f"{tag}: routing starts outside X")
        expected = brute_max_routing_size(d, xs, ts)
        if routing.size != expected:
            _clip(failures, f"{tag}: engine size {routing.size} != oracle size {expected}")
    return SuiteResult("routing-oracle", _ORACLE_INSTANCES, failures, time.perf_counter() - t0)


def arc_values_suite(limits: SearchLimits | None = None) -> SuiteResult:
    """Exact arc-complexity values for the small uniform matroids, each with
    an exhaustive certificate whose witness is re-checked by the path-family
    oracle."""
    t0 = time.perf_counter()
    failures: list[str] = []
    cases = 0
    certificates: list[tuple[Matroid, ComplexityCertificate]] = []
    checks: list[tuple[int, int]] = []
    for n in range(6):
        checks += [(n, n), (0, n)] if n else [(0, 0)]
    checks += [(1, 2), (1, 3), (2, 3), (2, 4)]
    timings = {}
    for r, n in checks:
        cases += 1
        m = uniform(r, n)
        expected = r * (n - r)
        t_one = time.perf_counter()
        cert = arc_complexity(m, limits)
        timings[f"U({r},{n})"] = round(time.perf_counter() - t_one, 3)
        certificates.append((m, cert))
        tag = f"U({r},{n})"
        if cert.value != expected:
            _clip(failures, f"{tag}: arc complexity {cert.value} != {expected}")
        if not is_standard(cert.witness):
            _clip(failures, f"{tag}: witness is not standard")
        if cert.witness.arc_count != cert.value:
            _clip(failures, f"{tag}: witness arc count mismatch")
        w = cert.witness
        oracle_bases = {
            w.digraph.label_set(b) for b in brute_gamma_bases(w.digraph, w.targets, w.ground)
        }
        if oracle_bases != m.bases_label_sets():
            _clip(failures, f"{tag}: witness fails the path-family oracle")
    return SuiteResult(
        "arc-values",
        cases,
        failures,
        time.perf_counter() - t0,
        details={"certificates": certificates, "timings": timings},
    )


def minor_complexity_suite(limits: SearchLimits | None = None) -> SuiteResult:
    """Every matroid on up to four labeled elements: arc complexity is
    invariant under duality and non-increasing under restriction and
    contraction, all with exhaustive certificates.

    This is the unfolded check that the width's fold onto search forms
    rests on (Lemmas B and W in `complexity`), so it keeps its own cache
    keyed on the labelled matroid and searches M and M* separately, never
    through ``search_form``."""
    t0 = time.perf_counter()
    failures: list[str] = []
    cases = 0
    certificates: list[tuple[Matroid, ComplexityCertificate]] = []
    cache: dict = {}

    def arcc(m: Matroid) -> int:
        if m not in cache:
            cert = arc_complexity(m, limits)
            certificates.append((m, cert))
            cache[m] = cert.value
        return cache[m]

    minors = (("restriction", restrict), ("contraction", contract_to))  # globals read at call time
    letters = ("a", "b", "c", "d")
    for size in range(len(letters) + 1):
        for m in all_matroids(letters[:size]):
            cases += 1
            tag = f"matroid bases={sorted(sorted(b) for b in m.bases_label_sets())}"
            value = arcc(m)
            if arcc(dual(m)) != value:
                _clip(failures, f"{tag}: dual has different arc complexity")
            for x_bits in range(m.full_mask + 1):
                x_labels = m.labels_of(x_bits)
                for name, minor in minors:
                    if arcc(minor(m, x_labels)) > value:
                        _clip(failures, f"{tag}: {name} to {sorted(x_labels)} exceeds {value}")
    return SuiteResult(
        "minor-complexity",
        cases,
        failures,
        time.perf_counter() - t0,
        details={"certificates": certificates},
    )


def closure_suite(limits: SearchLimits | None = None) -> SuiteResult:
    """Closure of bounded width at desk scale, all with the built-in
    max(1, x) denominator: the width never grows under the minors that
    `nested_minors` builds, is invariant under duality, and a direct sum's
    width stays below the max of the summands'.  A width the limits truncate
    raises :class:`BudgetExhaustedError`, never a FAIL.

    Each width runs its own searches, so the dual-width check compares
    widths searched apart, though ``search_form`` folds M and M* into one
    matroid within a call.  The arc-level duality evidence is the
    minor-complexity suite, which searches both sides, and acceptance
    criterion 5."""
    t0 = time.perf_counter()
    failures: list[str] = []
    cases = 0
    fhat = SuperAdditiveFn.fhat()

    def width(m: Matroid) -> Fraction:
        report = f_width(m, fhat, limits)
        if not report.exhaustive:
            raise BudgetExhaustedError(f"width of {m!r} truncated at lower bound {report.value}")
        return report.value

    singles = [
        uniform(1, 2),
        uniform(1, 3),
        uniform(2, 3),
        Matroid.from_label_sets(("a", "b", "c"), [("a", "b"), ("a", "c")]),
        uniform(2, 4),
    ]
    for m in singles:
        value = width(m)
        cases += 1
        if width(dual(m)) != value:
            _clip(failures, f"{m!r}: width of the dual differs")
        for x_labels, y_labels, minor in nested_minors(m):
            cases += 1
            if width(minor) > value:
                _clip(
                    failures,
                    f"{m!r}: minor X={list(x_labels)} Y={list(y_labels)} has larger width",
                )

    pairs = [
        (uniform(1, 2), uniform(1, 1)),
        (uniform(1, 2), uniform(1, 2)),
        (uniform(2, 3), uniform(1, 2)),
        (Matroid.from_label_sets(("a", "b", "c"), [("a", "b"), ("a", "c")]), uniform(1, 2)),
    ]
    for m, n in pairs:
        n = relabel(n, {lab: lab + "*" for lab in n.ground})
        wm, wn, ws = width(m), width(n), width(direct_sum(m, n))
        cases += 1
        if ws > max(wm, wn):
            _clip(failures, f"sum {m!r} + {n!r}: width {ws} exceeds max({wm}, {wn})")
    return SuiteResult("closure", cases, failures, time.perf_counter() - t0)


def bounds_suite(
    certificates: list[tuple[Matroid, ComplexityCertificate]] | None = None,
    limits: SearchLimits | None = None,
) -> SuiteResult:
    """Every certificate satisfies the closed-form upper bound, and its
    witness is a standard, loop-free representation of the matroid with
    `value` arcs whose internal vertices have in- and out-degree at least
    two and number at most ``(value - lower_bound(m)) // 2`` (Lemma A in
    `complexity`)."""
    t0 = time.perf_counter()
    failures: list[str] = []
    if certificates is None:
        certificates = []
        pool = [uniform(r, n) for n in range(5) for r in range(n + 1)]
        for m in pool:
            certificates.append((m, arc_complexity(m, limits)))
    for m, cert in certificates:
        tag = f"certificate for {m!r}"
        if cert.value > kw_upper_bound(m.rank, len(m.ground)):
            _clip(failures, f"{tag}: value exceeds the closed-form bound")
        w, arcs = cert.witness, cert.witness.digraph.arcs
        if w.arc_count != cert.value:
            _clip(failures, f"{tag}: witness arc count differs from the value")
        if gamma(w) != m:
            _clip(failures, f"{tag}: witness represents another matroid")
        if not is_standard(w):
            _clip(failures, f"{tag}: witness is not standard")
        if any(u == v for u, v in arcs):
            _clip(failures, f"{tag}: witness has a loop")
        tails, heads = Counter(u for u, _ in arcs), Counter(v for _, v in arcs)
        internal = set(range(w.digraph.vertex_count)) - w.ground
        if any(min(tails[v], heads[v]) < 2 for v in internal):
            _clip(failures, f"{tag}: witness has an internal vertex of in- or out-degree below 2")
        if len(internal) > (cert.value - lower_bound(m)) // 2:
            _clip(failures, f"{tag}: witness has more internal vertices than Lemma A allows")
    return SuiteResult("bounds", len(certificates), failures, time.perf_counter() - t0)


# The table `check` runs: one entry per suite, in run order, each taking the
# command's options as keywords (a missing max_vertices means the suite's
# default).  The lambdas look their suite up when called, so rebinding a
# suite function in this module (as a tracer does) reaches `check` too.
SUITES = {
    "swap-invariance": lambda max_vertices=4, **_: swap_invariance_suite(max_vertices),
    "standardization": lambda count, seed, max_vertices=6, **_: standardization_suite(
        count, max_vertices, seed
    ),
    "surgery": lambda count, seed, max_vertices=6, **_: surgery_suite(count, max_vertices, seed),
    "routing-oracle": lambda seed, max_vertices=6, **_: routing_oracle_suite(max_vertices, seed),
    "arc-values": lambda limits, **_: arc_values_suite(limits),
    "minor-complexity": lambda limits, **_: minor_complexity_suite(limits),
    "closure": lambda limits, **_: closure_suite(limits),
    "bounds": lambda limits, **_: bounds_suite(limits=limits),
}
