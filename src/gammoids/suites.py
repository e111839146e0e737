"""Property suites: exhaustive and randomized checks runnable from the CLI.

Each suite returns a :class:`SuiteResult` with a case count and a list of
failure descriptions (empty = pass).  Randomized suites take an explicit
seed and are fully reproducible.  The acceptance tests run these same suites
at their pinned sizes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations

from .bruteforce import (
    brute_contract_bases,
    brute_gamma_bases,
    brute_max_routing_size,
    brute_restrict_bases,
)
from .complexity import (
    ComplexityCertificate,
    SearchLimits,
    SuperAdditiveFn,
    arc_complexity,
    f_width,
    kw_upper_bound,
)
from .digraph import Digraph, default_labels, swap
from .matroid import (
    Matroid,
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


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str]
    runtime_secs: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return f"{self.name}: {self.cases} cases, {verdict}, {self.runtime_secs:.1f}s"


def _clip(failures: list[str], message: str, cap: int = 25) -> None:
    if len(failures) < cap:
        failures.append(message)
    elif len(failures) == cap:
        failures.append("... further failures suppressed")


# -- generators ---------------------------------------------------------------


def random_representation(rng: random.Random, max_vertices: int = 6) -> Representation:
    """Random representation triple: arcs by density, loops occasionally,
    ground and targets as independent random subsets (targets need not lie in
    the ground set)."""
    n = rng.randint(1, max_vertices)
    density = rng.choice([0.15, 0.3, 0.5])
    arcs = set()
    for u in range(n):
        for v in range(n):
            if u == v:
                if rng.random() < 0.05:
                    arcs.add((u, v))
            elif rng.random() < density:
                arcs.add((u, v))
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
    triples agree for every E iff they agree for E = V.  Full-ground results
    are memoized on the loop-stripped digraph, which is exactly the
    normalization the routing engine itself applies; every `_SAMPLE_EVERY`-th
    case additionally re-compares all ground sets directly."""
    t0 = time.perf_counter()
    failures: list[str] = []
    cases = 0
    for n in range(1, max_vertices + 1):
        labels = default_labels(n)
        all_vertices = frozenset(range(n))
        positions = [(u, v) for u in range(n) for v in range(n)]
        tables: dict[tuple[frozenset, int], frozenset[int]] = {}

        def table(core_arcs: frozenset, t_mask: int) -> frozenset[int]:
            key = (core_arcs, t_mask)
            if key not in tables:
                rep = Representation(
                    Digraph(labels, core_arcs),
                    frozenset(i for i in range(n) if t_mask >> i & 1),
                    all_vertices,
                )
                tables[key] = gamma(rep).bases
            return tables[key]

        for arc_bits in range(1 << (n * n)):
            arcs = frozenset(positions[i] for i in range(n * n) if arc_bits >> i & 1)
            plain = sorted((u, v) for (u, v) in arcs if u != v)
            if not plain:
                continue
            d = Digraph(labels, arcs)
            core = frozenset(plain)
            for r, s in plain:
                d2 = swap(d, r, s)
                core2 = frozenset((u, v) for (u, v) in d2.arcs if u != v)
                rest = [v for v in range(n) if v != r and v != s]
                for sub in range(1 << len(rest)):
                    t_mask = 1 << s
                    for i, v in enumerate(rest):
                        if sub >> i & 1:
                            t_mask |= 1 << v
                    t2_mask = (t_mask & ~(1 << s)) | (1 << r)
                    cases += 1
                    if table(core, t_mask) != table(core2, t2_mask):
                        _clip(
                            failures,
                            f"swap mismatch: n={n} arcs={plain} swap=({r},{s}) targets_mask={t_mask}",
                        )
                    elif cases % _SAMPLE_EVERY == 0:
                        tset = frozenset(i for i in range(n) if t_mask >> i & 1)
                        t2set = frozenset(i for i in range(n) if t2_mask >> i & 1)
                        for e_bits in range(1 << n):
                            eset = frozenset(i for i in range(n) if e_bits >> i & 1)
                            m1 = gamma(Representation(d, tset, eset))
                            m2 = gamma(Representation(d2, t2set, eset))
                            if m1 != m2:
                                _clip(
                                    failures,
                                    f"direct ground-set mismatch: n={n} arcs={sorted(arcs)} "
                                    f"swap=({r},{s}) E={sorted(eset)}",
                                )
    return SuiteResult("swap-invariance", cases, failures, time.perf_counter() - t0)


def _base_id_sets(rep: Representation, m: Matroid) -> list[frozenset[int]]:
    return [rep.ids_for(m.labels_of(b)) for b in sorted(m.bases)]


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
        full = frozenset(m.ground)
        complemented = frozenset(full - b for b in m.bases_label_sets())
        for base in _base_id_sets(rep, m):
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
            if md.bases_label_sets() != complemented:
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
    for i in range(count):
        rep = random_representation(rng, max_vertices)
        m0 = gamma(rep)
        base = _base_id_sets(rep, m0)[0]
        std = standardize(rep, base)
        m = gamma(std)
        for x_mask in range(m.full_mask + 1):
            x_labels = m.labels_of(x_mask)
            xs = std.ids_for(x_labels)
            cases += 1
            tag = f"instance {i} X={sorted(x_labels)}"

            rr = restrict_representation(std, xs)
            if not is_standard(rr):
                _clip(failures, f"{tag}: restriction not standard")
            if rr.arc_count > std.arc_count:
                _clip(failures, f"{tag}: restriction gained arcs")
            got = gamma(rr)
            if got != restrict(m, x_labels):
                _clip(failures, f"{tag}: restriction represents the wrong matroid")
            oracle = {m.labels_of(b) for b in brute_restrict_bases(m.bases, x_mask)}
            if got.bases_label_sets() != oracle:
                _clip(failures, f"{tag}: restriction disagrees with the rank oracle")

            cc = contract_representation(std, xs)
            if not is_standard(cc):
                _clip(failures, f"{tag}: contraction not standard")
            if cc.arc_count > std.arc_count:
                _clip(failures, f"{tag}: contraction gained arcs")
            got = gamma(cc)
            if got != contract_to(m, x_labels):
                _clip(failures, f"{tag}: contraction represents the wrong matroid")
            oracle = {m.labels_of(b) for b in brute_contract_bases(m.bases, m.full_mask, x_mask)}
            if got.bases_label_sets() != oracle:
                _clip(failures, f"{tag}: contraction disagrees with the rank oracle")
    return SuiteResult("surgery", cases, failures, time.perf_counter() - t0)


def routing_oracle_suite(instances: int = 1000, max_vertices: int = 6, seed: int = 7) -> SuiteResult:
    """Random digraph/source/target instances: the flow engine must agree
    with exhaustive path-family enumeration, and its returned routing must
    satisfy every routing invariant."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures: list[str] = []
    for i in range(instances):
        n = rng.randint(1, max_vertices)
        density = rng.choice([0.1, 0.2, 0.35, 0.5])
        arcs = {
            (u, v)
            for u in range(n)
            for v in range(n)
            if rng.random() < (0.08 if u == v else density)
        }
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
    return SuiteResult("routing-oracle", instances, failures, time.perf_counter() - t0)


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
        checks.append((n, n))
        checks.append((0, n))
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
        if not cert.search_exhaustive:
            _clip(failures, f"{tag}: certificate is not exhaustive")
            continue
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


def minor_complexity_suite(max_ground: int = 4, limits: SearchLimits | None = None) -> SuiteResult:
    """Every matroid on up to `max_ground` labeled elements: arc complexity is
    invariant under duality and non-increasing under restriction and
    contraction, all with exhaustive certificates."""
    t0 = time.perf_counter()
    failures: list[str] = []
    cases = 0
    certificates: list[tuple[Matroid, ComplexityCertificate]] = []
    cache: dict = {}

    def arcc(m: Matroid) -> int | None:
        if m not in cache:
            cert = arc_complexity(m, limits)
            certificates.append((m, cert))
            cache[m] = cert.value if cert.search_exhaustive else None
        return cache[m]

    letters = tuple("abcdefgh"[:max_ground])
    for size in range(max_ground + 1):
        for m in all_matroids(letters[:size]):
            cases += 1
            tag = f"matroid bases={sorted(sorted(b) for b in m.bases_label_sets())}"
            value = arcc(m)
            if value is None:
                _clip(failures, f"{tag}: no exhaustive certificate")
                continue
            if arcc(dual(m)) != value:
                _clip(failures, f"{tag}: dual has different arc complexity")
            for x_bits in range(m.full_mask + 1):
                x_labels = m.labels_of(x_bits)
                rv = arcc(restrict(m, x_labels))
                if rv is None or rv > value:
                    _clip(failures, f"{tag}: restriction to {sorted(x_labels)} exceeds {value}")
                cv = arcc(contract_to(m, x_labels))
                if cv is None or cv > value:
                    _clip(failures, f"{tag}: contraction to {sorted(x_labels)} exceeds {value}")
    return SuiteResult(
        "minor-complexity",
        cases,
        failures,
        time.perf_counter() - t0,
        details={"certificates": certificates},
    )


def closure_suite(limits: SearchLimits | None = None) -> SuiteResult:
    """Closure of bounded width at desk scale, all with the built-in
    max(1, x) denominator: the width never grows under minors, is invariant
    under duality, and a direct sum's width stays below the max of the
    summands'."""
    t0 = time.perf_counter()
    failures: list[str] = []
    cases = 0
    fhat = SuperAdditiveFn.fhat()
    cache: dict = {}

    singles = [
        uniform(1, 2),
        uniform(1, 3),
        uniform(2, 3),
        Matroid.from_label_sets(("a", "b", "c"), [("a", "b"), ("a", "c")]),
        uniform(2, 4),
    ]
    widths = {}
    for m in singles:
        report = f_width(m, fhat, limits, arc_cache=cache)
        widths[m] = report
        if not report.exhaustive:
            _clip(failures, f"{m!r}: width search not exhaustive")

    for m in singles:
        base_value = widths[m].value
        dual_report = f_width(dual(m), fhat, limits, arc_cache=cache)
        cases += 1
        if dual_report.value != base_value:
            _clip(failures, f"{m!r}: width of the dual differs")
        for x_labels, y_labels, minor in nested_minors(m):
            minor_report = f_width(minor, fhat, limits, arc_cache=cache)
            cases += 1
            if minor_report.value > base_value:
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
        s = direct_sum(m, n)
        rm = f_width(m, fhat, limits, arc_cache=cache)
        rn = f_width(n, fhat, limits, arc_cache=cache)
        rs = f_width(s, fhat, limits, arc_cache=cache)
        cases += 1
        if not (rm.exhaustive and rn.exhaustive and rs.exhaustive):
            _clip(failures, f"sum {m!r} + {n!r}: width search not exhaustive")
            continue
        if rs.value > max(rm.value, rn.value):
            _clip(
                failures,
                f"sum {m!r} + {n!r}: width {rs.value} exceeds max({rm.value}, {rn.value})",
            )
    return SuiteResult("closure", cases, failures, time.perf_counter() - t0)


def bounds_suite(
    certificates: list[tuple[Matroid, ComplexityCertificate]] | None = None,
    limits: SearchLimits | None = None,
) -> SuiteResult:
    """Every exhaustive certificate satisfies the closed-form upper bound and
    its witness touches at most two vertices per arc."""
    t0 = time.perf_counter()
    failures: list[str] = []
    if certificates is None:
        certificates = []
        pool = [uniform(r, n) for n in range(5) for r in range(n + 1)]
        for m in pool:
            certificates.append((m, arc_complexity(m, limits)))
    cases = 0
    for m, cert in certificates:
        if not cert.search_exhaustive:
            continue
        cases += 1
        tag = f"certificate for {m!r}"
        if cert.value > kw_upper_bound(m.rank, len(m.ground)):
            _clip(failures, f"{tag}: value exceeds the closed-form bound")
        w = cert.witness
        touched = {v for arc in w.digraph.arcs for v in arc}
        if len(touched) > 2 * w.arc_count:
            _clip(failures, f"{tag}: witness has more than 2|A| non-isolated vertices")
        if w.arc_count != cert.value:
            _clip(failures, f"{tag}: witness arc count differs from the value")
    return SuiteResult("bounds", cases, failures, time.perf_counter() - t0)


# One entry per suite, in run order; each takes run_suite's keyword
# arguments.  The lambdas look their suite up when called, so rebinding a
# suite function in this module (as a tracer does) reaches run_suite too.
_SUITE_CALLS = {
    "swap-invariance": lambda max_vertices, **_: swap_invariance_suite(max_vertices or 4),
    "standardization": lambda count, max_vertices, seed, **_: standardization_suite(
        count, max_vertices or 6, seed
    ),
    "surgery": lambda count, max_vertices, seed, **_: surgery_suite(count, max_vertices or 6, seed),
    "routing-oracle": lambda instances, max_vertices, seed, **_: routing_oracle_suite(
        instances, max_vertices or 6, seed
    ),
    "arc-values": lambda limits, **_: arc_values_suite(limits),
    "minor-complexity": lambda max_ground, limits, **_: minor_complexity_suite(max_ground, limits),
    "closure": lambda limits, **_: closure_suite(limits),
    "bounds": lambda limits, **_: bounds_suite(limits=limits),
}
SUITE_NAMES = tuple(_SUITE_CALLS)


def run_suite(
    name: str,
    *,
    seed: int = 7,
    count: int = 500,
    instances: int = 1000,
    max_vertices: int | None = None,
    max_ground: int = 4,
    limits: SearchLimits | None = None,
) -> list[SuiteResult]:
    """Run one named suite (or "all"); sizes default to the acceptance-grade
    parameters."""
    if name != "all" and name not in _SUITE_CALLS:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}, all")
    options = dict(
        seed=seed,
        count=count,
        instances=instances,
        max_vertices=max_vertices,
        max_ground=max_ground,
        limits=limits,
    )
    names = SUITE_NAMES if name == "all" else (name,)
    return [_SUITE_CALLS[entry](**options) for entry in names]
