"""Batch command-line front end.

Machine-readable JSON goes to stdout, human-readable notes to stderr, so the
tool composes in pipelines.  Exit codes: 0 success/verified, 1 bad input
files, 2 usage errors (argparse), 3 search budget exhausted, 4 a checked
property or verification failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .complexity import (
    BudgetExhaustedError,
    SearchLimits,
    SuperAdditiveFn,
    arc_complexity,
    certificate_to_dict,
    f_width,
    in_class,
    width_report_to_dict,
)
from .matroid import gamma, matroid_from_dict, matroid_to_dict, uniform, validate_matroid
from .matroid import contract_to as matroid_contract_to
from .matroid import dual as matroid_dual
from .matroid import restrict as matroid_restrict
from .representation import (
    dual_representation,
    contract_representation,
    rebase,
    rep_from_dict,
    rep_to_dict,
    restrict_representation,
    standardize,
)
from .suites import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc


def _load_rep(path: str):
    try:
        return rep_from_dict(_load_json(path))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_matroid(path: str):
    try:
        return matroid_from_dict(_load_json(path))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit(obj, output: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _limits(args) -> SearchLimits:
    return SearchLimits(
        max_arcs=args.max_arcs,
        max_internal=args.max_internal,
        wall_secs=args.wall_secs,
        workers=args.workers,
    )


def _parse_f(spec: str) -> SuperAdditiveFn:
    if spec.startswith("table:"):
        path = spec.split(":", 1)[1]
        values = _load_json(path)
        if not isinstance(values, list) or not all(isinstance(v, int) for v in values):
            raise InputError(f"{path}: a value table must be a JSON list of integers")
        return SuperAdditiveFn.from_table(values)
    try:
        return SuperAdditiveFn.parse(spec)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _at_least(low: int):
    """Argparse type: an integer no smaller than `low`, else a usage error."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def _labels_arg(value: str) -> list[str]:
    return [part for part in (piece.strip() for piece in value.split(",")) if part]


# -- commands -----------------------------------------------------------------


def cmd_eval(args) -> int:
    rep = _load_rep(args.rep)
    m = gamma(rep)
    if args.verify:
        validate_matroid(m)
    _emit(matroid_to_dict(m), args.output)
    _note(f"ground: {len(m.ground)} elements, rank {m.rank}, {len(m.bases)} bases")
    return EXIT_OK


def cmd_transform(args) -> int:
    rep = _load_rep(args.rep)
    before = gamma(rep) if args.verify else None
    subset_labels = _labels_arg(args.subset) if args.subset else None

    if args.op == "dualize":
        out = dual_representation(rep)
        expect = matroid_dual
    elif args.op in ("standardize", "rebase"):
        if args.base:
            base = rep.ids_for(_labels_arg(args.base))
        else:
            if args.op == "rebase":
                raise InputError("rebase needs --base")
            m = before if before is not None else gamma(rep)
            base = rep.ids_for(m.labels_of(min(m.bases)))
        out = standardize(rep, base) if args.op == "standardize" else rebase(rep, base)
        expect = lambda m: m  # both keep the represented matroid
    elif args.op in ("restrict", "contract"):
        if subset_labels is None:
            raise InputError(f"{args.op} needs --subset")
        xs = rep.ids_for(subset_labels)
        if args.op == "restrict":
            out = restrict_representation(rep, xs)
            expect = lambda m: matroid_restrict(m, subset_labels)
        else:
            out = contract_representation(rep, xs)
            expect = lambda m: matroid_contract_to(m, subset_labels)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown transform {args.op!r}")

    if args.verify:
        if gamma(out) != expect(before):
            _note("verification FAILED: transformed representation has the wrong matroid")
            return EXIT_VIOLATION
        _note("verified: transformed representation has the expected matroid")
    _emit(rep_to_dict(out), args.output)
    return EXIT_OK


def cmd_arc_complexity(args) -> int:
    m = _load_matroid(args.matroid)
    cert = arc_complexity(m, _limits(args))
    _emit(certificate_to_dict(cert), args.output)
    _note(
        f"arc complexity {cert.value} "
        f"({'exhaustive' if cert.search_exhaustive else 'upper bound only'}), "
        f"{cert.runtime_secs:.2f}s"
    )
    return EXIT_OK if cert.search_exhaustive else EXIT_BUDGET


def cmd_fwidth(args) -> int:
    m = _load_matroid(args.matroid)
    f = _parse_f(args.f)
    report = f_width(m, f, _limits(args))
    _emit(width_report_to_dict(report, f), args.output)
    _note(
        f"width {report.value} attained at restrict={list(report.argmax[0])} "
        f"contract={list(report.argmax[1])}"
    )
    return EXIT_OK if report.exhaustive else EXIT_BUDGET


def cmd_in_class(args) -> int:
    m = _load_matroid(args.matroid)
    f = _parse_f(args.f)
    try:
        q = Fraction(args.q)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"--q {args.q!r} is not a rational number") from exc
    member = in_class(m, f, q, _limits(args))
    _emit({"member": member, "q": str(q), "f": f.describe()}, args.output)
    _note(f"membership: {member}")
    return EXIT_OK


def cmd_conjecture_uniform(args) -> int:
    m = uniform(args.rank, args.size)
    expected = args.rank * (args.size - args.rank)
    cert = arc_complexity(m, _limits(args))
    verified = cert.search_exhaustive and cert.value == expected
    _emit(
        {
            "rank": args.rank,
            "size": args.size,
            "expected": expected,
            "value": cert.value,
            "exhaustive": cert.search_exhaustive,
            "verified": verified,
            "runtime_secs": round(cert.runtime_secs, 3),
        },
        args.output,
    )
    if verified:
        _note(f"verified: arc complexity of U({args.rank},{args.size}) is {expected}")
        return EXIT_OK
    if not cert.search_exhaustive:
        _note("search was not exhaustive; no verdict")
        return EXIT_BUDGET
    _note(f"REFUTED at this size: arc complexity is {cert.value}, expected {expected}")
    return EXIT_VIOLATION


def cmd_check(args) -> int:
    results = run_suite(
        args.suite,
        seed=args.seed,
        count=args.count,
        max_vertices=args.max_vertices,
        limits=_limits(args),
    )
    for res in results:
        _note(res.summary())
        for failure in res.failures:
            _note(f"  {failure}")
    _emit(
        [
            {
                "suite": res.name,
                "cases": res.cases,
                "failures": res.failures,
                "passed": res.passed,
                "runtime_secs": round(res.runtime_secs, 2),
            }
            for res in results
        ],
        args.output,
    )
    return EXIT_OK if all(res.passed for res in results) else EXIT_VIOLATION


# -- parser ---------------------------------------------------------------------


def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--limits.max-arcs", dest="max_arcs", type=_at_least(0), default=None,
                        help="cap on the searched arc count")
    parser.add_argument("--limits.max-internal", dest="max_internal", type=_at_least(0),
                        default=None, help="cap on internal vertices per search level")
    parser.add_argument("--limits.wall-secs", dest="wall_secs", type=float, default=None,
                        help="total wall-clock budget in seconds")
    parser.add_argument("--workers", type=_at_least(1), default=1,
                        help="worker processes for the search (default 1)")


def _add_output_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammoids",
        description="Digraph representations of gammoids: evaluation, surgery, "
        "arc-complexity search, widths, and property suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a representation file to its matroid")
    p.add_argument("rep", help="representation JSON file")
    p.add_argument("--verify", action="store_true", help="validate the matroid axioms")
    _add_output_flag(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transform", help="apply a representation transformation")
    p.add_argument("rep", help="representation JSON file")
    p.add_argument("op", choices=["standardize", "dualize", "rebase", "restrict", "contract"])
    p.add_argument("--base", help="comma-separated base labels (standardize, rebase)")
    p.add_argument("--subset", help="comma-separated ground labels (restrict, contract)")
    p.add_argument("--verify", action="store_true",
                   help="re-evaluate both sides and confirm the matroid relation")
    _add_output_flag(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("arc-complexity", help="exhaustive arc-complexity search")
    p.add_argument("matroid", help="matroid JSON file")
    _add_limit_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_arc_complexity)

    p = sub.add_parser("fwidth", help="width under a super-additive denominator")
    p.add_argument("matroid", help="matroid JSON file")
    p.add_argument("--f", default="fhat", help='"fhat", "linear:<c>", or "table:<path>"')
    _add_limit_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_fwidth)

    p = sub.add_parser("in-class", help="bounded-width class membership")
    p.add_argument("matroid", help="matroid JSON file")
    p.add_argument("--f", default="fhat", help='"fhat", "linear:<c>", or "table:<path>"')
    p.add_argument("--q", required=True, help='rational bound, e.g. "1/2"')
    _add_limit_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_in_class)

    p = sub.add_parser("conjecture-uniform", help="verify the uniform arc-count formula")
    p.add_argument("rank", type=int)
    p.add_argument("size", type=int)
    _add_limit_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_conjecture_uniform)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=_at_least(1), default=500, help="random representations to draw")
    p.add_argument("--max-vertices", type=_at_least(1), default=None)
    _add_limit_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        _note(f"error: {exc}")
        return EXIT_INPUT
    except BudgetExhaustedError as exc:
        _note(f"budget exhausted: {exc}")
        _emit({"error": "budget-exhausted", "message": str(exc)}, getattr(args, "output", None))
        return EXIT_BUDGET
    except ValueError as exc:
        _note(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
