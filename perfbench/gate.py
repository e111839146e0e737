"""Known-answer gate: a CLI run counts as ok only if it exits 0 and prints
exactly the known answer for its workload.

Each check returns ``None`` for an ok run and otherwise the reason it is not
ok.  The answers are written out here rather than read from the program, so
a change that drops a suite or weakens a verdict is caught.
"""

from __future__ import annotations

import json

SUITES = (
    "swap-invariance",
    "standardization",
    "surgery",
    "routing-oracle",
    "arc-values",
    "minor-complexity",
    "closure",
    "bounds",
)


def _parse(exit_code: int, stdout: str):
    if exit_code != 0:
        return None, f"exit code {exit_code}"
    try:
        return json.loads(stdout), None
    except ValueError:
        return None, "stdout is not JSON"


def check_search(exit_code: int, stdout: str, matroid: dict) -> str | None:
    """U(2,4) + U(1,2): arc complexity 5, exhaustive, and the witness
    represents the input matroid by the path-family oracle (not by the flow
    engine)."""
    from gammoids.bruteforce import brute_gamma_bases
    from gammoids.representation import rep_from_dict

    out, reason = _parse(exit_code, stdout)
    if reason:
        return reason
    if not isinstance(out, dict):
        return "output is not a certificate object"
    if type(out.get("value")) is not int or out["value"] != 5:
        return f"value {out.get('value')!r}, expected 5"
    if out.get("exhaustive") is not True:
        return f"exhaustive {out.get('exhaustive')!r}, expected true"
    try:
        rep = rep_from_dict(out["witness"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable witness: {exc!r}"
    if rep.arc_count != 5:
        return f"witness has {rep.arc_count} arcs, expected 5"
    got = {
        rep.digraph.label_set(b)
        for b in brute_gamma_bases(rep.digraph, rep.targets, rep.ground)
    }
    if got != {frozenset(b) for b in matroid["bases"]}:
        return "witness does not represent the input matroid"
    return None


def check_suites(exit_code: int, stdout: str, matroid: dict | None = None) -> str | None:
    """`check all`: the eight suites, in order, each passed with no failure."""
    out, reason = _parse(exit_code, stdout)
    if reason:
        return reason
    if not isinstance(out, list) or not all(isinstance(r, dict) for r in out):
        return "output is not a list of suite results"
    names = tuple(r.get("suite") for r in out)
    if names != SUITES:
        return f"suites {names}, expected {SUITES}"
    for r in out:
        if r.get("passed") is not True or r.get("failures") != []:
            return f"suite {r['suite']} did not pass"
    return None


def check_width(exit_code: int, stdout: str, matroid: dict | None = None) -> str | None:
    """U(1,2) summed four times: width "1/2" under fhat, exhaustive."""
    out, reason = _parse(exit_code, stdout)
    if reason:
        return reason
    if not isinstance(out, dict):
        return "output is not a width report object"
    if out.get("value") != "1/2":
        return f"value {out.get('value')!r}, expected \"1/2\""
    if out.get("exhaustive") is not True:
        return f"exhaustive {out.get('exhaustive')!r}, expected true"
    return None
