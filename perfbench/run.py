"""End-to-end benchmark of the gammoids CLI.

    python3 perfbench/run.py --workload {search,suites,width} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the repository root is the parent of this directory, and
the program is run from its ``src`` tree.  Scratch files go to
``.perfbench-work/`` at the root.

Untraced runs launch ``python3 -m gammoids.cli`` as a child process, one at a
time (a closed loop: one client, ``--workers 1``), until the next run would
overrun ``--seconds`` (at least one run).  Each run is timed from launch to
exit, its CPU time and peak RSS are read from ``os.wait4`` for that child
alone, and its stdout is checked against the known answer off the clock
(`gate.py`).  A run that fails the check counts against ``ok_ratio`` and is
never dropped.  ``wall_min_s`` and ``cpu_min_s`` are those of the fastest
child; the report lines also give the median and a tail percentile.  Set-up
time is the median of several probes that start the interpreter, import
``gammoids.cli`` and load the input without running a command (`probe.py`).

With ``--trace 1`` a further child runs the same CLI arguments in-process
under the spans of `spans.py` (`traced.py`), and the per-layer metrics are
reported instead of the end-to-end ones.  The traced run fails loudly when a
layer that must be active on the workload recorded no span.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; every line before it is a
human-readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gate
import inputs
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_PROBES = 15
# every child is killed once the whole benchmark has run this long, so a
# hung program yields a failed run instead of a hung benchmark
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    make_input: Callable[[int], dict] | None  # writes WORK/<workload>.json
    cli_args: Callable[[int, str | None], list[str]]
    check: Callable[[int, str, dict | None], str | None]
    # layers that must record at least one span in the traced run
    active_layers: tuple[str, ...]
    # (label, count read from the spans, value on the seed code): counts that
    # repeat exactly; a change may move them, so a difference is reported
    # loudly but does not fail the run
    counts: tuple[tuple[str, Callable[[dict], int], int], ...] = ()


WORKLOADS = {
    "search": Workload(
        make_input=inputs.search_matroid,
        cli_args=lambda seed, path: ["arc-complexity", path, "--workers", "1"],
        check=gate.check_search,
        active_layers=("cli", "cli.load", "cli.emit", "complexity.search", "routing"),
    ),
    "suites": Workload(
        make_input=None,
        cli_args=lambda seed, path: [
            "check", "all", "--seed", str(seed),
            "--max-vertices", "3", "--count", "1000", "--workers", "1",
        ],
        check=gate.check_suites,
        active_layers=(
            "cli",
            "cli.emit",
            "routing",
            "matroid.gamma",
            "matroid.minor",
            "digraph.swap",
            "representation.standardize",
            "representation.surgery",
            "complexity.search",
            "complexity.width",
            "bruteforce",
            *(f"suites.{name}" for name in gate.SUITES),
        ),
        counts=(
            (
                "routing calls inside swap-invariance",
                lambda snap: spans.layer_calls(snap, "routing", scope="suites.swap-invariance"),
                1_730,
            ),
        ),
    ),
    "width": Workload(
        make_input=inputs.width_matroid,
        cli_args=lambda seed, path: ["fwidth", path, "--f", "fhat", "--workers", "1"],
        check=gate.check_width,
        active_layers=(
            "cli",
            "cli.load",
            "cli.emit",
            "complexity.width",
            "complexity.search",
            "matroid.minor",
            "routing",
        ),
        counts=(
            (
                "complexity.width.minors",
                lambda snap: spans.layer_calls(
                    snap, "matroid.minor", scope="complexity.width", func="restrict"
                ),
                6_561,
            ),
            (
                "complexity.search.calls",
                lambda snap: spans.layer_calls(snap, "complexity.search"),
                1_296,
            ),
        ),
    ),
}

END_TO_END = {
    "wall_min_s": "s",
    "cpu_min_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a result."""


@dataclass(frozen=True)
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def run_child(args: list[str], env: dict, stdout: Path, stderr: Path, limit_s: float) -> Child:
    """Run ``python3 <args>`` to completion; measure this child alone."""
    redirect = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), redirect, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), redirect, 0o644),
    ]
    lock = threading.Lock()
    exited = False

    def kill() -> None:
        with lock:
            if not exited:  # not yet reaped, so the pid is still ours
                os.kill(pid, signal.SIGKILL)

    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    timer = threading.Timer(max(limit_s, 0.0), kill)
    timer.start()
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            exited = True
    finally:
        _, status, usage = os.wait4(pid, 0)
        timer.cancel()
        timer.join(timeout=5)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        exit_code=os.waitstatus_to_exitcode(status),
    )


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return (100 * (n - 10)) // n, sorted(samples)[n - 11]


def _report(label: str, samples: list[float], unit: str) -> str:
    line = f"{label}: median {statistics.median(samples):.6g} {unit} over {len(samples)} runs"
    tail = tail_percentile(samples)
    if tail is not None:
        line += f", p{tail[0]} {tail[1]:.6g} {unit}"
    return line + f", min {min(samples):.6g} {unit}"


def _time_left(deadline: float) -> float:
    return deadline - time.perf_counter()


def measure_setup(cli_args: list[str], env: dict, out: Path, err: Path, deadline: float) -> list[float]:
    """Wall times of `SETUP_PROBES` probes; a first, untimed probe writes the
    bytecode caches, which users do not pay for on every run."""
    setup = []
    for i in range(SETUP_PROBES + 1):
        probe = run_child([str(BENCH_DIR / "probe.py"), *cli_args], env, out, err, _time_left(deadline))
        if probe.exit_code != 0:
            raise BenchmarkError(f"set-up probe exited {probe.exit_code}: {err.read_text()[-2000:]}")
        if i:
            setup.append(probe.wall_s)
    return setup


def trace_layers(
    name: str, cli_args: list[str], env: dict, out: Path, err: Path, deadline: float
) -> tuple[Child, dict]:
    """One traced run; fails loudly when a layer that must be active on the
    workload recorded no span."""
    workload = WORKLOADS[name]
    spans_path = WORK / f"{name}.spans.json"
    spans_path.unlink(missing_ok=True)
    traced = run_child(
        [str(BENCH_DIR / "traced.py"), str(spans_path), str(out), *cli_args],
        env, out, err, _time_left(deadline),
    )
    if not spans_path.is_file():
        raise BenchmarkError(f"traced run wrote no spans: {err.read_text()[-2000:]}")
    snapshot = json.loads(spans_path.read_text(encoding="utf-8"))
    silent = [layer for layer in workload.active_layers if spans.layer_calls(snapshot, layer) == 0]
    if silent:
        raise BenchmarkError(
            f"trace incomplete: no span recorded for {', '.join(silent)} on {name}; "
            "an entry point was renamed or is bound where spans.py does not look"
        )
    for label, count, expected in workload.counts:
        got = count(snapshot)
        if got == expected:
            print(f"trace count {label} = {got}, as on the seed code")
        else:
            print(f"TRACE COUNT CHANGED: {label} = {got}, seed code gave {expected}", file=sys.stderr)
    return traced, snapshot


def benchmark(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    deadline = time.perf_counter() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    matroid = None
    input_path = None
    if workload.make_input is not None:
        matroid = workload.make_input(seed)
        input_path = str(inputs.write_input(matroid, WORK / f"{name}.json"))
        digest = hashlib.sha256(Path(input_path).read_bytes()).hexdigest()[:16]
        print(f"workload {name}, seed {seed}: {name}.json sha256 {digest}")
    else:
        print(f"workload {name}, seed {seed}")
    cli_args = workload.cli_args(seed, input_path)
    print("command: gammoids " + " ".join(cli_args))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out, err = WORK / f"{name}.stdout", WORK / f"{name}.stderr"

    setup = measure_setup(cli_args, env, out, err, deadline)
    runs: list[Child] = []
    failed = 0
    while True:
        run = run_child(["-m", "gammoids.cli", *cli_args], env, out, err, _time_left(deadline))
        runs.append(run)
        reason = workload.check(run.exit_code, out.read_text(encoding="utf-8"), matroid)
        if reason is not None:
            failed += 1
            print(f"run {len(runs)} NOT ok: {reason}", file=sys.stderr)
        measured = sum(r.wall_s for r in runs)
        if measured + run.wall_s > seconds or _time_left(deadline) < run.wall_s:
            break
    walls = [r.wall_s for r in runs]

    if trace:
        traced, snapshot = trace_layers(name, cli_args, env, out, err, deadline)
        reason = workload.check(traced.exit_code, out.read_text(encoding="utf-8"), matroid)
        if reason is not None:
            failed += 1
            print(f"traced run NOT ok: {reason}", file=sys.stderr)
        metrics = spans.per_layer_metrics(
            snapshot, traced.wall_s, statistics.median(walls), out.stat().st_size
        )
        for metric, entry in metrics.items():
            print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
        return {"correct": failed == 0, "attempted": len(runs) + 1, "failed": failed, "metrics": metrics}

    samples = {
        "wall": (walls, "s"),
        "cpu": ([r.cpu_s for r in runs], "s"),
        "setup": (setup, "s"),
        "peak rss": ([r.peak_rss_mb for r in runs], "MB"),
    }
    for label, (values, unit) in samples.items():
        print(_report(label, values, unit))
    ok_ratio = (len(runs) - failed) / len(runs)
    print(f"ok_ratio = {ok_ratio:.6g} ({len(runs) - failed} of {len(runs)} runs ok)")
    # the fastest run, not the median, is what stays steady when the
    # machine's speed drifts from one minute to the next
    values = {
        "wall_min_s": min(walls),
        "cpu_min_s": min(samples["cpu"][0]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(samples["peak rss"][0]),
        "ok_ratio": ok_ratio,
    }
    metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in values.items()}
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gammoids" / "cli.py").is_file():
        print(f"perfbench: no gammoids sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the gate's witness check uses the oracle
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
