"""The benchmark tracer wraps functions by (module, name); a rename in the
package would otherwise only surface when a traced benchmark run starts."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gammoids
from gammoids.matroid import direct_sum, matroid_to_dict, relabel, uniform

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = BENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _env_with_src() -> dict:
    src = str(Path(gammoids.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_every_traced_entry_point_resolves():
    spans = _spans()
    assert spans.ENTRY_POINTS
    for module_name, func, _layer, _observe in spans.ENTRY_POINTS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, func, None)), f"{module_name}.{func} is gone"


def test_importing_the_cli_loads_every_traced_module():
    # the tracer rebinds entry points only in the modules that `import
    # gammoids.cli` loaded, so a module imported lazily would record no span
    probe = "import json, sys, gammoids.cli; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=_env_with_src(),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    loaded = set(json.loads(done.stdout))
    assert {module for module, *_ in _spans().ENTRY_POINTS} - loaded == set()


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's `run` and `traced` modules, imported as `run.py`
    imports its siblings, and dropped again afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    names = ("gate", "inputs", "spans", "run", "traced")
    loaded = [name for name in names if name not in sys.modules]
    yield importlib.import_module("run"), importlib.import_module("traced")
    for name in loaded:
        sys.modules.pop(name, None)


def test_traced_width_run_records_every_active_layer(perfbench, tmp_path):
    # the traced `width` benchmark fails on a layer with no span; a small
    # fwidth run under the same tracer must record a span on each of them
    run, traced = perfbench
    pair = relabel(uniform(1, 2), {"1": "c", "2": "d"})
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matroid_to_dict(direct_sum(uniform(1, 2), pair))))
    spans_path, stdout_path = tmp_path / "spans.json", tmp_path / "stdout.txt"
    argv = [str(spans_path), str(stdout_path), "fwidth", str(path), "--f", "fhat"]
    assert traced.main(argv) == 0
    snapshot = json.loads(spans_path.read_text())
    silent = [
        layer
        for layer in run.WORKLOADS["width"].active_layers
        if run.spans.layer_calls(snapshot, layer) == 0
    ]
    assert not silent


def test_traced_search_run_records_every_active_layer(perfbench, tmp_path):
    # Lemma R leaves the search few flow calls (one on U(2,4), none at rank
    # 1), so the traced `search` benchmark's routing layer must still record
    # a span on a small rank-2 search under the same tracer
    run, traced = perfbench
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matroid_to_dict(uniform(2, 4))))
    spans_path, stdout_path = tmp_path / "spans.json", tmp_path / "stdout.txt"
    argv = [str(spans_path), str(stdout_path), "arc-complexity", str(path), "--workers", "1"]
    assert traced.main(argv) == 0
    snapshot = json.loads(spans_path.read_text())
    silent = [
        layer
        for layer in run.WORKLOADS["search"].active_layers
        if run.spans.layer_calls(snapshot, layer) == 0
    ]
    assert not silent


def test_traced_check_run_records_every_active_layer(perfbench, tmp_path):
    # as a child process, the way the traced `suites` benchmark runs it: the
    # tracer rebinds entry points only in the modules `gammoids.cli` loads,
    # so a suite module imported later would record no span
    run, _traced = perfbench
    spans_path, stdout_path = tmp_path / "spans.json", tmp_path / "stdout.txt"
    argv = ["check", "all", "--max-vertices", "2", "--count", "5", "--seed", "1"]
    subprocess.run(
        [sys.executable, str(BENCH / "traced.py"), str(spans_path), str(stdout_path), *argv],
        env=_env_with_src(),
        check=True,
        timeout=120,
    )
    snapshot = json.loads(spans_path.read_text())
    silent = [
        layer
        for layer in run.WORKLOADS["suites"].active_layers
        if run.spans.layer_calls(snapshot, layer) == 0
    ]
    assert not silent
