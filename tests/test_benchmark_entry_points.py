"""The benchmark tracer wraps functions by (module, name); a rename in the
package would otherwise only surface when a traced benchmark run starts."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.ENTRY_POINTS
    for module_name, func, _layer, _observe in spans.ENTRY_POINTS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, func, None)), f"{module_name}.{func} is gone"
