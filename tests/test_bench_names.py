"""The benchmark wraps public functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """perfbench/spans.py as a module, loaded without installing its tracer."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_callable():
    table = load_spans().LAYER_FUNCTIONS
    assert "fit_simplex" in table["regress"]
    missing = [
        f"{module}.{name}"
        for module, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"twincal.{module}"), name, None))
    ]
    assert missing == []
