"""The benchmark tracer's span table names functions the package defines."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_to_a_hartree_callable():
    spans = load_tracer().SPANS
    assert spans
    for name, (module_name, attribute) in spans.items():
        assert module_name.split(".")[0] == "hartree", name
        target = getattr(importlib.import_module(module_name), attribute, None)
        assert callable(target), name
