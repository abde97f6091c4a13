"""The names perfbench's tracer rebinds must exist in the package."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_callable():
    # A traced benchmark run rebinds each (module, attribute) of TARGETS;
    # a name deleted or renamed in the package would stop it with an
    # AttributeError.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.TARGETS) >= 25
    for module_name, attr, *_ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
