"""The benchmark's tracer wraps divrec functions by (module, attribute) name;
a rename or a moved import silently drops that span from every traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    name = "_divrec_perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_every_measured_wrap_resolves(tracing):
    assert tracing.MEASURED_WRAPS
    missing = [f"{module}.{attribute}"
               for module, attribute, _, _ in tracing.MEASURED_WRAPS
               if not callable(getattr(importlib.import_module(module), attribute, None))]
    assert missing == []
