"""The benchmark tracer looks up cqforms layer functions by name; a rename
must fail here rather than crash every traced benchmark pass."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve_to_callables():
    targets = _load_tracing().TARGETS
    assert targets
    for module, attr in targets:
        owner = importlib.import_module(f"cqforms.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"
