import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_hooks_resolve_in_the_package():
    # the tracer patches these by name; a renamed or deleted one makes
    # Tracer.install() raise and every traced benchmark run fail
    hooks = runpy.run_path(str(TRACING))  # executed from source, no bytecode written
    package = hooks["PACKAGE"]
    for module, attr in [*hooks["SPANS"].values(), *hooks["CALL_COUNTERS"].values()]:
        assert callable(getattr(importlib.import_module(f"{package}.{module}"), attr))
    for module, classes, methods in hooks["POINT_COUNTERS"].values():
        mod = importlib.import_module(f"{package}.{module}")
        for cls in classes:
            for method in methods:
                assert callable(getattr(getattr(mod, cls), method))
