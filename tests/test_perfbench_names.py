"""The names perfbench's tracer wraps must exist in the package.

``perfbench/tracer.py`` replaces module attributes such as
``darboux.evaluate_array`` with timing wrappers.  A renamed or moved name
would only surface in the traced benchmark run; this catches it here.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    tracer = load_tracer()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracer.PATCHES
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, f"names the tracer wraps are gone: {missing}"
