"""The benchmark's tracer (ybxbench/tracer.py) wraps ybx functions and
methods by name; a name it lists that ybx no longer defines makes every
traced run fail when the tracer installs itself."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "ybxbench" / "tracer.py"


def load_tracer():
    if not TRACER.exists():
        pytest.skip("ybxbench/tracer.py is not present")
    spec = importlib.util.spec_from_file_location("ybxbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    for group, targets in tracer.LAYERS.items():
        for module_name, attr in targets:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                # the tracer replaces the entry in the class's own __dict__
                assert method in vars(getattr(owner, cls_name)), \
                    (group, module_name, attr)
            else:
                assert callable(getattr(owner, attr, None)), \
                    (group, module_name, attr)
