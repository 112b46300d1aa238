"""The benchmark's trace hooks name functions that exist in the package.

``bench/spans.py`` wraps fermicov functions by (module, attribute path).  A
renamed or removed function otherwise shows up only in the slow benchmark
self-check, so this loads the span table by path and resolves every entry the
way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [target for targets in module.SPANS.values() for target in targets]


@pytest.mark.parametrize("module, attr", _span_targets(), ids=lambda v: v)
def test_span_target_is_callable(module, attr):
    owner_name, _, leaf = attr.rpartition(".")
    owner = importlib.import_module(module)
    if owner_name:
        # the tracer patches a method in the class that defines it
        owner = getattr(owner, owner_name)
        assert leaf in vars(owner)
    assert callable(getattr(owner, leaf))
