"""The benchmark workloads read names that exist in the package.

``bench/workloads.py`` imports fermicov modules and reads attributes of them
(``cli.main``, ``phase.BasisTag.MAJORANA``, ...).  A renamed or removed name
otherwise shows up only in the slow benchmark run, so this parses the file and
resolves every such read, and every name imported from a fermicov module.
"""

import ast
import importlib
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _reads():
    tree = ast.parse(WORKLOADS_PATH.read_text())
    modules = {}  # local name -> fermicov module it is bound to
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fermicov":
            modules.update({a.asname or a.name: f"fermicov.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fermicov."):
            reads.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            path = []
            while isinstance(node, ast.Attribute):
                path.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in modules:
                reads.add((modules[node.id], ".".join(reversed(path))))
    return sorted(reads)


def test_workloads_read_package_names():
    # guards the parse itself: with no reads found, the test below would pass vacuously
    read = {module for module, _ in _reads()}
    assert {f"fermicov.{m}" for m in ("cli", "fock", "lindblad", "oracle", "phase", "quasifree")} <= read


@pytest.mark.parametrize("module, attr", _reads(), ids=lambda v: v)
def test_name_exists(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module}.{attr}"
        owner = getattr(owner, part)
