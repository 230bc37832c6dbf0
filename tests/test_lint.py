"""Source checks that hold for every library module."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "hetnet").glob("*.py"))


def test_the_library_has_modules():
    assert len(SRC) >= 10


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_library_code_has_no_assert(path):
    # python -O strips assert statements, so an invariant the library
    # checks must raise a typed error instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert on lines {lines}"


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_module_exports_resolve(path):
    # a name left in __all__ after its definition is deleted would break
    # ``from hetnet import *`` and the package's own re-exports
    mod = importlib.import_module("hetnet" if path.stem == "__init__" else f"hetnet.{path.stem}")
    exports = getattr(mod, "__all__", None)
    assert isinstance(exports, list) and exports, f"{path.name} defines no __all__"
    missing = [name for name in exports if not hasattr(mod, name)]
    assert not missing, f"{path.name} exports undefined names {missing}"


# The module attributes that hetbench/tracing.py wraps to time each layer.
# The tracer skips a name that no longer resolves, without a word, so a
# refactor that drops one of these would silently lose its metric.
TRACED = {
    "optimizer": ["update_side", "hierarchical_prox", "poisson_nll",
                  "identifiability_penalty", "_forward_activations", "forward_batch",
                  "_backward_from_activations"],
    "importance": ["forward_batch", "shapley_importance"],
    "baselines": ["mle_fit", "two_stage_select"],
    "simbench": ["gen_attributes", "sample_network"],
    "cli": ["write_edge_list", "load_edge_list", "load_attributes"],
}


@pytest.mark.parametrize("module", sorted(TRACED))
def test_traced_attributes_resolve_to_callables(module):
    mod = importlib.import_module(f"hetnet.{module}")
    missing = [name for name in TRACED[module] if not callable(getattr(mod, name, None))]
    assert not missing, f"hetnet.{module} lacks traced callables {missing}"

