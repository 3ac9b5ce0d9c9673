"""The package's public surface, and the oracles' independence from it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import faircda

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(faircda.__path__) if not info.name.startswith("_")
)
# What tests/oracles.py may read from the package: the bids and instances it
# checks, and the money coercion of their inputs.  Anything more would let
# an oracle share the code it is meant to check.
ORACLE_IMPORTS = {"ConsumerBid", "ProviderBid", "WdpInstance", "as_money"}


def test_every_submodule_is_found():
    assert {"engine", "fairness", "model", "pricing", "wdp_solver"} <= set(MODULES)


@pytest.mark.parametrize("name", ["faircda", *(f"faircda.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == [], f"{name}.__all__ names what it does not define"


def test_star_import():
    namespace: dict = {}
    exec("from faircda import *", namespace)
    assert set(faircda.__all__) <= set(namespace)


def test_oracles_import_only_bid_instance_and_money_types():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "faircda" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "faircda":
            imported |= {alias.name for alias in node.names}
    assert imported == ORACLE_IMPORTS
