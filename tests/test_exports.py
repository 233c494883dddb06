"""Every exported name resolves, so a deletion leaves no stale export behind."""

import importlib

import pytest


@pytest.mark.parametrize(
    "name", ["mcvar", "mcvar.closure", "mcvar.estimation", "mcvar.linalg", "mcvar.margins",
             "mcvar.varprocess"])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
