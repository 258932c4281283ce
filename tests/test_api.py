"""Every public name of the layer modules resolves."""

import importlib

import pytest

LAYER_MODULES = ("cli", "experiments", "game", "spectral", "dynamics", "analysis", "special")


@pytest.mark.parametrize("module", LAYER_MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"nagdyn.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
