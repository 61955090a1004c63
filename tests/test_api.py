"""The package's public names: ``perfex.__all__`` lists exactly what it binds."""

import types

import perfex


def test_all_lists_every_public_non_module_name_the_package_binds():
    # A star import and strict type checkers read __all__ as the public API;
    # without it, ``from perfex import *`` would also bind the submodules.
    bound = {
        name for name, value in vars(perfex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(perfex.__all__) == len(set(perfex.__all__))
    assert set(perfex.__all__) == bound

