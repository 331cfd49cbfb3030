"""The package's public name list matches what it binds."""

import inspect

import flocksim


def test_all_names_resolve():
    assert len(flocksim.__all__) == len(set(flocksim.__all__))
    for name in flocksim.__all__:
        assert hasattr(flocksim, name), name


def test_all_lists_every_public_name():
    bound = {name for name, value in vars(flocksim).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(flocksim.__all__) == bound
