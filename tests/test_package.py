"""The package's public namespace."""

import redsphere


def test_every_exported_name_resolves():
    missing = [name for name in redsphere.__all__ if not hasattr(redsphere, name)]
    assert not missing
