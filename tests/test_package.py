"""The package's public names."""

import normsys
from normsys import chirotope


def test_public_names_resolve_once():
    names = normsys.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(normsys, name)]
    assert missing == []


def test_returned_types_are_public():
    # the concurrency sign maps are chirotopes
    assert "Chirotope" in normsys.__all__
    assert normsys.Chirotope is chirotope.Chirotope
