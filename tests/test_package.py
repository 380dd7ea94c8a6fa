# tests/test_package.py
"""The public API: every exported name exists, and each is exported once."""
import dpsmap


def test_all_names_resolve_once():
    names = dpsmap.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(dpsmap, name)] == []
