"""The public export list of the package."""

import qrecur


def test_every_export_resolves_once():
    names = qrecur.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(qrecur, name)] == []
