"""The package namespace."""

import dowlab


def test_every_exported_name_resolves():
    # a name left in __all__ after its object was removed would only fail
    # at ``from dowlab import *``
    assert [name for name in dowlab.__all__ if not hasattr(dowlab, name)] == []
    assert len(set(dowlab.__all__)) == len(dowlab.__all__)
