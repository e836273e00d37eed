"""The package's public names: `regulartri.__all__` and star imports."""

from __future__ import annotations

import regulartri


def test_public_names_resolve():
    # A name deleted from the package but left in __all__ fails here.
    names = regulartri.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(regulartri, name)] == []
    namespace = {}
    exec("from regulartri import *", namespace)
    assert set(names) <= set(namespace)
