"""The package's public name list."""

from __future__ import annotations

from types import ModuleType

import zetaprod


def test_all_names_resolve_and_are_not_modules():
    names = zetaprod.__all__
    assert "__version__" in names
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(zetaprod, name), ModuleType), name
