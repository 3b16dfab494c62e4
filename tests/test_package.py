"""The public names of the stoched package."""

from __future__ import annotations

import stoched


def test_package_exports_resolve():
    missing = [name for name in stoched.__all__ if not hasattr(stoched, name)]
    assert missing == []
    namespace: dict = {}
    exec("from stoched import *", namespace)
    assert set(stoched.__all__) <= namespace.keys()
