"""The package's public surface: ``cggen.__all__`` and ``from cggen import *``."""

from collections import Counter

import cggen


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from cggen import *", namespace)
    assert set(cggen.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    repeated = [name for name, count in Counter(cggen.__all__).items() if count > 1]
    assert repeated == []


def test_every_name_in_all_resolves():
    assert [name for name in cggen.__all__ if not hasattr(cggen, name)] == []
