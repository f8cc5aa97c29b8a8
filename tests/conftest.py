"""Shared test set-up: every test starts and ends with cold gqlab caches.

The value tables of ``gqlab.pg`` and the other ``@cache`` builders are
built from the scalar kernels on first use.  A test that plants a fault in
a kernel must see tables built from the faulty kernel, and a table built
under a planted fault must not outlive its test, so each cached builder
found in a loaded ``gqlab`` module is cleared before and after each test.
"""

import sys

import pytest


def _clear_gqlab_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "gqlab" or name.startswith("gqlab."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


@pytest.fixture(autouse=True)
def cold_gqlab_caches():
    _clear_gqlab_caches()
    yield
    _clear_gqlab_caches()


@pytest.fixture
def clear_gqlab_caches():
    """The cache clearing itself, for a test that needs cold caches midway."""
    return _clear_gqlab_caches
