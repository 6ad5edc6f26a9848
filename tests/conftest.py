"""Fixtures shared by the test modules."""

import pytest

from quatherm import verify


@pytest.fixture
def clear_generator_caches():
    """Empty the per-process generator caches of `verify` before and after
    the test, so that what it builds does not depend on the tests before it;
    the test may call the yielded function to empty them midway."""

    def clear():
        verify.generator_forms.cache_clear()
        verify.generator_basis.cache_clear()

    clear()
    yield clear
    clear()
