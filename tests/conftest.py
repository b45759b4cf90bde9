"""Fixtures shared by every test module."""

import pytest

from choqint import laplace


@pytest.fixture(autouse=True)
def cold_transforms():
    """Each test starts with no transform values kept from another test
    (``laplace.transform_of`` keeps an expression's values across solves):
    a test that spies on or counts transforms must see them taken, and
    none may pass or fail by the order the tests ran in."""
    laplace._KEPT.clear()
