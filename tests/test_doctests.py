import doctest

import pytest

from signedposets import ehrhart, gorenstein, halfspaces, jordan, linalg, perms, posets, roots


@pytest.mark.parametrize(
    "module", [roots, posets, perms, linalg, jordan, ehrhart, halfspaces, gorenstein]
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
