import doctest

import pytest

from meshperm import bijections, catalog, checks, closed_forms, dist, invseq, mesh, perms


@pytest.mark.parametrize(
    "module", [perms, mesh, dist, closed_forms, checks, invseq, bijections, catalog]
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
