import pytest

from genlift import groupcore


@pytest.fixture(autouse=True)
def empty_build_memo():
    """Each test starts without kept groups, and so without the classes,
    orbits and automorphism permutations they keep, so it computes what it
    checks instead of reading an earlier test's answer."""
    groupcore._BUILT.clear()
