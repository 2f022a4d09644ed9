import pytest

from genlift import nielsen


@pytest.fixture(autouse=True)
def empty_nielsen_memo():
    """Each test starts without memoized Nielsen decompositions or
    automorphism permutations, so it computes what it checks instead of
    reading an earlier test's answer."""
    nielsen._MEMO.clear()
    nielsen._AUT_PERMS.clear()
