import pytest

from erjw import scalar2


@pytest.fixture(autouse=True)
def fresh_memos():
    """Each test starts with empty echelon and snf memos, so what it asks
    is reduced and certified afresh, whatever ran before it."""
    scalar2.echelon.cache_clear()
    scalar2.snf.cache_clear()
