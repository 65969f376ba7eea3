import numpy as np
import pytest

from gapcert import domination, limits


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture(autouse=True)
def fresh_certificate_memo():
    # certify keeps recent certificates and the limit planes keep their
    # walks for the whole process; a test that patches domination
    # (STACK_ROWS, _margin_tables) or the walk core must see fresh walks
    domination._MEMO.clear()
    limits._WALKS.clear()
