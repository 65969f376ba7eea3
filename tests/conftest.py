import numpy as np
import pytest

from gapcert import domination


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture(autouse=True)
def fresh_certificate_memo():
    # certify keeps recent certificates for the whole process; a test that
    # patches domination (STACK_ROWS, _margin_tables) must see a fresh walk
    domination._MEMO.clear()
