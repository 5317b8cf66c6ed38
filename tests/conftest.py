import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest

from thln import VariantSpec, make_preset


@pytest.fixture(scope="session")
def graph8():
    return make_preset(VariantSpec.random(7), 8)


@pytest.fixture(scope="session")
def graph9():
    return make_preset(VariantSpec.random(3), 9)


@pytest.fixture(scope="session")
def graph4():
    return make_preset(VariantSpec.random(2), 4)
