"""Fixtures shared by the test modules."""
import pytest

from epsilonlab import local_factors


@pytest.fixture
def level_forms(monkeypatch):
    """A fresh level table of Gauss-sum forms: its cache is emptied before and
    after the test, and feed(chi, value) makes the table read value as chi's
    Gauss sum, every other Gauss sum as it is."""
    real = local_factors.gauss_sum

    def feed(chi, value):
        monkeypatch.setattr(local_factors, "gauss_sum", lambda c: value if c == chi else real(c))
    local_factors._level_forms.cache_clear()
    yield feed
    local_factors._level_forms.cache_clear()
