"""Fixtures shared by the GF tests."""

import numpy as np
import pytest


@pytest.fixture
def take_calls(monkeypatch):
    """Record the ``mode`` of every ``np.take`` call the test makes.

    The per-constant gather of ``GField.mul_rows``/``mul_gather`` is the
    only ``np.take`` caller in ``repro.gf``, so the list shows which side
    of the gather crossover ran.
    """
    modes = []
    real_take = np.take

    def spy(*args, **kwargs):
        modes.append(kwargs.get("mode"))
        return real_take(*args, **kwargs)

    monkeypatch.setattr(np, "take", spy)
    return modes
