"""Helpers shared by the test modules.

Series and concurrent runs record the wall time of each calc step. Under
``fixed_step_clock`` the runner's clock advances by CLOCK_STEP_S, an
exactly representable step, per reading, so every calc step lasts
exactly one step and those workflows reproduce bit for bit.
``nan_likelihood`` makes every weight update fail.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from ramseydesign import runner

CLOCK_STEP_S = 2.0**-11


@contextmanager
def fixed_step_clock():
    ticks = itertools.count()
    saved = runner.time
    runner.time = SimpleNamespace(perf_counter=lambda: next(ticks) * CLOCK_STEP_S)
    try:
        yield
    finally:
        runner.time = saved


@pytest.fixture(name="fixed_step_clock")
def fixed_step_clock_fixture():
    with fixed_step_clock():
        yield


@pytest.fixture
def nan_likelihood(monkeypatch):
    monkeypatch.setattr(
        "ramseydesign.particles.log_likelihood_general",
        lambda n_s, m_s, n_b, m_b, r, nu=-1.0: np.full(np.shape(r), np.nan),
    )
