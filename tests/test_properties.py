"""Invariants asserted over generated inputs (hypothesis)."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ctrlcost.oscillator import (FrequencySchedule, cd_validity_edge,  # noqa: E402
                                 classical_solutions, ermakov_solve,
                                 husimi_qstar, ie_energy)

BETA = 3.0


@settings(max_examples=20, deadline=None)
@given(omega0=st.floats(0.8, 2.0), omega1=st.floats(3.0, 12.0),
       stretch=st.floats(1.05, 4.0))
def test_quintic_sweep_invariants(omega0, omega1, stretch):
    # durations above the CD validity edge of each sweep
    tau = stretch * cd_validity_edge(omega0, omega1, bracket=(0.01, 50.0))
    sched = FrequencySchedule.quintic(omega0, omega1, tau)
    sol = classical_solutions(sched)
    assert np.max(np.abs(sol.wronskian() + 1.0)) < 1e-12
    q = husimi_qstar(sched, sol)
    assert np.all(q >= 1.0 - 1e-9)
    coth = 1.0 / math.tanh(BETA * omega0 / 2.0)
    q_b = ie_energy(sched, ermakov_solve(sched), BETA) / (0.5 * sched.omega(sol.times) * coth)
    assert np.max(np.abs(q - q_b)) < 1e-6
