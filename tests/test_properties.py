"""Invariants asserted over generated inputs (hypothesis)."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ctrlcost.oscillator import (FrequencySchedule, cd_validity_edge,  # noqa: E402
                                 classical_solutions, ermakov_solve,
                                 husimi_qstar, ie_energy,
                                 _exp_minus_identity, _near_identity_product)
from ctrlcost.twolevel import (_ordered_product, _prefix_scan, _qmul,  # noqa: E402
                               _su2_steps)

BETA = 3.0


@settings(max_examples=20, deadline=None)
@given(omega0=st.floats(0.8, 2.0), omega1=st.floats(3.0, 12.0),
       stretch=st.floats(1.05, 4.0))
def test_quintic_sweep_invariants(omega0, omega1, stretch):
    # durations above the CD validity edge of each sweep
    tau = stretch * cd_validity_edge(omega0, omega1)
    sched = FrequencySchedule.quintic(omega0, omega1, tau)
    sol = classical_solutions(sched)
    assert np.max(np.abs(sol.wronskian() + 1.0)) < 1e-12
    q = husimi_qstar(sched, sol)
    assert np.all(q >= 1.0 - 1e-9)
    coth = 1.0 / math.tanh(BETA * omega0 / 2.0)
    q_b = ie_energy(sched, ermakov_solve(sched), BETA) / (0.5 * sched.omega(sol.times) * coth)
    assert np.max(np.abs(q - q_b)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_prefix_scan_matches_sequential_products(n, seed):
    # odd lengths leave a tail out of the up-sweep's pairs
    rng = np.random.default_rng(seed)
    cx, cy, cz = rng.normal(0.0, 2.0, (3, n))
    cx[::7] = cy[::7] = cz[::7] = 0.0
    q = _su2_steps(cx, cy, cz, rng.uniform(0.01, 0.3, n))
    # the oscillator's CF4 factors, kept as M - I, with cosh steps where b < 0
    e = _exp_minus_identity(0.05, rng.uniform(-2.0, 6.0, n))
    for steps, mul in ((q, _qmul), (e, _near_identity_product)):
        scan = _prefix_scan(steps, mul)
        assert scan.shape == steps.shape
        prefix = steps[0]
        for k in range(n):
            if k:
                prefix = mul(steps[k], prefix)
            assert np.max(np.abs(scan[k] - prefix)) < 1e-13 * max(1.0, np.max(np.abs(prefix)))
    assert np.max(np.abs(_prefix_scan(q)[-1] - _ordered_product(q))) < 1e-13
