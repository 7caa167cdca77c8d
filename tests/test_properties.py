"""Invariants asserted over generated inputs (hypothesis)."""

import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from ctrlcost.jaynes_cummings import JcConfig, jc_schedule  # noqa: E402
from ctrlcost.landau_zener import LzConfig, cost_scan, lz_schedule  # noqa: E402
from ctrlcost.ramps import (cd_a_ramp, cd_blended_ramp, cd_na_ramp,  # noqa: E402
                            oc_fourier_ramp, poly_smooth_ramp, ramp_from_dict)
from ctrlcost.oscillator import (cd_validity_edge,  # noqa: E402
                                 classical_solutions, ermakov_solve,
                                 husimi_qstar, ie_energy,
                                 _exp_minus_identity, _near_identity_product)
from ctrlcost.twolevel import (PauliSchedule, instantaneous_eigenstates,  # noqa: E402
                               integrated_cost, propagate, _ordered_product, _prefix_scan,
                               _qmul, _su2_steps)

BETA = 3.0


@settings(max_examples=20, deadline=None)
@given(omega0=st.floats(0.8, 2.0), omega1=st.floats(3.0, 12.0),
       stretch=st.floats(1.05, 4.0))
def test_quintic_sweep_invariants(omega0, omega1, stretch):
    # durations above the CD validity edge of each sweep
    tau = stretch * cd_validity_edge(omega0, omega1)
    omega = poly_smooth_ramp(omega0, omega1 - omega0, tau)
    sol = classical_solutions(omega)
    assert np.max(np.abs(sol.wronskian() + 1.0)) < 1e-12
    q = husimi_qstar(omega, sol)
    assert np.all(q >= 1.0 - 1e-9)
    coth = 1.0 / math.tanh(BETA * omega0 / 2.0)
    q_b = ie_energy(omega, ermakov_solve(omega), BETA) / (0.5 * omega.value(sol.times) * coth)
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


# ---------------------------------------------------------------------------
# two-level propagation over generated smooth schedules


@st.composite
def smooth_fields(draw, tau=None):
    """(duration, t -> (cx, cy, cz)): sine series about a constant field with |cx| >= 0.05."""
    tau = draw(st.floats(0.1, 50.0)) if tau is None else tau
    offsets = (draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    amps = [[draw(st.floats(-0.15, 0.15)) for _ in range(3)] for _ in offsets]

    def fields(t):
        return tuple(c + sum(a * np.sin((k + 1) * np.pi * t / tau) for k, a in enumerate(row))
                     for c, row in zip(offsets, amps))

    return tau, fields


@settings(max_examples=40, deadline=None)
@given(sweep=smooth_fields(), c0=st.floats(-50.0, 50.0), shift=st.floats(-50.0, 50.0),
       steps=st.integers(16, 2000), theta=st.floats(0.0, math.pi),
       phi=st.floats(0.0, 2.0 * math.pi))
def test_propagation_is_unitary_and_blind_to_identity_shifts(sweep, c0, shift, steps,
                                                              theta, phi):
    tau, fields = sweep
    base = PauliSchedule(duration=tau, fields=lambda t: (c0, *fields(t)))
    shifted = PauliSchedule(duration=tau, fields=lambda t: (c0 + shift, *fields(t)))
    psi0 = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
    a, b = propagate(base, psi0, steps), propagate(shifted, psi0, steps)
    for traj in (a, b):
        assert np.max(np.abs(traj.norms() - 1.0)) <= 1e-12
    # c0 only multiplies every state by a phase, and the cost excludes it
    assert np.max(np.abs(a.fidelity - b.fidelity)) <= 1e-12
    assert integrated_cost(shifted) == pytest.approx(integrated_cost(base), rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), c0=st.floats(-5.0, 5.0), steps=st.integers(16, 2000),
       theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2.0 * math.pi),
       phase=st.floats(0.0, 2.0 * math.pi))
def test_fidelity_is_the_overlap_with_the_tracked_reference_eigenstate(data, c0, steps, theta,
                                                                      phi, phase):
    # the fidelity series comes from Bloch rotations of psi0; the oracle takes
    # |<e|psi>|^2 from the stored states and eigenvectors of another schedule
    tau, fields = data.draw(smooth_fields())
    _, ref_fields = data.draw(smooth_fields(tau))
    sched = PauliSchedule(duration=tau, fields=lambda t: (c0, *fields(t)))
    ref = PauliSchedule(duration=tau, fields=lambda t: (-c0, *ref_fields(t)))
    psi0 = np.exp(1j * phase) * np.array([math.cos(theta / 2),
                                          np.exp(1j * phi) * math.sin(theta / 2)])
    traj = propagate(sched, psi0, steps, reference=ref)
    gnd, exc, _, _ = instantaneous_eigenstates(ref, traj.times)
    overlaps = [np.abs(np.einsum("ij,ij->i", e.conj(), traj.states)) ** 2 for e in (gnd, exc)]
    assume(abs(overlaps[0][0] - overlaps[1][0]) > 1e-9)   # the branch is defined at t = 0
    want = overlaps[0] if overlaps[0][0] > overlaps[1][0] else overlaps[1]
    assert np.max(np.abs(traj.fidelity - want)) <= 1e-12


# ---------------------------------------------------------------------------
# Jaynes-Cummings blocks against their own written-out closed forms


def jc_block_oracle(kind, delta, omega, n, g, gd, gdd):
    """(c0, cx, cy, cz) of JC block n from the coupling rows g, g', g''.

    The dressed-frame closed forms, written out in the block's own terms
    (Rabi frequency 2 sqrt(n+1) g), not through the Landau-Zener map:
      bare: cx = delta, cz = -2 sqrt(n+1) g;
      cd:   cy = 2 g' sqrt(n+1) delta / (delta^2 + 4 (n+1) g^2), twice the
            mixing-angle rate;
      lcd:  cx = sqrt(delta^2 + 4 (n+1) g'^2 delta^2 / (delta^2 + 4 (n+1) g^2)^2),
            cz = -2 sqrt(n+1) [g + ((delta^2 + 4(n+1) g^2) g'' - 8 (n+1) g g'^2)
                                   / ((delta^2 + 4(n+1) g^2)^2 + 4 (n+1) g'^2)].
    """
    np1, rt, d = n + 1.0, math.sqrt(n + 1.0), delta
    zero = np.zeros_like(g)
    c0 = np.full_like(g, (2 * n + 1) * omega / 2.0)
    r2 = d * d + 4.0 * np1 * g * g
    if kind == "bare":
        return c0, zero + d, zero, -2.0 * rt * g
    if kind == "cd":
        return c0, zero + d, 2.0 * gd * rt * d / r2, -2.0 * rt * g
    cx = np.sqrt(d * d + 4.0 * np1 * gd * gd * d * d / (r2 * r2))
    cz = -2.0 * rt * (g + (r2 * gdd - 8.0 * np1 * g * gd * gd) / (r2 * r2 + 4.0 * np1 * gd * gd))
    return c0, cx, zero, cz


@settings(max_examples=60, deadline=None)
@given(delta=st.floats(0.02, 1.0), sign=st.sampled_from((-1.0, 1.0)),
       n=st.integers(0, 60), g0=st.floats(-1.0, 1.0), g1=st.floats(-1.0, 1.0),
       tau=st.floats(0.1, 100.0), omega=st.floats(0.1, 5.0))
def test_jc_blocks_match_their_closed_forms(delta, sign, n, g0, g1, tau, omega):
    cfg = JcConfig(tau=tau, omega=omega, delta=sign * delta, g0=g0, g1=g1)
    t = np.linspace(0.0, tau, 65)
    # the default quintic coupling g0 -> g1, written out here
    x, dg = t / tau, g1 - g0
    rows = (g0 + dg * (10 * x**3 - 15 * x**4 + 6 * x**5),
            dg * 30 * (x**2 - 2 * x**3 + x**4) / tau,
            dg * (60 * x - 180 * x**2 + 120 * x**3) / tau**2)
    for kind in ("bare", "cd", "lcd"):
        got = np.array(jc_schedule(cfg, kind, n).coefficients(t))
        want = np.array(jc_block_oracle(kind, cfg.delta, omega, n, *rows))
        assert np.array_equal(got[0], np.full_like(t, (2 * n + 1) * omega / 2.0))
        # relative to the field's size |(cx, cy, cz)| >= |delta|, so cz's zero crossing counts too
        size = np.linalg.norm(want[1:], axis=0)
        assert np.max(np.abs(got[1:] - want[1:]) / size) < 1e-12, kind


# ---------------------------------------------------------------------------
# scaled-time cost scans against the real-time builders


@settings(max_examples=25, deadline=None)
@given(delta=st.floats(0.02, 1.0), g0=st.floats(-1.0, -0.02), n=st.integers(0, 40),
       taus=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=5))
@example(delta=0.02, g0=-1.0, n=33, taus=[3.0])   # cd-blend's real-time cost once sat 1.25e-12 off
def test_scan_rows_are_the_real_time_costs_and_do_not_depend_on_the_batch(delta, g0, n, taus):
    # an antisymmetric sweep (the blend needs g1 = -g0) at a JC block's scale -2 sqrt(n+1)
    g = -2.0 * math.sqrt(n + 1.0) * g0
    cfg = LzConfig(tau=1.0, delta=delta, g0=g, g1=-g)
    protocols = ("bare", "cd", "lcd", "cd-blend")
    batch = cost_scan(cfg, taus, protocols)
    for i, tau in enumerate(taus):
        at = LzConfig(tau=tau, delta=delta, g0=g, g1=-g)
        for p in protocols:
            sched = lz_schedule(at, p)
            assert batch[p][i] == pytest.approx(integrated_cost(sched, 8192), rel=1e-12), p
            assert cost_scan(cfg, [tau], (p,))[p][0] == batch[p][i], p


# ---------------------------------------------------------------------------
# ramps of every kind: derivatives and serialization


@st.composite
def ramps(draw):
    """A ramp of a drawn kind with drawn parameters, away from singular cases."""
    kind = draw(st.sampled_from(("polynomial", "fourier", "tan-optimal", "tanh-optimal",
                                 "blended", "constant")))
    g0 = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from((-1.0, 1.0)))
    delta = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from((-1.0, 1.0)))
    tau = draw(st.floats(0.1, 100.0))
    if kind == "polynomial":
        return poly_smooth_ramp(g0, draw(st.floats(-2.0, 2.0)), tau)
    if kind == "fourier":
        coeffs = draw(st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-3.0, 3.0)),
                               max_size=4))
        return oc_fourier_ramp(g0, tau, coeffs)
    if kind == "tan-optimal":
        g1 = draw(st.floats(-1.0, 1.0))
        assume(abs(g1 - g0) >= 0.1)
        return cd_na_ramp(delta, g0, g1)
    if kind == "constant":
        return cd_na_ramp(delta, g0, g0)
    if kind == "tanh-optimal":
        return cd_a_ramp(g0, draw(st.floats(2.0, 60.0)))
    # the blend's boundary test needs tanh(m) = 1 to 1e-9 and g1 = -g0
    return cd_blended_ramp(cd_a_ramp(g0, draw(st.floats(15.0, 60.0))),
                           cd_na_ramp(delta, g0, -g0), draw(st.floats(0.01, 1.0)), tau)


@settings(max_examples=80, deadline=None)
@given(ramp=ramps())
def test_ramp_derivatives_match_central_differences(ramp):
    tau = ramp.duration
    t = np.linspace(0.01, 0.99, 99) * tau
    h = 1e-5 * tau
    g, d1, d2 = ramp.rows(t)
    # tolerances scale with the ramp's own sizes, so constant ramps and
    # saturated tanh tails are held to round-off, not to a ratio
    scale1 = np.max(np.abs(d1)) + np.max(np.abs(g)) / tau
    scale2 = np.max(np.abs(d2)) + scale1 / tau
    fd1 = (ramp.value(t + h) - ramp.value(t - h)) / (2 * h)
    fd2 = (ramp.deriv1(t + h) - ramp.deriv1(t - h)) / (2 * h)
    assert np.max(np.abs(fd1 - d1)) < 1e-6 * scale1
    assert np.max(np.abs(fd2 - d2)) < 1e-6 * scale2


@settings(max_examples=60, deadline=None)
@given(ramp=ramps())
def test_ramp_round_trips_through_its_dict(ramp):
    t = np.linspace(0.0, 1.0, 33) * ramp.duration
    for d in (ramp.to_dict(), json.loads(json.dumps(ramp.to_dict()))):
        clone = ramp_from_dict(d)
        assert clone.kind == ramp.kind and clone.duration == ramp.duration
        for a, b in zip(clone.rows(t), ramp.rows(t)):
            assert np.array_equal(a, b)
