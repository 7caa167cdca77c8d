"""Ramp library: endpoint identities, analytic derivatives, blending, serde."""

import json
import math

import numpy as np
import pytest

from ctrlcost.ramps import (poly_smooth_ramp, oc_fourier_ramp, cd_na_ramp,
                            cd_a_ramp, cd_blended_ramp, blend_weight,
                            bob_pulse, ramp_from_dict)

DELTA, G0, G1 = 0.1, -0.2, 0.2


def all_kinds():
    na = cd_na_ramp(DELTA, G0, G1)
    a = cd_a_ramp(G0, 40.0)
    return [
        poly_smooth_ramp(G0, G1 - G0, 1.7),
        oc_fourier_ramp(G0, 10.0, [(0.1, 0.0), (0.05, 0.3), (-0.02, 1.1)]),
        na,
        a,
        cd_blended_ramp(a, na, 0.1, 7.0),
    ]


# ---------------------------------------------------------------------------
# quintic

def test_quintic_endpoint_values():
    r = poly_smooth_ramp(-0.2, 0.4, 1.0)
    assert r.value(0.0) == pytest.approx(-0.2, abs=0)
    assert r.value(1.0) == pytest.approx(0.2, abs=1e-16)


def test_quintic_midpoint_is_half_span():
    # 10/8 - 15/16 + 6/32 = 1/2 exactly
    r = poly_smooth_ramp(-0.2, 0.4, 1.0)
    assert float(r.value(0.5)) == pytest.approx(0.0, abs=1e-17)


@pytest.mark.parametrize("g0,gd,tau", [(-0.2, 0.4, 1.0), (1.0, 9.0, 2.5), (0.3, -1.1, 17.0)])
def test_quintic_flat_endpoints_machine_exact(g0, gd, tau):
    r = poly_smooth_ramp(g0, gd, tau)
    for t in (0.0, tau):
        assert float(r.deriv1(t)) == 0.0
        assert float(r.deriv2(t)) == 0.0


@pytest.mark.parametrize("g0,tau", [(-0.2, 1.0), (0.7, 22.142974355881808), (-12.8, 0.1)])
def test_antisymmetric_quintic_crosses_at_exactly_half_its_duration(g0, tau):
    # the crossing is a sample of the search grid, where g is exactly 0
    assert poly_smooth_ramp(g0, -2.0 * g0, tau).zeros() == (tau / 2.0,)


def test_zeros_skip_the_ends_and_refine_off_grid_crossings():
    # the Jaynes-Cummings sweep from g0 = 0 touches zero only at t = 0
    assert poly_smooth_ramp(0.0, 0.2, 10.0).zeros() == ()
    assert poly_smooth_ramp(0.3, 0.5, 2.0).zeros() == ()
    ramp = poly_smooth_ramp(-0.1, 0.4, 3.0)   # 10 x^3 - 15 x^4 + 6 x^5 = 1/4
    (z,) = ramp.zeros()
    assert abs(float(ramp.value(z))) < 1e-16
    # a Fourier ramp with several crossings, one found per sign change
    ramp = oc_fourier_ramp(-0.2, 10.0, [(0.0, 0.0), (0.0, 0.0), (0.5, 0.0)])
    zeros = ramp.zeros()
    assert len(zeros) == 3 and np.max(np.abs(ramp.value(np.array(zeros)))) < 1e-15


def test_quintic_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        poly_smooth_ramp(-0.2, 0.4, 0.0)
    with pytest.raises(ValueError):
        poly_smooth_ramp(-0.2, 0.4, -3.0)


# ---------------------------------------------------------------------------
# Fourier

def test_fourier_empty_is_linear():
    r = oc_fourier_ramp(-0.2, 10.0, [])
    t = np.linspace(0, 10, 11)
    assert np.allclose(r.value(t), -0.2 + 0.04 * t, atol=1e-15)
    assert r.value(0.0) == pytest.approx(-0.2)
    assert r.value(10.0) == pytest.approx(0.2)


def test_fourier_zero_phases_pin_endpoints():
    r = oc_fourier_ramp(-0.2, 3.0, [(0.3, 0.0), (0.2, 0.0), (-0.7, 0.0)])
    assert float(r.value(0.0)) == pytest.approx(-0.2, abs=1e-15)
    assert float(r.value(3.0)) == pytest.approx(0.2, abs=1e-15)


def test_fourier_sine_evaluation():
    # a_1 sin(pi/2 + pi/2) = 0 at the midpoint
    r = oc_fourier_ramp(-0.2, 1.0, [(0.1, math.pi / 2)])
    assert float(r.value(0.5)) == pytest.approx(0.0, abs=1e-16)


# ---------------------------------------------------------------------------
# regime-optimal ramps

def test_na_ramp_constants():
    # c1 Delta = arctan(g1/D) - arctan(g0/D) = 2 arctan(2)
    r = cd_na_ramp(DELTA, G0, G1)
    c1d = math.atan(G1 / DELTA) - math.atan(G0 / DELTA)
    assert c1d == pytest.approx(2.0 * math.atan(2.0), rel=1e-15)
    assert c1d == pytest.approx(2.214297435588181, rel=1e-12)
    # boundary residuals
    assert abs(float(r.value(0.0)) - G0) < 1e-12
    assert abs(float(r.value(1.0)) - G1) < 1e-12


def test_na_ramp_odd_symmetry():
    r = cd_na_ramp(DELTA, G0, G1)
    assert float(r.value(0.5)) == pytest.approx(0.0, abs=1e-15)
    s = np.linspace(0.05, 0.45, 9)
    assert np.allclose(r.value(0.5 + s), -r.value(0.5 - s), atol=1e-13)


def test_na_ramp_degenerate_boundaries_constant():
    r = cd_na_ramp(DELTA, 0.3, 0.3)
    s = np.linspace(0, 1, 7)
    assert np.allclose(r.value(s), 0.3)
    assert np.allclose(r.deriv1(s), 0.0)


def test_na_asymptotic_cost_constant_norm():
    # the CD norm is flat along the tan ramp: |g' D / (D^2+g^2)| / sqrt(2)
    r = cd_na_ramp(DELTA, G0, G1)
    s = np.linspace(0.0, 1.0, 101)
    g, gp = r.value(s), r.deriv1(s)
    norm = np.abs(gp) * DELTA / (np.sqrt(2.0) * (DELTA**2 + g**2))
    expected = 2.0 * math.atan(2.0) / math.sqrt(2.0)
    assert np.allclose(norm, expected, rtol=1e-12)
    assert expected == pytest.approx(1.5657, abs=1e-4)


def test_a_ramp_saturated_endpoints():
    r = cd_a_ramp(G0, 40.0)
    assert float(r.value(0.0)) == pytest.approx(G0, abs=1e-16)
    assert float(r.value(1.0)) == pytest.approx(-G0, abs=1e-16)
    assert float(r.value(0.5)) == pytest.approx(0.0, abs=1e-16)


# ---------------------------------------------------------------------------
# blending

def test_blend_weight_limits():
    assert blend_weight(0.1, 1e-9) == pytest.approx(0.0, abs=1e-9)
    assert blend_weight(0.1, 1e12) == pytest.approx(1.0, abs=1e-9)
    # arctan(1) = pi/4 -> f = 1/2
    assert blend_weight(0.1, 10.0) == pytest.approx(0.5, rel=1e-14)


def test_blended_limits_select_regimes():
    na = cd_na_ramp(DELTA, G0, G1)
    a = cd_a_ramp(G0, 40.0)
    s = np.linspace(0, 1, 41)
    fast = cd_blended_ramp(a, na, 0.1, 1e-8)
    assert np.allclose(fast.value(s * 1e-8), na.value(s), atol=1e-8)
    slow = cd_blended_ramp(a, na, 0.1, 1e9)
    assert np.allclose(slow.value(s * 1e9), a.value(s), atol=1e-8)


def test_blended_pointwise_convex_combination():
    na = cd_na_ramp(DELTA, G0, G1)
    a = cd_a_ramp(G0, 40.0)
    for tau in (0.3, 7.0, 80.0):
        r = cd_blended_ramp(a, na, 0.1, tau)
        s = np.linspace(0, 1, 401)
        gc = r.value(s * tau)
        lo = np.minimum(a.value(s), na.value(s))
        hi = np.maximum(a.value(s), na.value(s))
        assert np.all(gc >= lo - 1e-14)
        assert np.all(gc <= hi + 1e-14)


def test_blended_rejects_boundary_mismatch():
    na = cd_na_ramp(DELTA, G0, 0.3)   # asymmetric target
    a = cd_a_ramp(G0, 40.0)           # tanh form bakes in g1 = -g0
    with pytest.raises(ValueError, match="boundary mismatch"):
        cd_blended_ramp(a, na, 0.1, 5.0)


# ---------------------------------------------------------------------------
# derivative consistency (all kinds)

@pytest.mark.parametrize("idx", range(5))
def test_finite_difference_derivatives(idx, rng):
    # 5-point central differences vs closed forms at 100 random interior
    # points; relative error < 1e-6 w.r.t. the derivative scale of the ramp
    # (a pure ratio is meaningless where tanh saturation makes the exact
    # derivative underflow)
    ramp = all_kinds()[idx]
    tau = ramp.duration
    t = rng.uniform(0.02 * tau, 0.98 * tau, size=100)
    h = 3e-4 * tau
    probe = np.linspace(0.01 * tau, 0.99 * tau, 513)
    scale1 = np.max(np.abs(ramp.deriv1(probe)))
    scale2 = np.max(np.abs(ramp.deriv2(probe)))
    vm2, vm1, v0, vp1, vp2 = (ramp.value(t + k * h) for k in (-2, -1, 0, 1, 2))

    fd1 = (vm2 - 8 * vm1 + 8 * vp1 - vp2) / (12 * h)
    err1 = np.abs(fd1 - ramp.deriv1(t)) / np.maximum(np.abs(ramp.deriv1(t)), 1e-2 * scale1)
    assert np.max(err1) < 1e-6

    fd2 = (-vm2 + 16 * vm1 - 30 * v0 + 16 * vp1 - vp2) / (12 * h**2)
    err2 = np.abs(fd2 - ramp.deriv2(t)) / np.maximum(np.abs(ramp.deriv2(t)), 1e-2 * scale2)
    assert np.max(err2) < 1e-6


@pytest.mark.parametrize("ramp",
                         all_kinds() + [oc_fourier_ramp(G0, 10.0), cd_na_ramp(DELTA, 0.3, 0.3)],
                         ids=["polynomial", "fourier", "tan-optimal", "tanh-optimal", "blended",
                              "fourier-empty", "tan-degenerate"])
def test_rows_keep_the_shape_of_t(ramp):
    # one closed form serves scalar, 1-D and 2-D times, the empty Fourier
    # series and the degenerate tan ramp included
    for t in (0.37, np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 12).reshape(3, 4)):
        rows = ramp.rows(np.multiply(t, ramp.duration))
        assert len(rows) == 3
        for row in rows:
            assert np.shape(row) == np.shape(t)
            assert np.all(np.isfinite(row))


# ---------------------------------------------------------------------------
# BOB pulse

def test_bob_pulse_amplitude_profile():
    p = bob_pulse(100.0, 22.14, (math.pi / 2, math.pi / 2))
    assert p.tau_b1 == pytest.approx(math.pi / 200)
    t = np.array([1e-4, 11.0, 22.13])
    assert np.allclose(p.amplitude(t), [100.0, 0.0, -100.0])


def test_bob_pulse_zero_kicks_is_field_free():
    p = bob_pulse(100.0, 5.0, (0.0, 0.0))
    t = np.linspace(0, 5, 23)
    assert np.allclose(p.amplitude(t), 0.0)


def test_bob_pulse_rejects_overlapping_kicks():
    with pytest.raises(ValueError, match="overlap"):
        bob_pulse(1.0, 2.0, (1.5, 0.0))


def test_bob_pulse_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bob_pulse(-1.0, 5.0, (0.1, 0.1))
    with pytest.raises(ValueError):
        bob_pulse(100.0, 5.0, (7.0, 0.1))  # angle outside [0, 2 pi)


# ---------------------------------------------------------------------------
# serialization

@pytest.mark.parametrize("idx", range(5))
def test_json_roundtrip(idx):
    ramp = all_kinds()[idx]
    clone = ramp_from_dict(json.loads(json.dumps(ramp.to_dict())))
    t = np.linspace(0.01, 0.99, 17) * ramp.duration
    assert clone.kind == ramp.kind
    assert np.allclose(clone.value(t), ramp.value(t), rtol=0, atol=0)
    assert np.allclose(clone.deriv1(t), ramp.deriv1(t), rtol=0, atol=0)
    assert np.allclose(clone.deriv2(t), ramp.deriv2(t), rtol=0, atol=0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown ramp kind"):
        ramp_from_dict({"kind": "spline", "parameters": {}})
