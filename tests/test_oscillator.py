"""Oscillator engine: classical solutions, Q*, Ermakov, validity, costs."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from ctrlcost import oscillator
from ctrlcost.ramps import Ramp, poly_smooth_ramp
from ctrlcost.oscillator import (classical_solutions, husimi_qstar, lcd_frequency,
                                 qstar_series, oscillator_cost,
                                 cd_is_valid, cd_validity_edge, lcd_is_valid,
                                 default_steps, CdValidityError, LcdValidityError,
                                 OscillatorError, _closed_form)

from oracles import ermakov_solve, ie_energy

W0, W1, BETA = 1.0, 10.0, 3.0
COTH = 1.0 / math.tanh(BETA * W0 / 2.0)


def random_smooth_schedule(seed=19, tau=2.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.15, 3)

    def rows(t):
        return (1.5 + sum(ak * np.sin((k + 1) * np.pi * t / tau)
                          for k, ak in enumerate(a)),
                sum(ak * (k + 1) * np.pi / tau * np.cos((k + 1) * np.pi * t / tau)
                    for k, ak in enumerate(a)),
                sum(-ak * ((k + 1) * np.pi / tau) ** 2 * np.sin((k + 1) * np.pi * t / tau)
                    for k, ak in enumerate(a)))

    return Ramp("sine series", tau, {}, rows)


# ---------------------------------------------------------------------------
# classical solutions

def test_constant_frequency_closed_forms():
    omega = poly_smooth_ramp(2.0, 0.0, 3.0)
    sol = classical_solutions(omega, steps=6000)
    t = sol.times
    assert np.allclose(sol.X, np.sin(2.0 * t) / 2.0, atol=1e-10)
    assert np.allclose(sol.Y, np.cos(2.0 * t), atol=1e-10)


def test_wronskian_conserved():
    for omega in (poly_smooth_ramp(W0, W1 - W0, 1.6),
                  poly_smooth_ramp(W0, W1 - W0, 2.5),
                  poly_smooth_ramp(W0, W1 - W0, 50.0),
                  random_smooth_schedule()):
        sol = classical_solutions(omega)
        assert np.max(np.abs(sol.wronskian() + 1.0)) < 1e-8


def test_wronskian_drift_raises_without_a_refined_retry(monkeypatch):
    # in an inverted trap (Omega^2 = -1) the growing solution's round-off
    # drifts the Wronskian; unimodular steps cannot lower it, so one pass raises
    calls = []
    fundamental_matrix = oscillator._fundamental_matrix
    monkeypatch.setattr(oscillator, "_fundamental_matrix",
                        lambda *a: calls.append(a[2]) or fundamental_matrix(*a))
    with pytest.raises(OscillatorError, match=r"Wronskian drift .* at 4000 steps"):
        classical_solutions(poly_smooth_ramp(W0, 0.0, 12.0), steps=4000,
                            omega2=lambda t: -np.ones_like(t))
    assert calls == [4000]


def test_piecewise_constant_quench_matches_analytic():
    # integrate a sudden w0 -> w1 quench segment by segment; the stepper must
    # reproduce the closed-form matching of (X, X') across the jump
    t1, t2 = 0.8, 1.1
    seg1 = poly_smooth_ramp(W0, 0.0, t1)
    sol1 = classical_solutions(seg1, steps=4000)
    x_end, v_end = sol1.X[-1], sol1.Xd[-1]
    # analytic continuation under w1 from those initial conditions
    assert x_end == pytest.approx(math.sin(W0 * t1) / W0, abs=1e-10)
    tt = np.linspace(0.0, t2, 7)
    exact = x_end * np.cos(W1 * tt) + (v_end / W1) * np.sin(W1 * tt)
    seg2 = poly_smooth_ramp(W1, 0.0, t2)
    sol2 = classical_solutions(seg2, steps=8000)
    got = np.interp(tt, sol2.times, x_end * sol2.Y + v_end * sol2.X)
    assert np.allclose(got, exact, atol=1e-9)


def test_fourth_order_convergence():
    omega = random_smooth_schedule(seed=23)
    ref = classical_solutions(omega, steps=2**15)
    errs = []
    for n in (128, 256, 512):
        sol = classical_solutions(omega, steps=n)
        errs.append(abs(sol.X[-1] - ref.X[-1]) + abs(sol.Xd[-1] - ref.Xd[-1]))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert 12.0 < r1 < 21.0
    assert 12.0 < r2 < 21.0


@pytest.mark.parametrize("tau", [1.6, 2.5])
@pytest.mark.parametrize("protocol", ["bare", "lcd"])
def test_classical_pair_matches_solve_ivp(tau, protocol):
    omega = poly_smooth_ramp(W0, W1 - W0, tau)
    omega2 = (lambda t: lcd_frequency(omega, t)) if protocol == "lcd" else None
    w2 = omega2 or (lambda t: omega.value(t) ** 2)
    sol = classical_solutions(omega, omega2=omega2)
    at = np.arange(0, len(sol.times), 97)
    ref = solve_ivp(lambda t, y: [y[1], -w2(t) * y[0], y[3], -w2(t) * y[2]],
                    (0.0, tau), [0.0, 1.0, 1.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=sol.times[at])
    got = np.array([sol.X[at], sol.Xd[at], sol.Y[at], sol.Yd[at]])
    assert np.max(np.abs(got - ref.y)) < 1e-10


def test_inverted_trap_closed_forms():
    # omega^2 = -kappa^2 < 0 takes the cosh branch of every step
    kappa = 1.5
    omega = poly_smooth_ramp(W0, 0.0, 2.0)
    sol = classical_solutions(omega, steps=4000,
                              omega2=lambda t: np.full_like(t, -kappa**2))
    t = sol.times
    assert np.allclose(sol.X, np.sinh(kappa * t) / kappa, rtol=1e-12, atol=0.0)
    assert np.allclose(sol.Xd, np.cosh(kappa * t), rtol=1e-12, atol=0.0)
    assert np.allclose(sol.Y, np.cosh(kappa * t), rtol=1e-12, atol=0.0)
    assert np.allclose(sol.Yd, kappa * np.sinh(kappa * t), rtol=1e-12, atol=0.0)


def test_free_particle_closed_forms():
    # omega^2 = 0 takes the k -> 0 limit of every step: X = t, Y = 1
    omega = poly_smooth_ramp(W0, 0.0, 3.0)
    sol = classical_solutions(omega, steps=4000, omega2=np.zeros_like)
    t = sol.times
    assert np.max(np.abs(sol.X - t)) < 1e-12
    assert np.max(np.abs(sol.Xd - 1.0)) < 1e-12
    assert np.max(np.abs(sol.Y - 1.0)) < 1e-12
    assert np.max(np.abs(sol.Yd)) < 1e-12


def test_wronskian_round_off_at_40k_steps():
    for omega in (poly_smooth_ramp(W0, W1 - W0, 1.6),
                  poly_smooth_ramp(W0, W1 - W0, 2.5),
                  poly_smooth_ramp(W0, W1 - W0, 50.0),
                  random_smooth_schedule()):
        sol = classical_solutions(omega, steps=40_000)
        assert np.max(np.abs(sol.wronskian() + 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# Husimi Q*

def test_qstar_constant_is_one():
    omega = poly_smooth_ramp(W0, 0.0, 4.0)
    sol = classical_solutions(omega, steps=4000)
    assert np.allclose(husimi_qstar(omega, sol), 1.0, atol=1e-12)


def test_qstar_sudden_quench():
    # free solutions cross an instantaneous step w0 -> w1 at t = 0:
    # Q* = (w0^2 + w1^2)/(2 w0 w1) = 5.05 for (1, 10)
    omega = poly_smooth_ramp(W1, 0.0, 1.0)
    sol = classical_solutions(omega, steps=4000)
    q = husimi_qstar(omega, sol, omega_ref=W0)
    assert np.allclose(q, (W0**2 + W1**2) / (2 * W0 * W1), atol=1e-10)
    assert np.allclose(q, 5.05, atol=1e-10)


@pytest.mark.parametrize("tau", [1.6, 2.5, 8.0])
def test_qstar_at_least_one(tau):
    omega = poly_smooth_ramp(W0, W1 - W0, tau)
    _, q = qstar_series(omega, "bare")
    assert np.all(q >= 1.0 - 1e-12)


def test_qstar_rejects_nonpositive_frequency():
    omega = poly_smooth_ramp(2.0, 0.0, 1.0)
    sol = classical_solutions(omega, steps=1000)
    bad = Ramp("constant", 1.0, {}, lambda t: (-np.ones_like(t), *omega.rows(t)[1:]))
    with pytest.raises(OscillatorError, match="positive"):
        husimi_qstar(bad, sol)


# ---------------------------------------------------------------------------
# CD

def test_qstar_cd_closed_form_cases():
    omega = poly_smooth_ramp(W0, 0.0, 1.0)
    assert float(_closed_form(omega, "cd", 0.5)[1]) == 1.0
    omega = poly_smooth_ramp(W0, W1 - W0, 2.5)
    t = np.linspace(0, 2.5, 101)
    q = _closed_form(omega, "cd", t)[1]
    w, wd = omega.value(t), omega.deriv1(t)
    assert np.allclose(q, (1 - wd**2 / (4 * w**4)) ** -0.5, rtol=1e-14)
    assert q[0] == 1.0 and q[-1] == 1.0


def test_cd_validity_error_carries_time():
    omega = poly_smooth_ramp(W0, W1 - W0, 1.0)  # below the edge
    assert not cd_is_valid(omega)
    with pytest.raises(CdValidityError) as err:
        _closed_form(omega, "cd", np.linspace(0, 1, 2001))
    assert 0.0 < err.value.t < 1.0


def test_cd_validity_edge_location():
    edge = cd_validity_edge(W0, W1)
    assert edge == pytest.approx(1.52, rel=0.02)
    assert cd_is_valid(poly_smooth_ramp(W0, W1 - W0, edge * 1.01))
    assert not cd_is_valid(poly_smooth_ramp(W0, W1 - W0, edge * 0.99))


def test_cd_validity_edge_off_the_default_sweep():
    # the bracket follows omega0 and omega1: a compression and the matching
    # decompression share their edge, and a constant trap has none
    up, down = cd_validity_edge(2.0, 3.0), cd_validity_edge(3.0, 2.0)
    assert up == pytest.approx(0.161, abs=1e-3)
    assert down == pytest.approx(up, abs=2e-4)
    assert cd_is_valid(poly_smooth_ramp(2.0, 1.0, up * 1.01))
    assert not cd_is_valid(poly_smooth_ramp(2.0, 1.0, up * 0.99))
    assert cd_validity_edge(2.0, 2.0) == 0.0


@pytest.mark.parametrize("w0, w1", [(1.0, 10.0), (2.0, 3.0), (3.0, 2.0), (0.8, 12.0)])
def test_cd_validity_edge_is_the_smallest_valid_duration(w0, w1):
    # the edge is the least duration cd_is_valid accepts, and sits on the
    # continuous maximum of h(x) = 15 |w1 - w0| x^2 (1 - x)^2 / w(x)^2
    edge = cd_validity_edge(w0, w1)
    assert cd_is_valid(poly_smooth_ramp(w0, w1 - w0, edge * (1.0 + 1e-12)))
    assert not cd_is_valid(poly_smooth_ramp(w0, w1 - w0, edge * (1.0 - 1e-9)))
    w = poly_smooth_ramp(w0, w1 - w0, 1.0)
    res = minimize_scalar(lambda x: -15.0 * abs(w1 - w0) * x**2 * (1 - x) ** 2 / w.value(x) ** 2,
                          bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
    assert edge == pytest.approx(-res.fun, rel=1e-6)


def test_qstar_cd_diverges_toward_violation():
    edge = cd_validity_edge(W0, W1)
    taus = [edge * f for f in (1.5, 1.2, 1.05, 1.01)]
    peaks = []
    for tau in taus:
        omega = poly_smooth_ramp(W0, W1 - W0, tau)
        peaks.append(float(np.max(_closed_form(omega, "cd", np.linspace(0, tau, 4001))[1])))
    assert np.all(np.diff(peaks) > 0)


# ---------------------------------------------------------------------------
# LCD

def test_lcd_frequency_constant_and_endpoints():
    omega = poly_smooth_ramp(3.0, 0.0, 1.0)
    assert np.allclose(lcd_frequency(omega, np.linspace(0, 1, 5)), 9.0)
    omega = poly_smooth_ramp(W0, W1 - W0, 2.5)
    assert float(lcd_frequency(omega, 0.0)) == pytest.approx(W0**2, rel=1e-14)
    assert float(lcd_frequency(omega, 2.5)) == pytest.approx(W1**2, rel=1e-14)
    assert math.sqrt(float(lcd_frequency(omega, 0.0))) == pytest.approx(W0, rel=1e-14)


def test_lcd_qstar_returns_to_one():
    for tau in (1.6, 2.5):
        omega = poly_smooth_ramp(W0, W1 - W0, tau)
        _, q = qstar_series(omega, "lcd")
        assert q[0] == pytest.approx(1.0, abs=1e-10)
        assert q[-1] == pytest.approx(1.0, abs=1e-8)


def test_lcd_sign_reported_not_raised():
    omega = poly_smooth_ramp(W0, W1 - W0, 0.3)
    om2 = lcd_frequency(omega, np.linspace(0, 0.3, 301))
    assert np.any(om2 < 0)  # reported as data
    assert not lcd_is_valid(omega)


# ---------------------------------------------------------------------------
# Ermakov / IE

def test_ermakov_constant_fixed_point():
    omega = poly_smooth_ramp(W0, 0.0, 5.0)
    _, b, _ = ermakov_solve(omega, steps=5000)
    assert np.max(np.abs(b - 1.0)) < 1e-10


def test_ermakov_adiabatic_limit():
    omega = poly_smooth_ramp(W0, W1 - W0, 60.0)
    _, b, _ = ermakov_solve(omega)
    assert b[-1] == pytest.approx(math.sqrt(W0 / W1), abs=2e-4)
    assert np.all(b > 0)


def test_qstar_cross_oracle_xy_vs_ermakov():
    # Husimi route vs the b-route energy ratio on the bare schedule
    omega = poly_smooth_ramp(W0, W1 - W0, 2.5)
    steps = 40_000
    sol = classical_solutions(omega, steps)
    erm = ermakov_solve(omega, steps)
    q_xy = husimi_qstar(omega, sol)
    energy = ie_energy(omega, *erm, BETA)
    q_b = energy / (0.5 * omega.value(sol.times) * COTH)
    assert np.max(np.abs(q_xy - q_b)) < 1e-6


@pytest.mark.parametrize("tau", [1.6, 2.5])
def test_pinney_relation_gives_the_ermakov_scale(tau):
    # b = sqrt(Y^2 + w0^2 X^2) solves the Ermakov equation with b(0) = 1, b'(0) = 0
    # (Pinney 1950); it is the route demo 03 prints, held here to the RK4 oracle
    omega = poly_smooth_ramp(W0, W1 - W0, tau)
    sol = classical_solutions(omega, 40_000)
    _, b_rk4, bd_rk4 = ermakov_solve(omega, 40_000)
    b = np.sqrt(sol.Y**2 + W0**2 * sol.X**2)
    bd = (sol.Y * sol.Yd + W0**2 * sol.X * sol.Xd) / b
    assert np.max(np.abs(b - b_rk4) / b_rk4) < 1e-12
    assert np.max(np.abs(bd - bd_rk4)) < 1e-11 * np.max(np.abs(bd_rk4))


def test_ie_energy_thermal_start():
    omega = poly_smooth_ramp(W0, W1 - W0, 2.5)
    erm = ermakov_solve(omega, steps=2000)
    e0 = float(ie_energy(omega, *erm, BETA)[0])
    assert e0 == pytest.approx(0.5 * COTH, rel=1e-12)
    assert e0 == pytest.approx(0.5524, abs=5e-5)


def test_qstar_ie_closed_form():
    omega = poly_smooth_ramp(W0, 0.0, 1.0)
    assert float(_closed_form(omega, "ie", 0.3)[1]) == 1.0
    omega = poly_smooth_ramp(W0, W1 - W0, 2.5)
    t = np.linspace(0, 2.5, 301)
    q = _closed_form(omega, "ie", t)[1]
    assert np.all(q >= 1.0)
    assert np.allclose(q, 1 + omega.deriv1(t) ** 2 / (8 * omega.value(t) ** 4),
                       rtol=1e-15)
    # peak location and magnitude from a dense closed-form grid
    tt = np.linspace(0, 2.5, 200_001)
    qq = 1 + omega.deriv1(tt) ** 2 / (8 * omega.value(tt) ** 4)
    assert float(np.max(q)) <= float(np.max(qq)) + 1e-12


# ---------------------------------------------------------------------------
# costs

def test_cost_long_duration_limit():
    # Q* -> 1 for every protocol: C -> (coth/2) * mean omega = 2.75 coth(1.5)
    omega = poly_smooth_ramp(W0, W1 - W0, 50.0)
    target = 2.75 * COTH
    for proto in ("cd", "lcd", "ie", "bare"):
        assert oscillator_cost(omega, proto, BETA) == pytest.approx(target, rel=0.01)
    assert target == pytest.approx(3.0382, abs=1e-4)


@pytest.mark.parametrize("tau", [1.6, 2.5])
def test_protocol_cost_ordering(tau):
    omega = poly_smooth_ramp(W0, W1 - W0, tau)
    c_cd = oscillator_cost(omega, "cd", BETA)
    c_lcd = oscillator_cost(omega, "lcd", BETA)
    c_ie = oscillator_cost(omega, "ie", BETA)
    assert c_ie <= c_lcd
    assert c_ie <= c_cd


@pytest.mark.parametrize("tau", [1.55, 2.5, 10.0])
def test_default_steps_resolve_the_preset_sweep(tau):
    # the CF4 step rule: costs and Q*(tau) at default_steps agree with 16x the steps
    omega = poly_smooth_ramp(W0, W1 - W0, tau)
    fine = 16 * default_steps(omega)
    for proto in ("cd", "lcd", "ie"):
        assert oscillator_cost(omega, proto, BETA) == pytest.approx(
            oscillator_cost(omega, proto, BETA, fine), rel=1e-12, abs=0.0)
    for proto in ("bare", "lcd"):
        assert qstar_series(omega, proto)[1][-1] == pytest.approx(
            qstar_series(omega, proto, fine)[1][-1], rel=1e-12, abs=0.0)


def test_cd_cost_propagates_validity_error():
    omega = poly_smooth_ramp(W0, W1 - W0, 1.0)
    with pytest.raises(CdValidityError):
        oscillator_cost(omega, "cd", BETA)


def test_lcd_cost_raises_when_inverted():
    omega = poly_smooth_ramp(W0, W1 - W0, 0.3)
    with pytest.raises(LcdValidityError):
        oscillator_cost(omega, "lcd", BETA)
