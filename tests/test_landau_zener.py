"""Landau-Zener protocols: builders, QSL, BOB, decomposition, scans."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.optimize import minimize

from conftest import crosses_at, first_bracket
from oracles import cd_cost_decomposition, decomposition_cost, split_quad_cost
from ctrlcost.ramps import Ramp, bob_pulse, oc_fourier_ramp
from ctrlcost.twolevel import (integrated_cost, instantaneous_eigenstates,
                               cost_rate)
from ctrlcost.landau_zener import (LzConfig, lz_schedule, lz_bob,
                                   lz_ground_state, qsl_time,
                                   optimize_bob_kicks, cost_scan,
                                   find_cd_lcd_crossover, run_protocol,
                                   blended_ramp_for,
                                   _bob_final_state)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def reference_states():
    return lz_ground_state(0.1, -0.2), lz_ground_state(0.1, 0.2)


# ---------------------------------------------------------------------------
# config and bare builder

def test_config_defaults_and_validation():
    cfg = LzConfig(tau=1.0)
    assert (cfg.delta, cfg.g0, cfg.g1) == (0.1, -0.2, 0.2)
    with pytest.raises(ValueError):
        LzConfig(tau=1.0, delta=0.0)
    with pytest.raises(ValueError):
        LzConfig(tau=-1.0)


def test_bare_schedule_coefficients():
    cfg = LzConfig(tau=2.0)
    sched = lz_schedule(cfg, "bare")
    t = np.linspace(0, 2, 9)
    assert np.allclose(sched.coefficients(t)[1], 0.1)
    assert float(sched.coefficients(np.float64(0.0))[3]) == pytest.approx(-0.2)
    assert float(sched.coefficients(np.float64(2.0))[3]) == pytest.approx(0.2, abs=1e-15)
    _, _, em, ep = instantaneous_eigenstates(sched, 1.0)  # crossing
    assert ep - em == pytest.approx(0.1, rel=1e-12)
    assert float(cost_rate(sched, 0.0)) == pytest.approx(0.1581, abs=5e-5)


# ---------------------------------------------------------------------------
# QSL time

def test_qsl_time_reference_value():
    gi, gt = reference_states()
    tq = qsl_time(0.1, gi, gt)
    # closed form reduces to 2 arctan(2) / Delta for the symmetric sweep
    assert tq == pytest.approx(2.0 * math.atan(2.0) / 0.1, rel=1e-12)
    assert tq == pytest.approx(22.14, rel=1e-3)


def test_qsl_time_degenerate_and_orthogonal():
    gi, _ = reference_states()
    assert qsl_time(0.1, gi, gi) == pytest.approx(0.0, abs=1e-7)
    assert qsl_time(0.1, KET0, KET1) == pytest.approx(math.pi / 0.1, rel=1e-12)


def test_qsl_time_symmetric_under_swap():
    gi, gt = reference_states()
    assert qsl_time(0.1, gi, gt) == pytest.approx(qsl_time(0.1, gt, gi), rel=1e-15)


# ---------------------------------------------------------------------------
# CD

def test_cd_coefficient_endpoints_and_midpoint():
    tau = 0.1
    cfg = LzConfig(tau=tau)
    sched = lz_schedule(cfg, "cd")
    # quintic has flat endpoints -> no CD field there
    assert float(sched.coefficients(np.float64(0.0))[2]) == 0.0
    assert float(sched.coefficients(np.float64(tau))[2]) == 0.0
    # at the crossing g = 0: cy = -gdot/Delta with gdot = 1.875 g_d / tau
    gdot = 1.875 * 0.4 / tau
    cy_mid = sched.coefficients(np.float64(tau / 2))[2]
    assert float(cy_mid) == pytest.approx(-gdot / 0.1, rel=1e-12)


def test_cd_gap_at_crossing_dual_route():
    # diagonalization vs the closed form sqrt(Delta^2 + (gdot/Delta)^2)
    gi, gt = reference_states()
    tau = qsl_time(0.1, gi, gt)
    sched = lz_schedule(LzConfig(tau=tau), "cd")
    _, _, em, ep = instantaneous_eigenstates(sched, tau / 2)
    gdot = 1.875 * 0.4 / tau
    assert ep - em == pytest.approx(math.sqrt(0.1**2 + (gdot / 0.1) ** 2), rel=1e-12)


@pytest.mark.parametrize("tau", [0.1, 22.142974355881808])
def test_cd_perfect_final_fidelity(tau):
    _, ffin, _ = run_protocol(LzConfig(tau=tau), "cd")
    assert ffin >= 1.0 - 1e-8


def test_cd_tracks_instantaneous_ground_state():
    gi, gt = reference_states()
    tau = qsl_time(0.1, gi, gt)
    traj, _, _ = run_protocol(LzConfig(tau=tau), "cd", steps=20000)
    assert np.min(traj.fidelity) >= 1.0 - 1e-6


# ---------------------------------------------------------------------------
# LCD

def test_lcd_reduces_to_bare_at_endpoints():
    cfg = LzConfig(tau=0.7)
    lcd, bare = lz_schedule(cfg, "lcd"), lz_schedule(cfg, "bare")
    for t in (0.0, 0.7):
        t = np.float64(t)
        _, lcd_x, _, lcd_z = lcd.coefficients(t)
        _, bare_x, _, bare_z = bare.coefficients(t)
        assert float(lcd_x) == pytest.approx(float(bare_x), rel=1e-14)
        assert float(lcd_z) == pytest.approx(float(bare_z), rel=1e-14)


def test_lcd_theta_dot_midpoint_value():
    # theta_dot = -gdot Delta/(Delta^2+g^2); at the midpoint of a tau = 0.1
    # sweep gdot = 7.5 so theta_dot = -75 and P = sqrt(Delta^2 + 75^2)
    cfg = LzConfig(tau=0.1)
    sched = lz_schedule(cfg, "lcd")
    P_mid = float(sched.coefficients(np.float64(0.05))[1])
    assert P_mid == pytest.approx(math.sqrt(0.1**2 + 75.0**2), rel=1e-12)


@pytest.mark.parametrize("tau", [0.1, 22.142974355881808])
def test_lcd_perfect_final_fidelity(tau):
    _, ffin, _ = run_protocol(LzConfig(tau=tau), "lcd")
    assert ffin >= 1.0 - 1e-8


def test_cd_lcd_fidelity_across_log_grid():
    # spot-check the tau range where both protocols must be exact
    for tau in np.geomspace(0.05, 100.0, 5):
        for proto in ("cd", "lcd"):
            _, ffin, _ = run_protocol(LzConfig(tau=float(tau)), proto)
            assert ffin >= 1.0 - 1e-8, (tau, proto)


def test_lcd_warns_on_nonflat_ramp():
    from ctrlcost.ramps import oc_fourier_ramp
    cfg = LzConfig(tau=5.0, ramp=oc_fourier_ramp(-0.2, 5.0, [(0.1, 0.0)]))
    with pytest.warns(UserWarning, match="flat start"):
        lz_schedule(cfg, "lcd")


# ---------------------------------------------------------------------------
# BOB

def test_bob_zero_kicks_free_evolution():
    cfg = LzConfig(tau=5.0)
    sched = lz_bob(cfg, bob_pulse(100.0, 5.0, (0.0, 0.0)))
    t = np.linspace(0, 5, 11)
    assert np.allclose(sched.coefficients(t)[3], 0.0)
    assert np.allclose(sched.coefficients(t)[1], 0.1)


def test_bob_optimized_kicks_reach_target():
    gi, gt = reference_states()
    tau = qsl_time(0.1, gi, gt)
    kicks = optimize_bob_kicks(LzConfig(tau=tau), g_q=100.0)
    assert kicks.success
    assert kicks.fidelity >= 0.999
    # the ideal kicks are pi/2 rotations, softened slightly by finite g_q
    assert kicks.phi1 == pytest.approx(math.pi / 2, abs=0.02)
    assert kicks.phi2 == pytest.approx(math.pi / 2, abs=0.02)


def test_bob_cost_rate_between_kicks():
    cfg = LzConfig(tau=22.14)
    sched = lz_bob(cfg, bob_pulse(100.0, 22.14, (math.pi / 2, math.pi / 2)))
    assert float(cost_rate(sched, 11.0)) == pytest.approx(0.1 / math.sqrt(2), rel=1e-14)
    assert float(cost_rate(sched, 11.0)) == pytest.approx(0.0707, abs=5e-5)


def test_bob_kick_cost_analytic_vs_brute_force():
    g_q, tau = 100.0, 22.142974355881808
    phi1 = phi2 = math.pi / 2
    cfg = LzConfig(tau=tau)
    sched = lz_bob(cfg, bob_pulse(g_q, tau, (phi1, phi2)))
    kick_rate = math.sqrt((0.1**2 + g_q**2) / 2.0)
    expected = (kick_rate * (phi1 + phi2) / g_q
                + (0.1 / math.sqrt(2)) * (tau - (phi1 + phi2) / g_q)) / tau
    assert integrated_cost(sched) == pytest.approx(expected, rel=1e-12)
    t = np.linspace(0, tau, 4_000_001)
    brute = np.trapezoid(cost_rate(sched, t), t) / tau
    assert brute == pytest.approx(expected, rel=1e-3)


BOB_SWEEPS = [(0.1, 0.2), (0.10044, 0.19476), (0.095, 0.21)]


@pytest.mark.parametrize("delta,g", BOB_SWEEPS)
def test_bob_zoom_refinement_meets_nelder_mead(delta, g):
    cfg = LzConfig(tau=qsl_time(delta, lz_ground_state(delta, -g), lz_ground_state(delta, g)),
                   delta=delta, g0=-g, g1=g)
    g_q, psi0, psit = 100.0, lz_ground_state(delta, -g), lz_ground_state(delta, g)
    phimax = min(2.0 * math.pi, 0.499 * cfg.tau * g_q)

    def fid(p1, p2):
        return np.abs(_bob_final_state(delta, g_q, cfg.tau, p1, p2, psi0) @ psit.conj()) ** 2

    angles = np.linspace(0.0, phimax, 64, endpoint=False)
    p1, p2 = (a.ravel() for a in np.meshgrid(angles, angles, indexing="ij"))
    cells = fid(p1, p2)
    k = int(np.argmax(cells))
    # the oracle: scipy's Nelder-Mead from the best grid cell, kept inside the domain
    nm = minimize(lambda x: -fid(x[:1], x[1:])[0]
                  if 0.0 <= x[0] <= phimax and 0.0 <= x[1] <= phimax else 1.0,
                  [p1[k], p2[k]], method="Nelder-Mead",
                  options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 2000})

    kicks = optimize_bob_kicks(cfg, g_q)
    assert 0.0 <= kicks.phi1 <= phimax and 0.0 <= kicks.phi2 <= phimax
    assert kicks.fidelity >= cells[k]
    assert kicks.fidelity >= -nm.fun - 1e-12
    # the reported fidelity is that of the reported angles, by 2x2 exponentials
    def seg(gz, dt):
        return expm(-0.5j * dt * np.array([[gz, delta], [delta, -gz]]))

    tb1, tb2 = kicks.phi1 / g_q, kicks.phi2 / g_q
    u = seg(-g_q, tb2) @ seg(0.0, cfg.tau - tb1 - tb2) @ seg(g_q, tb1)
    assert abs(np.vdot(psit, u @ psi0)) ** 2 == pytest.approx(kicks.fidelity, abs=1e-12)


def test_bob_reports_failure_away_from_speed_limit():
    # far below tau_QSL no kick pair can reach the target; reported, not raised
    kicks = optimize_bob_kicks(LzConfig(tau=2.0), g_q=100.0, grid=24)
    assert not kicks.success
    assert kicks.fidelity < 0.999


def test_bob_trajectory_final_fidelity():
    gi, gt = reference_states()
    tau = qsl_time(0.1, gi, gt)
    cfg = LzConfig(tau=tau)
    kicks = optimize_bob_kicks(cfg)
    _, ffin, _ = run_protocol(cfg, "bob", bob_kicks=kicks)
    assert ffin >= 0.999


# ---------------------------------------------------------------------------
# cost decomposition

def test_decomposition_terms_closed_form():
    cfg = LzConfig(tau=3.0)
    s = np.linspace(0, 1, 11)
    sum_e2, sum_a2 = cd_cost_decomposition(cfg, s)
    ramp = cfg.ramp_or_default()
    g = ramp.value(s * cfg.tau)
    gp = ramp.deriv1(s * cfg.tau) * cfg.tau
    assert np.allclose(sum_e2, (0.1**2 + g**2) / 2.0, rtol=1e-14)
    assert np.allclose(sum_a2, gp**2 * 0.1**2 / (2.0 * (0.1**2 + g**2) ** 2), rtol=1e-14)


@pytest.mark.parametrize("tau", [0.3, 3.0, 30.0])
def test_decomposition_equals_direct_cost(tau):
    cfg = LzConfig(tau=tau)
    c_dec = decomposition_cost(cfg)
    c_dir = integrated_cost(lz_schedule(cfg, "cd"), 8192)
    assert abs(c_dec - c_dir) / c_dir < 1e-6


def test_cd_cost_adiabatic_limit():
    # tau -> infinity: C -> int sqrt((Delta^2+g^2)/2) ds (quadrature oracle)
    cfg = LzConfig(tau=4000.0)
    ramp = cfg.ramp_or_default()
    oracle, _ = quad(lambda s: math.sqrt((0.1**2 + float(ramp.value(s * cfg.tau)) ** 2) / 2.0),
                     0.0, 1.0, limit=200, epsabs=1e-13)
    assert integrated_cost(lz_schedule(cfg, "cd"), 16384) == pytest.approx(oracle, rel=1e-4)


def test_cd_cost_sudden_limit():
    # tau -> 0 with the tan-optimal ramp: C tau -> |c1 Delta| / sqrt(2)
    cfg = LzConfig(tau=1e-3, ramp=blended_ramp_for(LzConfig(tau=1e-3), 1e-3))
    c = integrated_cost(lz_schedule(cfg, "cd"), 16384)
    assert c * 1e-3 == pytest.approx(2.0 * math.atan(2.0) / math.sqrt(2.0), rel=1e-4)


# ---------------------------------------------------------------------------
# scans and crossover

def test_cost_hierarchy_and_crossover():
    cfg = LzConfig(tau=1.0)
    scan = cost_scan(cfg, [0.1, 1.0, 50.0, 100.0])
    assert scan["cd"][0] < scan["lcd"][0]
    assert scan["cd"][1] < scan["lcd"][1]
    assert scan["lcd"][2] < scan["cd"][2]
    assert scan["lcd"][3] < scan["cd"][3]
    tstar = find_cd_lcd_crossover(cfg)
    assert tstar is not None and 1.0 < tstar < 50.0


def test_crossover_from_a_given_scan_matches_its_own_scan():
    cfg = LzConfig(tau=1.0)
    taus = np.geomspace(0.5, 100.0, 25)
    scan = cost_scan(cfg, taus, ("cd", "lcd", "cd-blend"))
    assert find_cd_lcd_crossover(cfg, scan=scan) == find_cd_lcd_crossover(cfg, taus)


def test_crossover_without_a_scan_searches_the_sweeps_zeros_once(monkeypatch):
    # the scan made here shares the bisection's unit-sweep parts, so the zeros
    # are searched once, as with a scan given, and tau* keeps its bits
    calls, zeros = [], Ramp.zeros

    def counted(self):
        calls.append(self)
        return zeros(self)
    monkeypatch.setattr(Ramp, "zeros", counted)
    assert find_cd_lcd_crossover(LzConfig(tau=1.0)) == 11.111081670391755
    assert len(calls) == 1


def test_crossover_moves_left_when_gap_doubles():
    t1 = find_cd_lcd_crossover(LzConfig(tau=1.0, delta=0.1))
    t2 = find_cd_lcd_crossover(LzConfig(tau=1.0, delta=0.2))
    assert t2 < t1


def test_blended_ramp_cost_dominates_quintic():
    cfg = LzConfig(tau=1.0)
    taus = np.geomspace(0.1, 100.0, 9)
    scan = cost_scan(cfg, taus, ("cd", "cd-blend"))
    assert np.all(scan["cd-blend"] <= scan["cd"] + 1e-12)


@pytest.mark.parametrize("tau", [0.1, 3.7, 100.0])
def test_scaled_time_scan_matches_real_time_builders(tau):
    cfg = LzConfig(tau=tau)
    scan = cost_scan(cfg, [tau], ("bare", "cd", "lcd", "cd-blend"))
    for key in ("bare", "cd", "lcd", "cd-blend"):
        assert scan[key][0] == pytest.approx(integrated_cost(lz_schedule(cfg, key), 8192),
                                             rel=1e-12)


def test_real_time_cost_samples_the_sweep_ends():
    # both quadratures take Simpson on the same nodes, s = 0 and 1 included; sampling
    # the ends 1e-12 tau inside moves LCD's cost at tau = 0.1 by 1.3e-13
    scan = cost_scan(LzConfig(tau=1.0), [0.1], ("lcd",), 4096)
    direct = integrated_cost(lz_schedule(LzConfig(tau=0.1), "lcd"), 4096)
    assert direct == pytest.approx(scan["lcd"][0], rel=1e-15)


def test_a_schedule_searches_its_crossings_only_for_its_cost():
    # a reference or spectra schedule is only propagated, so its build samples no ramp
    quintic = LzConfig(tau=2.0).ramp_or_default()
    points = []
    counted = Ramp(quintic.kind, quintic.duration, quintic.params,
                   lambda t: (points.append(t.size), quintic.rows(t))[1])
    sched = lz_schedule(LzConfig(tau=2.0, ramp=counted), "cd")
    assert points == []
    assert sched.crossings() == quintic.zeros() == (1.0,)
    assert integrated_cost(sched) == integrated_cost(lz_schedule(LzConfig(tau=2.0), "cd"))


@pytest.mark.parametrize("delta,g,taus,rtol", [
    (0.1, 0.2, [0.1, 0.237, 1.0, 3.0, 10.0, 30.0, 100.0], 1e-11),   # the preset sweep
    (0.02, 12.8, [0.1, 3.0, 30.0], 1e-6),                           # a narrow gap
])
def test_costs_match_quad_split_at_the_kinks(delta, g, taus, rtol):
    # uniform Simpson on 8,192 intervals was 9.2e-7 off for LCD at tau = 0.237 (its
    # field cz crosses zero near each end) and 1.2e-5 for CD on the narrow gap,
    # whose avoided crossing the rule now cuts at
    protocols = ("bare", "cd", "lcd", "cd-blend")
    scan = cost_scan(LzConfig(tau=1.0, delta=delta, g0=-g, g1=g), taus, protocols)
    for i, tau in enumerate(taus):
        for p in protocols:
            sched = lz_schedule(LzConfig(tau=tau, delta=delta, g0=-g, g1=g), p)
            want = split_quad_cost(sched)
            assert scan[p][i] == pytest.approx(want, rel=rtol), (tau, p)
            assert integrated_cost(sched) == pytest.approx(want, rel=rtol), (tau, p)


def test_scan_rows_do_not_depend_on_the_batch():
    cfg = LzConfig(tau=1.0)
    taus = [0.1, 0.7, 2.0, 3.7, 11.0, 40.0, 100.0]
    protocols = ("bare", "cd", "lcd", "cd-blend")
    batch = cost_scan(cfg, taus, protocols)
    for p in protocols:
        single = [cost_scan(cfg, [t], (p,))[p][0] for t in taus]
        assert np.array_equal(batch[p], single)
    with pytest.raises(ValueError, match="boundary mismatch"):
        cost_scan(LzConfig(tau=1.0, g1=0.3), [1.0], ("cd-blend",))
    with pytest.raises(ValueError, match="quadrature_steps must be >= 16"):
        cost_scan(cfg, [1.0], quadrature_steps=8)
    with pytest.raises(ValueError, match="positive"):
        cost_scan(cfg, [1.0, 0.0])
    with pytest.raises(ValueError, match="unknown protocol"):
        cost_scan(cfg, [1.0], ("cd", "oc"))


def test_scans_reject_a_custom_ramp():
    cfg = LzConfig(tau=5.0, ramp=oc_fourier_ramp(-0.2, 5.0, [(0.1, 0.0)]))
    scan = cost_scan(LzConfig(tau=5.0), [1.0, 50.0])
    for call in (lambda: cost_scan(cfg, [5.0]),
                 lambda: find_cd_lcd_crossover(cfg),
                 lambda: find_cd_lcd_crossover(cfg, scan=scan)):
        with pytest.raises(ValueError, match="custom ramp") as err:
            call()
        assert "\n" not in str(err.value)


def test_bisect_requires_bracket():
    # CD is the cheaper protocol at every duration of the scan, so nothing is bisected
    cfg = LzConfig(tau=1.0)
    assert find_cd_lcd_crossover(cfg, scan=cost_scan(cfg, [0.1, 0.5, 1.0])) is None
    assert find_cd_lcd_crossover(cfg, [50.0, 100.0]) is None


@pytest.mark.parametrize("seed", range(6))
def test_crossover_is_the_scans_sign_change_to_round_off(seed):
    # a seeded grid of sweeps g0 = -g -> g1 = g, each crossing inside its scan
    rng = np.random.default_rng(seed)
    delta, g = rng.uniform(0.05, 0.5), rng.uniform(0.1, 1.0)
    cfg = LzConfig(tau=1.0, delta=delta, g0=-g, g1=g)
    taus = np.geomspace(0.5, 100.0, 25)
    tstar = find_cd_lcd_crossover(cfg, taus)
    a, b = first_bracket(cost_scan(cfg, taus))
    assert a <= tstar <= b
    assert crosses_at(lambda t: cost_scan(cfg, t), tstar)
    # a descending scan brackets from its upper end; the bisection takes either order
    descending = find_cd_lcd_crossover(cfg, taus[::-1])
    assert a <= descending <= b and crosses_at(lambda t: cost_scan(cfg, t), descending)
