"""Jaynes-Cummings blocks: dressed schedules, ensembles, crossover."""

import math

import numpy as np
import pytest

from conftest import crosses_at, first_bracket
from oracles import mixing_angle_rate, split_quad_cost
from ctrlcost.landau_zener import (LzConfig, lz_schedule, cost_scan, lz_ground_state,
                                   qsl_time)
from ctrlcost.ramps import poly_smooth_ramp
from ctrlcost.twolevel import (DEFAULT_STEPS, QUADRATURE_INTERVALS, converged_final_state,
                               integrated_cost, propagate)
from ctrlcost.jaynes_cummings import (INITIAL_STATE, JcConfig, jc_schedule, coherent_weights,
                                      block_run, ensemble_run, coherent_cost_scan,
                                      jc_cost_scan, find_jc_crossover)


# ---------------------------------------------------------------------------
# bare blocks

def test_block_coefficients_and_rabi():
    cfg = JcConfig(tau=10.0)
    blk = jc_schedule(cfg, "bare", 0)
    # g(tau) = 0.2 -> Omega_R = 2 g sqrt(n+1) = 0.4 for n = 0, and cz = -Omega_R
    assert float(blk.coefficients(np.float64(10.0))[3]) == pytest.approx(-0.4, rel=1e-12)
    blk3 = jc_schedule(cfg, "bare", 3)
    assert float(blk3.coefficients(np.float64(10.0))[3]) == pytest.approx(-0.8, rel=1e-12)
    # identity offset (2n+1) omega / 2 recorded on the schedule
    assert float(blk3.coefficients(np.float64(1.0))[0]) == pytest.approx(3.5)
    # g = 0: block diagonal in the dressed basis with gap delta
    t0 = np.float64(0.0)
    assert float(blk.coefficients(t0)[3]) == 0.0
    assert float(blk.coefficients(t0)[1]) == pytest.approx(0.1)


def test_block_rejects_negative_index():
    with pytest.raises(ValueError):
        jc_schedule(JcConfig(tau=1.0), "bare", -1)


def test_config_rejects_zero_detuning():
    # the blocks' LCD fields are 0/0 at g = 0, and the scans map delta to LZ's gap
    with pytest.raises(ValueError, match="delta must be nonzero"):
        JcConfig(tau=10.0, delta=0.0)


# ---------------------------------------------------------------------------
# CD block: two formula routes

def test_cd_coefficient_matches_mixing_angle_rate():
    cfg = JcConfig(tau=10.0)
    t = np.linspace(0.0, 10.0, 1001)
    for n in (0, 1, 5, 40):
        cy = jc_schedule(cfg, "cd", n).coefficients(t)[2]
        # the appendix closed form must equal theta_n-dot exactly
        assert np.max(np.abs(cy / 2.0 - mixing_angle_rate(cfg, n, t))) < 1e-12


def test_cd_term_vanishes_at_flat_endpoints():
    cfg = JcConfig(tau=10.0)
    sched = jc_schedule(cfg, "cd", 2)
    assert float(sched.coefficients(np.float64(0.0))[2]) == 0.0
    assert float(sched.coefficients(np.float64(10.0))[2]) == 0.0


@pytest.mark.parametrize("protocol", ["cd", "lcd"])
def test_block_final_fidelity(protocol):
    _, ffin, _ = block_run(JcConfig(tau=10.0), protocol, n=0)
    assert ffin >= 1.0 - 1e-8


# ---------------------------------------------------------------------------
# LCD block: reduction to the two-level chain-rule route

def _mapped_lz(cfg: JcConfig, n: int) -> LzConfig:
    # Delta -> delta and g -> -Omega_R; the quintic family is closed under
    # the affine map so the mapped ramp is again a default quintic
    s = -2.0 * math.sqrt(n + 1.0)
    return LzConfig(tau=cfg.tau, delta=cfg.delta, g0=s * cfg.g0, g1=s * cfg.g1)


@pytest.mark.parametrize("n", [0, 2, 7])
def test_lcd_block_reduces_to_lz_builder(n):
    cfg = JcConfig(tau=10.0)
    jc_sched = jc_schedule(cfg, "lcd", n)
    lz_sched = lz_schedule(_mapped_lz(cfg, n), "lcd")
    t = np.linspace(0.0, 10.0, 801)
    assert np.max(np.abs(jc_sched.coefficients(t)[1] - lz_sched.coefficients(t)[1])) < 1e-12
    assert np.max(np.abs(jc_sched.coefficients(t)[3] - lz_sched.coefficients(t)[3])) < 1e-12


@pytest.mark.parametrize("n", [0, 2, 7])
def test_cd_block_reduces_to_lz_builder(n):
    cfg = JcConfig(tau=10.0)
    jc_sched = jc_schedule(cfg, "cd", n)
    lz_sched = lz_schedule(_mapped_lz(cfg, n), "cd")
    t = np.linspace(0.0, 10.0, 801)
    assert np.max(np.abs(jc_sched.coefficients(t)[2] - lz_sched.coefficients(t)[2])) < 1e-12


def test_lcd_block_reduces_to_bare_at_endpoints():
    cfg = JcConfig(tau=10.0)
    for n in (0, 4):
        lcd = jc_schedule(cfg, "lcd", n)
        bare = jc_schedule(cfg, "bare", n)
        for t in (np.float64(0.0), np.float64(10.0)):
            _, lcd_x, _, lcd_z = lcd.coefficients(t)
            _, bare_x, _, bare_z = bare.coefficients(t)
            assert float(lcd_x) == pytest.approx(float(bare_x), rel=1e-14)
            assert float(lcd_z) == pytest.approx(float(bare_z), rel=1e-14, abs=1e-14)


# ---------------------------------------------------------------------------
# coherent weights

def test_weights_vacuum():
    p = coherent_weights(0.0, 40)
    assert p[0] == 1.0
    assert np.all(p[1:] == 0.0)


def test_weights_poisson_value():
    # e^-4 * 4^4 / 4! evaluated independently
    p = coherent_weights(2.0, 40)
    oracle = math.exp(-4.0) * 4.0**4 / math.factorial(4)
    assert p[4] == pytest.approx(oracle, rel=1e-13)
    assert p[4] == pytest.approx(0.1954, abs=5e-5)


def test_weights_tail_below_1e20():
    p = coherent_weights(2.0, 40)
    # remaining Poisson mass via an independent log-gamma partial sum
    full = sum(math.exp(-4.0 + n * math.log(4.0) - math.lgamma(n + 1.0))
               for n in range(200))
    assert full - p.sum() < 1e-20
    assert 1.0 - p.sum() < 1e-20


# ---------------------------------------------------------------------------
# ensembles

def test_vacuum_ensemble_reduces_to_block0():
    cfg = JcConfig(tau=10.0, alpha=0.0, n_cut=6)
    res = ensemble_run(cfg, "cd", steps=4000)
    traj, ffin, cost = block_run(cfg, "cd", n=0, steps=4000)
    assert np.allclose(res.fidelity, traj.fidelity, atol=1e-14)
    assert res.cost == pytest.approx(cost, rel=1e-14)


def test_ensemble_fidelity_is_convex_combination():
    cfg = JcConfig(tau=6.0, alpha=1.2, n_cut=25)
    res = ensemble_run(cfg, "bare", steps=3000)
    lo = res.block_final_fidelity.min()
    hi = res.block_final_fidelity.max()
    assert lo - 1e-10 <= res.fidelity[-1] <= hi + 1e-10


def test_ensemble_norms_conserved():
    # no leakage outside each block: every block propagation stays normalized
    cfg = JcConfig(tau=5.0, alpha=1.0, n_cut=10)
    for n in (0, 3, 10):
        traj = propagate(jc_schedule(cfg, "cd", n), INITIAL_STATE, 3000)
        assert np.max(np.abs(traj.norms() - 1.0)) < 1e-10


def test_ensemble_perfect_fidelity_cd_lcd():
    cfg = JcConfig(tau=10.0, alpha=2.0)
    for proto in ("cd", "lcd"):
        res = ensemble_run(cfg, proto)
        assert res.fidelity[-1] >= 1.0 - 1e-8


def test_coherent_cost_exceeds_vacuum():
    cfg = JcConfig(tau=10.0, alpha=2.0)
    for proto in ("cd", "lcd"):
        res = ensemble_run(cfg, proto, steps=2000)
        _, _, c0 = block_run(cfg, proto, n=0, steps=2000)
        assert res.cost > c0


def test_cutoff_robustness_40_vs_60():
    a = ensemble_run(JcConfig(tau=10.0, alpha=2.0, n_cut=40), "cd", steps=2000)
    b = ensemble_run(JcConfig(tau=10.0, alpha=2.0, n_cut=60), "cd", steps=2000)
    assert abs(a.cost - b.cost) < 1e-12
    assert abs(a.fidelity[-1] - b.fidelity[-1]) < 1e-12


# ---------------------------------------------------------------------------
# the ensemble against one block at a time

@pytest.mark.parametrize("protocol", ["cd", "lcd"])
def test_ensemble_matches_per_block_propagation(protocol):
    cfg = JcConfig(tau=10.0, alpha=2.0, n_cut=40)
    steps = 2000
    res = ensemble_run(cfg, protocol, steps=steps)
    fid_w = np.zeros_like(res.fidelity)
    for n in range(cfg.n_cut + 1):
        blk = jc_schedule(cfg, protocol, n)
        traj = propagate(blk, INITIAL_STATE, steps, reference=jc_schedule(cfg, "bare", n))
        assert np.array_equal(traj.times, res.times)
        fid_w += res.weights[n] * traj.fidelity
        assert abs(res.block_final_fidelity[n] - traj.fidelity[-1]) < 1e-12
        assert abs(res.block_costs[n] - integrated_cost(blk)) < 1e-12 * res.block_costs[n]
    assert np.max(np.abs(res.fidelity - fid_w / res.weights.sum())) < 1e-12


def test_tail_guard_suggests_larger_cutoff():
    with pytest.raises(ValueError, match="increase n_cut"):
        ensemble_run(JcConfig(tau=5.0, alpha=5.0, n_cut=40), "cd", steps=500)


# ---------------------------------------------------------------------------
# cost scan and crossover

def test_jc_cost_hierarchy_and_crossover():
    cfg = JcConfig(tau=10.0)
    scan = jc_cost_scan(cfg, [5.0, 40.0])
    assert scan["cd"][0] < scan["lcd"][0]    # short: CD cheaper
    assert scan["lcd"][1] < scan["cd"][1]    # long: LCD cheaper
    tstar = find_jc_crossover(cfg)
    assert tstar is not None
    assert 13.6 <= tstar <= 20.4


def test_jc_crossover_from_a_given_scan_matches_its_own_scan():
    cfg = JcConfig(tau=10.0)
    taus = np.geomspace(5.0, 40.0, 9)
    scan = jc_cost_scan(cfg, taus)
    assert find_jc_crossover(cfg, scan=scan) == find_jc_crossover(cfg, taus=taus)


def test_jc_crossover_bisects_at_the_scan_quadrature():
    # block n's CD - LCD, scanned at the default quadrature, changes sign across tau*
    cfg = JcConfig(tau=10.0)
    taus = np.geomspace(2.0, 60.0, 25)
    for n in (0, 5):
        scan = jc_cost_scan(cfg, taus, n)
        tstar = find_jc_crossover(cfg, n, taus=taus)
        assert tstar is not None and tstar == find_jc_crossover(cfg, n, scan=scan)
        a, b = first_bracket(scan)
        assert a <= tstar <= b
        assert crosses_at(lambda t: jc_cost_scan(cfg, t, n, quadrature_steps=QUADRATURE_INTERVALS),
                          tstar)


@pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -1.0])
def test_scans_and_configs_reject_a_duration_that_is_not_positive_and_finite(tau):
    for call in (lambda: LzConfig(tau=tau), lambda: JcConfig(tau=tau),
                 lambda: cost_scan(LzConfig(tau=1.0), [tau], ("cd", "lcd", "bob")),
                 lambda: coherent_cost_scan(JcConfig(tau=10.0, alpha=2.0), [tau, 5.0])):
        with pytest.raises(ValueError, match="positive and finite") as err:
            call()
        assert "\n" not in str(err.value)


@pytest.mark.parametrize("n", [0, 5])
def test_jc_scan_matches_real_time_blocks(n):
    taus = [0.1, 3.7, 100.0]
    scan = jc_cost_scan(JcConfig(tau=1.0), taus, n)
    for i, tau in enumerate(taus):
        cfg = JcConfig(tau=tau)
        for key in ("cd", "lcd"):
            direct = integrated_cost(jc_schedule(cfg, key, n), 8192)
            assert scan[key][i] == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("n", [0, 40])
def test_block_costs_match_quad_split_at_the_kinks(n):
    # by the scan, by integrated_cost and in the ensemble, which share one rule
    taus = [0.1, 0.5, 5.0, 40.0]
    scan = jc_cost_scan(JcConfig(tau=1.0), taus, n)
    for i, tau in enumerate(taus):
        cfg = JcConfig(tau=tau, n_cut=n)
        for p in ("cd", "lcd"):
            sched = jc_schedule(cfg, p, n)
            want = split_quad_cost(sched)
            assert scan[p][i] == pytest.approx(want, rel=1e-11), (tau, p)
            assert integrated_cost(sched) == pytest.approx(want, rel=1e-11), (tau, p)
    block = ensemble_run(cfg, "lcd", steps=64).block_costs[n]
    assert block == pytest.approx(integrated_cost(jc_schedule(cfg, "lcd", n)), rel=1e-14)


def test_coherent_scan_is_the_weighted_block_scans():
    # a negative detuning, so the scan's |delta| is exercised too; n_cut 12 leaves a tail of 9e-15
    cfg = JcConfig(tau=1.0, delta=-0.1, alpha=0.7, n_cut=12)
    taus = [0.3, 6.0, 16.6, 40.0, 95.0]
    scan = coherent_cost_scan(cfg, taus)
    p = coherent_weights(cfg.alpha, cfg.n_cut)
    blocks = [jc_cost_scan(cfg, taus, n) for n in range(cfg.n_cut + 1)]
    assert np.array_equal(scan["tau"], taus)
    for key in ("cd", "lcd"):
        want = sum(w * b[key] for w, b in zip(p, blocks))
        assert np.max(np.abs(scan[key] - want) / want) < 1e-13
    # one cell against the real-time blocks
    at = JcConfig(tau=taus[2], delta=cfg.delta, alpha=cfg.alpha, n_cut=cfg.n_cut)
    for key in ("cd", "lcd"):
        direct = sum(w * integrated_cost(jc_schedule(at, key, n), 8192) for n, w in enumerate(p))
        assert scan[key][2] == pytest.approx(direct, rel=1e-12)


def test_coherent_scan_rejects_a_truncating_cutoff():
    # alpha 0.7 past n_cut 5 leaves a Poisson tail of 1.3e-5, which ensemble_run rejects too
    cfg = JcConfig(tau=1.0, alpha=0.7, n_cut=5)
    for scan in (lambda: coherent_cost_scan(cfg, [1.0, 5.0]), lambda: ensemble_run(cfg, "cd", 64)):
        with pytest.raises(ValueError, match="cutoff tail 1.265e-05 above 1e-12"):
            scan()


def test_jc_scan_is_even_in_the_detuning():
    taus = [2.0, 30.0]
    plus = jc_cost_scan(JcConfig(tau=1.0, delta=0.1), taus, 2)
    minus = jc_cost_scan(JcConfig(tau=1.0, delta=-0.1), taus, 2)
    for key in ("cd", "lcd"):
        assert np.array_equal(plus[key], minus[key])
        direct = integrated_cost(jc_schedule(JcConfig(tau=2.0, delta=-0.1), key, 2), 8192)
        assert minus[key][0] == pytest.approx(direct, rel=1e-12)


def test_jc_scan_rejects_lz_only_protocols():
    with pytest.raises(ValueError, match="unknown protocol"):
        jc_cost_scan(JcConfig(tau=10.0), [10.0], protocols=("cd-blend",))


def test_jc_adiabatic_limit_cost():
    # tau -> infinity: both protocols approach the bare-norm quadrature
    from scipy.integrate import quad
    cfg = JcConfig(tau=3000.0)
    ramp = poly_smooth_ramp(cfg.g0, cfg.g1 - cfg.g0, cfg.tau)

    def integrand(s):
        omr = 2.0 * float(ramp.value(s * cfg.tau))
        return math.sqrt((cfg.delta**2 + omr**2) / 2.0)

    oracle, _ = quad(integrand, 0.0, 1.0, limit=200)
    for proto in ("cd", "lcd"):
        scan = jc_cost_scan(cfg, [3000.0], protocols=(proto,))
        assert scan[proto][0] == pytest.approx(oracle, rel=1e-3)


def test_default_steps_converge_at_the_first_doubling():
    # CF4 at DEFAULT_STEPS already meets CONVERGENCE_TOL on fig1's CD and LCD
    # sweeps at tau_QSL and on fig5's fastest block, n = n_cut
    base = LzConfig(tau=1.0)
    lz = LzConfig(tau=qsl_time(base.delta, lz_ground_state(base.delta, base.g0),
                               lz_ground_state(base.delta, base.g1)))
    jc = JcConfig(tau=10.0, alpha=2.0)
    runs = [(lz_schedule(lz, p), lz_ground_state(lz.delta, lz.g0)) for p in ("cd", "lcd")]
    runs += [(jc_schedule(jc, p, jc.n_cut), INITIAL_STATE) for p in ("cd", "lcd")]
    for sched, psi0 in runs:
        _, steps = converged_final_state(sched, psi0)
        assert steps == 2 * DEFAULT_STEPS, sched.label
