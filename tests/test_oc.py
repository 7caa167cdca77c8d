"""Fourier optimal control: evaluation, gradients, determinism, small optimizations."""

import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from ctrlcost.landau_zener import LzConfig, lz_schedule, lz_ground_state
from ctrlcost.ramps import oc_fourier_ramp
from ctrlcost.twolevel import (converged_final_state, cost_rate, fidelity,
                               integrated_cost, _GAUSS, _simpson_weights)
from ctrlcost.oc import OcProblem, evaluate, optimize, refine_result, _Evaluator


def make_problem(tau=30.0, **kw):
    kw.setdefault("n_max", 8)
    kw.setdefault("budget", 3000)
    kw.setdefault("steps", 2048)
    return OcProblem(config=LzConfig(tau=tau), **kw)


# ---------------------------------------------------------------------------
# problem validation

def test_rejects_tau_at_or_below_qsl():
    with pytest.raises(ValueError, match="tau_QSL"):
        make_problem(tau=22.0)
    with pytest.raises(ValueError, match="tau_QSL"):
        make_problem(tau=5.0)
    make_problem(tau=22.2)  # just above the limit is fine


def test_rejects_bad_gamma_and_nmax():
    # gamma weighted the composite objective q^gamma C, which is gone
    with pytest.raises(TypeError, match="gamma"):
        make_problem(gamma=5e-3)
    with pytest.raises(ValueError, match="n_max"):
        make_problem(n_max=0)
    with pytest.raises(ValueError, match="steps"):
        make_problem(steps=1)


def test_rejects_a_sweep_that_does_not_end_at_minus_g0():
    # the ansatz's linear part and endpoint pin end at -g0, whatever g1 says
    with pytest.raises(ValueError, match=r"g1 must be 0\.2, got 0\.35"):
        OcProblem(config=LzConfig(tau=30.0, g0=-0.2, g1=0.35))
    with pytest.raises(ValueError, match=r"g1 must be -0\.3, got 0\.2"):
        OcProblem(config=LzConfig(tau=60.0, g0=0.3, g1=0.2))
    OcProblem(config=LzConfig(tau=60.0, g0=0.3, g1=-0.3))


@pytest.mark.parametrize("n", [2, 3, 4, 7, 4096])
def test_simpson_weights_match_scipy(n):
    # several rows at once: the weights act along the last axis
    t = np.linspace(0.0, 3.7, n + 1)
    y = np.random.default_rng(n).normal(size=(5, n + 1))
    w = _simpson_weights(n, t[1] - t[0])
    assert y @ w == pytest.approx([simpson(row, x=t) for row in y], rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("kw, match", [({"budget": 0}, "budget"),
                                       ({"q_target": 0.0}, "q_target"),
                                       ({"q_target": -1.0}, "q_target"),
                                       ({"q_target": 1.0}, "q_target")])
def test_rejects_bad_budget_and_q_target(kw, match):
    with pytest.raises(ValueError, match=match):
        make_problem(**kw)


def test_parameter_length_checked():
    prob = make_problem()
    with pytest.raises(ValueError, match="parameters"):
        evaluate(prob, np.zeros(5))


# ---------------------------------------------------------------------------
# objective values

def test_zero_coefficients_large_tau_is_adiabatic_linear_ramp():
    prob = make_problem(tau=200.0, steps=8192)
    q, C = evaluate(prob, np.zeros(16))
    # cost oracle: time average of sqrt((Delta^2 + g^2)/2) on a linear sweep
    oracle, _ = quad(lambda s: math.sqrt((0.1**2 + (-0.2 + 0.4 * s) ** 2) / 2.0),
                     0.0, 1.0, epsabs=1e-13)
    assert C == pytest.approx(oracle, rel=1e-8)
    # adiabatic error of the truncated sweep is boundary-dominated,
    # ~(gdot/gap^2)^2 ~ 1e-3 at tau = 200
    assert q < 5e-3


def test_evaluate_matches_library_route(rng):
    # oracle for a shaped pulse: the same Fourier ramp built by
    # oc_fourier_ramp and run through the generic schedule, cost quadrature
    # and step-doubled propagation instead of the evaluator's cached basis;
    # the library's step doubling stops once two refinements agree to 1e-10
    # in infidelity, the evaluator's 32768 CF4 steps converge far below it
    n, steps = 8, 32_768
    prob = make_problem(tau=30.0, n_max=n, steps=steps)
    amps = rng.normal(0.0, 0.03, n)
    phases = rng.uniform(-math.pi, math.pi, n)
    q, C = evaluate(prob, np.concatenate([amps, phases]))
    cfg = prob.config
    ramp = oc_fourier_ramp(cfg.g0, cfg.tau, list(zip(amps, phases)))
    sched = lz_schedule(LzConfig(tau=cfg.tau, ramp=ramp), "bare")
    psi, _ = converged_final_state(sched, lz_ground_state(cfg.delta, cfg.g0))
    q_lib = 1.0 - fidelity(lz_ground_state(cfg.delta, cfg.g1), psi)
    assert q > 1e-3  # a pulse far from the target, so q is a real check
    assert q == pytest.approx(q_lib, abs=1e-8)
    assert C == pytest.approx(integrated_cost(sched, steps), rel=1e-10)


def test_linear_ramp_cost_independent_of_tau():
    q1, c1 = evaluate(make_problem(tau=30.0), np.zeros(16))
    q2, c2 = evaluate(make_problem(tau=90.0), np.zeros(16))
    assert c1 == pytest.approx(c2, rel=1e-10)
    assert q2 < q1  # slower sweep is more adiabatic


# ---------------------------------------------------------------------------
# gradients

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_central_differences(seed):
    ev = _Evaluator(make_problem(tau=30.0, n_max=8))
    x = np.random.default_rng(seed).normal(0.0, 0.03, 16)
    q, C, dq, dC = ev.with_gradient(x)
    assert (q, C) == pytest.approx(ev.q_and_cost(x), rel=1e-12)
    h = 1e-6
    num = np.array([np.subtract(ev.q_and_cost(x + h * e), ev.q_and_cost(x - h * e))
                    for e in np.eye(16)]) / (2.0 * h)
    for analytic, numeric in ((dq, num[:, 0]), (dC, num[:, 1])):
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * np.max(np.abs(analytic))


def test_infidelity_is_the_orthogonal_weight(rng):
    # q = |<psi_perp|psi>|^2 equals 1 - |<target|psi>|^2 and is never negative
    ev = _Evaluator(make_problem(tau=30.0))
    for x in (np.zeros(16), rng.normal(0.0, 0.03, 16)):
        q, _ = ev.q_and_cost(x)
        psi = ev.final_state(ev._fields(x)[3])
        assert q >= 0.0
        assert q == pytest.approx(1.0 - fidelity(lz_ground_state(0.1, 0.2), psi), abs=1e-14)


def test_cf4_steps_converge_at_fourth_order():
    # amplitude error of <psi_perp|psi(tau)> against a 16x finer grid falls
    # 16-fold per halving of the step; a wrong factor order leaves a
    # second-order scheme, about 4-fold
    prob = make_problem(tau=25.0, n_max=16)
    x = np.zeros(32)
    x[:16] = 0.2 / np.arange(1, 17)      # sin columns only: endpoints pinned

    def amplitude(steps):
        ev = _Evaluator(prob, steps=steps)
        return np.vdot(ev.perp, ev.final_state(ev._fields(x)[3]))

    reference = amplitude(8192)
    errors = [abs(amplitude(n) - reference) for n in (64, 128, 256, 512)]
    ratios = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
    assert all(15.0 <= r <= 17.0 for r in ratios), ratios


# ---------------------------------------------------------------------------
# optimization behaviour

def test_optimize_reaches_high_fidelity_smoke():
    prob = make_problem(tau=30.0, n_max=12, budget=6000, q_target=1e-7)
    res = optimize(prob)
    assert res.success
    assert res.q <= 1e-7
    # the reported cost is bounded by physics: never below the flat floor
    assert res.cost > 0.1 / math.sqrt(2.0)
    fine = refine_result(prob, res)
    assert fine.q <= 1e-7


def test_optimize_deterministic_replay():
    a = optimize(make_problem(tau=30.0, seed=5, budget=1500))
    b = optimize(make_problem(tau=30.0, seed=5, budget=1500))
    assert np.array_equal(a.best_params, b.best_params)
    assert a.q == b.q and a.cost == b.cost and a.nfev == b.nfev


def test_trace_best_q_monotone():
    res = optimize(make_problem(tau=30.0, budget=2000))
    qs = [e["q"] for e in res.trace]
    assert len(qs) >= 2
    assert all(q2 < q1 for q1, q2 in zip(qs, qs[1:]))


def test_objective_deterministic_given_params(rng):
    prob = make_problem()
    params = rng.normal(0, 0.05, 16)
    assert evaluate(prob, params) == evaluate(prob, params)


def test_result_record_roundtrip():
    res = optimize(make_problem(tau=30.0, budget=600))
    rec = res.to_record()
    assert set(rec) == {"tau", "n_max", "seed", "best_params", "q", "C",
                        "success", "nfev", "status", "message", "stage_nfev"}
    assert sum(rec["stage_nfev"]) == rec["nfev"]
    import json
    assert json.loads(json.dumps(rec)) == rec


def test_budget_caps_evaluations():
    res = optimize(make_problem(tau=30.0, budget=40))
    assert res.nfev == 40
    assert res.status == 9 and "budget" in res.message
    assert sum(res.stage_nfev) == 40


def test_every_evaluation_nonnegative_and_endpoints_pinned(monkeypatch):
    seen = []
    with_gradient = _Evaluator.with_gradient

    def record(self, x):
        out = with_gradient(self, x)
        seen.append(out[0])
        return out

    monkeypatch.setattr(_Evaluator, "with_gradient", record)
    prob = make_problem(tau=30.0)
    res = optimize(prob)
    # converged, not stopped by the budget: SLSQP ends only when the
    # constraint violation is below its ftol, above q's rounding error
    assert res.success and res.status == 0 and len(seen) == res.nfev
    assert min(seen) >= 0.0
    cfg = prob.config
    ramp = oc_fourier_ramp(cfg.g0, cfg.tau, list(zip(res.best_params[:8],
                                                     res.best_params[8:])))
    assert float(ramp.value(0.0)) == pytest.approx(cfg.g0, abs=1e-12)
    assert float(ramp.value(cfg.tau)) == pytest.approx(cfg.g1, abs=1e-12)


@pytest.fixture(scope="module")
def bench_tau25():
    # the bench's n_max-16 problem at tau = 25, its result and the refinement
    prob = make_problem(tau=25.0, n_max=16, steps=512, budget=2000, q_target=1e-9)
    res = optimize(prob)
    return prob, res, refine_result(prob, res)


def test_optimized_pulse_reproduces_through_the_library_route(bench_tau25):
    # the sin and cos columns are nearly dependent, so the bench's n_max 16
    # pulse at tau = 25 has amplitudes of about 50 whose terms cancel; the
    # library's own ramp, propagator and quadrature must still give the
    # result's q and C
    prob, res, fine = bench_tau25
    assert fine.success
    cfg = prob.config
    ramp = oc_fourier_ramp(cfg.g0, cfg.tau, list(zip(res.best_params[:16],
                                                     res.best_params[16:])))
    sched = lz_schedule(LzConfig(tau=cfg.tau, ramp=ramp), "bare")
    psi, _ = converged_final_state(sched, lz_ground_state(cfg.delta, cfg.g0), tol=1e-14)
    q_lib = 1.0 - fidelity(lz_ground_state(cfg.delta, cfg.g1), psi)
    assert q_lib == pytest.approx(fine.q, abs=1e-9)
    assert q_lib == pytest.approx(res.q, abs=1e-9)
    # the result's C is the two-point Gauss sum on the optimizer's steps
    dt = cfg.tau / prob.steps
    nodes = np.add.outer(np.arange(prob.steps) * dt, np.multiply(_GAUSS, dt))
    gauss = float(np.sum(cost_rate(sched, nodes)) * 0.5 * dt / cfg.tau)
    assert res.cost == pytest.approx(gauss, rel=1e-12)
    assert fine.cost == pytest.approx(integrated_cost(sched, 32_768), rel=1e-10)


def test_refined_infidelity_is_the_optimizers(bench_tau25):
    # the optimizer's grid resolves q itself: the 32x finer grid moves it by
    # under 5% (4,096 second-order steps leave 22%, half of q)
    _, res, fine = bench_tau25
    assert fine.q == pytest.approx(res.q, rel=0.05)


def test_single_harmonic_keeps_one_endpoint_pin():
    # with n_max = 1 both pins read s_1 = 0; a duplicated row would make
    # SLSQP's constraint matrix singular and stop it at the start
    res = optimize(make_problem(tau=30.0, n_max=1, budget=50))
    a, phi = res.best_params
    assert res.nfev == 50 and res.status == 9
    assert abs(a * math.sin(phi)) < 1e-15
