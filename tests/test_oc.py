"""Fourier optimal control: objective, determinism, small optimizations."""

import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from ctrlcost.landau_zener import LzConfig, lz_bare, lz_ground_state
from ctrlcost.ramps import oc_fourier_ramp
from ctrlcost.twolevel import converged_final_state, fidelity, integrated_cost
from ctrlcost.oc import (OcProblem, objective, evaluate, optimize,
                         refine_result, tau_scan, _Evaluator, _simpson_weights)


def make_problem(tau=30.0, **kw):
    kw.setdefault("n_max", 8)
    kw.setdefault("budget", 3000)
    kw.setdefault("steps", 2048)
    kw.setdefault("polish_budget", 500)
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
    with pytest.raises(ValueError, match="gamma"):
        make_problem(gamma=0.0)
    with pytest.raises(ValueError, match="n_max"):
        make_problem(n_max=0)
    with pytest.raises(ValueError, match="steps"):
        make_problem(steps=1)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 4096])
def test_simpson_weights_match_scipy(n):
    # several rows at once: the weights act along the last axis
    t = np.linspace(0.0, 3.7, n + 1)
    y = np.random.default_rng(n).normal(size=(5, n + 1))
    w = _simpson_weights(n, t[1] - t[0])
    assert y @ w == pytest.approx([simpson(row, x=t) for row in y], rel=1e-13, abs=1e-13)


def test_parameter_length_checked():
    prob = make_problem()
    with pytest.raises(ValueError, match="parameters"):
        evaluate(prob, np.zeros(5))


# ---------------------------------------------------------------------------
# objective values

def test_combined_objective_special_cases():
    ev = _Evaluator(make_problem(gamma=0.01))
    # orthogonal outcome: 1^gamma = 1
    assert ev.combined(1.0, 0.37) == pytest.approx(0.37, rel=1e-15)
    # clamp at 1e-16: 0.2 * (1e-16)^0.01
    clamped = ev.combined(0.0, 0.2)
    assert clamped == pytest.approx(0.2 * 10.0 ** (-0.16), rel=1e-12)
    assert clamped == pytest.approx(0.1384, abs=5e-5)


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
    assert objective(prob, np.zeros(16)) == pytest.approx(
        max(q, 1e-16) ** prob.gamma * C, rel=1e-12)


def test_evaluate_matches_library_route(rng):
    # oracle for a shaped pulse: the same Fourier ramp built by
    # oc_fourier_ramp and run through the generic schedule, cost quadrature
    # and step-doubled propagation instead of the evaluator's cached basis;
    # at 32768 steps the evaluator's midpoint error in q is ~5e-10
    n, steps = 8, 32_768
    prob = make_problem(tau=30.0, n_max=n, steps=steps)
    amps = rng.normal(0.0, 0.03, n)
    phases = rng.uniform(-math.pi, math.pi, n)
    q, C = evaluate(prob, np.concatenate([amps, phases]))
    cfg = prob.config
    ramp = oc_fourier_ramp(cfg.g0, cfg.tau, list(zip(amps, phases)))
    sched = lz_bare(LzConfig(tau=cfg.tau, ramp=ramp))
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
    assert objective(prob, params) == objective(prob, params)


def test_tau_scan_runs_each_duration():
    res = tau_scan(make_problem(tau=30.0, n_max=6, budget=800, polish_budget=100),
                   [25.0, 40.0])
    assert [r.tau for r in res] == [25.0, 40.0]
    for r in res:
        assert r.nfev <= 800 + 120  # budget respected up to optimizer overshoot


def test_result_record_roundtrip():
    res = optimize(make_problem(tau=30.0, budget=600, polish_budget=50))
    rec = res.to_record()
    assert set(rec) == {"tau", "gamma", "n_max", "seed", "best_params", "q", "C",
                        "objective", "success", "nfev"}
    import json
    assert json.loads(res.to_json())["tau"] == 30.0
