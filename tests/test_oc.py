"""Fourier optimal control: evaluation, gradients, determinism, small optimizations."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from ctrlcost import oc
from ctrlcost.landau_zener import LzConfig, lz_schedule, lz_ground_state
from ctrlcost.ramps import oc_fourier_ramp
from ctrlcost.twolevel import (converged_final_state, cost_rate, fidelity,
                               integrated_cost, _GAUSS, _MIX, _apply, _cf4_factors,
                               _ordered_product, _qmul, _simpson_weights)
from ctrlcost.oc import (FTOL, OcProblem, REFINE_STEPS, evaluate, optimize, refine_result,
                         _Evaluator, _linear, _sqp)

from oracles import fourier_pulse_longdouble, recursive_prefix_scan


def make_problem(tau=30.0, **kw):
    kw.setdefault("n_max", 8)
    kw.setdefault("budget", 3000)
    kw.setdefault("steps", 2048)
    return OcProblem(config=LzConfig(tau=tau), **kw)


def cf4_steps(ev, x):
    """The evaluator's CF4 factors for x, g from its kept basis."""
    return ev._fields(ev.lin + np.einsum("ij,j->i", ev.basis, x))[2]


def one_scan_evaluation(ev, x):
    """(q, C, dq/dx, dC/dx) as one evaluation made them before the value and the
    gradient were split: the basis built whole, and the full recursive prefix scan."""
    tau, n = ev.tau, ev.n_max
    tt = np.add.outer(np.linspace(0.0, tau, ev.steps + 1)[:-1],
                      np.multiply(_GAUSS, ev.dt)).ravel()
    arg = np.outer(tt, np.arange(1, n + 1))
    arg *= np.pi
    arg /= tau
    basis = np.empty((len(tt), 2 * n))
    np.sin(arg, out=basis[:, :n])
    np.cos(arg, out=basis[:, n:])
    g = ev.lin + np.einsum("ij,j->i", basis, x)
    rate = np.sqrt((ev.delta**2 + g * g) / 2.0)
    (_, _, cz), steps = _cf4_factors(ev.delta, 0.0, g, ev.dt)
    prefix = recursive_prefix_scan(steps)
    earlier = np.empty((2, len(prefix)), complex)
    earlier[:, 0] = 1.0, 0.0
    earlier[:, 1:] = prefix[:-1].T
    u = prefix[-1]
    eta = _apply(np.array([u[0].conjugate(), -u[1]]), ev.perp)
    c = np.vdot(eta, ev.psi0)
    (e0, e1), (p0, p1) = eta.conjugate(), ev.psi0
    c2 = 2.0 * c
    mu = np.array([c2 * (e0 * p0).conjugate() + c2.conjugate() * (e1 * p1),
                   c2 * (e1 * p0).conjugate() - c2.conjugate() * (e0 * p1)])
    half, cx = 0.5 * ev.dt, 0.5 * ev.delta
    alpha, beta = steps.T
    s = -beta.imag / cx
    ds = (half * alpha.real - s) * cz / (cx * cx + cz * cz)
    dstep = np.empty((2, len(cz)), complex)
    dstep.real[0], dstep.imag[0] = -half * s * cz, -(ds * cz + s)
    dstep.real[1], dstep.imag[1] = 0.0, -ds * cx
    dot = (_qmul(prefix, mu) * _qmul(dstep.T, earlier.T).conjugate()).real
    dq_dz = dot[:, 0] + dot[:, 1]
    dq = np.einsum("i,ij->j", (dq_dz.reshape(-1, 2) @ _MIX).ravel(), basis)
    dC = np.einsum("i,ij->j", g / (2.0 * len(g) * rate), basis)
    return float(abs(c) ** 2), float(rate.mean()), dq, dC


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
    q, C, kept = ev.value(x)
    dq, dC = ev.gradient(kept)
    assert (q, C) == pytest.approx(ev.q_and_cost(x), rel=1e-12)
    h = 1e-6
    num = np.array([np.subtract(ev.q_and_cost(x + h * e), ev.q_and_cost(x - h * e))
                    for e in np.eye(16)]) / (2.0 * h)
    for analytic, numeric in ((dq, num[:, 0]), (dC, num[:, 1])):
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * np.max(np.abs(analytic))


@pytest.mark.parametrize("scale", [0.0, 0.03, 30.0])
def test_value_and_gradient_are_the_one_scan_evaluation_bitwise(scale):
    # at 512 steps 2N = 1,024 is a power of two: q read off the up-sweep, and
    # the gradient finished from it, are the full scan's to the bit
    ev = _Evaluator(make_problem(tau=25.0, n_max=16, steps=512))
    x = np.random.default_rng(7).normal(0.0, 1.0, 32) * scale
    q, C, kept = ev.value(x)
    dq, dC = ev.gradient(kept)
    q0, C0, dq0, dC0 = one_scan_evaluation(ev, x)
    assert (q, C) == (q0, C0)
    assert np.array_equal(dq, dq0) and np.array_equal(dC, dC0)


def test_infidelity_is_the_orthogonal_weight(rng):
    # q = |<psi_perp|psi>|^2 equals 1 - |<target|psi>|^2 and is never negative
    ev = _Evaluator(make_problem(tau=30.0))
    for x in (np.zeros(16), rng.normal(0.0, 0.03, 16)):
        q, _ = ev.q_and_cost(x)
        psi = ev.final_state(_ordered_product(cf4_steps(ev, x)))
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
        return np.vdot(ev.perp, ev.final_state(_ordered_product(cf4_steps(ev, x))))

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
                        "success", "nfev", "status", "message", "stage_nfev",
                        "stage_stop", "multiplier", "kkt_residual"}
    assert sum(rec["stage_nfev"]) == rec["nfev"]
    assert len(rec["stage_stop"]) == len(rec["stage_nfev"]) and rec["message"] == rec["stage_stop"][-1]
    import json
    assert json.loads(json.dumps(rec)) == rec


def test_budget_caps_evaluations():
    res = optimize(make_problem(tau=30.0, budget=40))
    assert res.nfev == 40
    assert res.status == 9 and "budget" in res.message
    assert sum(res.stage_nfev) == 40


def test_every_evaluation_nonnegative_and_endpoints_pinned(monkeypatch):
    seen = []
    value = _Evaluator.value

    def record(self, x):
        out = value(self, x)
        seen.append(out[0])
        return out

    monkeypatch.setattr(_Evaluator, "value", record)
    prob = make_problem(tau=30.0)
    res = optimize(prob)
    # converged, not stopped by the budget
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


def test_gradients_are_made_only_at_accepted_points(monkeypatch):
    # every new point is one value step and one counted evaluation; the line
    # search rejects some of them, and only accepted points get a gradient
    calls = {"value": 0, "gradient": 0}
    for name in calls:
        def counted(self, arg, name=name, method=getattr(_Evaluator, name)):
            calls[name] += 1
            return method(self, arg)
        monkeypatch.setattr(_Evaluator, name, counted)
    res = optimize(make_problem(tau=25.0, n_max=16, steps=512, budget=2000, q_target=1e-9))
    assert calls["value"] == res.nfev
    assert 0 < calls["gradient"] < res.nfev


def test_refinement_builds_no_basis_and_is_its_evaluators(bench_tau25):
    # the 16,384-step basis would be 32,768 x 32 floats (8 MB) plus a 4 MB argument
    # table; refinement sums g by Horner's rule instead, and its (q, C) is the
    # refine grid's q_and_cost
    prob, res, fine = bench_tau25
    tracemalloc.start()
    try:
        refine_result(prob, res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6, peak
    x = _linear(res.best_params, prob.n_max)
    ev = _Evaluator(prob, steps=REFINE_STEPS)
    assert (fine.q, fine.cost) == ev.q_and_cost(x)
    assert "basis" not in vars(ev)


def test_blocked_product_keeps_its_bits(monkeypatch):
    # q_and_cost in blocks of 64 factors, then in one block: the same bits. 1,000
    # steps make 2,000 factors, which 64 does not divide, so they stay one block
    prob = OcProblem(config=LzConfig(tau=25.0), n_max=16)
    x = np.random.default_rng(3).normal(0.0, 0.05, 32)
    calls = []

    def counted(q, reduce=oc._ordered_product):
        calls.append(len(q))
        return reduce(q)

    monkeypatch.setattr(oc, "_ordered_product", counted)

    def products():
        calls.clear()
        out = [_Evaluator(prob, steps=n).q_and_cost(x) for n in (512, 1000, 2048, REFINE_STEPS)]
        return out, len(calls)

    monkeypatch.setattr(oc, "_BLOCK", 64)
    blocked, blocked_calls = products()
    monkeypatch.setattr(oc, "_BLOCK", 1 << 30)
    whole, whole_calls = products()
    assert whole_calls == 4
    # a reduction per block and one of the block products: 1,024, 4,096 and 32,768 factors
    assert blocked_calls == 17 + 1 + 65 + 513
    assert np.array(blocked).tobytes() == np.array(whole).tobytes()


def test_refinement_takes_bounded_memory():
    # the refine grid's 32,768 factors in blocks of 4,096: built all at once, an
    # evaluation peaked at about 3 MB of traced memory
    ev = _Evaluator(OcProblem(config=LzConfig(tau=25.0), n_max=16), steps=REFINE_STEPS)
    x = np.random.default_rng(3).normal(0.0, 0.05, 32)
    tracemalloc.start()
    try:
        ev.q_and_cost(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


@pytest.mark.parametrize("tau", [24.27, 25.0])
def test_horner_pulse_is_near_the_long_double_series(tau):
    # the optimized pulses cancel amplitudes of about 1,000 (n_max 16). On the
    # refine grid, Horner's g is within 2e-12 of the long-double series, and no
    # farther from it than lin + basis x, whose n pi t/tau is rounded before
    # each sine (1.1e-11 to 1.5e-11)
    prob = make_problem(tau=tau, n_max=16, steps=512, budget=2000, q_target=1e-9)
    x = _linear(optimize(prob).best_params, prob.n_max)
    ev = _Evaluator(prob, steps=REFINE_STEPS)
    exact = fourier_pulse_longdouble(prob.config.g0, tau, x, ev.tt)
    horner = float(np.max(np.abs(ev._pulse(x) - exact)))
    table = float(np.max(np.abs(ev.lin + np.einsum("ij,j->i", ev.basis, x) - exact)))
    assert horner < 2e-12 and horner <= table, (horner, table)


def test_refined_infidelity_is_the_optimizers(bench_tau25):
    # the optimizer's grid resolves q itself: the 32x finer grid moves it by
    # under 5% (4,096 second-order steps leave 22%, half of q)
    _, res, fine = bench_tau25
    assert fine.q == pytest.approx(res.q, rel=0.05)


def test_single_harmonic_keeps_one_endpoint_pin():
    # with n_max = 1 both pins read s_1 = 0; a duplicated row would give the
    # pin matrix rank 1, and its second singular vector would drop b_1 from
    # the search. No b_1 sin(pi t/tau) meets q <= 1e-3 at tau = 30, and the
    # start is stationary in q and C (b_1 -> -b_1), so each stage's line
    # search fails there, well inside the budget
    res = optimize(make_problem(tau=30.0, n_max=1, budget=50))
    a, phi = res.best_params
    assert res.nfev < 50 and res.status == 0 and not res.success
    assert abs(a * math.sin(phi)) < 1e-15


def test_sqp_reaches_the_kkt_point_of_a_convex_quadratic():
    # C = (y - a)^T A (y - a) / 2 subject to q = w.y + q0 <= q_t, with the
    # constraint active at the optimum: A (y - a) + lambda w = 0 and w.y + q0 = q_t
    # give lambda = (w.a + q0 - q_t) / (w^T A^-1 w) and y = a - lambda A^-1 w
    A, a, w = np.diag([1.0, 4.0, 9.0]), np.array([1.0, -2.0, 0.5]), np.array([1.0, 1.0, 2.0])
    q0, q_t = 0.2, 1e-3
    lam = (w @ a + q0 - q_t) / (w @ np.linalg.solve(A, w))
    y_star = a - lam * np.linalg.solve(A, w)

    def value(y):
        return float(w @ y + q0), float((y - a) @ A @ (y - a) / 2.0), y

    y, multiplier, kkt, nfev, stage_nfev, stops, _ = _sqp(
        value, lambda y: (w, A @ (y - a)), np.zeros(3), [q_t], budget=200)
    assert stops != ["evaluation budget of 200 spent"] and nfev == sum(stage_nfev) < 200
    assert np.max(np.abs(y - y_star)) < 1e-9
    assert multiplier == pytest.approx(lam, rel=1e-8)
    assert kkt < 1e-9


def test_seed_3_first_duration_converges_inside_its_budget():
    # the bench's seed-3 duration next to 24.48: every stage ends on a stop
    # rule, not by spending the budget
    res = optimize(make_problem(tau=24.475929254183782, n_max=16, steps=512, budget=2000,
                                q_target=1e-9))
    assert res.status == 0 and res.success and res.nfev < 400, (res.stage_nfev, res.stage_stop)


def test_sqp_stops_on_a_short_step_while_just_infeasible():
    # q falls at half the slope its gradient reports, as round-off can leave it
    # near a stall: each step meets the linearized constraint, halves
    # q - q_t, and is half as long as the last. The stage stops on the
    # step-length rule with q still infeasible, where neither the KKT test nor
    # the change-of-C rule (which needs q feasible to FTOL) can stop it
    q_t, slope = 1e-3, 1e4 * 1e-3 ** 0.5 / 2.0     # the reported dc is 1e4 in amplitude units

    def value(y):
        return q_t + 1e-6 - slope * y[0], 0.5 * (y[1] - 1.0) ** 2, y

    y, _, _, nfev, _, stops, _ = _sqp(
        value, lambda y: (np.array([-2.0 * slope, 0.0]), np.array([0.0, y[1] - 1.0])),
        np.zeros(2), [q_t], budget=400)
    assert stops == ["step below FTOL"] and nfev < 40, (stops, nfev)
    assert (value(y)[0] - q_t) / q_t ** 0.5 > 1e3 * FTOL
    assert y[1] == 1.0
