"""Two-level engine: propagation, eigenstates, cost, invariants."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from ctrlcost.landau_zener import LzConfig, lz_schedule, lz_ground_state, qsl_time
from ctrlcost.twolevel import (PauliSchedule, qubit_state, fidelity, propagate,
                               final_state, converged_final_state,
                               instantaneous_eigenstates, cost_rate,
                               integrated_cost,
                               _su2_steps, _ordered_product, _prefix_scan,
                               _last_prefix, _qmul, _up_sweep)
from ctrlcost.oscillator import _exp_minus_identity, _near_identity_product

from oracles import recursive_prefix_scan

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


def constant_schedule(cx=0.0, cy=0.0, cz=0.0, c0=0.0, tau=1.0):
    return PauliSchedule(duration=tau, fields=lambda t: (c0, cx, cy, cz))


def random_smooth_schedule(seed=7, tau=3.0):
    rng = np.random.default_rng(seed)
    ax = rng.normal(0, 0.5, 4)
    az = rng.normal(0, 0.5, 4)

    def cx(t):
        t = np.asarray(t, dtype=float)
        return 0.7 + sum(a * np.sin((k + 1) * np.pi * t / tau)
                         for k, a in enumerate(ax))

    def cz(t):
        t = np.asarray(t, dtype=float)
        return sum(a * np.cos((k + 1) * np.pi * t / tau)
                   for k, a in enumerate(az))

    return PauliSchedule(duration=tau, fields=lambda t: (0.0, cx(t), 0.0, cz(t)))


# ---------------------------------------------------------------------------
# states and fidelity

def test_qubit_state_norm_guard():
    qubit_state(1 / math.sqrt(2), 1j / math.sqrt(2))
    with pytest.raises(ValueError, match="not normalized"):
        qubit_state(1.0, 0.1)
    with pytest.raises(ValueError, match="two finite amplitudes"):
        qubit_state(np.nan, 0.0)


@pytest.mark.parametrize("psi0, match", [([1.0, 1.0], r"not normalized: .* = 2\.0$"),
                                         ([np.nan, 0.0], "two finite amplitudes"),
                                         ([1.0, 0.0, 0.0], "two finite amplitudes")])
def test_every_propagation_checks_its_initial_state(psi0, match):
    # final_state once returned a state of norm sqrt(2) for [1, 1], and
    # converged_final_state reported convergence for [2, 0] and a NaN state for [nan, 0]
    sched = lz_schedule(LzConfig(tau=5.0), "cd")
    for run in (propagate, final_state, converged_final_state):
        with pytest.raises(ValueError, match=match):
            run(sched, psi0, 100)


def test_fidelity_basics():
    assert fidelity(PLUS, PLUS) == pytest.approx(1.0)
    assert fidelity(KET0, KET1) == pytest.approx(0.0, abs=0)
    assert fidelity(KET0, PLUS) == pytest.approx(0.5, rel=1e-15)


# ---------------------------------------------------------------------------
# propagation on constant Hamiltonians

def test_eigenstate_stays_put():
    sched = constant_schedule(cx=0.1, tau=20.0)
    traj = propagate(sched, PLUS, steps=200)
    assert np.all(traj.fidelity > 1.0 - 1e-12)
    assert fidelity(traj.final_state, PLUS) == pytest.approx(1.0, abs=1e-12)


def test_phase_only_evolution():
    sched = constant_schedule(cz=0.7, tau=9.0)
    traj = propagate(sched, KET0, steps=300)
    pops = np.abs(traj.states[:, 0]) ** 2
    assert np.allclose(pops, 1.0, atol=1e-13)


def test_pi_pulse_full_transfer():
    omega = 0.4
    sched = constant_schedule(cx=omega, tau=math.pi / omega)
    psi = final_state(sched, KET0, steps=128)
    assert abs(psi[1]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_constant_step_is_exact():
    # one CF4 step (two exponentials whose mixing weights sum to 1/2) is the
    # exact propagator for constant coefficients
    sched = constant_schedule(cx=0.3, cy=-0.2, cz=0.9, tau=2.0)
    a = final_state(sched, KET0, steps=2)
    b = final_state(sched, KET0, steps=4096)
    assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# invariants

def test_unitarity_on_random_schedule():
    traj = propagate(random_smooth_schedule(), PLUS, steps=2000)
    assert np.max(np.abs(traj.norms() - 1.0)) < 1e-10


def test_fourth_order_convergence():
    # CF4 steps: halving the step divides the error by 16 (16.0009 and
    # 15.9975 here; at 1,024 steps round-off starts to show)
    sched = random_smooth_schedule(seed=11)
    ref = final_state(sched, KET0, steps=2**16)
    errs = [np.linalg.norm(final_state(sched, KET0, steps=n) - ref)
            for n in (128, 256, 512)]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert 13.5 < r1 < 18.5
    assert 13.5 < r2 < 18.5


def test_gauge_invariance_of_fidelity_and_cost():
    base = random_smooth_schedule(seed=3)
    shifted = PauliSchedule(duration=base.duration,
                            fields=lambda t: (5.0, *base.coefficients(t)[1:]))
    t1 = propagate(base, KET0, steps=1500)
    t2 = propagate(shifted, KET0, steps=1500)
    assert np.allclose(t1.fidelity, t2.fidelity, atol=1e-12)
    assert integrated_cost(base) == pytest.approx(integrated_cost(shifted), rel=1e-14)


def test_spectrum_symmetry_with_zero_identity():
    sched = random_smooth_schedule(seed=5)
    for t in (0.0, 0.7, 2.1, 3.0):
        _, _, em, ep = instantaneous_eigenstates(sched, t)
        assert em == -ep


def test_converged_final_state_agrees():
    sched = random_smooth_schedule(seed=13)
    psi, steps = converged_final_state(sched, KET0, steps=256, tol=1e-12)
    ref = final_state(sched, KET0, steps=2**16)
    assert 1.0 - abs(np.vdot(ref, psi)) ** 2 < 1e-10
    assert steps > 256


def test_propagate_evaluates_the_schedule_once_on_the_nodes():
    calls = []

    def fields(t):
        calls.append(np.shape(t))
        return 0.0, 0.5, 0.0, np.cos(t)

    sched = PauliSchedule(duration=2.0, fields=fields)
    traj = propagate(sched, KET0, steps=100)
    # once on the steps' two Gauss nodes each, once on the grid nodes for both
    # the fidelity and the cost rate
    assert sorted(calls) == [(101,), (200,)]
    assert traj.cost_rate == pytest.approx(np.sqrt((0.25 + np.cos(traj.times) ** 2) / 2.0),
                                           rel=1e-15)


def test_nan_coefficient_aborts_with_timestamp():
    def bad(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.5, np.nan, 1.0)

    sched = PauliSchedule(duration=1.0, fields=lambda t: (0.0, bad(t), 0.0, 0.0))
    # the first Gauss node past 0.5, 0.5 + (1/2 - sqrt(3)/6)/64, printed as a float
    with pytest.raises(ValueError, match=r"^non-finite coefficient cx at t=0\.5033019510219561$"):
        propagate(sched, KET0, steps=64)
    # a constant coefficient stays a scalar through the steps and is checked
    # once, at the first Gauss node
    const = PauliSchedule(duration=1.0, fields=lambda t: (np.inf, 1.0, 0.0, t), label="c")
    first = r"^non-finite coefficient c0 at t=0\.003301951021956049 \(schedule c\)$"
    for run in (propagate, final_state):
        with pytest.raises(ValueError, match=first):
            run(const, KET0, 64)


def test_constant_and_array_coefficients_give_the_same_states():
    # scalars take the c/2 mixture and the c0 dt phases, arrays the Gauss-node ones
    scalar = PauliSchedule(1.5, lambda t: (0.3, 0.7, -0.2, np.sin(t)))
    array = PauliSchedule(1.5, lambda t: (np.full_like(t, 0.3), np.full_like(t, 0.7),
                                          np.full_like(t, -0.2), np.sin(t)))
    a, b = propagate(scalar, PLUS, 64), propagate(array, PLUS, 64)
    assert np.max(np.abs(a.states - b.states)) < 1e-15
    assert np.max(np.abs(final_state(scalar, PLUS, 64) - final_state(array, PLUS, 64))) < 1e-15


# ---------------------------------------------------------------------------
# Cayley-Klein step core

SIGMA = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]]),
         np.array([[1, 0], [0, -1]], dtype=complex))


def su2_matrix(q):
    """[[alpha, -conj(beta)], [beta, conj(alpha)]] for one pair (alpha, beta)."""
    alpha, beta = q
    return np.array([[alpha, -beta.conjugate()], [beta, alpha.conjugate()]])


def random_steps(n, seed):
    """Coefficients and step widths with c0 != 0, cy != 0 and exact r = 0 steps."""
    rng = np.random.default_rng(seed)
    c0, cx, cy, cz = rng.normal(0.0, 2.0, (4, n))
    cx[::5] = cy[::5] = cz[::5] = 0.0
    return c0, cx, cy, cz, rng.uniform(0.01, 0.3, n)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 129])
def test_ordered_product_matches_expm(n):
    c0, cx, cy, cz, dt = random_steps(n, seed=n)
    ref = np.eye(2, dtype=complex)
    for k in range(n):
        H = c0[k] * np.eye(2) + 0.5 * (cx[k] * SIGMA[0] + cy[k] * SIGMA[1]
                                       + cz[k] * SIGMA[2])
        ref = expm(-1j * H * dt[k]) @ ref
    q = _ordered_product(_su2_steps(cx, cy, cz, dt))
    U = np.exp(-1j * np.sum(c0 * dt)) * su2_matrix(q)
    assert np.max(np.abs(U - ref)) < 1e-12


@pytest.mark.parametrize("n", [1, 6, 333])
def test_prefix_scan_matches_sequential_loop(n):
    _, cx, cy, cz, dt = random_steps(n, seed=100 + n)
    q = _su2_steps(cx, cy, cz, dt)
    scan = _prefix_scan(q)
    assert scan.shape == q.shape
    P = np.eye(2, dtype=complex)
    for k in range(n):
        P = su2_matrix(q[k]) @ P
        assert np.max(np.abs(su2_matrix(scan[k]) - P)) < 1e-12
    assert np.max(np.abs(scan[-1] - _ordered_product(q))) < 1e-13


def test_split_scan_is_the_recursive_scan_bitwise():
    # the up-sweep and the down-sweep make the recursion's products in its
    # order, so every prefix row (trajectories, OC's gradient, the oscillator)
    # keeps its bits; the last prefix read off the up-sweep alone is the scan's
    # at a power of two and within round-off of it otherwise
    rng = np.random.default_rng(2024)
    for n in [*range(1, 301), 1023, 1024, 4001]:
        cx, cy, cz = rng.normal(0.0, 2.0, (3, n))
        q = _su2_steps(cx, cy, cz, rng.uniform(0.01, 0.3, n))
        e = _exp_minus_identity(0.05, rng.uniform(-2.0, 6.0, n))
        for steps, mul in ((q, _qmul), (e, _near_identity_product)):
            levels = _up_sweep(steps, mul)
            scan = _prefix_scan(steps, mul)
            assert np.array_equal(scan, recursive_prefix_scan(steps, mul)), (n, mul)
            assert np.array_equal(_prefix_scan(steps, mul, levels), scan), (n, mul)
            last = _last_prefix(levels, mul)
            if n & (n - 1) == 0:
                assert np.array_equal(last, scan[-1]), (n, mul)
            else:
                size = max(1.0, np.max(np.abs(scan[-1])))
                assert np.max(np.abs(last - scan[-1])) <= 1e-15 * size, (n, mul)


def test_quaternion_norm_drift_at_20k_steps():
    # a pair's |alpha|^2 + |beta|^2 is its unit quaternion's norm
    _, cx, cy, cz, dt = random_steps(20_000, seed=5)
    q = _su2_steps(cx, cy, cz, dt)
    norms = np.sum(np.abs(_prefix_scan(q)) ** 2, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert abs(np.sum(np.abs(_ordered_product(q)) ** 2) - 1.0) < 1e-12


def test_su2_steps_are_the_exponentials_as_pairs():
    # (alpha, beta) = (cos h - i s cz, s cy - i s cx), s = sin(h)/r, h = r dt/2, and
    # dt/2 for s at r = 0; rows are an (m, 2) view of component-major storage
    _, cx, cy, cz, dt = random_steps(10, seed=3)
    q = _su2_steps(cx, cy, cz, dt)
    assert q.shape == (10, 2) and q.T.flags.c_contiguous
    for k in range(10):
        H = 0.5 * (cx[k] * SIGMA[0] + cy[k] * SIGMA[1] + cz[k] * SIGMA[2])
        assert np.max(np.abs(su2_matrix(q[k]) - expm(-1j * H * dt[k]))) < 1e-14
    assert np.array_equal(_su2_steps(0.0, 0.0, 0.0, 0.25), [1.0, 0.0])


def test_pair_product_does_not_depend_on_its_batch():
    # five elementwise ufunc calls, no BLAS: a row's product has the same bits
    # alone, in any batch at any offset, as a single (2,) pair, and from a
    # level's strided slices or from contiguous copies of them
    rng = np.random.default_rng(11)
    cx, cy, cz = rng.normal(0.0, 2.0, (3, 4096))
    q = _su2_steps(cx, cy, cz, rng.uniform(0.01, 0.3, 4096))
    later, earlier = q[1::2], q[0::2]
    batch = _qmul(later, earlier)
    copies = [np.ascontiguousarray(r.T).T for r in (later, earlier)]
    assert np.array_equal(_qmul(*copies), batch)
    for m in (1, 2, 3, 7, 8, 17, 63, 64, 65, 255, 1000, 2048):
        for offset in (0, 1, 3, 8, 100, 1024, 2047):
            if offset + m <= 2048:
                rows = slice(offset, offset + m)
                assert np.array_equal(_qmul(later[rows], earlier[rows]), batch[rows]), (m, offset)
    for k in (0, 1, 999, 2047):
        assert np.array_equal(_qmul(later[k], earlier[k]), batch[k]), k
        assert np.array_equal(_qmul(np.array(later[k]), np.array(earlier[k])), batch[k]), k


def test_trajectory_stays_on_the_unit_sphere_at_64k_steps():
    # fig1's CD sweep at tau_QSL: the prefix quaternions' round-off grew with
    # the step count (2.4e-12 off norm 1, F 4.9e-12 off 1) until they were renormalized
    cfg = LzConfig(tau=1.0)
    psi0 = lz_ground_state(cfg.delta, cfg.g0)
    tqsl = qsl_time(cfg.delta, psi0, lz_ground_state(cfg.delta, cfg.g1))
    traj = propagate(lz_schedule(LzConfig(tau=tqsl), "cd"), psi0, steps=64_000)
    assert np.max(np.abs(traj.norms() - 1.0)) <= 1e-14
    assert abs(1.0 - traj.fidelity[-1]) <= 1e-14


def test_breakpoints_are_extra_nodes_of_the_uniform_grid():
    sched = PauliSchedule(duration=2.0, fields=lambda t: (0.0, 1.0, 0.0, 0.0),
                          breakpoints=(0.0123, 1.5, 2.0))
    traj = propagate(sched, KET0, steps=8)
    uniform = np.linspace(0.0, 2.0, 9)
    assert np.array_equal(traj.times, np.union1d(uniform, [0.0123]))


# ---------------------------------------------------------------------------
# eigenstates

def test_eigenstate_gap_examples():
    # at the crossing the gap equals the bare splitting
    s1 = constant_schedule(cx=0.1, cz=0.0)
    _, _, em, ep = instantaneous_eigenstates(s1, 0.0)
    assert ep - em == pytest.approx(0.1, rel=1e-14)
    # away from it, sqrt(Delta^2 + g^2)
    for g in (0.2, -0.2):
        s2 = constant_schedule(cx=0.1, cz=g)
        _, _, em, ep = instantaneous_eigenstates(s2, 0.0)
        assert ep - em == pytest.approx(math.sqrt(0.05), rel=1e-14)
        assert ep - em == pytest.approx(0.2236, abs=5e-5)


def test_eigenstates_are_eigenvectors_with_fixed_phase():
    s = constant_schedule(cx=0.3, cy=0.1, cz=-0.4, c0=0.2)
    gnd, exc, em, ep = instantaneous_eigenstates(s, 0.5)
    H = 0.2 * np.eye(2) + 0.5 * np.array([[-0.4, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])
    assert np.allclose(H @ gnd, em * gnd, atol=1e-14)
    assert np.allclose(H @ exc, ep * exc, atol=1e-14)
    for v in (gnd, exc):
        lead = v[0] if abs(v[0]) > 1e-12 else v[1]
        assert abs(lead.imag) < 1e-14
        assert lead.real > 0


def test_degenerate_point_rejected():
    s = constant_schedule()
    with pytest.raises(ValueError, match="degenerate"):
        instantaneous_eigenstates(s, 0.25)
    crossing = PauliSchedule(1.0, lambda t: (0.0, 0.0, 0.0, t - 0.5))
    with pytest.raises(ValueError, match=r"degenerate spectrum at t=0\.5:"):
        instantaneous_eigenstates(crossing, np.linspace(0.0, 1.0, 5))


def test_eigenstates_over_an_array_match_each_time():
    sched = random_smooth_schedule(seed=7)
    t = np.linspace(0.0, 3.0, 9)
    gnd, exc, em, ep = instantaneous_eigenstates(sched, t)
    assert gnd.shape == exc.shape == (9, 2) and em.shape == ep.shape == (9,)
    for i, ti in enumerate(t):
        g, e, m, p = instantaneous_eigenstates(sched, ti)
        assert np.allclose(gnd[i], g, atol=1e-14) and np.allclose(exc[i], e, atol=1e-14)
        assert em[i] == pytest.approx(m, rel=1e-14) and ep[i] == pytest.approx(p, rel=1e-14)


# ---------------------------------------------------------------------------
# cost

def test_cost_rate_closed_forms():
    assert cost_rate(constant_schedule(cx=0.1), 0.0) == pytest.approx(0.1 / math.sqrt(2))
    assert cost_rate(constant_schedule(cx=0.1), 0.0) == pytest.approx(0.07071, abs=5e-6)
    assert cost_rate(constant_schedule(), 0.3) == 0.0
    # bare sweep endpoint: sqrt((Delta^2 + g^2)/2)
    assert cost_rate(constant_schedule(cx=0.1, cz=-0.2), 0.0) == \
        pytest.approx(math.sqrt(0.05 / 2.0), rel=1e-14)
    assert cost_rate(constant_schedule(cx=0.1, cz=-0.2), 0.0) == \
        pytest.approx(0.1581, abs=5e-5)


def test_integrated_cost_constant():
    for tau in (0.5, 7.0):
        sched = constant_schedule(cx=0.1, tau=tau)
        assert integrated_cost(sched) == pytest.approx(0.1 / math.sqrt(2), rel=1e-12)


def test_integrated_cost_against_quad_oracle():
    sched = random_smooth_schedule(seed=17)
    oracle, _ = quad(lambda t: float(cost_rate(sched, t)), 0.0, sched.duration,
                     limit=200, epsabs=1e-12, epsrel=1e-12)
    assert integrated_cost(sched, 8192) == pytest.approx(oracle / sched.duration, rel=1e-9)


def test_integrated_cost_rejects_coarse_grid():
    with pytest.raises(ValueError, match=">= 16"):
        integrated_cost(constant_schedule(cx=0.1), quadrature_steps=8)


def test_breakpoint_schedule_cost_is_exact():
    # rectangle + flat middle: closed form vs quadrature vs brute force
    g_q, tau, tb = 100.0, 10.0, 0.02
    delta = 0.1

    def cz(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < tb, g_q, np.where(t > tau - tb, -g_q, 0.0))

    sched = PauliSchedule(duration=tau, fields=lambda t: (0.0, delta, 0.0, cz(t)),
                          breakpoints=(tb, tau - tb))
    kick = math.sqrt((delta**2 + g_q**2) / 2.0)
    flat = delta / math.sqrt(2.0)
    closed = (2 * tb * kick + (tau - 2 * tb) * flat) / tau
    assert integrated_cost(sched) == pytest.approx(closed, rel=1e-12)
    # brute-force fine uniform grid cross-check (slowly converging at jumps)
    t = np.linspace(0, tau, 2_000_001)
    brute = np.trapezoid(cost_rate(sched, t), t) / tau
    assert brute == pytest.approx(closed, rel=1e-3)
