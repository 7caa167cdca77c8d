"""Reference implementations that the tests compare the package against."""

import math

import numpy as np

from ctrlcost.jaynes_cummings import JcConfig, _sweep
from ctrlcost.landau_zener import LzConfig
from ctrlcost.oscillator import OscillatorError, default_steps
from ctrlcost.twolevel import _qmul


def recursive_prefix_scan(q, mul=_qmul):
    """Inclusive prefix products P[k] = q[k] ... q[0], as the recursive work-efficient scan
    made them before the scan was split into an up-sweep and a down-sweep: the pair products
    are scanned recursively for the odd prefixes, then P[2i] = q[2i] P[2i-1]."""
    if len(q) < 2:
        return q
    odd = recursive_prefix_scan(mul(q[1::2], q[0:-1:2]), mul)
    out = np.empty_like(q)
    out[0] = q[0]
    out[1::2] = odd
    out[2::2] = mul(q[2::2], odd[:(len(q) - 1) // 2])
    return out


def fourier_pulse_longdouble(g0, tau, x, t):
    """g(t) = g0 - 2 g0 t/tau + sum_n b_n sin(n pi t/tau) + s_n cos(n pi t/tau) for the
    linear coefficients x = (b_n, s_n), summed term by term in long double at the double
    nodes t. On x86-64 that is the 80-bit format (eps 1.1e-19); a platform whose long
    double is the double fails the assertion, as such an oracle would check nothing."""
    ld = np.longdouble
    assert np.finfo(ld).eps < 1e-18, np.finfo(ld)
    n = len(x) // 2
    t, tau, x = (np.asarray(v, dtype=ld) for v in (t, tau, x))
    arg = np.outer(t * (4 * np.arctan(ld(1))) / tau, np.arange(1, n + 1, dtype=ld))
    return ld(g0) - 2 * ld(g0) * t / tau + np.sin(arg) @ x[:n] + np.cos(arg) @ x[n:]


def cd_cost_decomposition(cfg: LzConfig, s_grid) -> tuple:
    """Spectral decomposition of the CD cost in scaled time.

    Returns (sum_n E_n^2, sum_{n != a} |A_{n,a}|^2) on the s grid, where
    A collects the scaled-time nonadiabatic couplings. The integrated cost
    C(tau) = int_0^1 sqrt(sum E^2 + tau^-2 sum |A|^2) ds must match the
    direct Frobenius quadrature of the CD schedule.
    """
    s = np.asarray(s_grid, dtype=float)
    ramp = cfg.ramp_or_default()
    delta = cfg.delta
    g, gd, _ = ramp.rows(s * cfg.tau)
    gp = gd * cfg.tau  # dg/ds
    r2 = delta**2 + g * g
    if np.any(r2 <= 0.0):
        raise ValueError("degenerate gap along the path")
    sum_e2 = r2 / 2.0
    sum_a2 = gp * gp * delta**2 / (2.0 * r2 * r2)
    return sum_e2, sum_a2


def decomposition_cost(cfg: LzConfig, points: int = 8193) -> float:
    """CD cost via the spectral decomposition route (independent of Eq.-norm path)."""
    from scipy.integrate import simpson
    s = np.linspace(0.0, 1.0, points)
    sum_e2, sum_a2 = cd_cost_decomposition(cfg, s)
    return float(simpson(np.sqrt(sum_e2 + sum_a2 / cfg.tau**2), x=s))


def mixing_angle_rate(cfg: JcConfig, n: int, t):
    """theta_n-dot from the mixing angle theta_n = (1/2) arctan(Omega_R/delta).

    Independent route used to cross-check the closed-form CD coefficient.
    """
    ramp = _sweep(cfg)
    rt = math.sqrt(n + 1.0)
    g, gd, _ = ramp.rows(t)
    omr, omrd = 2.0 * rt * g, 2.0 * rt * gd
    return 0.5 * omrd * cfg.delta / (cfg.delta**2 + omr * omr)


def split_quad_cost(schedule, samples: int = 20_001) -> float:
    """(1/tau) int_0^tau ||H|| dt by scipy's ``quad``, split at every zero of cz.

    Where cz crosses zero, ||H|| = sqrt(cx^2 + cy^2 + cz^2)/sqrt(2) has a kink
    or a narrow peak. The zeros are bracketed on ``samples`` uniform points
    and found by ``brentq``; between them ``quad`` reaches round-off.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq
    tau = schedule.duration

    def cz(x):
        return float(schedule.coefficients(x)[3])

    def rate(x):
        return float(np.sqrt(sum(c * c for c in schedule.coefficients(x)[1:]) / 2.0))

    t = np.linspace(0.0, tau, samples)
    z = np.broadcast_to(schedule.coefficients(t)[3], t.shape)
    sampled = t[1:-1][z[1:-1] == 0.0]   # such as an antisymmetric sweep's tau/2
    roots = [brentq(cz, t[k], t[k + 1], xtol=1e-15 * tau)
             for k in np.flatnonzero(z[:-1] * z[1:] < 0.0)]
    edges = [0.0, *sorted([*sampled, *roots]), tau]
    # the absolute floor serves the short pieces next to s = 1, where the quintic's
    # closed form cancels (x^2 - 2x^3 + x^4 near x = 1) and round-off dominates
    return sum(quad(rate, a, b, epsabs=1e-16 * tau, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:])) / tau


def percent_rows(table) -> bytes:
    """A table's CSV rows as the per-row writer made them before the vectorized kernel:
    one ``%`` call per row, every value as "%.17g"."""
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join(row % tuple(r) for r in table.tolist()).encode()


def ermakov_solve(ramp, steps=None):
    """(times, b, b') of b'' + omega^2 b = omega0^2 / b^3 with b(0)=1, b'(0)=0.

    The initial conditions are those of thermal equilibrium in the initial
    trap. Classical RK4 on its own step loop, kept apart from the transfer
    matrices of ``classical_solutions`` so that it checks them independently.
    """
    if steps is None:
        steps = default_steps(ramp)
    h = ramp.duration / steps
    t = np.linspace(0.0, ramp.duration, steps + 1)
    w2 = ramp.value(t) ** 2
    w2_m = ramp.value(t[:-1] + 0.5 * h) ** 2
    w0sq = float(ramp.value(0.0)) ** 2
    b, bd = 1.0, 0.0
    bs = np.empty(steps + 1)
    bds = np.empty(steps + 1)
    bs[0], bds[0] = b, bd
    for k in range(steps):
        a0, am, a1 = w2[k], w2_m[k], w2[k + 1]
        if b <= 0.0:
            raise OscillatorError(f"Ermakov scale b <= 0 at t={t[k]!r} (unphysical)")
        k1b, k1v = bd, w0sq / b**3 - a0 * b
        b2 = b + 0.5 * h * k1b
        k2b, k2v = bd + 0.5 * h * k1v, w0sq / b2**3 - am * b2
        b3 = b + 0.5 * h * k2b
        k3b, k3v = bd + 0.5 * h * k2v, w0sq / b3**3 - am * b3
        b4 = b + h * k3b
        k4b, k4v = bd + h * k3v, w0sq / b4**3 - a1 * b4
        b += h / 6.0 * (k1b + 2 * k2b + 2 * k3b + k4b)
        bd += h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        bs[k + 1], bds[k + 1] = b, bd
    if np.any(bs <= 0.0):
        raise OscillatorError("Ermakov scale b <= 0 encountered (unphysical)")
    return t, bs, bds


def ie_energy(ramp, times, b, bd, beta):
    """Mean energy along the invariant-based trajectory (Ermakov route) at the times of b.

    <H_IE> = (1/2) [b'^2/(2 w0) + w^2 b^2/(2 w0) + w0/(2 b^2)] coth(beta w0 / 2)
    """
    w0 = float(ramp.value(0.0))
    w = ramp.value(times)
    coth = 1.0 / math.tanh(beta * w0 / 2.0)
    return 0.5 * (bd**2 / (2 * w0) + w**2 * b**2 / (2 * w0) + w0 / (2 * b**2)) * coth


def exp_minus_identity(h, b):
    """The oscillator's CF4 factor exp([[0, h/2], [-b, 0]]) - I as rows, written out as the
    package had it before its branch-only kernel: both branches everywhere, then np.stack."""
    z = 0.5 * h * b
    k = np.sqrt(np.abs(z))
    trig = z >= 0.0
    safe_k = np.where(k > 0.0, k, 1.0)
    s = np.where(k > 0.0, np.where(trig, np.sin(k), np.sinh(k)) / safe_k, 1.0)
    half = np.where(trig, np.sin(0.5 * k), np.sinh(0.5 * k))
    cm1 = np.where(trig, -2.0, 2.0) * half * half
    return np.stack([cm1, 0.5 * h * s, -b * s, cm1]).T


def near_identity_product(a, b):
    """(I + a)(I + b) - I = a + b + a b for 2x2 rows (m00, m01, m10, m11), written out
    component by component as the package had it before its einsum kernel."""
    a0, a1, a2, a3 = a.T
    b0, b1, b2, b3 = b.T
    return np.stack([a0 + b0 + (a0 * b0 + a1 * b2), a1 + b1 + (a0 * b1 + a1 * b3),
                     a2 + b2 + (a2 * b0 + a3 * b2), a3 + b3 + (a2 * b1 + a3 * b3)]).T
