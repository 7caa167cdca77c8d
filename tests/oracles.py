"""Reference implementations that the tests compare the package against."""

import math

import numpy as np

from ctrlcost.jaynes_cummings import JcConfig, _sweep
from ctrlcost.landau_zener import LzConfig
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
