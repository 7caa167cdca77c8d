"""Parametrically driven harmonic oscillator: protocols and energy cost.

The frequency sweep omega(t) is a ``Ramp`` on [0, duration]; its closed-form
rows (omega, omega-dot, omega-ddot) serve the CD and LCD constructions, and
omega0 is its value at t = 0. The preset sweep is ``poly_smooth_ramp(w0, w1 - w0, tau)``.
The oscillator starts in thermal equilibrium of the initial trap. All
dynamical quantities reduce to the classical auxiliary solutions X(t), Y(t)
of x'' + omega^2(t) x = 0 (Wronskian X Y' - X' Y = -1) and the Ermakov scale
b(t). The degree of nonadiabaticity is the Husimi parameter Q* >= 1, and the
protocol cost is the time average of the mean energy

    <H_tot> = (omega_t / 2) Q*_k coth(beta omega_0 / 2),

the operator norm being infinite for the unbounded spectrum. For local
counterdiabatic driving the frequency omega is replaced by the effective
Omega both in the prefactor and inside Q*.

X and Y are the columns of one fundamental matrix [[Y, X], [Y', X']] of
(x, x')' = A(t) (x, x'), A = [[0, 1], [-omega^2, 0]]. Each step is the
fourth-order commutator-free Magnus step with two Gauss nodes (Blanes &
Moan, Appl. Numer. Math. 56, 1519 (2006); the qubit core's ``_gauss_nodes``
and ``_ALPHA``), a product of two closed-form 2x2 exponentials, so every step
is unimodular and the Wronskian is -1 to round-off. The steps are carried near the identity, E = M - I, and their
running products come from the work-efficient prefix scan of the qubit
core (``twolevel._prefix_scan``). The Ermakov route keeps its own RK4 loop,
an oracle independent of the transfer matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ramps import Ramp, poly_smooth_ramp
from .twolevel import _ALPHA, _gauss_nodes, _prefix_scan, _simpson_weights

__all__ = [
    "OscillatorSolution",
    "OscillatorError",
    "CdValidityError",
    "LcdValidityError",
    "classical_solutions",
    "ermakov_solve",
    "husimi_qstar",
    "qstar_cd",
    "qstar_ie",
    "lcd_frequency",
    "ie_energy",
    "qstar_series",
    "oscillator_cost",
    "cd_is_valid",
    "cd_validity_edge",
    "lcd_is_valid",
    "default_steps",
]

WRONSKIAN_TOL = 1e-6
VALIDITY_SAMPLES = 4001   # grid points of cd_is_valid, lcd_is_valid and cd_validity_edge
PROTOCOLS = ("bare", "cd", "lcd", "ie")


class OscillatorError(RuntimeError):
    pass


class CdValidityError(OscillatorError):
    """Trap inversion: omega^2 < omega_dot^2 / (4 omega^2) somewhere."""

    def __init__(self, t):
        self.t = t
        super().__init__(f"CD validity constraint violated at t={t}")


class LcdValidityError(OscillatorError):
    """Effective squared frequency Omega^2 non-positive somewhere."""

    def __init__(self, t):
        self.t = t
        super().__init__(f"LCD effective frequency non-positive at t={t}")


@dataclass
class OscillatorSolution:
    """Grids of the classical pair (X, Y) and/or the Ermakov scale b."""

    times: np.ndarray
    X: Optional[np.ndarray] = None
    Xd: Optional[np.ndarray] = None
    Y: Optional[np.ndarray] = None
    Yd: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    bd: Optional[np.ndarray] = None

    def wronskian(self) -> np.ndarray:
        return self.X * self.Yd - self.Xd * self.Y


def default_steps(ramp: Ramp) -> int:
    """CF4 steps: 50 per unit of omega_max tau (larger endpoint omega, at least 1), 4,000 to 50,000.

    This resolves the 1 -> 10 sweep to round-off: at tau = 1.55, 2.5 and 10 every cost and
    the bare and LCD Q*(tau) are within 2.6e-14 relative of those at 16 times the steps."""
    wmax = max(abs(float(ramp.value(0.0))), abs(float(ramp.value(ramp.duration))), 1.0)
    return int(min(50_000, max(4_000, 50 * wmax * ramp.duration)))


def _exp_minus_identity(h: float, b: np.ndarray) -> np.ndarray:
    """exp([[0, h/2], [-b, 0]]) - I as rows (c - 1, (h/2) S, -b S, c - 1).

    With z = b h/2: c = cos(sqrt z), S = sin(sqrt z)/sqrt z for z > 0;
    cosh and sinh for z < 0, where the Gauss combination b turns negative;
    c = S = 1 at z = 0. c - 1 = -2 sin^2(sqrt(z)/2) (+2 sinh^2 for z < 0)
    keeps its relative precision for small steps. Rows are stored
    component-major, as the prefix scan keeps them.
    """
    z = 0.5 * h * b
    k = np.sqrt(np.abs(z))
    trig = z >= 0.0
    safe_k = np.where(k > 0.0, k, 1.0)
    s = np.where(k > 0.0, np.where(trig, np.sin(k), np.sinh(k)) / safe_k, 1.0)
    half = np.where(trig, np.sin(0.5 * k), np.sinh(0.5 * k))
    cm1 = np.where(trig, -2.0, 2.0) * half * half
    return np.stack([cm1, 0.5 * h * s, -b * s, cm1]).T


def _near_identity_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(I + a)(I + b) - I = a + b + a b for 2x2 rows (m00, m01, m10, m11)."""
    a0, a1, a2, a3 = a.T
    b0, b1, b2, b3 = b.T
    return np.stack([a0 + b0 + (a0 * b0 + a1 * b2), a1 + b1 + (a0 * b1 + a1 * b3),
                     a2 + b2 + (a2 * b0 + a3 * b2), a3 + b3 + (a2 * b1 + a3 * b3)]).T


def _fundamental_matrix(omega2_at, tau: float, steps: int):
    """Grid and the components (Y - 1, X, Y', X' - 1) of [[Y, X], [Y', X']] - I on it.

    One CF4 step is exp(h(a2 A1 + a1 A2)) exp(h(a1 A1 + a2 A2)), with A1, A2
    at the Gauss nodes of the step.
    """
    h = tau / steps
    t = np.linspace(0.0, tau, steps + 1)
    w1, w2 = omega2_at(_gauss_nodes(t)).reshape(-1, 2).T
    a1, a2 = _ALPHA
    first = _exp_minus_identity(h, h * (a1 * w1 + a2 * w2))
    second = _exp_minus_identity(h, h * (a2 * w1 + a1 * w2))
    E = _prefix_scan(_near_identity_product(second, first), _near_identity_product)
    return t, np.concatenate([np.zeros((4, 1)), E.T], axis=1)


def classical_solutions(ramp: Ramp, steps: Optional[int] = None,
                        omega2: Optional[Callable] = None) -> OscillatorSolution:
    """Both auxiliary solutions X (X0=0, X'0=1) and Y (Y0=1, Y'0=0) on a uniform grid.

    They are the columns of the CF4 fundamental matrix (module docstring).
    ``omega2`` overrides the squared frequency (used for the LCD effective
    trap); by default it is ramp.value(t)^2. Every CF4 step is unimodular, so
    a Wronskian drift is round-off of a growing solution, which a finer grid
    cannot lower: a drift above the tolerance raises OscillatorError.
    """
    if steps is None:
        steps = default_steps(ramp)
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    w2 = omega2 if omega2 is not None else (lambda t: ramp.value(t) ** 2)
    t, E = _fundamental_matrix(w2, ramp.duration, steps)
    Y, X, Yd, Xd = 1.0 + E[0], E[1], E[2], 1.0 + E[3]
    drift = float(np.max(np.abs(X * Yd - Xd * Y + 1.0)))
    if drift > WRONSKIAN_TOL:
        raise OscillatorError(f"Wronskian drift {drift:.3e} above {WRONSKIAN_TOL} at {steps} steps")
    return OscillatorSolution(times=t, X=X, Xd=Xd, Y=Y, Yd=Yd)


def ermakov_solve(ramp: Ramp, steps: Optional[int] = None) -> OscillatorSolution:
    """Integrate b'' + omega^2 b = omega0^2 / b^3 with b(0)=1, b'(0)=0.

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
    return OscillatorSolution(times=t, b=bs, bd=bds)


def husimi_qstar(ramp: Ramp, sol: OscillatorSolution,
                 omega_ref: Optional[float] = None, omega: Optional[np.ndarray] = None):
    """Adiabaticity parameter from the classical pair, on the solution grid.

    Q* = [w0^2 (w^2 X^2 + X'^2) + (w^2 Y^2 + Y'^2)] / (2 w0 w)

    ``omega_ref`` is the reference initial frequency (default omega(0));
    ``omega`` holds the frequency on the grid in place of omega(t) (LCD's Omega).
    """
    w0 = float(ramp.value(0.0)) if omega_ref is None else float(omega_ref)
    w = np.asarray(ramp.value(sol.times) if omega is None else omega, dtype=float)
    if np.any(w <= 0.0):
        raise OscillatorError("omega(t) must be positive for Q*")
    X, Xd, Y, Yd = sol.X, sol.Xd, sol.Y, sol.Yd
    return (w0**2 * (w**2 * X**2 + Xd**2) + (w**2 * Y**2 + Yd**2)) / (2.0 * w0 * w)


def qstar_cd(ramp: Ramp, t):
    """Closed-form Q* under counterdiabatic driving.

    Q*_CD = [1 - omega_dot^2 / (4 omega^4)]^(-1/2); requires the
    no-trap-inversion condition omega^2 > omega_dot^2 / (4 omega^2).
    """
    return _closed_form(ramp, "cd", t)[1]


def qstar_ie(ramp: Ramp, t):
    """Inverse-engineering adiabaticity parameter Q*_IE = 1 + omega_dot^2/(8 omega^4)."""
    return _closed_form(ramp, "ie", t)[1]


def _closed_form(ramp: Ramp, protocol: str, t):
    """omega and the closed-form Q* of the cd or ie protocol at t."""
    t = np.asarray(t, dtype=float)
    w, wd, _ = ramp.rows(t)
    if protocol == "ie":
        return w, 1.0 + wd**2 / (8.0 * w**4)
    arg = 1.0 - wd**2 / (4.0 * w**4)
    bad = arg <= 0.0
    if np.any(bad):
        raise CdValidityError(float(np.atleast_1d(t)[np.atleast_1d(bad)][0]))
    return w, arg**-0.5


def lcd_frequency(ramp: Ramp, t):
    """Effective squared frequency of the local counterdiabatic trap.

    Omega^2 = omega^2 - 3 omega_dot^2 / (4 omega^2) + omega_ddot / (2 omega).
    The sign is reported, not raised, so scans can map validity regions.
    """
    w, wd, wdd = ramp.rows(t)
    return w**2 - 3.0 * wd**2 / (4.0 * w**2) + wdd / (2.0 * w)


def cd_is_valid(ramp: Ramp) -> bool:
    w, wd, _ = ramp.rows(np.linspace(0.0, ramp.duration, VALIDITY_SAMPLES))
    return bool(np.all(4.0 * w**4 > wd**2))


def lcd_is_valid(ramp: Ramp) -> bool:
    t = np.linspace(0.0, ramp.duration, VALIDITY_SAMPLES)
    return bool(np.all(lcd_frequency(ramp, t) > 0.0))


def cd_validity_edge(omega0: float = 1.0, omega1: float = 10.0) -> float:
    """Smallest quintic-ramp duration that ``cd_is_valid`` accepts.

    The sweep is valid when tau > h(x) = 15 |w1 - w0| x^2 (1 - x)^2 / w(x)^2
    for all x = t/tau; the edge is the maximum of h over the samples that
    ``cd_is_valid`` checks. A constant frequency (w0 = w1) is valid at any
    duration: the edge is 0.
    """
    x = np.linspace(0.0, 1.0, VALIDITY_SAMPLES)
    w = poly_smooth_ramp(omega0, omega1 - omega0, 1.0).value(x)
    return float(np.max(15.0 * abs(omega1 - omega0) * x**2 * (1.0 - x) ** 2 / w**2))


def ie_energy(ramp: Ramp, sol: OscillatorSolution, beta: float):
    """Mean energy along the invariant-based trajectory (Ermakov route), on the solution grid.

    <H_IE> = (1/2) [b'^2/(2 w0) + w^2 b^2/(2 w0) + w0/(2 b^2)] coth(beta w0 / 2)
    """
    if sol.b is None:
        raise ValueError("solution carries no Ermakov scale; run ermakov_solve")
    b, bd = sol.b, sol.bd
    w0 = float(ramp.value(0.0))
    w = ramp.value(sol.times)
    coth = 1.0 / math.tanh(beta * w0 / 2.0)
    return 0.5 * (bd**2 / (2 * w0) + w**2 * b**2 / (2 * w0) + w0 / (2 * b**2)) * coth


def _series(ramp: Ramp, protocol: str, steps: Optional[int]):
    """(t, frequency, Q*) of one protocol, with omega (LCD: Omega) evaluated once on the grid."""
    if steps is None:
        steps = default_steps(ramp)
    t = np.linspace(0.0, ramp.duration, steps + 1)
    if protocol in ("cd", "ie"):
        return (t, *_closed_form(ramp, protocol, t))
    w = lcd_frequency(ramp, t) if protocol == "lcd" else ramp.value(t)
    if protocol == "bare":
        sol = classical_solutions(ramp, steps)
    elif protocol == "lcd":
        if np.any(w <= 0.0):
            raise LcdValidityError(float(t[np.argmax(w <= 0.0)]))
        w = np.sqrt(w)
        sol = classical_solutions(ramp, steps, omega2=lambda tt: lcd_frequency(ramp, tt))
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return t, w, husimi_qstar(ramp, sol, omega_ref=w[0], omega=w)


def qstar_series(ramp: Ramp, protocol: str,
                 steps: Optional[int] = None):
    """(times, Q*) for one protocol on a common grid.

    bare: Husimi Q* from the classical pair under omega(t).
    cd:   closed form (raises CdValidityError on trap inversion).
    lcd:  Husimi Q* with omega -> Omega in the dynamics and the formula.
    ie:   closed form.
    """
    t, _, q = _series(ramp, protocol, steps)
    return t, q


def oscillator_cost(ramp: Ramp, protocol: str, beta: float = 3.0,
                    steps: Optional[int] = None) -> float:
    """Time-averaged mean energy C = (1/tau) int <H_tot> dt for one protocol.

    <H_tot> = (w_t/2) Q*_k coth(beta w0/2); for LCD the prefactor frequency
    is Omega(t). Validity violations raise the corresponding typed error.
    """
    t, w, q = _series(ramp, protocol, steps)
    coth = 1.0 / math.tanh(beta * float(ramp.value(0.0)) / 2.0)
    x = w * q * _simpson_weights(len(t) - 1, t[1] - t[0])
    return float(x.sum() * (0.5 * coth) / ramp.duration)
