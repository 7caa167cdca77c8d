"""Parametrically driven harmonic oscillator: protocols and energy cost.

The frequency sweep omega(t) is a ``Ramp`` on [0, duration]; its closed-form
rows (omega, omega-dot, omega-ddot) serve the CD and LCD constructions, and
omega0 is its value at t = 0. The preset sweep is ``poly_smooth_ramp(w0, w1 - w0, tau)``.
The oscillator starts in thermal equilibrium of the initial trap. All
dynamical quantities reduce to the classical auxiliary solutions X(t), Y(t)
of x'' + omega^2(t) x = 0 (Wronskian X Y' - X' Y = -1), even the IE
protocol's Ermakov scale b = sqrt(Y^2 + omega0^2 X^2) (Pinney, Proc. Amer.
Math. Soc. 1, 681 (1950)). The degree of nonadiabaticity is the Husimi
parameter Q* >= 1, and the protocol cost is the time average of the mean energy

    <H_tot> = (omega_t / 2) Q*_k coth(beta omega_0 / 2),

the operator norm being infinite for the unbounded spectrum. For local
counterdiabatic driving the frequency omega is replaced by the effective
Omega both in the prefactor and inside Q*.

X and Y are the columns of one fundamental matrix [[Y, X], [Y', X']] of
(x, x')' = A(t) (x, x'), A = [[0, 1], [-omega^2, 0]]. Each step is the
fourth-order commutator-free Magnus step with two Gauss nodes (Blanes &
Moan, Appl. Numer. Math. 56, 1519 (2006); the qubit core's ``_gauss_nodes``
and ``_ALPHA``), a product of two closed-form 2x2 exponentials, so every step
is unimodular and the Wronskian is -1 to round-off. An exponential takes sin
or sinh only on its own element's branch. The steps are carried near the
identity, E = M - I, and their running products come from the work-efficient
prefix scan of the qubit core (``twolevel._prefix_scan``), each product being
a + b plus one einsum on the rows' (2, 2, m) view. The tests check them against
an RK4 loop on the Ermakov equation, which lives in ``tests/oracles.py`` as an oracle.

Costs are scanned in scaled time s = t/tau, as the Landau-Zener scans are.
On rows (w, w_s, w_ss) in s, omega-dot^2 = w_s^2/tau^2 and omega-ddot = w_ss/tau^2,
so Q*_cd = (1 - r/tau^2)^(-1/2) and Q*_ie = 1 + r/(2 tau^2) with r = w_s^2/(4 w^4),
and Omega^2 = w^2 + (w_ss/(2 w) - 3 w_s^2/(4 w^2))/tau^2. ``_cost_scan`` evaluates
the quintic's unit rows once per step count, on s and on its Gauss nodes; the
closed forms run for all durations in chunked (durations, s) buffers, and LCD
forms its Omega^2 per duration from the rows. ``oscillator_cost`` is the same
kernel (``_costs``) for one ramp, on its rows in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ramps import Ramp, poly_smooth_ramp
from .twolevel import _ALPHA, _SCAN_CHUNK, _gauss_nodes, _prefix_scan, _simpson_weights

__all__ = [
    "OscillatorSolution",
    "OscillatorError",
    "CdValidityError",
    "LcdValidityError",
    "classical_solutions",
    "husimi_qstar",
    "lcd_frequency",
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
    """Grids of the classical pair (X, Y) and their derivatives."""

    times: np.ndarray
    X: np.ndarray
    Xd: np.ndarray
    Y: np.ndarray
    Yd: np.ndarray

    def wronskian(self) -> np.ndarray:
        return self.X * self.Yd - self.Xd * self.Y


def default_steps(ramp: Ramp) -> int:
    """CF4 steps: 50 per unit of omega_max tau (larger endpoint omega, at least 1), 4,000 to 50,000.

    This resolves the 1 -> 10 sweep to round-off: at tau = 1.55, 2.5 and 10 every cost and
    the bare and LCD Q*(tau) are within 2.6e-14 relative of those at 16 times the steps."""
    return _step_rule(float(ramp.value(0.0)), float(ramp.value(ramp.duration)), ramp.duration)


def _step_rule(w_start: float, w_end: float, tau: float) -> int:
    """``default_steps`` of a sweep from w_start to w_end over tau."""
    return int(min(50_000, max(4_000, 50 * max(abs(w_start), abs(w_end), 1.0) * tau)))


def _exp_minus_identity(h: float, b: np.ndarray) -> np.ndarray:
    """exp([[0, h/2], [-b, 0]]) - I as rows (c - 1, (h/2) S, -b S, c - 1).

    With z = b h/2: c = cos(sqrt z), S = sin(sqrt z)/sqrt z for z > 0;
    cosh and sinh for z < 0, where the Gauss combination b turns negative;
    c = S = 1 at z = 0. c - 1 = -2 sin^2(sqrt(z)/2) (+2 sinh^2 for z < 0)
    keeps its relative precision for small steps. Each element takes sin or
    sinh on its own branch only (``where=``), into the (4, m) storage whose
    rows view it component-major, as the prefix scan keeps them.
    """
    z = 0.5 * h * b
    k = np.sqrt(np.abs(z))
    trig = z >= 0.0
    hyp = ~trig
    out = np.empty((4, len(b)))
    cm1, s01, s10, half = out   # row 3 holds sin(k/2) or sinh(k/2) until it takes c - 1
    np.multiply(k, 0.5, out=s01)   # k/2, until row 1 takes (h/2) S
    np.sin(s01, out=half, where=trig)
    np.sinh(s01, out=half, where=hyp)
    np.multiply(half, -2.0, out=cm1, where=trig)
    np.multiply(half, 2.0, out=cm1, where=hyp)
    np.multiply(cm1, half, out=cm1)
    half[:] = cm1
    np.sin(k, out=s10, where=trig)   # S, then -b S
    np.sinh(k, out=s10, where=hyp)
    nonzero = k > 0.0
    np.divide(s10, k, out=s10, where=nonzero)
    np.copyto(s10, 1.0, where=~nonzero)
    np.multiply(s10, 0.5 * h, out=s01)
    np.negative(np.multiply(s10, b, out=s10), out=s10)
    return out.T


def _near_identity_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(I + a)(I + b) - I = a + b + a b for 2x2 rows (m00, m01, m10, m11), or one (4,) row:
    a + b, then one einsum on the rows' (2, 2, m) view, with no BLAS call."""
    out = np.add(a.T, b.T)
    prod = np.einsum("ijm,jkm->ikm", a.T.reshape(2, 2, -1), b.T.reshape(2, 2, -1))
    out += prod.reshape(out.shape)
    return out.T


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
    sol = OscillatorSolution(times=t, X=E[1], Xd=1.0 + E[3], Y=1.0 + E[0], Yd=E[2])
    drift = float(np.max(np.abs(sol.wronskian() + 1.0)))
    if drift > WRONSKIAN_TOL:
        raise OscillatorError(f"Wronskian drift {drift:.3e} above {WRONSKIAN_TOL} at {steps} steps")
    return sol


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


def _rate(w, wx):
    """r = w_x^2 / (4 w^4), the one part of Q*_cd and Q*_ie that the ramp sets."""
    return wx**2 / (4.0 * w**4)


def _closed_qstar(protocol: str, r, k, out=None):
    """Q* of the cd or ie protocol from ``_rate``'s r at scale k, and cd's trap-inversion mask.

    k r is omega-dot^2 / (4 omega^4): k = 1 on rows in t, k = tau^-2 on rows in s = t/tau.
    cd: (1 - k r)^(-1/2), undefined where 1 - k r <= 0 (the mask); ie: 1 + k r / 2, mask None.
    """
    out = np.multiply(r, k, out=np.empty(np.shape(r)) if out is None else out)
    if protocol == "ie":
        return np.add(1.0, np.multiply(out, 0.5, out=out), out=out), None
    bad = np.subtract(1.0, out, out=out) <= 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.power(out, -0.5, out=out), bad


def _closed_form(ramp: Ramp, protocol: str, t):
    """omega and the closed-form Q* of the cd or ie protocol at t."""
    t = np.asarray(t, dtype=float)
    w, wd, _ = ramp.rows(t)
    q, bad = _closed_qstar(protocol, _rate(w, wd), 1.0)
    if bad is not None and np.any(bad):
        raise CdValidityError(float(np.atleast_1d(t)[np.atleast_1d(bad)][0]))
    return w, q


def _lcd_parts(w, wx, wxx):
    """(w^2, 3 w_x^2 / (4 w^2), w_xx / (2 w)): ``_lcd_omega2`` at any scale k."""
    return w**2, 3.0 * wx**2 / (4.0 * w**2), wxx / (2.0 * w)


def _lcd_omega2(parts, k):
    """Omega^2 = w^2 - k 3 w_x^2 / (4 w^2) + k w_xx / (2 w), k as in ``_closed_qstar``."""
    w2, slope, curve = parts
    return w2 - k * slope + k * curve


def lcd_frequency(ramp: Ramp, t):
    """Effective squared frequency of the local counterdiabatic trap.

    Omega^2 = omega^2 - 3 omega_dot^2 / (4 omega^2) + omega_ddot / (2 omega).
    The sign is reported, not raised, so scans can map validity regions.
    """
    return _lcd_omega2(_lcd_parts(*ramp.rows(t)), 1.0)


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


def _lcd_checked(w2, tau: float) -> np.ndarray:
    """Omega from Omega^2 on the grid of [0, tau], or LcdValidityError at its first w2 <= 0."""
    if np.any(w2 <= 0.0):
        raise LcdValidityError(float(np.linspace(0.0, tau, len(w2))[np.argmax(w2 <= 0.0)]))
    return np.sqrt(w2)


def _series(ramp: Ramp, protocol: str, steps: Optional[int]):
    """(t, frequency, Q*) of one protocol, with omega (LCD: Omega) evaluated once on the grid."""
    if steps is None:
        steps = default_steps(ramp)
    t = np.linspace(0.0, ramp.duration, steps + 1)
    if protocol in ("cd", "ie"):
        return (t, *_closed_form(ramp, protocol, t))
    if protocol == "bare":
        w, sol = ramp.value(t), classical_solutions(ramp, steps)
    elif protocol == "lcd":
        w = _lcd_checked(lcd_frequency(ramp, t), ramp.duration)
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


# ---------------------------------------------------------------------------
# costs: one kernel over durations that share a grid

def _costs(protocols, rows_at, x: np.ndarray, ramps, scale: np.ndarray, beta: float):
    """Costs of ``ramps`` that share the grid x of n + 1 points, and the cells that failed.

    ``rows_at(x)`` gives (w, w_x, w_xx): x is s = t/tau with ``scale`` tau^-2 in a scan,
    or t with scale 1 for one ramp (``_closed_qstar``). C = (1/tau) int <H_tot> dt =
    int_0^1 (w/2) Q* coth(beta w0/2) ds is a row's Simpson sum, whatever the batch.
    Returns (costs (protocols, ramps), {(ramp index, protocol index): OscillatorError});
    a failed cell is NaN. The Husimi protocols run first, so that the node rows are let
    go before the closed forms' (durations, x) chunk buffer is made.
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"inverse temperature beta must be positive and finite, got {beta}")
    for p in protocols:
        if p not in PROTOCOLS:
            raise ValueError(f"unknown protocol {p!r}")
    n = len(x) - 1
    rows = rows_at(x)
    weights = _simpson_weights(n, 1.0 / n) * (0.5 / math.tanh(beta * float(rows[0][0]) / 2.0))
    costs = np.full((len(protocols), len(ramps)), np.nan)
    errors = {}
    husimi = [(i, p) for i, p in enumerate(protocols) if p in ("bare", "lcd")]
    closed = [(i, p) for i, p in enumerate(protocols) if p in ("cd", "ie")]
    if husimi:
        _husimi_costs(husimi, rows_at, x, rows, ramps, scale, weights, costs, errors)
    if closed:
        _closed_costs(closed, rows, ramps, scale, weights, costs, errors)
    return costs, errors


def _husimi_costs(protocols, rows_at, x, rows, ramps, scale, weights, costs, errors):
    """Bare and LCD cells of ``_costs``: one ``classical_solutions`` per ramp, on the squared
    frequency formed from the rows at the grid's Gauss nodes, evaluated here once."""
    steps = len(x) - 1
    node_rows = rows_at(_gauss_nodes(x))
    bare = node_rows[0] ** 2 if any(p == "bare" for _, p in protocols) else None
    lcd = _lcd_parts(*node_rows) if any(p == "lcd" for _, p in protocols) else None
    del node_rows
    lcd_grid = _lcd_parts(*rows) if lcd is not None else None
    for j, (ramp, k) in enumerate(zip(ramps, scale)):
        for i, p in protocols:
            try:
                if p == "bare":
                    w, w2 = rows[0], bare
                else:
                    w = _lcd_checked(_lcd_omega2(lcd_grid, k), ramp.duration)
                    w2 = _lcd_omega2(lcd, k)
                # omega2 is called once, on the Gauss nodes of this grid in t: w2 is there
                sol = classical_solutions(ramp, steps, omega2=lambda _, w2=w2: w2)
                q = husimi_qstar(ramp, sol, omega_ref=w[0], omega=w)
            except OscillatorError as err:
                errors[j, i] = err
                continue
            costs[i, j] = np.multiply(q, np.multiply(w, weights)).sum()


def _closed_costs(protocols, rows, ramps, scale, weights, costs, errors):
    """CD and IE cells of ``_costs``, in (durations, x) chunks of ``_SCAN_CHUNK`` floats."""
    w, wx, _ = rows
    r, ww = _rate(w, wx), w * weights
    chunk = max(1, min(len(ramps), _SCAN_CHUNK // len(w)))
    buf = np.empty((chunk, len(w)))   # reused: fresh ones cost more than passes
    for j0 in range(0, len(ramps), chunk):
        k = scale[j0:j0 + chunk, None]
        q = buf[:len(k)]
        for i, p in protocols:
            _, bad = _closed_qstar(p, r, k, q)
            costs[i, j0:j0 + len(k)] = np.multiply(q, ww, out=q).sum(-1)
            inverted = np.flatnonzero(bad.any(-1)) if bad is not None else ()
            for row in inverted:
                j = j0 + int(row)
                costs[i, j] = np.nan
                errors[j, i] = CdValidityError(
                    float(np.linspace(0.0, ramps[j].duration, len(w))[np.argmax(bad[row])]))


def _cost_scan(omega0: float, omega1: float, taus, protocols, beta: float = 3.0):
    """``oscillator_cost`` of the quintic sweep omega0 -> omega1 for every duration, in s = t/tau.

    Durations that share a ``default_steps`` count share the unit sweep's rows on s and its
    Gauss nodes, evaluated once; tau enters through k = tau^-2 (``_costs``). Returns
    (costs (protocols, taus), {(tau index, protocol index): OscillatorError}), a failed cell
    being NaN; a cell does not depend on the other durations.
    """
    taus = np.asarray(list(taus), dtype=float)
    if not np.all(np.isfinite(taus) & (taus > 0)):
        raise ValueError("all tau values must be positive and finite")
    unit = poly_smooth_ramp(omega0, omega1 - omega0, 1.0)
    ends = float(unit.value(0.0)), float(unit.value(1.0))
    steps = [_step_rule(*ends, tau) for tau in taus]
    costs, errors = np.empty((len(protocols), len(taus))), {}
    for n in sorted(set(steps)):   # not np.unique, which imports numpy.ma
        idx = np.flatnonzero(np.equal(steps, n))
        ramps = [poly_smooth_ramp(omega0, omega1 - omega0, float(t)) for t in taus[idx]]
        c, e = _costs(protocols, unit.rows, np.linspace(0.0, 1.0, n + 1), ramps,
                      1.0 / (taus[idx] * taus[idx]), beta)
        costs[:, idx] = c
        errors.update({(int(idx[j]), i): err for (j, i), err in e.items()})
    return costs, dict(sorted(errors.items()))


def oscillator_cost(ramp: Ramp, protocol: str, beta: float = 3.0,
                    steps: Optional[int] = None) -> float:
    """Time-averaged mean energy C = (1/tau) int <H_tot> dt for one protocol.

    <H_tot> = (w_t/2) Q*_k coth(beta w0/2); for LCD the prefactor frequency
    is Omega(t). It is the one-duration case of ``_costs``, on the ramp's rows
    on its time grid. Validity violations raise the corresponding typed error.
    """
    if steps is None:
        steps = default_steps(ramp)
    costs, errors = _costs((protocol,), ramp.rows, np.linspace(0.0, ramp.duration, steps + 1),
                           [ramp], np.ones(1), beta)
    if errors:
        raise errors[0, 0]
    return float(costs[0, 0])
