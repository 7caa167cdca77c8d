"""Scalar control schedules shared by all models.

Every ramp carries closed-form first and second derivatives because the
local counterdiabatic constructions need g-dot and g-ddot analytically;
nothing in this package differentiates a ramp numerically. Each kind is one
closed form t -> (g, g', g''), ``Ramp.rows``, that computes its shared
intermediates once; a caller that needs more than one row takes them all
from one call, and ``value``, ``deriv1`` and ``deriv2`` pick single rows.

Ramp kinds
----------
polynomial    quintic with flat endpoints (value' = value'' = 0 at 0 and tau)
fourier       linear sweep plus truncated sine series (optimal-control ansatz)
tan-optimal   fast-regime cost-optimal ramp, scaled time s = t/tau
tanh-optimal  slow-regime cost-optimal ramp, scaled time s = t/tau
blended       arctan-weighted combination of the two optimal ramps
constant      degenerate tan-optimal ramp when both endpoints coincide

Ramps are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Ramp",
    "BobPulse",
    "poly_smooth_ramp",
    "oc_fourier_ramp",
    "cd_na_ramp",
    "cd_a_ramp",
    "cd_blended_ramp",
    "blend_weight",
    "bob_pulse",
    "ramp_from_dict",
]

_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class Ramp:
    """A scalar schedule on [0, duration] with analytic derivatives.

    Attributes
    ----------
    kind : str
        One of the ramp kinds listed in the module docstring.
    duration : float
        Length of the time interval (hbar = 1 units). Scaled-time ramps
        use duration 1.0.
    params : dict
        Constructor parameters, sufficient to rebuild the ramp via
        :func:`ramp_from_dict`.
    _rows : callable
        The closed form: a float array t -> (g, g', g'') of t's shape.
    """

    kind: str
    duration: float
    params: dict
    _rows: Callable = field(repr=False)

    def rows(self, t):
        """(value, deriv1, deriv2) at t, from one evaluation of the closed form."""
        return self._rows(np.asarray(t, dtype=float))

    def value(self, t):
        return self.rows(t)[0]

    def deriv1(self, t):
        return self.rows(t)[1]

    def deriv2(self, t):
        return self.rows(t)[2]

    def zeros(self) -> tuple:
        """Interior times in (0, duration) where g changes sign, ascending.

        Sign changes are bracketed on 1,025 samples, where an exact 0 between opposite
        signs is a zero itself (an antisymmetric sweep's duration/2), and refined by
        Newton steps on the closed-form g', which bisect where a step leaves the bracket.
        """
        t = np.linspace(0.0, self.duration, 1025)
        g = self.value(t)
        exact = t[1:-1][(g[1:-1] == 0.0) & (g[:-2] * g[2:] < 0.0)]
        k = np.flatnonzero(g[:-1] * g[1:] < 0.0)
        lo, hi, x = t[k], t[k + 1], 0.5 * (t[k] + t[k + 1])
        for _ in range(64 if k.size else 0):   # Newton converges in a handful of steps
            gx, dx, _ = self.rows(x)
            lo, hi = np.where(gx * g[k] > 0.0, x, lo), np.where(gx * g[k] > 0.0, hi, x)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = x - gx / dx
            x, prev = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi)), x
            if np.all(np.abs(x - prev) <= 1e-15 * self.duration):
                break
        return tuple(sorted(map(float, np.concatenate([exact, x]))))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "parameters": self.params}


def poly_smooth_ramp(g0: float, g_d: float, tau: float) -> Ramp:
    """Quintic ramp g0 -> g0 + g_d with doubly flat endpoints.

    g(t) = g0 + g_d [10 x^3 - 15 x^4 + 6 x^5],  x = t / tau.

    Both deriv1 and deriv2 vanish identically at t = 0 and t = tau, which
    is what makes this ramp admissible for the local counterdiabatic
    protocols.
    """
    if tau <= 0:
        raise ValueError(f"ramp duration must be positive, got tau={tau}")

    def rows(t):
        x = t / tau
        x2, x3, x4 = x**2, x**3, x**4
        return (g0 + g_d * (10.0 * x3 - 15.0 * x4 + 6.0 * x**5),
                g_d * 30.0 * (x2 - 2.0 * x3 + x4) / tau,
                g_d * (60.0 * x - 180.0 * x2 + 120.0 * x3) / tau**2)

    return Ramp("polynomial", tau, {"g0": g0, "g_d": g_d, "tau": tau}, rows)


def oc_fourier_ramp(g0: float, tau: float, coeffs=()) -> Ramp:
    """Linear sweep g0 -> -g0 plus a truncated Fourier series.

    g(t) = g0 - 2 g0 t/tau + sum_n a_n sin(n pi t / tau + phi_n)

    ``coeffs`` is a sequence of (a_n, phi_n) pairs starting at n = 1. An
    empty sequence gives the bare linear ramp. With all phi_n = 0 the sine
    terms vanish at both endpoints so g(0) = g0 and g(tau) = -g0 exactly;
    nonzero phases shift the endpoint values.
    """
    if tau <= 0:
        raise ValueError(f"ramp duration must be positive, got tau={tau}")
    amps = np.array([c[0] for c in coeffs], dtype=float)
    phases = np.array([c[1] for c in coeffs], dtype=float)
    nvec = np.arange(1, len(amps) + 1, dtype=float)
    w = nvec * np.pi / tau
    amps_w, amps_w2 = amps * w, amps * w**2

    def rows(t):
        arg = np.multiply.outer(t, w) + phases
        sin = np.sin(arg)
        return (g0 - 2.0 * g0 * t / tau + sin @ amps,
                -2.0 * g0 / tau + np.cos(arg) @ amps_w,
                0.0 - sin @ amps_w2)

    return Ramp("fourier", tau,
                {"g0": g0, "tau": tau,
                 "coeffs": [[float(a), float(p)] for a, p in zip(amps, phases)]},
                rows)


def cd_na_ramp(delta: float, g0: float, g1: float) -> Ramp:
    """Fast-regime cost-optimal ramp in scaled time s = t/tau.

    g(s) = delta * tan[c1 delta (s + c2)] with the constants fixed by the
    boundary values g(0) = g0 and g(1) = g1. Along this ramp the
    counterdiabatic term has a constant Frobenius norm, which is what makes
    it optimal when the auxiliary field dominates the cost.
    """
    if delta == 0:
        raise ValueError("delta must be nonzero")
    if g0 == g1:
        # degenerate boundary: the constant schedule g0 + 0 * quintic
        return Ramp("tan-optimal", 1.0, {"delta": delta, "g0": g0, "g1": g1},
                    poly_smooth_ramp(g0, 0.0, 1.0).rows)

    c1d = math.atan(g1 / delta) - math.atan(g0 / delta)
    c2 = math.atan(g0 / delta) / c1d

    def rows(s):
        u = c1d * (s + c2)
        tan_u, cos2_u = np.tan(u), np.cos(u) ** 2
        return delta * tan_u, delta * c1d / cos2_u, 2.0 * delta * c1d**2 * tan_u / cos2_u

    return Ramp("tan-optimal", 1.0, {"delta": delta, "g0": g0, "g1": g1}, rows)


def cd_a_ramp(g0: float, m: float = 40.0) -> Ramp:
    """Slow-regime cost-optimal ramp in scaled time, g0 -> -g0 only.

    g(s) = -g0 [tanh(m s - m) + tanh(m s)]

    The tanh pair approximates endpoint delta kicks with a flat middle; it
    satisfies the boundary conditions only for antisymmetric targets
    g1 = -g0 (up to tanh(m) saturation error, < 1e-34 for m = 40).
    """
    if m <= 1:
        raise ValueError(f"steepness m must be > 1, got {m}")

    def rows(s):
        ms = m * s
        tanh_a, tanh_b = np.tanh(ms - m), np.tanh(ms)
        cosh_a, cosh_b = np.cosh(ms - m), np.cosh(ms)
        return (-g0 * (tanh_a + tanh_b), -g0 * m * (cosh_a**-2 + cosh_b**-2),
                2.0 * g0 * m**2 * (tanh_a / cosh_a**2 + tanh_b / cosh_b**2))

    return Ramp("tanh-optimal", 1.0, {"g0": g0, "m": m}, rows)


def blend_weight(eps: float, tau: float) -> float:
    """Monotone blending weight f(tau) = (2/pi) arctan(eps tau) in [0, 1)."""
    return 2.0 / math.pi * math.atan(eps * tau)


def cd_blended_ramp(g_a: Ramp, g_na: Ramp, eps: float, tau: float) -> Ramp:
    """Duration-tau ramp interpolating the two regime-optimal ramps.

    g(t) = f(tau) g_a(t/tau) + [1 - f(tau)] g_na(t/tau),
    f(tau) = (2/pi) arctan(eps tau).

    Both input ramps must live in scaled time (duration 1) and share
    boundary values; a mismatch (e.g. a tanh ramp built for g1 != -g0) is
    rejected.
    """
    if tau <= 0:
        raise ValueError(f"ramp duration must be positive, got tau={tau}")
    for r in (g_a, g_na):
        if abs(r.duration - 1.0) > 1e-12:
            raise ValueError(f"blend inputs must be scaled-time ramps, got duration {r.duration}")
    for s in (0.0, 1.0):
        va, vn = float(g_a.value(s)), float(g_na.value(s))
        if abs(va - vn) > _BOUNDARY_TOL:
            raise ValueError(
                f"boundary mismatch at s={s}: g_a={va!r} vs g_na={vn!r}")
    f = blend_weight(eps, tau)

    def rows(t):
        s = t / tau
        (a0, a1, a2), (n0, n1, n2) = g_a.rows(s), g_na.rows(s)
        return (f * a0 + (1.0 - f) * n0, (f * a1 + (1.0 - f) * n1) / tau,
                (f * a2 + (1.0 - f) * n2) / tau**2)

    return Ramp("blended", tau,
                {"eps": eps, "tau": tau, "g_a": g_a.to_dict(), "g_na": g_na.to_dict()},
                rows)


@dataclass(frozen=True)
class BobPulse:
    """Bang-off-bang pulse: rectangular kicks of amplitude +-g_q at the ends.

    The idealized pulse applies field only at t = 0 and t = tau; here each
    kick is a finite rectangle of duration tau_b = phi / g_q carrying the
    same rotation angle phi.
    """

    g_q: float
    tau: float
    phi1: float
    phi2: float

    @property
    def tau_b1(self) -> float:
        return self.phi1 / self.g_q

    @property
    def tau_b2(self) -> float:
        return self.phi2 / self.g_q

    def amplitude(self, t):
        """Field value at time t: +g_q, 0, or -g_q."""
        t = np.asarray(t, dtype=float)
        return np.where(t < self.tau_b1, self.g_q,
                        np.where(t > self.tau - self.tau_b2, -self.g_q, 0.0))


def bob_pulse(g_q: float, tau: float, kick_angles=(0.0, 0.0)) -> BobPulse:
    """Build a bang-off-bang pulse from kick rotation angles.

    Each angle phi_i in [0, 2 pi) is realized as a rectangle of duration
    phi_i / g_q; the kicks must not overlap (phi_i / g_q < tau / 2).
    """
    phi1, phi2 = float(kick_angles[0]), float(kick_angles[1])
    if g_q <= 0:
        raise ValueError(f"quench amplitude must be positive, got {g_q}")
    if tau <= 0:
        raise ValueError(f"pulse duration must be positive, got {tau}")
    for phi in (phi1, phi2):
        if not 0.0 <= phi < 2.0 * math.pi:
            raise ValueError(f"kick angle {phi} outside [0, 2 pi)")
        if phi / g_q >= tau / 2.0:
            raise ValueError(
                f"kick duration {phi / g_q} >= tau/2 = {tau / 2}: kicks would overlap")
    return BobPulse(g_q, tau, phi1, phi2)


_RAMP_KEYS = {"polynomial": ("g0", "g_d", "tau"), "fourier": ("g0", "tau"),
              "tan-optimal": ("delta", "g0", "g1"), "tanh-optimal": ("g0", "m"),
              "blended": ("eps", "tau", "g_a", "g_na")}


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def ramp_from_dict(d: dict) -> Ramp:
    """Rebuild a Ramp from its {kind, parameters} JSON description, every number finite."""
    if not isinstance(d, dict):
        raise ValueError(f"a ramp must be a {{kind, parameters}} object, got {d!r}")
    kind, p = d.get("kind"), d.get("parameters")
    if not isinstance(kind, str) or kind not in _RAMP_KEYS:
        raise ValueError(f"unknown ramp kind {kind!r}")
    if not isinstance(p, dict):
        raise ValueError(f"{kind} ramp needs a 'parameters' object")
    for key in _RAMP_KEYS[kind]:
        if key not in p:
            raise ValueError(f"{kind} ramp parameters lack {key!r}")
        if key not in ("g_a", "g_na") and not _finite(p[key]):
            raise ValueError(f"{kind} ramp {key!r} is not a finite number: {p[key]!r}")
    coeffs = p.get("coeffs", []) if kind == "fourier" else []
    if not isinstance(coeffs, list) or not all(
            isinstance(c, list) and len(c) == 2 and all(map(_finite, c)) for c in coeffs):
        raise ValueError(f"fourier ramp 'coeffs' are not [amplitude, phase] pairs: {coeffs!r}")
    if kind == "polynomial":
        return poly_smooth_ramp(p["g0"], p["g_d"], p["tau"])
    if kind == "fourier":
        return oc_fourier_ramp(p["g0"], p["tau"], coeffs)
    if kind == "tan-optimal":
        return cd_na_ramp(p["delta"], p["g0"], p["g1"])
    if kind == "tanh-optimal":
        return cd_a_ramp(p["g0"], p["m"])
    return cd_blended_ramp(ramp_from_dict(p["g_a"]), ramp_from_dict(p["g_na"]),
                           p["eps"], p["tau"])
