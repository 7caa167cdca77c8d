"""Landau-Zener control protocols and cost scans.

Bare model: H0 = Delta sigma_x/2 + g(t) sigma_z/2, swept through the avoided
crossing from g(0) = g0 to g(tau) = g1. A protocol is a name in ``PROTOCOLS``:
bare, counterdiabatic (CD), local counterdiabatic (LCD), CD on the blended
ramp, or the bang-off-bang (BOB) pulse. ``lz_schedule`` builds its
PauliSchedule and ``run_protocol`` propagates it; scan helpers integrate the
norm cost over protocol duration and locate the CD/LCD crossover.

Every ramp here is a function of scaled time s = t/tau, and d/dt =
(1/tau) d/ds, so theta-dot = a(s)/tau and theta-ddot = b(s)/tau^2 for the
mixing angle theta = arccot(g/Delta). A scan computes g, r^2 = Delta^2 + g^2, a
and b once on one s grid (``_unit_scan``); each duration enters only in the last
passes of C(tau) = int_0^1 ||H(s; tau)|| ds, and the CD/LCD crossover bisects
that C_CD - C_LCD, one duration at a time, until its ends are adjacent doubles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .ramps import (Ramp, BobPulse, bob_pulse, poly_smooth_ramp, cd_na_ramp,
                    cd_a_ramp, cd_blended_ramp, blend_weight)
from .twolevel import (PauliSchedule, propagate,
                       converged_final_state, fidelity, integrated_cost,
                       _su2_steps, _qmul, _apply, _eigvec_pair, _cost_nodes,
                       _checked_state, QUADRATURE_INTERVALS, _SCAN_CHUNK)

__all__ = [
    "LzConfig",
    "BobKicks",
    "lz_ground_state",
    "lz_fields",
    "lz_schedule",
    "lz_bob",
    "qsl_time",
    "optimize_bob_kicks",
    "cost_scan",
    "find_cd_lcd_crossover",
    "run_protocol",
]

PROTOCOLS = ("bare", "cd", "lcd", "cd-blend", "bob")   # what lz_schedule and cost_scan take
DEFAULT_GQ = 100.0
BLEND_M = 40.0
BLEND_EPS = 0.1
BOB_TARGET = 0.999      # the kick fidelity that counts as success


@dataclass(frozen=True)
class LzConfig:
    """Sweep parameters; defaults are the reference working point."""

    tau: float
    delta: float = 0.1
    g0: float = -0.2
    g1: float = 0.2
    ramp: Optional[Ramp] = None

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"energy gap delta must be positive, got {self.delta}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"protocol duration must be positive and finite, got {self.tau}")

    def ramp_or_default(self) -> Ramp:
        if self.ramp is not None:
            return self.ramp
        return poly_smooth_ramp(self.g0, self.g1 - self.g0, self.tau)


def lz_ground_state(delta: float, g: float) -> np.ndarray:
    """Ground state of the static Hamiltonian at field value g."""
    exc, gnd, r = _eigvec_pair(delta, 0.0, g)
    if r < 1e-14:
        raise ValueError("degenerate Hamiltonian: delta = g = 0")
    return np.asarray(gnd, dtype=complex)


def _theta_rates(delta: float, g, gd, gdd):
    """r^2 = Delta^2 + g^2, theta' and theta'' (None without g'') of theta = arccot(g/Delta).

    Real-time rows give theta-dot and theta-ddot; scaled-time rows (g, g_s,
    g_ss) give a = tau theta-dot and b = tau^2 theta-ddot."""
    r2 = delta**2 + g * g
    return (r2, -gd * delta / r2,
            None if gdd is None else -delta * (gdd * r2 - 2.0 * g * gd * gd) / (r2 * r2))


def lz_fields(protocol: str, delta: float, g, gd, gdd):
    """(cx, cy, cz) of the bare, CD or LCD sweep from the ramp rows g, g', g''.

    bare: cx = Delta, cz = g.
    cd:   the bare sweep plus the counterdiabatic field
          H_CD = -[g' Delta / (2 (Delta^2 + g^2))] sigma_y, i.e.
          cy = theta_dot = -g' Delta / (Delta^2 + g^2).
    lcd:  cx = P = sqrt(Delta^2 + theta_dot^2), cz = g - eta_dot, with
          theta = arccot(g/Delta) and eta = arctan(theta_dot/Delta); theta_dot
          and theta_ddot come from the ramp's closed-form derivatives
          (``_theta_rates``), never from differencing.

    The Jaynes-Cummings blocks take the same forms with g -> -2 sqrt(n+1) g.
    """
    if protocol == "bare":
        return delta, 0.0, g
    if protocol not in ("cd", "lcd"):
        raise ValueError(f"unknown protocol {protocol!r}")
    _, theta_d, theta_dd = _theta_rates(delta, g, gd, gdd if protocol == "lcd" else None)
    if protocol == "cd":
        return delta, theta_d, g
    eta_d = theta_dd * delta / (delta**2 + theta_d * theta_d)
    return np.sqrt(delta**2 + theta_d * theta_d), 0.0, g - eta_d


def lz_schedule(cfg: LzConfig, protocol: str, bob_kicks: Optional[BobKicks] = None,
                g_q: float = DEFAULT_GQ) -> PauliSchedule:
    """The schedule of one protocol in ``PROTOCOLS``, labelled lz-<protocol>.

    bare, cd and lcd are ``lz_fields`` on the config's ramp, its zeros the
    crossings (LCD warns if its ends are not flat); cd-blend is CD on ``blended_ramp_for(cfg,
    cfg.tau)``; bob kicks at field g_q by ``bob_kicks``, or by what ``optimize_bob_kicks`` finds.
    """
    if protocol == "bob":
        kicks = bob_kicks or optimize_bob_kicks(cfg, g_q)
        return lz_bob(cfg, bob_pulse(g_q, cfg.tau, (kicks.phi1, kicks.phi2)))
    if protocol == "cd-blend":
        return lz_schedule(replace(cfg, ramp=blended_ramp_for(cfg, cfg.tau)), "cd")
    if protocol not in ("bare", "cd", "lcd"):
        raise ValueError(f"unknown protocol {protocol!r}")
    ramp = cfg.ramp_or_default()
    if protocol == "lcd":
        _, d1, d2 = ramp.rows(np.array([0.0, cfg.tau]))
        edge = max(np.max(np.abs(d1)), np.max(np.abs(d2)) * cfg.tau)
        if edge > 1e-9 * max(1.0, abs(cfg.g1 - cfg.g0) / cfg.tau):
            warnings.warn("LCD requires a ramp with flat start and end points; "
                          "target-state fidelity is not guaranteed for this ramp",
                          stacklevel=2)
    return PauliSchedule(duration=cfg.tau, label=f"lz-{protocol}", crossings=ramp.zeros,
                         fields=lambda t: (0.0, *lz_fields(protocol, cfg.delta, *ramp.rows(t))))


def lz_bob(cfg: LzConfig, pulse: BobPulse) -> PauliSchedule:
    """Bang-off-bang schedule with rectangular kicks at both ends."""
    if abs(pulse.tau - cfg.tau) > 1e-12:
        raise ValueError("pulse duration differs from config tau")
    return PauliSchedule(duration=cfg.tau,
                         fields=lambda t: (0.0, cfg.delta, 0.0, pulse.amplitude(t)),
                         breakpoints=(pulse.tau_b1, cfg.tau - pulse.tau_b2),
                         label="lz-bob")


def qsl_time(delta: float, psi_i, psi_t) -> float:
    """Quantum speed limit time between two states of the sweep.

    tau_QSL = (2/Delta) arccos(|alpha_i alpha_t| + |beta_i beta_t|) with the
    sigma_z basis coefficients of the normalized initial and target states.
    """
    psi_i, psi_t = _checked_state(psi_i), _checked_state(psi_t)
    arg = abs(psi_i[0]) * abs(psi_t[0]) + abs(psi_i[1]) * abs(psi_t[1])
    if arg > 1.0 + 1e-12:
        raise ValueError(f"arccos argument {arg!r} above 1")
    return 2.0 / delta * math.acos(min(arg, 1.0))


# ---------------------------------------------------------------------------
# BOB kick optimization

@dataclass(frozen=True)
class BobKicks:
    phi1: float
    phi2: float
    fidelity: float
    success: bool


def _bob_final_state(delta, g_q, tau, phi1, phi2, psi0):
    """Exact three-segment propagation (each segment is constant).

    phi1 and phi2 are scalars or equal-length 1-d arrays of kick angles.
    """
    tb1, tb2 = phi1 / g_q, phi2 / g_q
    kick1 = _su2_steps(delta, 0.0, g_q, tb1)
    free = _su2_steps(delta, 0.0, 0.0, tau - tb1 - tb2)
    kick2 = _su2_steps(delta, 0.0, -g_q, tb2)
    return _apply(_qmul(kick2, _qmul(free, kick1)), psi0)


def optimize_bob_kicks(cfg: LzConfig, g_q: float = DEFAULT_GQ, grid: int = 64) -> BobKicks:
    """Maximize final target-state fidelity over the two kick angles.

    Deterministic: a coarse grid x grid sweep of [0, phimax)^2, then 9 x 9
    zoom stencils around the best point, their half-width shrinking 4x per
    level from one grid cell to 1e-13. Each level is one batched evaluation
    of the closed-form fidelity; points outside [0, phimax] are left out,
    and the best point moves only to a point that beats it. The protocol is
    designed for tau at the quantum speed limit; other durations are
    allowed but may not reach the target fidelity ``BOB_TARGET``.
    """
    psi0 = lz_ground_state(cfg.delta, cfg.g0)
    psit = lz_ground_state(cfg.delta, cfg.g1)
    # keep both kicks inside the protocol duration
    phimax = min(2.0 * math.pi, 0.499 * cfg.tau * g_q)

    def best_on(p1, p2):
        """Best fidelity on the p1 x p2 mesh inside the domain, and its point."""
        p1, p2 = (a.ravel() for a in np.meshgrid(p1, p2, indexing="ij"))
        inside = (p1 >= 0.0) & (p1 <= phimax) & (p2 >= 0.0) & (p2 <= phimax)
        p1, p2 = p1[inside], p2[inside]
        f = np.abs(_bob_final_state(cfg.delta, g_q, cfg.tau, p1, p2, psi0) @ psit.conj()) ** 2
        k = int(np.argmax(f))   # the first best point, phi1-major
        return float(f[k]), (float(p1[k]), float(p2[k]))

    angles = np.linspace(0.0, phimax, grid, endpoint=False)
    f, best = best_on(angles, angles)
    half = phimax / grid
    while half > 1e-13:
        fz, zoom = best_on(*(b + np.linspace(-half, half, 9) for b in best))
        if fz > f:
            f, best = fz, zoom
        half /= 4.0
    return BobKicks(phi1=best[0], phi2=best[1], fidelity=f, success=f >= BOB_TARGET)


# ---------------------------------------------------------------------------
# scans, crossover

def blended_ramp_for(cfg: LzConfig, tau: float) -> Ramp:
    """Cost-optimized blended CD ramp for the config's boundary values."""
    g_na = cd_na_ramp(cfg.delta, cfg.g0, cfg.g1)
    g_a = cd_a_ramp(cfg.g0, BLEND_M)
    return cd_blended_ramp(g_a, g_na, BLEND_EPS, tau)


def _blend_rows(cfg: LzConfig, s: np.ndarray):
    """Scan parts (g, r^2, a^2) of the blended CD ramp per duration, formed in place in the
    (durations, s) buffers given (r^2 and a as ``_theta_rates`` forms them); tau sets the blend."""
    g_a, g_na = cd_a_ramp(cfg.g0, BLEND_M), cd_na_ramp(cfg.delta, cfg.g0, cfg.g1)
    cd_blended_ramp(g_a, g_na, BLEND_EPS, 1.0)   # rejects unequal boundary values
    a, na = g_a.rows(s)[:2], g_na.rows(s)[:2]

    def parts(tau, g, r2, a2):
        f = np.array([[blend_weight(BLEND_EPS, t)] for t in tau[:, 0]])
        for out, x, y in ((g, a[0], na[0]), (a2, a[1], na[1])):   # g, then g_s in a2
            np.add(np.multiply(f, x, out=out), np.multiply(1.0 - f, y, out=r2), out=out)
        np.add(cfg.delta**2, np.multiply(g, g, out=r2), out=r2)
        np.divide(np.multiply(a2, -cfg.delta, out=a2), r2, out=a2)
        return g, r2, np.square(a2, out=a2), None

    return parts


def _unit_scan(cfg: LzConfig, taus, quadrature_steps: int = QUADRATURE_INTERVALS):
    """Durations as an array, and what a scan of the default ramp needs that none changes:
    nodes s and weights w of ``_cost_nodes`` on [0, 1], cut at the unit sweep's zeros,
    and ``parts(k)``, (g, r^2, a^2, Delta b) on s of the sweep scaled by k (a JC block's
    -2 sqrt(n+1); ``_theta_rates``). Rejects a custom ramp and a tau not positive and finite."""
    if cfg.ramp is not None:
        raise ValueError("cost scans use the default ramps: a custom ramp cannot be scanned")
    taus = np.asarray(list(taus), dtype=float)
    if not np.all(np.isfinite(taus) & (taus > 0)):
        raise ValueError("all tau values must be positive and finite")
    unit = poly_smooth_ramp(cfg.g0, cfg.g1 - cfg.g0, 1.0)
    s, w = _cost_nodes(1.0, unit.zeros(), quadrature_steps)
    rows = unit.rows(s)

    def parts(k: float = 1.0):
        g, gs, gss = (k * r for r in rows)
        r2, a, b = _theta_rates(cfg.delta, g, gs, gss)
        return g, r2, a * a, cfg.delta * b

    return taus, s, w, parts


def _scan_costs(protocols, delta: float, parts, taus: np.ndarray, w: np.ndarray) -> np.ndarray:
    """C(tau) = int_0^1 ||H(s; tau)|| ds, one row of costs per protocol (bare, cd or lcd).

    ``parts`` are ``_unit_scan``'s (g, r^2, a^2, Delta b) on the s grid, or for
    the blend, whose g depends on tau, ``_blend_rows``' function of a column of
    durations and three chunk buffers. tau enters in the last passes over each
    (durations, s) chunk: 2 ||H||^2 is r^2 + a^2/tau^2 for CD and Delta^2 +
    a^2/tau^2 + (g - b Delta / (Delta^2 tau^2 + a^2))^2 for LCD. A cost is one
    row's Simpson sum, whatever the batch.
    """
    fixed = None if callable(parts) else parts
    w = w / math.sqrt(2.0)   # ||H|| = sqrt(2 ||H||^2) / sqrt(2)
    chunk = max(1, min(len(taus), _SCAN_CHUNK // len(w)))
    buf = np.empty((2 if fixed else 5, chunk, len(w)))   # reused: fresh ones cost more than passes
    costs = np.empty((len(protocols), len(taus)))
    for i in range(0, len(taus), chunk):
        tau = taus[i:i + chunk, None]
        d, h, *blend = buf[:, :len(tau)]
        g, r2, a2, db = fixed or parts(tau, *blend)
        for k, p in enumerate(protocols):
            if p == "lcd":   # d = tau^2 (Delta^2 + theta-dot^2), h = d/tau^2 + (g - db/d)^2
                np.add((delta * tau) ** 2, a2, out=d)
                np.subtract(g, np.divide(db, d, out=h), out=h)
                np.add(np.square(h, out=h), np.multiply(d, tau**-2, out=d), out=h)
            else:            # h = r^2 + a^2/tau^2; bare is CD with a = 0
                np.add(np.multiply(a2 if p == "cd" else 0.0, tau**-2, out=h), r2, out=h)
            costs[k, i:i + chunk] = np.multiply(np.sqrt(h, out=h), w, out=h).sum(-1)
    return costs


def cost_scan(cfg: LzConfig, taus: Sequence[float],
              protocols: Sequence[str] = ("cd", "lcd"),
              quadrature_steps: int = QUADRATURE_INTERVALS) -> dict:
    """Integrated cost per protocol over a list of durations, for the default ramps.

    Returns {"tau": array, protocol: array, ...}. All but BOB are scanned in
    scaled time (``_scan_costs``) on the nodes of ``integrated_cost``, cut where
    the quintic (and the blend, g1 = -g0) crosses, so a cost does not depend on
    the other durations. BOB optimizes its kicks and integrates its
    piecewise-constant schedule per duration. A config with a custom ramp is rejected.
    """
    for p in protocols:
        if p not in PROTOCOLS:
            raise ValueError(f"unknown protocol {p!r}")
    taus, s, w, parts = _unit_scan(cfg, taus, quadrature_steps)
    quintic = [p for p in protocols if p in ("bare", "cd", "lcd")]
    costs = dict(zip(quintic, _scan_costs(quintic, cfg.delta, parts(), taus, w)))
    if "cd-blend" in protocols:
        costs["cd-blend"] = _scan_costs(("cd",), cfg.delta, _blend_rows(cfg, s), taus, w)[0]
    if "bob" in protocols:
        costs["bob"] = np.array([integrated_cost(lz_schedule(replace(cfg, tau=float(t)), "bob"),
                                                 quadrature_steps) for t in taus])
    return {"tau": taus, **{p: costs[p] for p in protocols}}


def find_cd_lcd_crossover(cfg: LzConfig, taus: Optional[Sequence[float]] = None,
                          scan: Optional[dict] = None) -> Optional[float]:
    """Duration tau* where C_CD(tau) = C_LCD(tau), or None if none bracketed.

    The bracket is read from ``scan``, a :func:`cost_scan` result with "cd"
    and "lcd" columns made at its default quadrature, when one is given
    (``taus`` is then unused); otherwise that scan's two columns are computed
    here. f(tau) = C_CD - C_LCD is then the scan's own, one-duration
    ``_scan_costs`` on the parts of ``_unit_scan``, built once and shared with
    a scan made here. The bracket is bisected until its ends are adjacent
    doubles, and tau* is the end on the side of the scan's first duration.
    """
    if scan is None and taus is None:
        taus = np.geomspace(0.5, 100.0, 25)
    taus, _, w, parts = _unit_scan(cfg, taus if scan is None else scan["tau"])
    fixed = parts()
    if scan is None:   # cost_scan's cd and lcd columns, from the parts bisected below
        scan = dict(zip(("cd", "lcd"), _scan_costs(("cd", "lcd"), cfg.delta, fixed, taus, w)))
    diff = scan["cd"] - scan["lcd"]
    idx = np.where(np.sign(diff[:-1]) != np.sign(diff[1:]))[0]
    if len(idx) == 0:
        return None
    i = int(idx[0])
    a, b = float(taus[i]), float(taus[i + 1])
    if diff[i] == 0.0:
        return a
    if diff[i + 1] == 0.0:
        return b
    while (m := 0.5 * (a + b)) != a and m != b:   # until a and b are adjacent doubles
        cd, lcd = _scan_costs(("cd", "lcd"), cfg.delta, fixed, np.array([m]), w)[:, 0]
        if cd == lcd:
            return m
        if (cd < lcd) == (diff[i] < 0):
            a = m
        else:
            b = m
    return a


def run_protocol(cfg: LzConfig, protocol: str, steps: Optional[int] = None,
                 g_q: float = DEFAULT_GQ,
                 bob_kicks: Optional[BobKicks] = None):
    """Propagate one protocol; returns (trajectory, final fidelity, integrated cost).

    The final fidelity is to the ground state at g1. With steps=None it is
    converged by step doubling, and the trajectory keeps the converged count
    (``trajectory.steps``). Its fidelity series is always to the bare sweep's.
    """
    sched = lz_schedule(cfg, protocol, bob_kicks, g_q)
    psi0 = lz_ground_state(cfg.delta, cfg.g0)
    if steps is None:
        _, steps = converged_final_state(sched, psi0)
    traj = propagate(sched, psi0, steps, reference=lz_schedule(cfg, "bare"))
    return (traj, fidelity(traj.final_state, lz_ground_state(cfg.delta, cfg.g1)),
            integrated_cost(sched))
