"""Jaynes-Cummings blocks, dressed-basis control schedules, ensembles.

Excitation-number conservation splits the model into independent two-level
blocks spanned by {|e,n>, |g,n+1>} with the n-photon Rabi frequency
Omega_R(t) = 2 g(t) sqrt(n+1). In the rotated dressed representation each
block is a Landau-Zener problem with Delta -> delta and g -> -Omega_R, so
the counterdiabatic and local counterdiabatic fields follow the same
closed forms with the substituted coupling. The constant block offset
(2n+1) omega / 2 is carried as the identity coefficient and excluded from
costs.

Coherent-field initial states |e, alpha> populate blocks with Poisson
weights p_n; per-block quantities combine by population weighting.

Block n's costs are even in delta, so its cost scan and CD/LCD crossover
are those of the LZ sweep with Delta = |delta| and g0,1 -> -2 sqrt(n+1) g0,1,
computed by ``landau_zener.cost_scan`` and ``find_cd_lcd_crossover``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .ramps import Ramp, poly_smooth_ramp
from .twolevel import (PauliSchedule, propagate, converged_final_state,
                       integrated_cost, cost_rate, _simpson_weights,
                       _segment_grid, _midpoints, _steps, _trajectory)
from .landau_zener import LzConfig, cost_scan, find_cd_lcd_crossover, _check_default_ramp

__all__ = [
    "JcConfig",
    "JcBlock",
    "JcEnsembleResult",
    "jc_block",
    "jc_cd_block",
    "jc_lcd_block",
    "mixing_angle_rate",
    "coherent_weights",
    "block_run",
    "ensemble_run",
    "jc_cost_scan",
    "find_jc_crossover",
]

TAIL_TOL = 1e-12


@dataclass(frozen=True)
class JcConfig:
    """Coupling sweep g0 -> g1 at fixed cavity frequency and detuning."""

    tau: float
    omega: float = 1.0
    delta: float = 0.1
    g0: float = 0.0
    g1: float = 0.2
    n_cut: int = 40
    alpha: float = 0.0
    ramp: Optional[Ramp] = None

    def __post_init__(self):
        if self.n_cut < 0:
            raise ValueError(f"excitation cutoff must be >= 0, got {self.n_cut}")
        if self.tau <= 0:
            raise ValueError(f"protocol duration must be positive, got {self.tau}")

    def ramp_or_default(self) -> Ramp:
        if self.ramp is not None:
            return self.ramp
        return poly_smooth_ramp(self.g0, self.g1 - self.g0, self.tau)


class _RampRows:
    """g, g' and g'' of a ramp at fixed times, each evaluated on first use.

    Time enters a block's coefficients only through these rows, so blocks
    that share a ramp and a time grid share one evaluation of it.
    """

    def __init__(self, ramp: Ramp, t):
        self.ramp, self.t = ramp, np.asarray(t, dtype=float)

    @cached_property
    def g(self):
        return self.ramp.value(self.t)

    @cached_property
    def gd(self):
        return self.ramp.deriv1(self.t)

    @cached_property
    def gdd(self):
        return self.ramp.deriv2(self.t)


def _photon_index(n):
    """n as a float, or an array of indices as a (blocks, 1) column that broadcasts over times."""
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("photon index must be >= 0")
    return n.astype(float)[:, None] if n.ndim else float(n)


@dataclass(frozen=True)
class JcBlock:
    """One excitation block, or a batch of blocks, as a two-level schedule.

    The schedule lives in the rotated dressed frame: cx = delta,
    cz = -Omega_R(t), c0 = (2n+1) omega / 2. The initial dressed state
    |e,n> is (1, 1)/sqrt(2) in this frame. For an array of photon indices
    ``n`` the schedule's coefficients have shape (blocks, times).
    """

    n: "int | np.ndarray"
    kind: str
    schedule: PauliSchedule
    config: JcConfig

    @property
    def initial_state(self) -> np.ndarray:
        return np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)

    def rabi(self, t):
        return 2.0 * self.config.ramp_or_default().value(t) * np.sqrt(_photon_index(self.n) + 1.0)


def _constant(value):
    """A coefficient constant in time, as a read-only view broadcast over the rows' times."""
    def f(rows):
        return np.broadcast_to(value, np.broadcast_shapes(np.shape(value), rows.t.shape))
    return f


def _fields(cfg: JcConfig, kind: str, n):
    """Coefficients (c0, cx, cy, cz) of block(s) n as functions of _RampRows.

    The closed forms are given on jc_block, jc_cd_block and jc_lcd_block.
    """
    n = _photon_index(n)
    np1 = n + 1.0
    rt = np.sqrt(np1)
    d = cfg.delta
    c0 = _constant((2 * n + 1) * cfg.omega / 2.0)

    def cz_bare(r):
        return -2.0 * rt * r.g

    if kind == "bare":
        return c0, _constant(d), _constant(0.0), cz_bare

    if kind == "cd":
        def cy(r):
            # sigma_y/2 coefficient = 2 * theta_n_dot
            return 2.0 * r.gd * rt * d / (d * d + 4.0 * np1 * r.g * r.g)

        return c0, _constant(d), cy, cz_bare

    def cx(r):
        den = (d * d + 4.0 * np1 * r.g * r.g) ** 2
        return np.sqrt(d * d + 4.0 * np1 * r.gd * r.gd * d * d / den)

    def cz(r):
        # in place, so that a batch of blocks keeps few (blocks, times) temporaries
        g, gd = r.g, r.gd
        r2 = d * d + 4.0 * np1 * g * g
        corr = r2 * r.gdd - 8.0 * np1 * g * gd * gd
        r2 *= r2
        r2 += 4.0 * np1 * gd * gd
        corr /= r2
        corr += g
        corr *= -2.0 * rt
        return corr

    return c0, cx, _constant(0.0), cz


def _block(cfg: JcConfig, kind: str, n) -> JcBlock:
    ramp = cfg.ramp_or_default()
    c0, cx, cy, cz = ((lambda t, f=f: f(_RampRows(ramp, t))) for f in _fields(cfg, kind, n))
    label = f"jc-{kind}-n{n}" if np.ndim(n) == 0 else f"jc-{kind}-n{np.min(n)}..{np.max(n)}"
    return JcBlock(n, kind, PauliSchedule(duration=cfg.tau, cx=cx, cz=cz, cy=cy, c0=c0,
                                          label=label), cfg)


def jc_block(cfg: JcConfig, n) -> JcBlock:
    """Bare block: H_n = (2n+1) omega/2 + delta sx/2 - Omega_R(t) sz/2.

    ``n`` is a photon index or an array of them (a batch of blocks).
    """
    return _block(cfg, "bare", n)


def jc_cd_block(cfg: JcConfig, n) -> JcBlock:
    """Block with the counterdiabatic field added.

    The sigma_y coefficient is g' sqrt(n+1) delta / (delta^2 + 4 (n+1) g^2),
    equal to the mixing-angle rate theta_n-dot.
    """
    return _block(cfg, "cd", n)


def jc_lcd_block(cfg: JcConfig, n) -> JcBlock:
    """Block with the local counterdiabatic schedule.

    cx = sqrt(delta^2 + 4 (n+1) g'^2 delta^2 / (delta^2 + 4 (n+1) g^2)^2)
    cz = -2 sqrt(n+1) [ g + ((delta^2 + 4(n+1) g^2) g'' - 8 (n+1) g g'^2)
                            / ((delta^2 + 4(n+1) g^2)^2 + 4 (n+1) g'^2) ]

    Reduces to the bare block wherever g' = g'' = 0.
    """
    return _block(cfg, "lcd", n)


def mixing_angle_rate(cfg: JcConfig, n: int, t):
    """theta_n-dot from the mixing angle theta_n = (1/2) arctan(Omega_R/delta).

    Independent route used to cross-check the closed-form CD coefficient.
    """
    ramp = cfg.ramp_or_default()
    rt = math.sqrt(n + 1.0)
    omr = 2.0 * rt * ramp.value(t)
    omrd = 2.0 * rt * ramp.deriv1(t)
    return 0.5 * omrd * cfg.delta / (cfg.delta**2 + omr * omr)


def coherent_weights(alpha: float, n_cut: int) -> np.ndarray:
    """Poisson populations p_n = e^{-|a|^2} |a|^{2n} / n! for n = 0..n_cut."""
    if n_cut < 0:
        raise ValueError("n_cut must be >= 0")
    lam = abs(alpha) ** 2
    p = np.empty(n_cut + 1)
    p[0] = math.exp(-lam)
    for n in range(n_cut):
        p[n + 1] = p[n] * lam / (n + 1.0)
    return p


def _builder(protocol: str):
    try:
        return {"bare": jc_block, "cd": jc_cd_block, "lcd": jc_lcd_block}[protocol]
    except KeyError:
        raise ValueError(f"unknown protocol {protocol!r}") from None


def block_run(cfg: JcConfig, protocol: str, n: int = 0,
              steps: Optional[int] = None):
    """Propagate one block from |e,n>; returns (trajectory, final fidelity, cost).

    Fidelity series is taken against the instantaneous eigenstate of the
    bare block adiabatically connected to the initial dressed state.
    """
    blk = _builder(protocol)(cfg, n)
    ref = jc_block(cfg, n).schedule
    psi0 = blk.initial_state
    if steps is None:
        _, steps = converged_final_state(blk.schedule, psi0)
    traj = propagate(blk.schedule, psi0, steps, reference=ref)
    return traj, float(traj.fidelity[-1]), integrated_cost(blk.schedule)


@dataclass
class JcEnsembleResult:
    times: np.ndarray
    fidelity: np.ndarray          # population-weighted across blocks
    cost: float
    weights: np.ndarray
    block_final_fidelity: np.ndarray
    block_costs: np.ndarray
    tail: float


def ensemble_run(cfg: JcConfig, protocol: str, steps: Optional[int] = None,
                 cost_mode: str = "weighted") -> JcEnsembleResult:
    """Coherent-state ensemble: propagate every block and combine.

    Ensemble fidelity is the population-weighted per-block fidelity; the
    default ensemble cost is the population-weighted sum of block costs
    (cost_mode="direct-sum" gives the unweighted direct-sum Frobenius norm
    instead). Identity offsets are excluded throughout. The photon-number
    cutoff must leave a tail below 1e-12.

    The ramp is evaluated once on the step midpoints and once on the nodes;
    every block's coefficients follow from those rows, and the blocks are
    scanned one at a time, so memory stays at one block's steps. The block
    costs come from one batched quadrature over all blocks.
    """
    if cost_mode not in ("weighted", "direct-sum"):
        raise ValueError(f"unknown cost_mode {cost_mode!r}")
    weights = coherent_weights(cfg.alpha, cfg.n_cut)
    tail = max(0.0, 1.0 - float(weights.sum()))
    if tail > TAIL_TOL:
        raise ValueError(
            f"cutoff tail {tail:.3e} above {TAIL_TOL}: increase n_cut for alpha={cfg.alpha}")
    build = _builder(protocol)
    fastest = build(cfg, cfg.n_cut)  # largest Rabi frequency
    psi0 = fastest.initial_state
    if steps is None:
        # converge on the fastest block, reuse for all
        _, steps = converged_final_state(fastest.schedule, psi0)

    blocks = build(cfg, np.arange(cfg.n_cut + 1)).schedule
    bc = integrated_cost(blocks)
    if cost_mode == "weighted":
        cost = float(weights @ bc)
    else:
        # Frobenius norm of the block direct sum, grows with the cutoff
        t = np.linspace(0.0, cfg.tau, 4097)
        rate = np.sqrt(np.sum(cost_rate(blocks, t) ** 2, axis=0))
        cost = float(rate @ _simpson_weights(4096, t[1] - t[0]) / cfg.tau)

    ramp = cfg.ramp_or_default()
    times = _segment_grid(cfg.tau, (), steps)
    mid, nodes = _RampRows(ramp, _midpoints(times)), _RampRows(ramp, times)
    fid_w = np.zeros(len(times))
    bf = np.empty(cfg.n_cut + 1)
    for n in range(cfg.n_cut + 1):
        _, fid = _trajectory(
            _steps([f(mid) for f in _fields(cfg, protocol, n)], times, f"jc-{protocol}-n{n}"),
            [f(nodes) for f in _fields(cfg, "bare", n)], times, psi0)
        fid_w += weights[n] * fid
        bf[n] = fid[-1]
    # population-weighted fidelity normalized by captured mass
    fid = fid_w / weights.sum()
    return JcEnsembleResult(times=times, fidelity=fid, cost=cost, weights=weights,
                            block_final_fidelity=bf, block_costs=bc, tail=tail)


def _lz_equivalent(cfg: JcConfig, n: int) -> LzConfig:
    """The LZ sweep whose default-ramp costs are block n's (see the module docstring)."""
    _check_default_ramp(cfg)
    s = -2.0 * math.sqrt(_photon_index(n) + 1.0)
    return LzConfig(tau=cfg.tau, delta=abs(cfg.delta), g0=s * cfg.g0, g1=s * cfg.g1)


def jc_cost_scan(cfg: JcConfig, taus: Sequence[float], n: int = 0,
                 protocols: Sequence[str] = ("cd", "lcd"),
                 quadrature_steps: int = 8192) -> dict:
    """Integrated cost of block n (vacuum: n = 0) per protocol over durations."""
    for p in protocols:
        _builder(p)   # block protocols only
    return cost_scan(_lz_equivalent(cfg, n), taus, protocols, quadrature_steps)


def find_jc_crossover(cfg: JcConfig, n: int = 0,
                      taus: Optional[Sequence[float]] = None,
                      tol: float = 1e-3,
                      scan: Optional[dict] = None) -> Optional[float]:
    """Duration where the block CD and LCD costs cross, or None.

    The bracket is read from ``scan``, a :func:`jc_cost_scan` of block n at
    its default quadrature, or from such a scan of ``taus`` made here.
    """
    if scan is None and taus is None:
        taus = np.geomspace(2.0, 60.0, 25)
    return find_cd_lcd_crossover(_lz_equivalent(cfg, n), taus, tol, scan=scan)
