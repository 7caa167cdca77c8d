"""Jaynes-Cummings blocks, dressed-basis control schedules, ensembles.

Excitation-number conservation splits the model into independent two-level
blocks spanned by {|e,n>, |g,n+1>} with the n-photon Rabi frequency
Omega_R(t) = 2 g(t) sqrt(n+1). In the rotated dressed representation each
block is a Landau-Zener problem with Delta -> delta and g -> -Omega_R:
block n's bare, CD and LCD coefficients are ``landau_zener.lz_fields`` of
the ramp rows g, g', g'' scaled by -2 sqrt(n+1). The coupling sweep is
always the quintic ``poly_smooth_ramp(g0, g1 - g0, tau)``, the ramp that the
scans require. ``jc_schedule(cfg, protocol, n)`` returns block n's
``PauliSchedule`` in the rotated dressed frame: cx = delta, cz = -Omega_R(t),
CD's cy twice the mixing-angle rate theta_n-dot, and the constant block
offset c0 = (2n+1) omega / 2, which is excluded from costs. Every block
starts in |e,n>, which is ``INITIAL_STATE`` = (1, 1)/sqrt(2) in this frame.

Coherent-field initial states |e, alpha> populate blocks with Poisson
weights p_n; per-block fidelities and costs combine by population
weighting. The ensemble evaluates the ramp once per time grid and builds
each block's coefficients from those rows, one block at a time.

Block n's costs are even in delta, so its cost scan and CD/LCD crossover
are those of the LZ sweep with Delta = |delta| and g0,1 -> -2 sqrt(n+1) g0,1,
computed by ``landau_zener.cost_scan`` and ``find_cd_lcd_crossover``: the
crossover is the scan's own C_CD - C_LCD, bisected to adjacent doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ramps import Ramp, poly_smooth_ramp
from .twolevel import (PauliSchedule, propagate, converged_final_state,
                       integrated_cost, _rate, _cost_nodes, QUADRATURE_INTERVALS,
                       _segment_grid, _gauss_nodes, _steps, _trajectory)
from .landau_zener import (LzConfig, lz_fields, cost_scan, find_cd_lcd_crossover,
                           _scan_costs, _unit_scan)

__all__ = [
    "JcConfig",
    "INITIAL_STATE",
    "JcEnsembleResult",
    "jc_schedule",
    "coherent_weights",
    "ensemble_weights",
    "block_run",
    "ensemble_run",
    "coherent_cost_scan",
    "jc_cost_scan",
    "find_jc_crossover",
]

PROTOCOLS = ("bare", "cd", "lcd")   # what jc_schedule and jc_cost_scan take
TAIL_TOL = 1e-12
INITIAL_STATE = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)   # |e,n> in every block


@dataclass(frozen=True)
class JcConfig:
    """Quintic coupling sweep g0 -> g1 at fixed cavity frequency and detuning."""

    tau: float
    omega: float = 1.0
    delta: float = 0.1
    g0: float = 0.0
    g1: float = 0.2
    n_cut: int = 40
    alpha: float = 0.0

    def __post_init__(self):
        if self.n_cut < 0:
            raise ValueError(f"excitation cutoff must be >= 0, got {self.n_cut}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"protocol duration must be positive and finite, got {self.tau}")
        if self.delta == 0:
            raise ValueError("detuning delta must be nonzero")


def _sweep(cfg: JcConfig) -> Ramp:
    return poly_smooth_ramp(cfg.g0, cfg.g1 - cfg.g0, cfg.tau)


def _rabi_scale(n) -> float:
    """s = -2 sqrt(n+1): block n is the LZ sweep with g -> s g."""
    if n < 0:
        raise ValueError("photon index must be >= 0")
    return -2.0 * math.sqrt(n + 1.0)


def _block_fields(cfg: JcConfig, kind: str, n: int, rows):
    """(c0, cx, cy, cz) of block n from the ramp rows (g, g', g''), scaling only the rows
    ``kind`` reads: bare reads g, CD g and g'."""
    s, (g, gd, gdd) = _rabi_scale(n), rows
    return ((2 * n + 1) * cfg.omega / 2.0,
            *lz_fields(kind, cfg.delta, s * g, None if kind == "bare" else s * gd,
                       s * gdd if kind == "lcd" else None))


def jc_schedule(cfg: JcConfig, protocol: str, n: int) -> PauliSchedule:
    """Block n under one protocol in ``PROTOCOLS``, labelled jc-<protocol>-n<n>.

    Bare is H_n = (2n+1) omega/2 + delta sx/2 - Omega_R(t) sz/2; LCD reduces
    to it wherever g' = g'' = 0. Every block crosses where the sweep does.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    _rabi_scale(n)   # a negative index fails here, not at the first evaluation
    ramp = _sweep(cfg)
    return PauliSchedule(duration=cfg.tau, label=f"jc-{protocol}-n{n}", crossings=ramp.zeros,
                         fields=lambda t: _block_fields(cfg, protocol, n, ramp.rows(t)))


def coherent_weights(alpha: float, n_cut: int) -> np.ndarray:
    """Poisson populations p_n = e^{-|a|^2} |a|^{2n} / n! for n = 0..n_cut."""
    if n_cut < 0:
        raise ValueError("n_cut must be >= 0")
    try:
        lam = abs(alpha) ** 2
    except OverflowError:   # a float's square past the largest double
        lam = math.inf
    if not math.isfinite(lam):
        raise ValueError(f"|alpha|^2 is not finite for alpha={alpha}")
    p = np.empty(n_cut + 1)
    p[0] = math.exp(-lam)
    for n in range(n_cut):
        p[n + 1] = p[n] * lam / (n + 1.0)
    return p


def block_run(cfg: JcConfig, protocol: str, n: int = 0,
              steps: Optional[int] = None):
    """Propagate one block from |e,n>; returns (trajectory, final fidelity, cost).

    Fidelity series is taken against the instantaneous eigenstate of the
    bare block adiabatically connected to the initial dressed state.
    """
    sched = jc_schedule(cfg, protocol, n)
    if steps is None:
        _, steps = converged_final_state(sched, INITIAL_STATE)
    traj = propagate(sched, INITIAL_STATE, steps, reference=jc_schedule(cfg, "bare", n))
    return traj, float(traj.fidelity[-1]), integrated_cost(sched)


@dataclass
class JcEnsembleResult:
    times: np.ndarray
    fidelity: np.ndarray          # population-weighted across blocks
    cost: float
    weights: np.ndarray
    block_final_fidelity: np.ndarray
    block_costs: np.ndarray
    tail: float


def ensemble_weights(cfg: JcConfig) -> tuple[np.ndarray, float]:
    """The blocks' Poisson weights and the tail mass past the cutoff, at most ``TAIL_TOL``."""
    weights = coherent_weights(cfg.alpha, cfg.n_cut)
    tail = 1.0 - float(weights.sum())
    if not tail <= TAIL_TOL:   # a NaN tail fails too
        raise ValueError(
            f"cutoff tail {tail:.3e} above {TAIL_TOL}: increase n_cut for alpha={cfg.alpha}")
    return weights, max(0.0, tail)


def ensemble_run(cfg: JcConfig, protocol: str, steps: Optional[int] = None) -> JcEnsembleResult:
    """Coherent-state ensemble: propagate every block and combine.

    Ensemble fidelity and cost are the population-weighted per-block
    fidelities and costs; identity offsets are excluded from the costs. The
    photon-number cutoff must leave a tail below 1e-12.

    The ramp is evaluated once on the steps' Gauss nodes, once on the grid
    nodes and once on ``integrated_cost``'s nodes, which every block shares; each block's
    coefficients follow from those rows, and the blocks are taken one at a
    time, each fidelity read off its states by ``twolevel._trajectory``, so memory stays at
    one block's steps.
    """
    weights, tail = ensemble_weights(cfg)
    if steps is None:
        # converge on the fastest block (largest Rabi frequency), reuse for all
        _, steps = converged_final_state(jc_schedule(cfg, protocol, cfg.n_cut), INITIAL_STATE)

    ramp = _sweep(cfg)
    times = _segment_grid(cfg.tau, (), steps)
    t_cost, w = _cost_nodes(cfg.tau, ramp.zeros())
    gauss, nodes, quad = (ramp.rows(t) for t in (_gauss_nodes(times), times, t_cost))
    fid_w = np.zeros(len(times))
    bf, bc = np.empty(cfg.n_cut + 1), np.empty(cfg.n_cut + 1)
    for n in range(cfg.n_cut + 1):
        q, _ = _steps(_block_fields(cfg, protocol, n, gauss), times, f"jc-{protocol}-n{n}")
        _, fid = _trajectory(q, _block_fields(cfg, "bare", n, nodes), INITIAL_STATE)
        fid_w += weights[n] * fid
        bf[n] = fid[-1]
        bc[n] = (_rate(_block_fields(cfg, protocol, n, quad)) * w).sum() / cfg.tau
    # population-weighted fidelity normalized by captured mass
    fid = fid_w / weights.sum()
    return JcEnsembleResult(times=times, fidelity=fid, cost=float(weights @ bc),
                            weights=weights, block_final_fidelity=bf, block_costs=bc,
                            tail=tail)


def coherent_cost_scan(cfg: JcConfig, taus: Sequence[float]) -> dict:
    """Poisson-weighted sum of every block's CD and LCD :func:`jc_cost_scan`.

    The weights are :func:`ensemble_weights`, so a cutoff that leaves a tail
    above ``TAIL_TOL`` raises, as in :func:`ensemble_run`. ``landau_zener._unit_scan``
    evaluates the quintic's scaled-time rows once, and computes the parts that
    depend on s alone once per block from those rows times -2 sqrt(n+1);
    the durations enter only in the last passes of ``_scan_costs``.
    """
    weights, _ = ensemble_weights(cfg)
    taus, _, w, parts = _unit_scan(LzConfig(tau=1.0, delta=abs(cfg.delta), g0=cfg.g0, g1=cfg.g1),
                                   taus)
    costs = [_scan_costs(("cd", "lcd"), abs(cfg.delta), parts(_rabi_scale(n)), taus, w)
             for n in range(cfg.n_cut + 1)]
    cd, lcd = np.tensordot(weights, costs, 1)
    return {"tau": taus, "cd": cd, "lcd": lcd}


def _lz_equivalent(cfg: JcConfig, n: int) -> LzConfig:
    """The LZ sweep whose default-ramp costs are block n's (see the module docstring)."""
    s = _rabi_scale(n)
    return LzConfig(tau=cfg.tau, delta=abs(cfg.delta), g0=s * cfg.g0, g1=s * cfg.g1)


def jc_cost_scan(cfg: JcConfig, taus: Sequence[float], n: int = 0,
                 protocols: Sequence[str] = ("cd", "lcd"),
                 quadrature_steps: int = QUADRATURE_INTERVALS) -> dict:
    """Integrated cost of block n (vacuum: n = 0) per protocol over durations."""
    for p in protocols:
        if p not in PROTOCOLS:
            raise ValueError(f"unknown protocol {p!r}")
    return cost_scan(_lz_equivalent(cfg, n), taus, protocols, quadrature_steps)


def find_jc_crossover(cfg: JcConfig, n: int = 0,
                      taus: Optional[Sequence[float]] = None,
                      scan: Optional[dict] = None) -> Optional[float]:
    """Duration where the block CD and LCD costs cross, or None.

    The bracket is read from ``scan``, a :func:`jc_cost_scan` of block n at
    its default quadrature, or from such a scan of ``taus`` made here.
    """
    if scan is None and taus is None:
        taus = np.geomspace(2.0, 60.0, 25)
    return find_cd_lcd_crossover(_lz_equivalent(cfg, n), taus, scan=scan)
