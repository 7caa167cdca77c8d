"""Fourier-ramp optimal control minimizing the composite objective q^gamma C.

The control ansatz is the linear sweep plus a truncated Fourier series
(:func:`ctrlcost.ramps.oc_fourier_ramp`); the parameter vector stacks the
amplitudes a_1..a_nmax followed by the phases phi_1..phi_nmax. The scalar
objective is q^gamma * C with q = 1 - F(tau) the final target-state
infidelity (clamped below at 1e-16) and C the time-averaged Frobenius cost.

Minimizing the combined objective alone is treacherous: for the small
exponents used here its global optimum sits at a low-cost, low-fidelity
ramp (the q^gamma factor is nearly flat until q is tiny). The optimizer
therefore first descends the infidelity to the high-fidelity basin
(Powell on log10 q), then polishes the combined objective with a local
simplex pass, and returns the best point that meets the infidelity target.
Both stages are deterministic given (seed, budget). They are scipy's
optimizers, imported when an optimization starts, so that the rest of the
package loads with numpy alone; the cost quadrature uses the shared
``twolevel._simpson_weights``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .landau_zener import LzConfig, lz_ground_state, qsl_time
from .twolevel import _su2_steps, _ordered_product, _apply, _simpson_weights

__all__ = ["OcProblem", "OcResult", "objective", "evaluate", "optimize",
           "refine_result", "tau_scan"]

Q_CLAMP = 1e-16


@dataclass(frozen=True)
class OcProblem:
    """Optimization instance for one protocol duration.

    Defaults sit at the midpoints of the working ranges: 20 < n_max < 50
    and 1e-3 < gamma < 1e-2. The Fourier method applies only above the
    quantum speed limit.
    """

    config: LzConfig
    n_max: int = 30
    gamma: float = 5e-3
    budget: int = 40_000
    seed: int = 0
    steps: int = 4096
    q_target: float = 1e-9
    restarts: int = 0
    polish_budget: int = 4_000

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        cfg = self.config
        tqsl = qsl_time(cfg.delta, lz_ground_state(cfg.delta, cfg.g0),
                        lz_ground_state(cfg.delta, cfg.g1))
        if cfg.tau <= tqsl:
            raise ValueError(
                f"Fourier optimal control requires tau > tau_QSL = {tqsl:.4f}, "
                f"got tau = {cfg.tau}")


class _Evaluator:
    """Precomputed basis and quadrature weights for fast repeated (q, C) evaluation."""

    def __init__(self, problem: OcProblem, steps: Optional[int] = None):
        cfg = problem.config
        self.delta = cfg.delta
        self.tau = cfg.tau
        self.n_max = problem.n_max
        self.gamma = problem.gamma
        self.steps = steps or problem.steps
        self.t = np.linspace(0.0, self.tau, self.steps + 1)
        self.dt = self.tau / self.steps
        # rows: the step midpoints (propagation), then the nodes (cost);
        # built in place, so the peak stays at the basis plus one argument table
        tt = np.concatenate([0.5 * (self.t[:-1] + self.t[1:]), self.t])
        arg = np.outer(tt, np.arange(1, self.n_max + 1))
        arg *= np.pi
        arg /= self.tau
        self.basis = np.empty((len(tt), 2 * self.n_max))
        np.sin(arg, out=self.basis[:, :self.n_max])
        np.cos(arg, out=self.basis[:, self.n_max:])
        self.lin = cfg.g0 - 2.0 * cfg.g0 * tt / self.tau
        self.weights = _simpson_weights(self.steps, self.dt) / self.tau
        self.psi0 = lz_ground_state(cfg.delta, cfg.g0)
        self.psit = lz_ground_state(cfg.delta, cfg.g1)
        self.nfev = 0

    def q_and_cost(self, params) -> tuple:
        params = np.asarray(params, dtype=float)
        if params.shape != (2 * self.n_max,):
            raise ValueError(f"expected {2 * self.n_max} parameters, got {params.shape}")
        self.nfev += 1
        a = params[:self.n_max]
        ph = params[self.n_max:]
        g = self.lin + self.basis @ np.concatenate([a * np.cos(ph), a * np.sin(ph)])
        gm, gn = g[:self.steps], g[self.steps:]
        psi = _apply(_ordered_product(_su2_steps(self.delta, 0.0, gm, self.dt)), self.psi0)
        q = 1.0 - abs(np.vdot(self.psit, psi)) ** 2
        C = float(self.weights @ np.sqrt((self.delta**2 + gn * gn) / 2.0))
        return float(q), C

    def combined(self, q: float, C: float) -> float:
        return max(q, Q_CLAMP) ** self.gamma * C


def evaluate(problem: OcProblem, params) -> tuple:
    """(infidelity, cost) for one parameter vector."""
    return _Evaluator(problem).q_and_cost(params)


def objective(problem: OcProblem, params) -> float:
    """Composite objective q^gamma * C with q clamped below at 1e-16."""
    ev = _Evaluator(problem)
    q, C = ev.q_and_cost(params)
    return ev.combined(q, C)


@dataclass
class OcResult:
    tau: float
    gamma: float
    n_max: int
    seed: int
    best_params: np.ndarray
    q: float
    cost: float
    objective: float
    success: bool
    nfev: int
    trace: list = field(default_factory=list)  # best-q improvements

    def to_record(self) -> dict:
        return {"tau": self.tau, "gamma": self.gamma, "n_max": self.n_max,
                "seed": self.seed, "best_params": [float(x) for x in self.best_params],
                "q": self.q, "C": self.cost, "objective": self.objective,
                "success": self.success, "nfev": self.nfev}

    def to_json(self) -> str:
        return json.dumps(self.to_record())


def _single_start(problem: OcProblem, ev: _Evaluator, x0, trace, best):
    """Fidelity descent then combined-objective polish from one start."""
    from scipy.optimize import minimize  # deferred: the rest of the package loads without scipy

    def track(params, q, C):
        obj = ev.combined(q, C)
        if q < best["q_min"]:
            best["q_min"] = q
            trace.append({"nfev": ev.nfev, "q": q, "C": C, "objective": obj})
        if q <= problem.q_target and obj < best["feasible_obj"]:
            best.update(feasible_obj=obj, feasible_x=np.array(params),
                        feasible_q=q, feasible_C=C)
        if obj < best["any_obj"]:
            best.update(any_obj=obj, any_x=np.array(params), any_q=q, any_C=C)

    def logq(params):
        q, C = ev.q_and_cost(params)
        track(params, q, C)
        return np.log10(max(q, Q_CLAMP))

    def combined(params):
        q, C = ev.q_and_cost(params)
        track(params, q, C)
        return ev.combined(q, C)

    budget = max(0, problem.budget - ev.nfev)
    if budget == 0:
        return
    res = minimize(logq, x0, method="Powell",
                   options={"maxfev": budget, "xtol": 1e-10, "ftol": 1e-12})
    polish = min(problem.polish_budget, max(0, problem.budget - ev.nfev))
    if polish > 0:
        minimize(combined, res.x, method="Nelder-Mead",
                 options={"maxfev": polish, "xatol": 1e-10, "fatol": 1e-14,
                          "adaptive": True})


def optimize(problem: OcProblem) -> OcResult:
    """Multi-start optimization; returns the best target-meeting point found.

    Start 0 is the bare linear ramp (all parameters zero); additional
    restarts perturb it with seeded Gaussian amplitudes. If no explored
    point meets the infidelity target the overall objective-best point is
    returned with success=False.
    """
    ev = _Evaluator(problem)
    rng = np.random.default_rng(problem.seed)
    trace: list = []
    best = {"q_min": np.inf,
            "feasible_obj": np.inf, "feasible_x": None, "feasible_q": None,
            "feasible_C": None,
            "any_obj": np.inf, "any_x": None, "any_q": None, "any_C": None}

    starts = [np.zeros(2 * problem.n_max)]
    for _ in range(problem.restarts):
        x = np.zeros(2 * problem.n_max)
        x[:problem.n_max] = 0.05 * rng.standard_normal(problem.n_max)
        starts.append(x)

    for x0 in starts:
        if ev.nfev >= problem.budget:
            break
        _single_start(problem, ev, x0, trace, best)

    feasible = best["feasible_x"] is not None
    if feasible:
        x, q, C, obj = (best["feasible_x"], best["feasible_q"],
                        best["feasible_C"], best["feasible_obj"])
    else:
        x, q, C, obj = best["any_x"], best["any_q"], best["any_C"], best["any_obj"]
    return OcResult(tau=problem.config.tau, gamma=problem.gamma, n_max=problem.n_max,
                    seed=problem.seed, best_params=x, q=q, cost=C, objective=obj,
                    success=feasible, nfev=ev.nfev, trace=trace)


def refine_result(problem: OcProblem, result: OcResult, steps: int = 32_768) -> OcResult:
    """Re-evaluate the reported point on a finer grid (integrator-bias check)."""
    q, C = _Evaluator(problem, steps=steps).q_and_cost(result.best_params)
    return OcResult(tau=result.tau, gamma=result.gamma, n_max=result.n_max,
                    seed=result.seed, best_params=result.best_params, q=q, cost=C,
                    objective=max(q, Q_CLAMP) ** problem.gamma * C,
                    success=q <= problem.q_target, nfev=result.nfev,
                    trace=result.trace)


def tau_scan(problem: OcProblem, taus: Sequence[float]) -> list:
    """Independent optimizations for each duration, shared seed policy."""
    from dataclasses import replace as dc_replace
    out = []
    for tau in taus:
        prob = dc_replace(problem, config=dc_replace(problem.config, tau=float(tau)))
        out.append(optimize(prob))
    return out
