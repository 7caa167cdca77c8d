"""Fourier-ramp optimal control: the cheapest sweep that meets an infidelity target.

The control ansatz is the linear sweep plus a truncated Fourier series
(:func:`ctrlcost.ramps.oc_fourier_ramp`),

    g(t) = g0 - 2 g0 t/tau + sum_n a_n sin(n pi t/tau + phi_n),  n = 1..n_max.

Results and the public ``evaluate`` keep the polar parameter vector
(a_1..a_nmax, phi_1..phi_nmax). The search runs in the linear coordinates
x = (b_n, s_n) = (a_n cos phi_n, a_n sin phi_n), the coefficients of the
sin(n pi t/tau) and cos(n pi t/tau) columns, where the gradient does not
vanish at the all-zero start as the phase gradient does.

``optimize`` minimizes the time-averaged Frobenius cost C subject to
q <= q_t with scipy's SLSQP (imported when an optimization starts, so
that the rest of the package loads with numpy alone).
q = |<psi_perp|psi(tau)>|^2 is the weight on the state orthogonal to the
target, which cannot go negative. The target is tightened by continuation,
q_t = 1e-3, 1e-6, then q_target/2, so that the refined q
(``refine_result``, 8x finer steps) still meets q_target. Two linear
equalities pin the sweep's endpoints: g(0) - g0 = sum_n s_n = 0 and
g(tau) - g1 = sum_n (-1)^n s_n = 0.

The constraint 1 - q/q_t >= 0 is passed in amplitude units, as
(q_t - q)/sqrt(q_t) >= 0. SLSQP stops only once the summed constraint
violation is below its ftol, and q's rounding error is about 2 sqrt(q_t)
times the amplitude's (1e-15), so 1 - q/q_t carries a rounding error of
about 1e-10 at q_t = 5e-10: above ftol = 1e-12, it can keep a stage
running at a fixed cost until the budget is spent.

Every evaluation returns q, C and their exact gradients in x. q's is the
GRAPE forward/backward pass (Khaneja et al., J. Magn. Reson. 172, 296
(2005)) read off one prefix scan of the midpoint steps: with
P_k = Q_k ... Q_0 and U = P_{N-1}, step k sees the forward state
P_{k-1} psi0 and the backward vector P_k U^dagger psi_perp, and both are
kept as quaternions (``_Evaluator.with_gradient``). C's follows from the
Simpson weights. Both reach x through the fixed basis, as in GOAT (Machnes
et al., PRL 120, 150401 (2018)); the ansatz is CRAB-like (Caneva et al.,
PRA 84, 022326 (2011)).

The [sin | cos] columns are nearly dependent on [0, tau] (smallest singular
value 3e-11 at n_max 16), so an optimum may carry amplitudes of tens or
more whose terms cancel; the pulse they sum to is what is optimized and
checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .landau_zener import LzConfig, lz_ground_state, qsl_time
from .twolevel import (_su2_steps, _qmul, _ordered_product, _prefix_scan, _apply,
                       _simpson_weights)

__all__ = ["OcProblem", "OcResult", "evaluate", "optimize", "refine_result",
           "tau_scan"]

CONTINUATION = (1e-3, 1e-6)   # intermediate infidelity targets, then q_target/2
FTOL = 1e-12                  # SLSQP's tolerance on the change of C
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class OcProblem:
    """Optimization instance for one protocol duration.

    ``budget`` caps the value-and-gradient evaluations over all
    continuation stages. ``seed`` is recorded with the result; the search
    starts from the bare linear ramp and draws nothing at random. The
    Fourier method applies only above the quantum speed limit.
    """

    config: LzConfig
    n_max: int = 30
    budget: int = 40_000
    seed: int = 0
    steps: int = 4096
    q_target: float = 1e-9

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if not 0.0 < self.q_target < 1.0:
            raise ValueError(f"q_target must lie in (0, 1), got {self.q_target}")
        cfg = self.config
        tqsl = qsl_time(cfg.delta, lz_ground_state(cfg.delta, cfg.g0),
                        lz_ground_state(cfg.delta, cfg.g1))
        if cfg.tau <= tqsl:
            raise ValueError(
                f"Fourier optimal control requires tau > tau_QSL = {tqsl:.4f}, "
                f"got tau = {cfg.tau}")


def _linear(params, n_max: int) -> np.ndarray:
    """Polar (a_n, phi_n) -> linear (a_n cos phi_n, a_n sin phi_n), length-checked."""
    params = np.asarray(params, dtype=float)
    if params.shape != (2 * n_max,):
        raise ValueError(f"expected {2 * n_max} parameters, got {params.shape}")
    a, ph = params[:n_max], params[n_max:]
    return np.concatenate([a * np.cos(ph), a * np.sin(ph)])


def _polar(x, n_max: int) -> np.ndarray:
    b, s = x[:n_max], x[n_max:]
    return np.concatenate([np.hypot(b, s), np.arctan2(s, b)])


class _Evaluator:
    """Precomputed basis and quadrature weights for repeated (q, C) evaluation in x."""

    def __init__(self, problem: OcProblem, steps: Optional[int] = None):
        cfg = problem.config
        self.delta = cfg.delta
        self.n_max = problem.n_max
        self.steps = steps or problem.steps
        t = np.linspace(0.0, cfg.tau, self.steps + 1)
        self.dt = cfg.tau / self.steps
        # rows: the step midpoints (propagation), then the nodes (cost);
        # built in place, so the peak stays at the basis plus one argument table
        tt = np.concatenate([0.5 * (t[:-1] + t[1:]), t])
        arg = np.outer(tt, np.arange(1, self.n_max + 1))
        arg *= np.pi
        arg /= cfg.tau
        self.basis = np.empty((len(tt), 2 * self.n_max))
        np.sin(arg, out=self.basis[:, :self.n_max])
        np.cos(arg, out=self.basis[:, self.n_max:])
        self.lin = cfg.g0 - 2.0 * cfg.g0 * tt / cfg.tau
        self.weights = _simpson_weights(self.steps, self.dt) / cfg.tau
        self.psi0 = lz_ground_state(cfg.delta, cfg.g0)
        self.units_psi0 = _apply(np.eye(4), self.psi0)   # A(e_a) psi0, a = 0..3
        target = lz_ground_state(cfg.delta, cfg.g1)
        self.perp = np.array([-target[1].conj(), target[0].conj()])

    def _fields(self, x):
        """(midpoint g, node g, node cost rate, SU(2) steps) of the pulse x."""
        # einsum, not a BLAS matvec: a threaded BLAS call here, between
        # SLSQP's own BLAS calls, oversubscribes a 2-core host (4 s against
        # 0.5 s for one n_max-30 optimization)
        g = self.lin + np.einsum("ij,j->i", self.basis, x)
        gm, gn = g[:self.steps], g[self.steps:]
        rate = np.sqrt((self.delta**2 + gn * gn) / 2.0)
        return gm, gn, rate, _su2_steps(self.delta, 0.0, gm, self.dt)

    def q_and_cost(self, x) -> tuple:
        _, _, rate, q = self._fields(x)
        c = np.vdot(self.perp, _apply(_ordered_product(q), self.psi0))
        return float(abs(c) ** 2), float(self.weights @ rate)

    def with_gradient(self, x) -> tuple:
        """(q, C, dq/dx, dC/dx) from one prefix scan of the steps.

        In quaternions, with the operator A(a) = a0 - i a.sigma, step k's
        derivative is dc/dg_k = <eta| A(conj(P_k) dQ_k P_{k-1}) |psi0> for
        eta = A(conj(U)) psi_perp. That is linear in the quaternion, so
        dq/dg_k = 2 Re(conj(c) dc/dg_k) = mu . (conj(P_k) dQ_k P_{k-1}) for
        one real 4-vector mu, which equals (P_k mu) . (dQ_k P_{k-1}) since
        a . (conj(b) c) = (b a) . c for the Euclidean dot of quaternions.
        """
        gm, gn, rate, steps = self._fields(x)
        prefix = _prefix_scan(steps)
        earlier = np.empty_like(prefix)            # P_{k-1}, with P_{-1} = 1
        earlier[0] = (1.0, 0.0, 0.0, 0.0)
        earlier[1:] = prefix[:-1]
        eta = _apply(prefix[-1] * _CONJ, self.perp)
        m = self.units_psi0 @ eta.conj()                # m_a = <eta|A(e_a)|psi0>
        c = m[0]
        mu = 2.0 * (c.conjugate() * m).real
        # d(step)/dg: a0 = cos h, a = s (Delta, 0, g), s = sin(h)/r,
        # h = r dt/2, r^2 = Delta^2 + g^2
        a0, ax = steps[:, 0], steps[:, 1]
        s = ax / self.delta
        half = 0.5 * self.dt
        ds = (half * a0 - s) * gm / (self.delta**2 + gm * gm)
        dstep = np.stack([-half * s * gm, ds * self.delta, np.zeros_like(gm),
                          ds * gm + s]).T
        times_mu = _qmul(np.eye(4), np.tile(mu, (4, 1)))   # rows e_a mu
        dq_dg = np.einsum("ij,ij->i", prefix @ times_mu, _qmul(dstep, earlier))
        dC_dg = self.weights * gn / (2.0 * rate)
        dq = dq_dg @ self.basis[:self.steps]
        dC = dC_dg @ self.basis[self.steps:]
        return float(abs(c) ** 2), float(self.weights @ rate), dq, dC


def evaluate(problem: OcProblem, params) -> tuple:
    """(infidelity, cost) for one polar parameter vector (a_1.., phi_1..)."""
    return _Evaluator(problem).q_and_cost(_linear(params, problem.n_max))


@dataclass
class OcResult:
    tau: float
    n_max: int
    seed: int
    best_params: np.ndarray    # polar (a_n, phi_n)
    q: float
    cost: float
    success: bool
    nfev: int
    status: int = 0            # SLSQP exit status of the last stage
    message: str = ""
    stage_nfev: list = field(default_factory=list)
    trace: list = field(default_factory=list)  # best-q improvements

    def to_record(self) -> dict:
        return {"tau": self.tau, "n_max": self.n_max, "seed": self.seed,
                "best_params": [float(x) for x in self.best_params],
                "q": self.q, "C": self.cost, "success": self.success,
                "nfev": self.nfev, "status": self.status, "message": self.message,
                "stage_nfev": list(self.stage_nfev)}

    def to_json(self) -> str:
        return json.dumps(self.to_record())


class _BudgetSpent(Exception):
    pass


def optimize(problem: OcProblem) -> OcResult:
    """Minimize C subject to q <= q_t, tightening q_t stage by stage.

    Each stage is an SLSQP run from the previous stage's point, the first
    from the bare linear ramp. A stage whose evaluation would exceed the
    budget stops at its last iterate, and no later stage runs; the status
    is then 9 (limit reached). ``success`` says whether the returned point
    meets q_target on the optimizer's grid.
    """
    from scipy.optimize import minimize  # deferred: the rest of the package loads without scipy

    ev = _Evaluator(problem)
    n = problem.n_max
    pins = np.zeros((2, 2 * n))
    pins[0, n:] = 1.0                             # g(0) - g0 = sum s_n
    pins[1, n:] = (-1.0) ** np.arange(1, n + 1)   # g(tau) - g1 = sum (-1)^n s_n
    if n == 1:
        pins = pins[:1]                           # both rows say s_1 = 0
    trace: list = []
    state = {"x": None, "nfev": 0}

    def point(x):
        if state["x"] is None or not np.array_equal(x, state["x"]):
            if state["nfev"] >= problem.budget:
                raise _BudgetSpent
            state["nfev"] += 1
            state["x"], state["value"] = np.array(x), ev.with_gradient(x)
            q, C = state["value"][:2]
            if not trace or q < trace[-1]["q"]:
                trace.append({"nfev": state["nfev"], "q": q, "C": C})
        return state["value"]

    x = np.zeros(2 * n)
    stage_nfev = []
    status, message = 0, ""
    targets = [t for t in CONTINUATION if t > problem.q_target] + [problem.q_target / 2]
    for q_t in targets:
        start, last = state["nfev"], [x]
        constraints = [   # 1 - q/q_t >= 0 in amplitude units (module docstring)
            {"type": "ineq", "fun": lambda x, q_t=q_t: (q_t - point(x)[0]) / q_t**0.5,
             "jac": lambda x, q_t=q_t: -point(x)[2] / q_t**0.5},
            {"type": "eq", "fun": lambda x: pins @ x, "jac": lambda x: pins}]
        try:
            res = minimize(lambda x: point(x)[1], x, jac=lambda x: point(x)[3],
                           method="SLSQP", constraints=constraints,
                           callback=lambda xk: last.append(np.array(xk)),
                           options={"maxiter": problem.budget, "ftol": FTOL})
            x, status, message = res.x, int(res.status), str(res.message)
        except _BudgetSpent:
            x, status = last[-1], 9
            message = f"evaluation budget of {problem.budget} spent"
        stage_nfev.append(state["nfev"] - start)
        if status == 9:
            break
    q, C = ev.q_and_cost(x)
    return OcResult(tau=problem.config.tau, n_max=n, seed=problem.seed,
                    best_params=_polar(x, n), q=q, cost=C,
                    success=q <= problem.q_target, nfev=state["nfev"],
                    status=status, message=message, stage_nfev=stage_nfev,
                    trace=trace)


def refine_result(problem: OcProblem, result: OcResult, steps: int = 32_768) -> OcResult:
    """Re-evaluate the reported point on a finer grid (integrator-bias check)."""
    q, C = _Evaluator(problem, steps=steps).q_and_cost(
        _linear(result.best_params, problem.n_max))
    return replace(result, q=q, cost=C, success=q <= problem.q_target)


def tau_scan(problem: OcProblem, taus: Sequence[float]) -> list:
    """Independent optimizations for each duration."""
    return [optimize(replace(problem, config=replace(problem.config, tau=float(tau))))
            for tau in taus]
