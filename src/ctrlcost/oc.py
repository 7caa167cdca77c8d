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
q <= q_t with scipy's SLSQP (imported when an optimization starts, so the
rest of the package loads with numpy alone). q = |<psi_perp|psi(tau)>|^2,
the weight on the state orthogonal to the target, cannot go negative. q_t
is tightened by continuation, 1e-3, 1e-6, then q_target/2: aimed at
q_target itself, the refined q (``refine_result``) lands on either side of
it (1.0015e-9 for 1e-9 at tau = 25, n_max 16), and the margin costs about
2e-5 of C. Two linear equalities pin the sweep's endpoints:
g(0) - g0 = sum_n s_n = 0 and g(tau) - g1 = sum_n (-1)^n s_n = 0. The
constraint is passed in amplitude units, (q_t - q)/sqrt(q_t) >= 0: SLSQP
stops only once the violation is below its ftol (1e-12), which 1 - q/q_t,
with a rounding error of about 1e-10 at q_t = 5e-10, might never reach.

The state is propagated by ``steps`` fourth-order commutator-free Magnus
steps (CF4; Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)): step k is
two exact SU(2) exponentials of (Delta sigma_x/2 + z sigma_z)/2 over dt,
with z = a1 g1 + a2 g2 and then a2 g1 + a1 g2 for g at the step's Gauss
nodes, built by ``twolevel._cf4_factors`` as every qubit step is. C is the
two-point Gauss-Legendre sum on the same node rows. At the default 512
steps the refined q is within 2.2% of the optimizer's at the fig3-oc
preset; 4,096 second-order steps leave 22%. Each evaluation also returns
the exact gradients of q and C in x, q's by GRAPE (Khaneja et al., J. Magn.
Reson. 172, 296 (2005)) from one prefix scan of the 2N exponentials, both
through the fixed basis as in GOAT (Machnes et al., PRL 120, 150401
(2018)). The ansatz is CRAB-like (Caneva et al., PRA 84, 022326 (2011)).

The [sin | cos] columns are nearly dependent on [0, tau] (smallest singular
value 3e-11 at n_max 16), so an optimum may carry amplitudes of tens or
more whose terms cancel; the pulse they sum to is what is optimized and
checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .landau_zener import LzConfig, lz_ground_state, qsl_time
from .twolevel import (_GAUSS, _MIX, _cf4_factors, _qmul, _ordered_product,
                       _prefix_scan, _apply)

__all__ = ["OcProblem", "OcResult", "evaluate", "optimize", "refine_result"]

CONTINUATION = (1e-3, 1e-6)   # intermediate infidelity targets, then q_target/2
FTOL = 1e-12                  # SLSQP's tolerance on the change of C
REFINE_STEPS = 16_384         # refine_result's steps, 32x the default
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class OcProblem:
    """Optimization instance for one protocol duration.

    ``budget`` caps the value-and-gradient evaluations over all
    continuation stages. ``seed`` is recorded with the result; the search
    starts from the bare linear ramp and draws nothing at random. The
    Fourier method applies only above the quantum speed limit, and only to
    the sweep g0 -> g1 = -g0 that its linear part and endpoint pins follow.
    """

    config: LzConfig
    n_max: int = 30
    budget: int = 40_000
    seed: int = 0
    steps: int = 512
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
        if abs(cfg.g1 + cfg.g0) > 1e-12 * max(1.0, abs(cfg.g0)):
            raise ValueError(f"the Fourier ansatz sweeps g0 -> -g0: g1 must be "
                             f"{-cfg.g0!r}, got {cfg.g1!r}")
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
    """Basis rows at the Gauss nodes (2k and 2k + 1 for step k) for repeated (q, C) in x."""

    def __init__(self, problem: OcProblem, steps: Optional[int] = None):
        cfg = problem.config
        self.delta = cfg.delta
        self.n_max = problem.n_max
        self.steps = steps or problem.steps
        self.dt = cfg.tau / self.steps
        tt = np.add.outer(np.linspace(0.0, cfg.tau, self.steps + 1)[:-1],
                          np.multiply(_GAUSS, self.dt)).ravel()
        # built in place, so the peak stays at the basis plus one argument table
        arg = np.outer(tt, np.arange(1, self.n_max + 1))
        arg *= np.pi
        arg /= cfg.tau
        self.basis = np.empty((len(tt), 2 * self.n_max))
        np.sin(arg, out=self.basis[:, :self.n_max])
        np.cos(arg, out=self.basis[:, self.n_max:])
        self.lin = cfg.g0 - 2.0 * cfg.g0 * tt / cfg.tau
        self.psi0 = lz_ground_state(cfg.delta, cfg.g0)
        self.units_psi0 = _apply(np.eye(4), self.psi0)   # A(e_a) psi0, a = 0..3
        target = lz_ground_state(cfg.delta, cfg.g1)
        self.perp = np.array([-target[1].conj(), target[0].conj()])

    def _fields(self, x):
        """(node g, node cost rate, the CF4 factors' mixed (cx, cy, cz), their SU(2) rows)."""
        # einsum, not a BLAS matvec, here and in the gradient: threaded BLAS
        # between SLSQP's own calls oversubscribes a 2-core host (4 s against
        # 0.5 s per n_max-30 optimization, 16 against 2.5 ms per 8,192-row gradient)
        g = self.lin + np.einsum("ij,j->i", self.basis, x)
        rate = np.sqrt((self.delta**2 + g * g) / 2.0)
        return g, rate, *_cf4_factors(self.delta, 0.0, g, self.dt)

    def final_state(self, steps) -> np.ndarray:
        """psi(tau): the product of the CF4 factors on psi0, rescaled to unit
        norm (the rounding of 2N factors drifts it by ~1e-14)."""
        u = _ordered_product(steps)
        return _apply(u / np.sqrt(u @ u), self.psi0)

    def q_and_cost(self, x) -> tuple:
        _, rate, _, steps = self._fields(x)
        return float(abs(np.vdot(self.perp, self.final_state(steps))) ** 2), float(rate.mean())

    def with_gradient(self, x) -> tuple:
        """(q, C, dq/dx, dC/dx) from one prefix scan of the 2N exponentials.

        With P_k = Q_k ... Q_0, U = P_{2N-1} and the operator
        A(a) = a0 - i a.sigma of a quaternion, factor k's derivative is
        dc/dz_k = <eta| A(conj(P_k) dQ_k P_{k-1}) |psi0> for
        eta = A(conj(U)) psi_perp. That is linear in the quaternion, so
        dq/dz_k = 2 Re(conj(c) dc/dz_k) = mu . (conj(P_k) dQ_k P_{k-1}) for
        one real 4-vector mu, which equals (P_k mu) . (dQ_k P_{k-1}) since
        a . (conj(b) c) = (b a) . c for the Euclidean dot of quaternions.
        z is an alpha mixture of the node g, symmetric, so dq/dg is the
        same mixture of dq/dz.
        """
        g, rate, (_, _, cz), steps = self._fields(x)
        prefix = _prefix_scan(steps)
        earlier = np.concatenate([[(1.0, 0.0, 0.0, 0.0)], prefix[:-1]])   # P_{k-1}, P_{-1} = 1
        eta = _apply(prefix[-1] * _CONJ, self.perp)
        m = self.units_psi0 @ eta.conj()                # m_a = <eta|A(e_a)|psi0>
        mu = 2.0 * (m[0].conjugate() * m).real          # c = m_0
        # d(factor)/dz: a0 = cos h, a = s (Delta/2, 0, z), s = sin(h)/r,
        # h = r dt/2, r^2 = Delta^2/4 + z^2
        half, cx = 0.5 * self.dt, 0.5 * self.delta
        s = steps[:, 1] / cx
        ds = (half * steps[:, 0] - s) * cz / (cx * cx + cz * cz)
        dstep = np.stack([-half * s * cz, ds * cx, np.zeros_like(cz), ds * cz + s]).T
        dq_dz = np.einsum("ij,ij->i", _qmul(prefix, np.broadcast_to(mu, prefix.shape)),
                          _qmul(dstep, earlier))
        dq = np.einsum("i,ij->j", (dq_dz.reshape(-1, 2) @ _MIX).ravel(), self.basis)
        dC = np.einsum("i,ij->j", g / (2.0 * len(g) * rate), self.basis)
        return float(abs(m[0]) ** 2), float(rate.mean()), dq, dC


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


def refine_result(problem: OcProblem, result: OcResult) -> OcResult:
    """Re-evaluate the reported point on ``REFINE_STEPS`` steps (integrator-bias check).

    4,096 steps leave C 1.7e-9 from adaptive quadrature on a pulse whose
    amplitudes of 1,300 cancel (tau = 24.3, n_max 16); 16,384 leave 4.4e-12.
    """
    q, C = _Evaluator(problem, steps=REFINE_STEPS).q_and_cost(
        _linear(result.best_params, problem.n_max))
    return replace(result, q=q, cost=C, success=q <= problem.q_target)

