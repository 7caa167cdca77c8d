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
q <= q_t with an SQP loop on numpy alone (``_sqp``). q =
|<psi_perp|psi(tau)>|^2, the weight on the state orthogonal to the target,
cannot go negative. q_t is tightened by continuation, 1e-3, 1e-6, then
q_target/2: aimed at q_target itself, the refined q (``refine_result``)
lands on either side of it (1.0015e-9 for 1e-9 at tau = 25, n_max 16), and
the margin costs about 2e-5 of C. Two linear equalities pin the sweep's
endpoints: g(0) - g0 = sum_n s_n = 0 and g(tau) - g1 = sum_n (-1)^n s_n = 0.
The search runs in x = N y, with N an orthonormal basis of the pins' null
space from an SVD of the pin rows, so one constraint is left. It is taken
in amplitude units, c = (q_t - q)/sqrt(q_t) >= 0, since 1 - q/q_t has a
rounding error of about 1e-10 at q_t = 5e-10.

The loop keeps SLSQP's rules (Kraft, DFVLR-FB 88-28, 1988). With one
inequality its QP has a closed form. H, the inverse of a damped-BFGS
Hessian B of the Lagrangian (Powell's 0.2/0.8 damping; Nocedal & Wright,
Numerical Optimization, sec. 18.3), gives p = -H grad C; if the linearized
constraint c + grad c . p is negative, p gains lambda H grad c with
lambda = -(c + grad c . p)/(grad c . H grad c). The QP's KKT condition,
B p = lambda grad c - grad C, supplies the B s that the damping needs, so
nothing is solved. Each step is globalized by the L1 merit
C + mu max(0, -c), with mu = max(lambda, (mu + lambda)/2) from 0 in each
stage, and at most 10 Armijo (0.1) backtracks, each a quadratic
interpolation floored at 0.1 of the last. H restarts at the identity when
grad c . H grad c <= 0, when the merit does not descend along p, and once
when a line search fails; it is symmetrized after every update and carried
from stage to stage, which is where most evaluations are saved. A stage
ends on SLSQP's KKT test, on a change of C below FTOL with c feasible to
FTOL, or on a step shorter than FTOL whatever c is: without that rule a
stage could sit at c ~ -1e-10 while Armijo flipped on merit changes of
1e-17. The q_target/2 margin absorbs such a stop, and ``success`` is
judged against q_target. A stage also ends when a line search fails, or
the merit does not descend, on a fresh H. Each result records the stages' stop reasons, the last stage's
lambda in q units and the KKT residual |N^T (grad C + lambda grad q)| at
the returned point.

The state is propagated by ``steps`` fourth-order commutator-free Magnus
steps (CF4; Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)): step k is
two exact SU(2) exponentials of (Delta sigma_x/2 + z sigma_z)/2 over dt,
with z = a1 g1 + a2 g2 and then a2 g1 + a1 g2 for g at the step's Gauss
nodes, built by ``twolevel._cf4_factors`` as every qubit step is. C is the
two-point Gauss-Legendre sum on the same node rows. At the default 512
steps the refined q is within 2.2% of the optimizer's at the fig3-oc
preset; 4,096 second-order steps leave 22%. One evaluation, what ``nfev``
counts, runs the up-sweep of the prefix scan of the 2N exponentials and reads
q off it. When 2N is not a power of two, that q may differ from the full
scan's last prefix in the last bits. Only at points the line search accepts
does the down-sweep run, for the exact gradients of q and C in x, q's by GRAPE
(Khaneja et al., J. Magn. Reson. 172, 296 (2005)), both through the fixed
basis as in GOAT (Machnes et al., PRL 120, 150401 (2018)). The ansatz is
CRAB-like (Caneva et al., PRA 84, 022326 (2011)).

The [sin | cos] columns are nearly dependent on [0, tau] (smallest singular
value 3e-11 at n_max 16), so an optimum may carry amplitudes of 1,000 or
more whose terms cancel; the pulse they sum to is what is optimized and
checked. ``refine_result`` sums it by Horner's rule in z = e^(i pi t/tau):
5.4e-13 from a long-double sum at tau = 24.27 and 25 (n_max 16), where the
columns, with n pi t/tau rounded before each sine, are 1.5e-11 from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .landau_zener import LzConfig, lz_ground_state, qsl_time
from .twolevel import (_GAUSS, _MIX, _apply, _cf4_factors, _last_prefix, _ordered_product,
                       _prefix_scan, _qmul, _up_sweep)

__all__ = ["OcProblem", "OcResult", "evaluate", "optimize", "refine_result"]

CONTINUATION = (1e-3, 1e-6)   # intermediate infidelity targets, then q_target/2
FTOL = 1e-12                  # a stage ends on a shorter step, or a smaller change of C
ARMIJO = 0.1                  # sufficient decrease, a fraction of the merit's slope
MAX_BACKTRACKS = 10           # per line search, each at least 0.1 of the last step
REFINE_STEPS = 16_384         # refine_result's steps, 32x the default
MAX_BASIS = 2**22             # ceiling on steps * n_max: the kept basis is 32 B per unit
_BLOCK = 4_096                # CF4 factors per block of q_and_cost's product; a power of two


@dataclass(frozen=True)
class OcProblem:
    """Optimization instance for one protocol duration.

    ``budget`` caps the evaluations (new points, with or without a
    gradient) over all continuation stages. ``seed`` is recorded with the
    result; the search starts from the bare linear ramp and draws nothing at
    random. The Fourier method applies only above the quantum speed limit,
    and only to the sweep g0 -> g1 = -g0 that its linear part and endpoint
    pins follow.
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
        if self.steps * self.n_max > MAX_BASIS:
            raise ValueError(f"steps * n_max must be <= {MAX_BASIS}, got "
                             f"{self.steps} * {self.n_max} = {self.steps * self.n_max}")
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


def _blocked_product(n: int, rows) -> np.ndarray:
    """Product of n CF4 factors, ``rows(lo, hi)`` building factors lo..hi-1 for
    ``_ordered_product``: all at once or, when ``_BLOCK`` divides n > ``_BLOCK``, one
    aligned block at a time, then the block products. The pairwise reduction's first
    log2(_BLOCK) levels lie inside the blocks, so the bits are the same either way,
    provided ``rows`` gives each factor the bits it has in ``rows(0, n)`` (pointwise)."""
    if n <= _BLOCK or n % _BLOCK:
        return _ordered_product(rows(0, n))
    tops = np.empty((2, n // _BLOCK), complex)   # the layout of the reduction's levels
    for k in range(n // _BLOCK):
        tops[:, k] = _ordered_product(rows(k * _BLOCK, (k + 1) * _BLOCK))
    return _ordered_product(tops.T)


def _mv(a, v):
    """a @ v by einsum, not a BLAS matvec: its loop runs on the calling thread
    whatever the size of the BLAS pool."""
    return np.einsum("ij,j->i", a, v)


class _Evaluator:
    """Basis rows at the Gauss nodes (2k and 2k + 1 for step k) for repeated (q, C) in x."""

    def __init__(self, problem: OcProblem, steps: Optional[int] = None):
        cfg = problem.config
        self.delta, self.tau = cfg.delta, cfg.tau
        self.n_max = problem.n_max
        self.steps = steps or problem.steps
        self.dt = cfg.tau / self.steps
        self.tt = np.add.outer(np.linspace(0.0, cfg.tau, self.steps + 1)[:-1],
                               np.multiply(_GAUSS, self.dt)).ravel()
        self.lin = cfg.g0 - 2.0 * cfg.g0 * self.tt / cfg.tau
        self.psi0 = lz_ground_state(cfg.delta, cfg.g0)
        target = lz_ground_state(cfg.delta, cfg.g1)
        self.perp = np.array([-target[1].conj(), target[0].conj()])

    @cached_property
    def basis(self):
        """[sin | cos](n pi t/tau) at every node, built in place on first use and kept."""
        arg = np.outer(self.tt, np.arange(1, self.n_max + 1))
        arg *= np.pi
        arg /= self.tau
        rows = np.empty((len(arg), 2 * self.n_max))
        np.sin(arg, out=rows[:, :self.n_max])
        np.cos(arg, out=rows[:, self.n_max:])
        return rows

    def _pulse(self, x, nodes=slice(None)):
        """g = lin + Re sum_n c_n z^n at the nodes by Horner's rule, c_n = s_n - i b_n,
        z = e^(i pi t/tau); elementwise, so a slice's g is the whole grid's to the bit."""
        arg = self.tt[nodes] * (np.pi / self.tau)
        z, p = np.cos(arg) + 1j * np.sin(arg), np.zeros(len(arg), complex)
        for c in (x[self.n_max:] - 1j * x[:self.n_max])[::-1]:
            p += c
            p *= z
        return self.lin[nodes] + p.real

    def _fields(self, g):
        """(node cost rate, the CF4 factors' mixed (cx, cy, cz), their SU(2) rows) for node g."""
        rate = np.sqrt((self.delta**2 + g * g) / 2.0)
        return rate, *_cf4_factors(self.delta, 0.0, g, self.dt)

    def final_state(self, u) -> np.ndarray:
        """psi(tau): u, the product of the CF4 factors, on psi0, rescaled to unit
        norm (the rounding of 2N factors drifts it by ~1e-14)."""
        return _apply(u / np.sqrt(np.vdot(u, u).real), self.psi0)

    def q_and_cost(self, x) -> tuple:
        """(q, C) by ``_blocked_product``, each block's g summed by ``_pulse`` with no
        basis built; the node cost rates are kept whole, so C is one mean."""
        rate = np.empty(len(self.tt))

        def rows(lo, hi):
            rate[lo:hi], _, f = self._fields(self._pulse(x, slice(lo, hi)))
            return f

        psi = self.final_state(_blocked_product(len(rate), rows))
        return float(abs(np.vdot(self.perp, psi)) ** 2), float(rate.mean())

    def value(self, x) -> tuple:
        """(q, C, kept) from the fields and the up-sweep alone; ``gradient`` finishes from kept."""
        g = self.lin + _mv(self.basis, x)
        rate, (_, _, cz), steps = self._fields(g)
        levels = _up_sweep(steps)
        u = _last_prefix(levels)
        eta = _apply(np.array([u[0].conjugate(), -u[1]]), self.perp)   # U^dagger psi_perp
        c = np.vdot(eta, self.psi0)                      # <psi_perp|U|psi0>
        return float(abs(c) ** 2), float(rate.mean()), (g, rate, cz, levels, eta, c)

    def gradient(self, kept) -> tuple:
        """(dq/dx, dC/dx) from a ``value``'s kept state: the down-sweep, then GRAPE.

        With P_k = Q_k ... Q_0, U = P_{2N-1} and A(a) = [[alpha, -conj(beta)],
        [beta, conj(alpha)]] for a pair a = (alpha, beta) of the real quaternion
        algebra, factor k's derivative is dc/dz_k = <eta| A(conj(P_k) dQ_k P_{k-1})
        |psi0> for c = <eta|psi0> and eta = U^dagger psi_perp, conj(alpha, beta) =
        (conj(alpha), -beta). That is real-linear in the pair, so dq/dz_k =
        2 Re(conj(c) dc/dz_k) = mu . (conj(P_k) dQ_k P_{k-1}) for one pair mu, with
        the quaternions' Euclidean dot a . b = Re(alpha_a conj(alpha_b) + beta_a
        conj(beta_b)). That equals (P_k mu) . (dQ_k P_{k-1}), since a . (conj(b) c)
        = (b a) . c. z is an alpha mixture of the node g, symmetric, so dq/dg is
        the same mixture of dq/dz.
        """
        g, rate, cz, levels, eta, c = kept
        steps, prefix = levels[0], _prefix_scan(levels[0], levels=levels)
        earlier = np.empty((2, len(prefix)), complex)    # P_{k-1}, P_{-1} = 1
        earlier[:, 0] = 1.0, 0.0
        earlier[:, 1:] = prefix[:-1].T
        # 2 Re(conj(c) <eta|A(a)|psi0>) = mu . a
        (e0, e1), (p0, p1) = eta.conjugate(), self.psi0
        c2 = 2.0 * c
        mu = np.array([c2 * (e0 * p0).conjugate() + c2.conjugate() * (e1 * p1),
                       c2 * (e1 * p0).conjugate() - c2.conjugate() * (e0 * p1)])
        # d(factor)/dz: alpha = cos h - i s z, beta = -i s Delta/2, s = sin(h)/r,
        # h = r dt/2, r^2 = Delta^2/4 + z^2
        half, cx = 0.5 * self.dt, 0.5 * self.delta
        alpha, beta = steps.T
        s = -beta.imag / cx
        ds = (half * alpha.real - s) * cz / (cx * cx + cz * cz)
        dstep = np.empty((2, len(cz)), complex)
        dstep.real[0], dstep.imag[0] = -half * s * cz, -(ds * cz + s)
        dstep.real[1], dstep.imag[1] = 0.0, -ds * cx
        dot = (_qmul(prefix, mu) * _qmul(dstep.T, earlier.T).conjugate()).real
        dq_dz = dot[:, 0] + dot[:, 1]
        dq = np.einsum("i,ij->j", (dq_dz.reshape(-1, 2) @ _MIX).ravel(), self.basis)
        dC = np.einsum("i,ij->j", g / (2.0 * len(g) * rate), self.basis)
        return dq, dC


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
    status: int = 0            # 9: the budget was spent; 0: the last stage met a stop rule
    message: str = ""          # the last stage's stop reason
    stage_nfev: list = field(default_factory=list)
    stage_stop: list = field(default_factory=list)   # each stage's stop reason
    multiplier: float = 0.0    # lambda of q <= q_t in the last stage, -dC/dq_t
    kkt_residual: float = 0.0  # |N^T (dC + lambda dq)| at the returned point
    trace: list = field(default_factory=list)  # best-q improvements

    def to_record(self) -> dict:
        return {"tau": self.tau, "n_max": self.n_max, "seed": self.seed,
                "best_params": [float(x) for x in self.best_params],
                "q": self.q, "C": self.cost, "success": self.success,
                "nfev": self.nfev, "status": self.status, "message": self.message,
                "stage_nfev": list(self.stage_nfev), "stage_stop": list(self.stage_stop),
                "multiplier": self.multiplier, "kkt_residual": self.kkt_residual}


class _BudgetSpent(Exception):
    pass


def _sqp(value, gradient, y, targets, budget) -> tuple:
    """Minimize C(y) subject to q(y) <= q_t for each q_t of ``targets`` in turn.

    ``value(y)`` gives (q, C, kept) and is one evaluation; ``gradient(kept)``
    gives (dq/dy, dC/dy) and is made only at accepted points. Returns (y,
    lambda of the last stage in q units, |dC + lambda dq| at y, nfev,
    evaluations per stage, stop reason per stage, best-q improvements).
    """
    trace: list = []
    nfev = 0

    def point(y):
        nonlocal nfev
        if nfev >= budget:
            raise _BudgetSpent
        nfev += 1
        q, C, kept = value(y)
        if not trace or q < trace[-1]["q"]:
            trace.append({"nfev": nfev, "q": q, "C": C})
        return y, q, C, kept

    def accept(pt):
        y, q, C, kept = pt
        return (y, q, C, *gradient(kept))

    y, q, C, dq, dC = accept(point(y))
    H, fresh = np.eye(len(y)), True
    lam, stage_nfev, stops = 0.0, [], []
    for q_t in targets:
        mu, stop, scale = 0.0, None, q_t ** -0.5
        while stop is None:
            c, dc = (q_t - q) * scale, -dq * scale       # c >= 0 in amplitude units
            p, hdc = -_mv(H, dC), _mv(H, dc)
            lin, den = c + dc @ p, dc @ hdc
            lam = -lin / den if lin < 0.0 and den > 0.0 else 0.0
            p = p + lam * hdc
            mu = max(lam, 0.5 * (mu + lam))
            viol = max(0.0, -c)
            slope = dC @ p - mu * viol                  # the merit's along p
            if abs(dC @ p) + lam * abs(c) < FTOL and viol < FTOL:
                stop = "KKT conditions met"
                break
            if (lin < 0.0 and den <= 0.0) or slope >= 0.0:
                if fresh:
                    stop = "no descent direction"
                H, fresh = np.eye(len(y)), True
                continue
            merit0, alpha, step, trial = C + mu * viol, 1.0, p, None
            try:
                for _ in range(1 + MAX_BACKTRACKS):
                    trial = point(y + step)
                    rise = trial[2] + mu * max(0.0, (trial[1] - q_t) * scale) - merit0
                    if rise <= ARMIJO * alpha * slope:
                        break
                    shrink = max(alpha * slope / (2.0 * (alpha * slope - rise)), 0.1)
                    alpha, step, trial = alpha * shrink, step * shrink, None
            except _BudgetSpent:
                stop = f"evaluation budget of {budget} spent"
                break
            if trial is None:
                if fresh:
                    stop = "line search failed"
                H, fresh = np.eye(len(y)), True
                continue
            y1, q1, C1, dq1, dC1 = accept(trial)
            # damped BFGS on the Lagrangian's gradient (Powell): B p is the
            # QP's lam dc - dC, so B step needs no solve
            bs = alpha * (lam * dc - dC)
            r = dC1 - dC + lam * scale * (dq1 - dq)
            sbs, sr = step @ bs, step @ r
            if sr < 0.2 * sbs:
                theta = 0.8 * sbs / (sbs - sr)
                r, sr = theta * r + (1.0 - theta) * bs, 0.2 * sbs
            if sr > 0.0:
                hr = _mv(H, r) / sr
                H = (H - np.outer(step, hr) - np.outer(hr, step)
                     + (1.0 + r @ hr) / sr * np.outer(step, step))
                H, fresh = 0.5 * (H + H.T), False
            change, (y, q, C, dq, dC) = abs(C1 - C), (y1, q1, C1, dq1, dC1)
            if np.sqrt(step @ step) < FTOL:
                stop = "step below FTOL"
            elif change < FTOL and (q - q_t) * scale < FTOL:
                stop = "change of C below FTOL, q feasible"
        stage_nfev.append(nfev - sum(stage_nfev))
        stops.append(stop)
        if stop.startswith("evaluation budget"):
            break
    lam *= scale
    kkt = dC + lam * dq
    return y, lam, float(np.sqrt(kkt @ kkt)), nfev, stage_nfev, stops, trace


def optimize(problem: OcProblem) -> OcResult:
    """Minimize C subject to q <= q_t, tightening q_t stage by stage.

    Each stage is an SQP run (module docstring) from the previous stage's
    point and inverse Hessian, the first from the bare linear ramp and the
    identity. A stage whose evaluation would exceed the budget stops at its
    last iterate, and no later stage runs; the status is then 9. ``success``
    says whether the returned point meets q_target on the optimizer's grid.
    """
    ev = _Evaluator(problem)
    n = problem.n_max
    pins = np.zeros((2, 2 * n))
    pins[0, n:] = 1.0                             # g(0) - g0 = sum s_n
    pins[1, n:] = (-1.0) ** np.arange(1, n + 1)   # g(tau) - g1 = sum (-1)^n s_n
    if n == 1:
        pins = pins[:1]                           # both rows say s_1 = 0
    null = np.linalg.svd(pins)[2][len(pins):].T   # orthonormal; x = null y meets the pins

    def gradient(kept):
        dq, dC = ev.gradient(kept)
        return _mv(null.T, dq), _mv(null.T, dC)

    targets = [t for t in CONTINUATION if t > problem.q_target] + [problem.q_target / 2]
    y, lam, kkt, nfev, stage_nfev, stops, trace = _sqp(
        lambda y: ev.value(_mv(null, y)), gradient, np.zeros(null.shape[1]), targets,
        problem.budget)
    x = _mv(null, y)
    q, C = ev.q_and_cost(x)
    return OcResult(tau=problem.config.tau, n_max=n, seed=problem.seed,
                    best_params=_polar(x, n), q=q, cost=C,
                    success=q <= problem.q_target, nfev=nfev,
                    status=9 if stops[-1].startswith("evaluation budget") else 0,
                    message=stops[-1], stage_nfev=stage_nfev, stage_stop=stops,
                    multiplier=lam, kkt_residual=kkt, trace=trace)


def refine_result(problem: OcProblem, result: OcResult) -> OcResult:
    """Re-evaluate the reported point on ``REFINE_STEPS`` steps (integrator-bias check).

    4,096 steps leave C 1.7e-9 from adaptive quadrature on a pulse whose
    amplitudes of 1,300 cancel (tau = 24.27, n_max 16); 16,384 leave 6.4e-12, a 256th.
    ``q_and_cost`` takes its 32,768 factors in eight blocks, to the bit: a traced
    peak of 0.66 MB, against 3.2 MB all at once.
    """
    q, C = _Evaluator(problem, steps=REFINE_STEPS).q_and_cost(
        _linear(result.best_params, problem.n_max))
    return replace(result, q=q, cost=C, success=q <= problem.q_target)

