"""Exact unitary propagation, spectra and Frobenius-norm cost for 2x2 blocks.

The Hamiltonian convention throughout is

    H(t) = c0(t) * 1 + cx(t) sigma_x / 2 + cy(t) sigma_y / 2 + cz(t) sigma_z / 2

with all coefficients real (angular frequency units, hbar = 1). Propagation
takes fourth-order commutator-free Magnus steps (CF4; Blanes & Moan, Appl.
Numer. Math. 56, 1519 (2006)), built by ``_cf4_factors`` for OC's evaluator
too: a step is the exact exponentials of two ``_ALPHA`` mixtures of H at its
two Gauss nodes (``_GAUSS``), unitary by construction, fourth-order
accurate, and exact on piecewise-constant parts, since a schedule's interior
breakpoints join the grid linspace(0, tau, steps + 1).

Each exponential's SU(2) part is a unit quaternion of four reals,
(a0, a) <-> a0 * 1 - i a . sigma with a0 = cos(r dt/2) and
a = sin(r dt/2)/r * (cx, cy, cz); products of steps are quaternion
products. The identity part commutes with everything and is carried as one
phase: exp(-i sum theta) for a final state and exp(-i cumsum(theta)) along
a trajectory, theta being a step's two-node Gauss sum of c0 dt. Final
states reduce the steps pairwise; trajectories take a work-efficient
inclusive prefix scan of them (an up-sweep of pairwise products, then a
down-sweep, about 2n products; Ladner & Fischer, JACM 27, 831 (1980);
Blelloch, "Prefix sums and their applications", 1990). OC reads its final
state off the up-sweep alone (``_last_prefix``). Only ``propagate`` applies
them to the initial state: a fidelity is a Bloch rotation, psi0's Bloch
vector turned by each prefix.

A schedule is one callable t -> (c0, cx, cy, cz), so a protocol whose
coefficients share intermediate values (the LCD derivative chain)
computes them once per evaluation.

Cost integrals are row sums (x * w).sum(-1), which unlike a BLAS dot do not
depend on the thread count, on the nodes of ``_cost_nodes``, clustered at the
sweep's ends and at its avoided crossing, for every two-level cost (no scipy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "PauliSchedule",
    "QubitTrajectory",
    "qubit_state",
    "fidelity",
    "propagate",
    "final_state",
    "converged_final_state",
    "instantaneous_eigenstates",
    "cost_rate",
    "integrated_cost",
]

_NORM_TOL = 1e-12
DEFAULT_STEPS = 4_000
QUADRATURE_INTERVALS = 4_096   # Simpson intervals of every two-level cost, shared by the pieces
CONVERGENCE_TOL = 1e-10
_MAX_DOUBLINGS = 8
# CF4 (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)): Gauss nodes in units of
# the step, weights a1 > 0 > a2; a step is exp(h(a2 A1 + a1 A2)) exp(h(a1 A1 + a2 A2))
_GAUSS = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
_ALPHA = (0.25 + np.sqrt(3.0) / 6.0, 0.25 - np.sqrt(3.0) / 6.0)
_MIX = np.array([[_ALPHA[0], _ALPHA[1]], [_ALPHA[1], _ALPHA[0]]])   # node pair @ _MIX: exponents


@dataclass(frozen=True)
class PauliSchedule:
    """Time-dependent two-level Hamiltonian as Pauli coefficients.

    ``fields`` is one vectorized callable t -> (c0, cx, cy, cz) on
    [0, duration]; a coefficient constant in time may be a scalar.
    ``breakpoints`` lists interior times where coefficients jump; the
    propagator and the cost quadrature split the interval there.
    ``crossings`` lists where the sweep's g = 0; only the cost quadrature cuts there.
    """

    duration: float
    fields: Callable
    breakpoints: tuple = ()
    label: str = ""
    crossings: tuple = ()

    def coefficients(self, t):
        """(c0, cx, cy, cz) at times t, broadcast to t's shape.

        Constant coefficients come back as read-only broadcast views.
        """
        t = np.asarray(t, dtype=float)
        cs = [np.asarray(c, dtype=float) for c in self.fields(t)]
        shape = np.broadcast_shapes(t.shape, *(c.shape for c in cs))
        return tuple(c if c.shape == shape else np.broadcast_to(c, shape) for c in cs)


def qubit_state(alpha, beta) -> np.ndarray:
    """State vector (alpha, beta) in the sigma_z basis, norm-checked."""
    psi = np.array([alpha, beta], dtype=complex)
    n2 = float(np.vdot(psi, psi).real)
    if abs(n2 - 1.0) > _NORM_TOL:
        raise ValueError(f"state not normalized: |alpha|^2+|beta|^2 = {n2!r}")
    return psi


def fidelity(psi, phi) -> float:
    """Squared overlap |<psi|phi>|^2 of two normalized states."""
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    for v in (psi, phi):
        if abs(float(np.vdot(v, v).real) - 1.0) > 1e-9:
            raise ValueError("fidelity arguments must be normalized")
    return float(abs(np.vdot(psi, phi)) ** 2)


@dataclass
class QubitTrajectory:
    """Propagation record on a (piecewise-)uniform time grid."""

    times: np.ndarray
    states: np.ndarray          # (n, 2) complex
    fidelity: np.ndarray        # vs instantaneous adiabatic state of reference
    cost_rate: np.ndarray       # Frobenius norm of the schedule, identity excluded
    steps: int
    label: str = ""

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def norms(self) -> np.ndarray:
        return np.sqrt(np.einsum("ij,ij->i", self.states.conj(), self.states).real)


# ---------------------------------------------------------------------------
# grids and SU(2) steps

def _segment_grid(duration: float, breakpoints, steps: int):
    """Uniform nodes linspace(0, duration, steps + 1) plus the interior breakpoints."""
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    t = np.linspace(0.0, duration, steps + 1)
    inner = [float(b) for b in breakpoints if 0.0 < float(b) < duration]
    return np.union1d(t, inner) if inner else t


def _su2_steps(cx, cy, cz, dt):
    """Exact exponentials exp(-i (c . sigma/2) dt) as quaternion rows (a0, ax, ay, az).

    a0 = cos(r dt/2) and a = sin(r dt/2)/r * (cx, cy, cz), with r = |c| and
    the r -> 0 limit a = (dt/2) c. Arguments broadcast against each other.
    Rows are stored component-major (each component contiguous), the layout
    every helper below keeps.
    """
    r = np.sqrt(cx * cx + cy * cy + cz * cz)
    half = 0.5 * r * dt
    s = np.where(r > 0.0, np.sin(half) / np.where(r > 0.0, r, 1.0), 0.5 * dt)
    return np.stack([np.cos(half), s * cx, s * cy, s * cz]).T


def _structure_constants() -> np.ndarray:
    """T with (a b)_k = sum_ij T[k, 4 i + j] a_i b_j for quaternions a, b.

    (a0, a)(b0, b) = (a0 b0 - a.b, a0 b + b0 a + a x b), the SU(2) product.
    """
    T = np.zeros((4, 4, 4))
    T[0, 0, 0] = 1.0
    for i in (1, 2, 3):
        T[0, i, i] = -1.0
        T[i, 0, i] = T[i, i, 0] = 1.0
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        T[k, i, j], T[k, j, i] = 1.0, -1.0
    return T.reshape(4, 16)


_QMUL = _structure_constants()


def _qmul(a, b):
    """Quaternion products a b of single quaternions (4,) or rows (m, 4): A @ B.

    The 16 elementwise products a_i b_j are contracted with the structure
    constants in one real matrix product: a few numpy calls per level of a
    reduction, whatever its length.
    """
    a, b = a.T, b.T
    return (_QMUL @ (a[:, None] * b[None, :]).reshape(16, *a.shape[1:])).T


def _ordered_product(q: np.ndarray) -> np.ndarray:
    """Product q[-1] ... q[0] of quaternion rows by pairwise reduction."""
    while len(q) > 1:
        head = _qmul(q[1::2], q[0:-1:2])
        q = np.concatenate([head, q[-1:]]) if len(q) % 2 else head
    return q[0]


def _up_sweep(q: np.ndarray, mul=_qmul) -> list:
    """Levels [q, its pair products q[2i+1] q[2i], theirs, ...] to one row; odd tails stay out."""
    levels = [q]
    while len(levels[-1]) > 1:
        levels.append(mul(levels[-1][1::2], levels[-1][0:-1:2]))
    return levels


def _last_prefix(levels: list, mul=_qmul) -> np.ndarray:
    """P[n-1] off the up-sweep: its top row times each left-out tail. The scan's last row to
    the bit when n is a power of two; otherwise single-row products may differ in the last bits."""
    p = levels[-1][0]
    for q in reversed(levels[:-1]):
        if len(q) % 2:
            p = mul(q[-1], p)
    return p


def _prefix_scan(q: np.ndarray, mul=_qmul, levels=None) -> np.ndarray:
    """Inclusive prefix products P[k] = q[k] ... q[0]: q's up-sweep (``levels``, if made),
    then a down-sweep. A level's odd prefixes are the level above's, its even ones
    P[2i] = q[2i] P[2i-1], so no identity is needed (the oscillator's M - I has none).
    ``mul(later, earlier)`` multiplies rows; the oscillator passes its 2x2 product."""
    levels = list(levels or _up_sweep(q, mul))   # each level is let go once swept
    odd = levels.pop()
    while levels:
        q = levels.pop()
        out = np.empty_like(q)
        out[0] = q[0]
        out[1::2] = odd
        out[2::2] = mul(q[2::2], odd[:(len(q) - 1) // 2])
        odd = out
    return odd


def _apply(q, psi):
    """(a0 - i a.sigma) psi for one quaternion (4,) or quaternion rows (n, 4)."""
    a0, ax, ay, az = q.T
    return np.stack([(a0 - 1j * az) * psi[0] - (ay + 1j * ax) * psi[1],
                     (ay - 1j * ax) * psi[0] + (a0 + 1j * az) * psi[1]], axis=-1)


def _gauss_nodes(t_nodes: np.ndarray) -> np.ndarray:
    """The two Gauss nodes of each step of the grid, step by step: (2N,)."""
    return (t_nodes[:-1, None] + np.multiply.outer(np.diff(t_nodes), _GAUSS)).ravel()


def _cf4_factors(cx, cy, cz, dt):
    """Mixed (cx, cy, cz) and the 2N CF4 exponentials, rows 2k (applied first) and 2k + 1 of
    step k, from the coefficients at the Gauss nodes; a scalar is constant and mixes to c/2."""
    mixed = [(c.reshape(-1, 2) @ _MIX).ravel() if isinstance(c, np.ndarray) else 0.5 * c
             for c in (cx, cy, cz)]
    return mixed, _su2_steps(*mixed, np.repeat(dt, 2) if isinstance(dt, np.ndarray) else dt)


def _steps(coefficients, t_nodes: np.ndarray, label: str):
    """CF4 step quaternions and identity angles from (c0, cx, cy, cz) at the Gauss nodes."""
    dt = np.diff(t_nodes)
    c0, cx, cy, cz = (np.broadcast_to(c, (2 * len(dt),)) for c in coefficients)
    for name, c in (("c0", c0), ("cx", cx), ("cy", cy), ("cz", cz)):
        bad = ~np.isfinite(c)
        if bad.any():
            raise ValueError(
                f"non-finite coefficient {name} at t={float(_gauss_nodes(t_nodes)[bad][0])!r}"
                + (f" (schedule {label})" if label else ""))
    _, f = _cf4_factors(cx, cy, cz, dt)
    return _qmul(f[1::2], f[0::2]), 0.5 * dt * c0.reshape(-1, 2).sum(1)


def _trajectory(q, reference, psi0):
    """Prefix products of the steps q, and the fidelity along them to an adiabatic branch.

    ``reference`` is the reference Hamiltonian's (c0, cx, cy, cz) at the nodes. Prefix
    P = (p0, p) turns psi0's Bloch vector s0 into s = (p0^2 - |p|^2) s0 + 2 p (p . s0)
    + 2 p0 (p x s0); the identity phase leaves s alone. The branch tracked is the
    reference eigenstate psi0 overlaps most at t = 0. Its projector is (1 +- n . sigma)/2
    with n = c/|c|, so the fidelity is (|psi0|^2 +- n . s)/2, with no state formed. The
    prefixes are renormalized to |P| = 1: the scan's round-off grows with the step count.
    """
    a, b = psi0
    aa, bb = a.real * a.real + a.imag * a.imag, b.real * b.real + b.imag * b.imag
    ab = 2.0 * a.conjugate() * b
    sx, sy, sz = ab.real, ab.imag, aa - bb
    # the identity at t = 0, then the prefixes on the later nodes
    p = np.concatenate([[[1.0], [0.0], [0.0], [0.0]], _prefix_scan(q).T], axis=1)
    p /= np.sqrt(np.einsum("ij,ij->j", p, p))
    p0, px, py, pz = p
    pp = px * px + py * py + pz * pz
    dot, c = px * sx + py * sy + pz * sz, p0 * p0 - pp
    _, rcx, rcy, rcz = reference
    ns = (rcx * (c * sx + 2.0 * (px * dot + p0 * (py * sz - pz * sy)))
          + rcy * (c * sy + 2.0 * (py * dot + p0 * (pz * sx - px * sz)))
          + rcz * (c * sz + 2.0 * (pz * dot + p0 * (px * sy - py * sx)))
          ) / np.sqrt(rcx * rcx + rcy * rcy + rcz * rcz)
    return p[:, 1:].T, 0.5 * (aa + bb + ns if ns[0] > 0.0 else aa + bb - ns)


# ---------------------------------------------------------------------------
# eigenstates

def _eigvec_pair(cx, cy, cz):
    """Vectorized eigenvectors of (cx sx + cy sy + cz sz)/2, excited then ground.

    Phase convention: the first component with non-negligible weight is made
    real and positive.
    """
    cx, cy, cz = (np.asarray(a, dtype=float) for a in (cx, cy, cz))
    r = np.sqrt(cx * cx + cy * cy + cz * cz)
    # two algebraic forms of the +r/2 eigenvector; pick the better conditioned
    use_a = (r + cz) >= (r - cz)
    a0 = np.where(use_a, r + cz, cx - 1j * cy)
    a1 = np.where(use_a, cx + 1j * cy, r - cz)
    norm = np.sqrt(np.abs(a0) ** 2 + np.abs(a1) ** 2)
    exc = np.stack([a0 / norm, a1 / norm], axis=-1)
    # ground state: orthogonal complement of (a, b) is (-conj(b), conj(a))
    gnd = np.stack([-exc[..., 1].conj(), exc[..., 0].conj()], axis=-1)

    def fix_phase(v):
        lead = np.where(np.abs(v[..., 0]) > 1e-12, v[..., 0], v[..., 1])
        ph = lead / np.abs(lead)
        return v * ph.conj()[..., None]

    return fix_phase(exc), fix_phase(gnd), r


def instantaneous_eigenstates(schedule: PauliSchedule, t):
    """Eigenpairs (ground, excited, E_minus, E_plus) of H(t), at one time or an array.

    Energies are E_pm = c0 +- sqrt(cx^2 + cy^2 + cz^2)/2; for an array of n
    times the states have shape (n, 2). Degenerate points are rejected.
    """
    c0, cx, cy, cz = schedule.coefficients(t)
    bad = np.atleast_1d(np.sqrt(cx * cx + cy * cy + cz * cz) < 1e-14)
    if bad.any():
        raise ValueError(f"degenerate spectrum at t={np.atleast_1d(t)[bad][0]}: "
                         "(cx, cy, cz) = 0")
    exc, gnd, r = _eigvec_pair(cx, cy, cz)
    return gnd, exc, c0 - 0.5 * r, c0 + 0.5 * r


# ---------------------------------------------------------------------------
# cost

def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Weights w with y @ w == scipy.integrate.simpson(y, dx=h) for n + 1 >= 3 points.

    Composite Simpson on the first even number of intervals; for an odd
    count, scipy's correction for the last interval (Cartwright, J. Math.
    Sci. Math. Educ. 12(2), 1 (2017)).
    """
    m = n - n % 2
    w = np.zeros(n + 1)
    w[0:m + 1:2] = 2.0 * h / 3.0
    w[1:m:2] = 4.0 * h / 3.0
    w[0] = w[m] = h / 3.0
    if n % 2:
        w[-3:] += h * np.array([-1.0 / 12.0, 2.0 / 3.0, 5.0 / 12.0])
    return w


def _cost_nodes(duration: float, cuts, intervals: int = QUADRATURE_INTERVALS):
    """Nodes and weights of the cost rule on [0, duration], cut at the interior ``cuts``.

    Each piece [a, b] takes an equal share of the intervals and Simpson in u on
    t = a + (b - a) phi(u), phi(u) = u^3 (10 - 15 u + 6 u^2). The weights vanish
    at the piece ends, which are left out, and sum to b - a, so constants are exact.
    """
    if intervals < 16:
        raise ValueError(f"quadrature_steps must be >= 16, got {intervals}")
    edges = np.array([0.0, *sorted({float(c) for c in cuts if 0.0 < c < duration}), duration])
    m = 2 * max(8, intervals // (2 * len(edges) - 2))   # even, at least 16
    u = np.arange(1, m) / m
    w = (u * (1.0 - u)) ** 2 * np.where(np.arange(1, m) % 2, 4.0, 2.0)
    a, length = edges[:-1, None], np.diff(edges)[:, None]
    nodes = a + length * (u**3 * (10.0 - 15.0 * u + 6.0 * u * u))
    return nodes.ravel(), (length * (w / w.sum())).ravel()


def _rate(coefficients):
    """Frobenius norm of H from its (c0, cx, cy, cz) rows; see ``cost_rate``."""
    _, cx, cy, cz = coefficients
    return np.sqrt((cx * cx + cy * cy + cz * cz) / 2.0)


def cost_rate(schedule: PauliSchedule, t):
    """Instantaneous cost dC/dt = Frobenius norm of H(t) without its identity part.

    ||H||_F = sqrt((cx^2 + cy^2 + cz^2)/2): identity shifts are excluded so
    that constant energy offsets are free.
    """
    return _rate(schedule.coefficients(t))


def integrated_cost(schedule: PauliSchedule, quadrature_steps: int = QUADRATURE_INTERVALS):
    """Time-averaged cost C = (1/tau) int_0^tau ||H|| dt, one row sum.

    The rule is ``_cost_nodes`` cut at the breakpoints and the crossings, the
    nodes and weights the scaled-time scans use. No node lies on a cut, so a
    jump is never sampled, and the constant segments between breakpoints are
    integrated exactly.
    """
    t, w = _cost_nodes(schedule.duration, (*schedule.breakpoints, *schedule.crossings),
                       quadrature_steps)
    return (cost_rate(schedule, t) * w).sum() / schedule.duration


# ---------------------------------------------------------------------------
# propagation

def propagate(schedule: PauliSchedule, psi0, steps: int = DEFAULT_STEPS,
              reference: Optional[PauliSchedule] = None) -> QubitTrajectory:
    """Propagate psi0 under the schedule with CF4 steps (see the module docstring).

    Parameters
    ----------
    reference : PauliSchedule, optional
        Hamiltonian whose instantaneous eigenstates define the
        fidelity-vs-adiabatic-state series (default: the propagation
        schedule itself). The tracked branch is the one the initial state
        overlaps most at t = 0.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(float(np.vdot(psi0, psi0).real) - 1.0) > _NORM_TOL:
        raise ValueError("initial state not normalized")
    t = _segment_grid(schedule.duration, schedule.breakpoints, steps)
    nodes = schedule.coefficients(t)
    ref = nodes if reference is None else reference.coefficients(t)
    q, theta = _steps(schedule.coefficients(_gauss_nodes(t)), t, schedule.label)
    prefix, fid = _trajectory(q, ref, psi0)
    states = np.concatenate([psi0[None], np.exp(-1j * np.cumsum(theta))[:, None]
                             * _apply(prefix, psi0)])
    return QubitTrajectory(times=t, states=states, fidelity=fid, cost_rate=_rate(nodes),
                           steps=steps, label=schedule.label)


def final_state(schedule: PauliSchedule, psi0, steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Final state only; pairwise-reduced product of all steps."""
    psi0 = np.asarray(psi0, dtype=complex)
    t = _segment_grid(schedule.duration, schedule.breakpoints, steps)
    q, theta = _steps(schedule.coefficients(_gauss_nodes(t)), t, schedule.label)
    return np.exp(-1j * theta.sum()) * _apply(_ordered_product(q), psi0)


def converged_final_state(schedule: PauliSchedule, psi0,
                          steps: int = DEFAULT_STEPS,
                          tol: float = CONVERGENCE_TOL):
    """Double the step count until successive final states agree within tol.

    Returns (state, steps_used). Agreement is measured as the infidelity
    between consecutive refinements.
    """
    psi = final_state(schedule, psi0, steps)
    for _ in range(_MAX_DOUBLINGS):
        steps *= 2
        psi, prev = final_state(schedule, psi0, steps), psi
        if 1.0 - abs(np.vdot(prev, psi)) ** 2 < tol:
            break
    return psi, steps
