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

Each exponential's SU(2) part is its Cayley-Klein pair of complex numbers
(Goldstein, Classical Mechanics, sec. 4.5), (alpha, beta) <->
[[alpha, -conj(beta)], [beta, conj(alpha)]], with alpha = cos h - i s cz,
beta = s cy - i s cx, h = r dt/2 and s = sin(h)/r: the unit quaternion
a0 * 1 - i a . sigma with alpha = a0 - i az and beta = ay - i ax. Products
of steps are pair products, five elementwise complex ufunc calls whatever
the batch. The identity part commutes with everything and is carried as one
phase: exp(-i sum theta) for a final state and exp(-i cumsum(theta)) along
a trajectory, theta being a step's two-node Gauss sum of c0 dt. Final
states reduce the steps pairwise; trajectories take a work-efficient
inclusive prefix scan of them (an up-sweep of pairwise products, then a
down-sweep, about 2n products; Ladner & Fischer, JACM 27, 831 (1980);
Blelloch, "Prefix sums and their applications", 1990). OC reads its final
state off the up-sweep alone (``_last_prefix``). A trajectory applies each
renormalized prefix to psi0 once, and reads the fidelity off those states'
Bloch vectors (``_trajectory``).

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
_SCAN_CHUNK = 1 << 15   # floats per (durations, s) temporary of a cost scan (LZ, JC, oscillator)
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
    ``crossings`` returns where the sweep's g = 0; only the cost quadrature cuts
    there, so only it calls ``crossings``, and a schedule that is only propagated
    never searches for them.
    """

    duration: float
    fields: Callable
    breakpoints: tuple = ()
    label: str = ""
    crossings: Callable[[], tuple] = tuple

    def coefficients(self, t):
        """(c0, cx, cy, cz) at times t, broadcast to t's shape.

        Constant coefficients come back as read-only broadcast views.
        """
        t = np.asarray(t, dtype=float)
        cs = [np.asarray(c, dtype=float) for c in self.fields(t)]
        shape = np.broadcast_shapes(t.shape, *(c.shape for c in cs))
        return tuple(c if c.shape == shape else np.broadcast_to(c, shape) for c in cs)


def _checked_state(psi) -> np.ndarray:
    """psi as two complex amplitudes, finite and normalized to within ``_NORM_TOL``."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,) or not np.isfinite(psi).all():
        raise ValueError(f"a state must be two finite amplitudes, got {psi.tolist()!r}")
    n2 = float(np.vdot(psi, psi).real)
    if abs(n2 - 1.0) > _NORM_TOL:
        raise ValueError(f"state not normalized: |psi_0|^2+|psi_1|^2 = {n2!r}")
    return psi


def fidelity(psi, phi) -> float:
    """Squared overlap |<psi|phi>|^2 of two normalized states."""
    psi, phi = _checked_state(psi), _checked_state(phi)
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
    """Exact exponentials exp(-i (c . sigma/2) dt) as Cayley-Klein rows (alpha, beta).

    alpha = cos h - i s cz and beta = s cy - i s cx, with h = r dt/2, r = |c|,
    s = sin(h)/r and its r -> 0 limit s = dt/2. Arguments broadcast against
    each other. Rows are an (m, 2) view of (2, m) storage (each component
    contiguous), the layout every helper below returns.
    """
    r = np.sqrt(cx * cx + cy * cy + cz * cz)
    half, nonzero = 0.5 * dt * r, r > 0.0
    s = np.where(nonzero, np.sin(half) / np.where(nonzero, r, 1.0), 0.5 * dt)
    q = np.empty((2, *s.shape), complex)
    q.real[0], q.real[1] = np.cos(half), s * cy
    s = -s
    q.imag[0], q.imag[1] = s * cz, s * cx
    return q.T


def _qmul(a, b):
    """Products a b of single pairs (2,) or pair rows (m, 2): the SU(2) product
    (a_alpha b_alpha - conj(a_beta) b_beta, a_beta b_alpha + conj(a_alpha) b_beta).

    Five elementwise complex ufunc calls and no BLAS, so a row's product does not
    depend on the batch it is computed in.
    """
    a, b = a.T, b.T
    out = a * b[0]
    c = np.conjugate(a[::-1])
    c *= b[1]
    out[0] -= c[0]
    out[1] += c[1]
    return out.T


def _ordered_product(q: np.ndarray) -> np.ndarray:
    """Product q[-1] ... q[0] of pair rows by pairwise reduction."""
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
    """(alpha psi0 - conj(beta) psi1, beta psi0 + conj(alpha) psi1) for one pair (2,), or
    states (n, 2) in the rows' layout for pair rows (n, 2)."""
    a, b = q.T
    return np.stack([a * psi[0] - b.conjugate() * psi[1],
                     b * psi[0] + a.conjugate() * psi[1]]).T


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
    """CF4 step pairs and the checked c0 from (c0, cx, cy, cz) at the Gauss nodes.

    Each coefficient must be finite. One constant in time stays a float, checked
    once; the others are (2N,) arrays.
    """
    dt, checked = np.diff(t_nodes), []
    for name, c in zip(("c0", "cx", "cy", "cz"), coefficients):
        c = np.asarray(c, dtype=float)
        c = float(c) if c.ndim == 0 else np.broadcast_to(c, (2 * len(dt),))
        finite = np.isfinite(c)
        if not finite.all():
            t = _gauss_nodes(t_nodes)[~np.broadcast_to(finite, (2 * len(dt),))][0]
            raise ValueError(f"non-finite coefficient {name} at t={float(t)!r}"
                             + (f" (schedule {label})" if label else ""))
        checked.append(c)
    _, f = _cf4_factors(*checked[1:], dt)
    return _qmul(f[1::2], f[0::2]), checked[0]


def _phases(c0, t_nodes: np.ndarray) -> np.ndarray:
    """Identity angles theta, each step's two-node Gauss sum of c0 dt, for ``_steps``' c0."""
    dt = np.diff(t_nodes)
    return c0 * dt if isinstance(c0, float) else 0.5 * dt * c0.reshape(-1, 2).sum(1)


def _trajectory(q, reference, psi0):
    """States along the prefix products of the steps q, and their fidelity to an adiabatic branch.

    The prefixes, led by the identity at t = 0, are renormalized to |alpha|^2 + |beta|^2 = 1,
    since the scan's round-off grows with the step count, and applied to psi0. The states
    phi lack the identity phase, which leaves fidelities alone. ``reference`` is the reference
    Hamiltonian's (c0, cx, cy, cz) at the nodes, and the branch tracked is its eigenstate that
    psi0 overlaps most at t = 0. Its projector is (1 +- n . sigma)/2 with n = c/|c|, so the
    fidelity is (|phi|^2 +- n . s)/2 for phi's Bloch vector s.
    """
    p = np.empty((2, len(q) + 1), complex)
    p[:, 0] = 1.0, 0.0
    p[:, 1:] = _prefix_scan(q).T
    n2 = (p * p.conjugate()).real
    w = p.view(float).reshape(2, -1, 2)
    w /= np.sqrt(n2[0] + n2[1])[:, None]
    states = _apply(p.T, psi0)
    a, b = states.T
    aa, bb = (states.T * states.T.conjugate()).real
    ab = 2.0 * a.conjugate() * b
    _, rcx, rcy, rcz = reference
    ns = ((rcx * ab.real + rcy * ab.imag + rcz * (aa - bb))
          / np.sqrt(rcx * rcx + rcy * rcy + rcz * rcz))
    return states, 0.5 * (aa + bb + ns if ns[0] > 0.0 else aa + bb - ns)


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
    t, w = _cost_nodes(schedule.duration, (*schedule.breakpoints, *schedule.crossings()),
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
    psi0 = _checked_state(psi0)
    t = _segment_grid(schedule.duration, schedule.breakpoints, steps)
    nodes = schedule.coefficients(t)
    ref = nodes if reference is None else reference.coefficients(t)
    q, c0 = _steps(schedule.fields(_gauss_nodes(t)), t, schedule.label)
    states, fid = _trajectory(q, ref, psi0)
    states[1:] *= np.exp(-1j * np.cumsum(_phases(c0, t)))[:, None]
    return QubitTrajectory(times=t, states=states, fidelity=fid, cost_rate=_rate(nodes),
                           steps=steps, label=schedule.label)


def final_state(schedule: PauliSchedule, psi0, steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Final state only; pairwise-reduced product of all steps."""
    psi0 = _checked_state(psi0)
    t = _segment_grid(schedule.duration, schedule.breakpoints, steps)
    q, c0 = _steps(schedule.fields(_gauss_nodes(t)), t, schedule.label)
    return np.exp(-1j * _phases(c0, t).sum()) * _apply(_ordered_product(q), psi0)


def converged_final_state(schedule: PauliSchedule, psi0,
                          steps: int = DEFAULT_STEPS,
                          tol: float = CONVERGENCE_TOL):
    """Double the step count until successive final states agree within tol.

    Returns (state, steps_used). Agreement is measured as the infidelity
    between consecutive refinements; psi0 is checked as ``final_state`` checks it.
    """
    psi = final_state(schedule, psi0, steps)
    for _ in range(_MAX_DOUBLINGS):
        steps *= 2
        psi, prev = final_state(schedule, psi0, steps), psi
        if 1.0 - abs(np.vdot(prev, psi)) ** 2 < tol:
            break
    return psi, steps
