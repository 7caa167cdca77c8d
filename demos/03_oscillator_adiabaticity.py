"""Compressing a thermal oscillator: adiabaticity and energy cost.

A harmonic trap is stiffened from omega = 1 to omega = 10 with a quintic
frequency ramp, starting from thermal equilibrium at beta = 3. The degree
of excitation is the Husimi adiabaticity parameter Q* >= 1, computed from
the classical auxiliary pair X, Y. Because the oscillator spectrum is
unbounded, the cost is the time-averaged mean energy rather than an
operator norm.

Three shortcuts are compared with the bare ramp:

  CD   exact counterdiabatic driving, valid only while the trap is not
       inverted (fails below tau ~ 1.52 for this ramp);
  LCD  a local squared-frequency modification Omega^2(t);
  IE   invariant-based inverse engineering via the Ermakov scale b(t),
       which the classical pair gives as b = sqrt(Y^2 + omega0^2 X^2).

All protocols end at Q*(tau) = 1 (a perfectly adiabatic endpoint) and IE
is the cheapest at every duration where they compete.
"""

import math

import numpy as np

from ctrlcost import (poly_smooth_ramp, qstar_series, oscillator_cost,
                      cd_validity_edge, classical_solutions, husimi_qstar)

W0, W1, BETA = 1.0, 10.0, 3.0

edge = cd_validity_edge(W0, W1)
print(f"CD validity edge (no trap inversion): tau_min = {edge:.4f}")
print()

series = {}
for tau in (1.6, 2.5):
    omega = poly_smooth_ramp(W0, W1 - W0, tau)
    print(f"tau = {tau}:")
    for protocol in ("bare", "cd", "lcd", "ie"):
        t, q = qstar_series(omega, protocol)
        series[(tau, protocol)] = (t, q)
        cost = oscillator_cost(omega, protocol, BETA)
        print(f"  {protocol:5s} peak Q* = {np.max(q):8.4f}   "
              f"Q*(tau) = {q[-1]:.8f}   C = {cost:.4f}")
    print()

target = 2.75 / math.tanh(1.5)
omega = poly_smooth_ramp(W0, W1 - W0, 50.0)
print("long-duration limit (tau = 50): every protocol approaches")
print(f"  (coth(1.5)/2) * mean omega = {target:.4f}")
for protocol in ("cd", "lcd", "ie"):
    print(f"  {protocol:5s} C = {oscillator_cost(omega, protocol, BETA):.4f}")

# the Ermakov scale from the same classical pair by the Pinney relation, b(0) = 1 and
# b'(0) = 0: an identity check of Q* = (b'^2 + w^2 b^2 + w0^2/b^2)/(2 w0 w), not an
# independent route (the tests hold b to an RK4 loop on the Ermakov equation)
omega = poly_smooth_ramp(W0, W1 - W0, 2.5)
sol = classical_solutions(omega, 40_000)
b = np.sqrt(sol.Y**2 + W0**2 * sol.X**2)
bd = (sol.Y * sol.Yd + W0**2 * sol.X * sol.Xd) / b
w = omega.value(sol.times)
q_b = (bd**2 + w**2 * b**2 + W0**2 / b**2) / (2.0 * W0 * w)
print(f"\nidentity check: Husimi Q* vs Q* from the Pinney scale b agree to "
      f"{np.max(np.abs(husimi_qstar(omega, sol) - q_b)):.2e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(9, 3.4), sharey=False)
    for ax, tau in zip(axes, (1.6, 2.5)):
        for protocol, style in (("bare", "k-"), ("cd", "r-"),
                                ("lcd", "m-."), ("ie", "b:")):
            t, q = series[(tau, protocol)]
            ax.plot(t / tau, q, style, label=protocol)
        ax.set(xlabel="t / tau", ylabel="Q*", title=f"tau = {tau}")
    axes[0].legend()
    fig.tight_layout()
    fig.savefig("demo_oscillator_qstar.png", dpi=120)
    print("saved demo_oscillator_qstar.png")
except ImportError:
    pass
