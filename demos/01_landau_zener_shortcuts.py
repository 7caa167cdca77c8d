"""Sweeping a two-level system through its avoided crossing.

The bare Hamiltonian is H0 = Delta sx/2 + g(t) sz/2 with the field ramped
from g = -0.2 to +0.2 across the crossing at g = 0 (Delta = 0.1). A naive
sweep at finite speed leaves the ground state; the shortcut protocols do
not:

  CD   adds a sigma_y control field so the state follows the instantaneous
       ground state exactly, at any speed;
  LCD  achieves the same final state using only sigma_x / sigma_z controls
       with modified coefficients (the transient leaves the ground state);
  BOB  kicks the state hard at both ends and free-evolves in between: the
       time-optimal pulse, which works exactly at the quantum speed limit.

The script propagates all four at tau = tau_QSL and the shortcuts again at
tau = 0.1 (far below the speed limit), then prints final fidelities and
time-averaged Frobenius-norm costs.
"""

import numpy as np

from ctrlcost import (LzConfig, lz_ground_state, qsl_time, run_protocol,
                      optimize_bob_kicks)

delta, g0, g1 = 0.1, -0.2, 0.2
psi_i = lz_ground_state(delta, g0)
psi_t = lz_ground_state(delta, g1)

tau_qsl = qsl_time(delta, psi_i, psi_t)
print(f"quantum speed limit: tau_QSL = {tau_qsl:.4f}  (2 arctan(2)/Delta)")
print()

# the BOB kick angles are found once, by a deterministic grid + refinement
kicks = optimize_bob_kicks(LzConfig(tau=tau_qsl), g_q=100.0)
print(f"optimized BOB kicks: phi1 = {kicks.phi1:.4f}, phi2 = {kicks.phi2:.4f} "
      f"(ideal pi/2 = {np.pi/2:.4f}), fidelity = {kicks.fidelity:.7f}")
print()

print(f"{'tau':>8} {'protocol':>9} {'final fidelity':>16} {'cost C':>10}")
trajectories = {}
for tau in (tau_qsl, 0.1):
    for protocol in ("bare", "cd", "lcd", "bob"):
        if protocol == "bob" and tau != tau_qsl:
            continue  # BOB is a speed-limit protocol
        traj, rep = run_protocol(LzConfig(tau=tau), protocol, bob_kicks=kicks)
        trajectories[(tau, protocol)] = traj
        print(f"{tau:8.3f} {protocol:>9} {rep.final_fidelity:16.10f} "
              f"{rep.integrated_cost:10.4f}")
print()
print("note the cost explosion of the shortcuts at tau = 0.1: beating the")
print("speed limit is paid for with strong control fields, and the quintic")
print("ramp makes CD cheaper than LCD in this fast regime.")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(9, 3.4), sharey=True)
    for protocol, style in (("bare", "k-"), ("cd", "r-"), ("lcd", "m-."),
                            ("bob", "c--")):
        traj = trajectories.get((tau_qsl, protocol))
        if traj is not None:
            axes[0].plot(traj.times, traj.fidelity, style, label=protocol)
    axes[0].set(xlabel="t", ylabel="fidelity to adiabatic state",
                title=f"tau = tau_QSL = {tau_qsl:.2f}")
    axes[0].legend()
    for protocol, style in (("cd", "r-"), ("lcd", "m-.")):
        traj = trajectories[(0.1, protocol)]
        axes[1].plot(traj.times, traj.fidelity, style, label=protocol)
    axes[1].set(xlabel="t", title="tau = 0.1")
    fig.tight_layout()
    fig.savefig("demo_landau_zener_fidelity.png", dpi=120)
    print("\nsaved demo_landau_zener_fidelity.png")
except ImportError:
    pass
