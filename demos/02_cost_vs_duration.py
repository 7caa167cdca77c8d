"""Which shortcut is cheaper, and when?

The time-averaged Frobenius norm C = (1/tau) int ||H|| dt prices every
protocol. Scanning the protocol duration shows a crossover: with the
quintic ramp, counterdiabatic driving is cheaper for fast sweeps while the
local variant wins for slow ones, and doubling the gap moves the crossover
to shorter durations.

CD also leaves the ramp free, so the ramp itself can be optimized: a tan
ramp (constant CD norm) is optimal in the sudden regime, an endpoint-kick
tanh ramp in the adiabatic one, and an arctan blend interpolates. The
blended ramp beats the quintic everywhere. For reference the scan also
prints the bang-off-bang cost at the speed limit.
"""

import numpy as np

from ctrlcost import (LzConfig, lz_bob, lz_ground_state, qsl_time, cost_scan,
                      find_cd_lcd_crossover, optimize_bob_kicks,
                      integrated_cost)

cfg = LzConfig(tau=1.0)
taus = np.geomspace(0.1, 100.0, 13)
scan = cost_scan(cfg, taus, ("cd", "lcd", "cd-blend"))

print(f"{'tau':>9} {'C_cd':>9} {'C_lcd':>9} {'C_blend':>9}")
for i, tau in enumerate(taus):
    print(f"{tau:9.3f} {scan['cd'][i]:9.4f} {scan['lcd'][i]:9.4f} "
          f"{scan['cd-blend'][i]:9.4f}")

tstar = find_cd_lcd_crossover(cfg)
tstar2 = find_cd_lcd_crossover(LzConfig(tau=1.0, delta=0.2))
print(f"\nCD/LCD crossover: tau* = {tstar:.3f} at Delta = 0.1")
print(f"                  tau* = {tstar2:.3f} at Delta = 0.2 (larger gap -> earlier)")

tau_qsl = qsl_time(0.1, lz_ground_state(0.1, -0.2), lz_ground_state(0.1, 0.2))
kicks = optimize_bob_kicks(LzConfig(tau=tau_qsl))
sched = lz_bob(LzConfig(tau=tau_qsl), kicks.phi1, kicks.phi2, 100.0)
print(f"\nBOB point: tau = tau_QSL = {tau_qsl:.2f}, C = {integrated_cost(sched):.4f} "
      f"(fidelity {kicks.fidelity:.6f})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5.4, 3.6))
    ax.loglog(taus, scan["cd"], "r-", label="CD (quintic)")
    ax.loglog(taus, scan["lcd"], "m-.", label="LCD (quintic)")
    ax.loglog(taus, scan["cd-blend"], "k--", label="CD (blended optimal)")
    ax.plot([tau_qsl], [integrated_cost(sched)], "bs", label="BOB")
    ax.set(xlabel="protocol duration tau", ylabel="cost C")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo_cost_vs_duration.png", dpi=120)
    print("saved demo_cost_vs_duration.png")
except ImportError:
    pass
