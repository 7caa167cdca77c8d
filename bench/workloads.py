"""The ctrlcost configs each benchmark workload runs, made from a seed.

Seed 0 gives the presets' own inputs. Any other seed draws the physical
parameters named below from a narrow band around those values; the amount
of work (duration grids, step counts, evaluation budgets, block counts)
never depends on the seed, so run-to-run spread stays a property of the
machine, not of the inputs. Every parameter the checks rely on is written
into the config explicitly rather than left to the program's defaults.

This module imports nothing from ctrlcost: the checks use it too, and they
must stay independent of the program they check.
"""

from __future__ import annotations

import random

WORKLOADS = ("oc-fourier", "trajectories", "cost-scans")

# fig3 on a dense duration grid: a few hundred cells instead of the preset's 25
DENSE_TAUS = {"min": 0.1, "max": 100.0, "num": 300, "log": True}
# the fig5 and fig4 presets' own grids, spelled out so the checks can read them
JC_TAUS = {"min": 5.0, "max": 40.0, "num": 17, "log": True}
OSC_TAUS = {"min": 1.55, "max": 10.0, "num": 20, "log": True}


def _near(seed: int):
    """x -> x * (1 + rel * u), u uniform in [-1, 1]; the identity for seed 0."""
    rng = random.Random(seed)

    def near(x: float, rel: float) -> float:
        u = rng.uniform(-1.0, 1.0)
        return x if seed == 0 else x * (1.0 + rel * u)

    return near


def configs(workload: str, seed: int) -> list:
    """[(run name, raw CLI config), ...] in the order one round runs them."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    near = _near(seed)
    if workload == "oc-fourier":
        # durations within 4% of 25, 50, 100; n_max and budget as in the
        # criterion-11 rerun, but 2,000 evaluations per duration
        taus = [near(t, 0.04) for t in (25.0, 50.0, 100.0)]
        return [("fig3-oc", {
            "preset": "fig3-oc", "seed": seed, "tau": taus,
            "params": {"delta": 0.1, "g0": -0.2, "g1": 0.2,
                       "n_max": 16, "budget": 2000}})]
    if workload == "trajectories":
        # fig1 keeps the preset's own sweep on every seed: at other values of
        # Delta and g its BOB grid can lose a point and the run raises
        # IndexError (see the FOUND line on _run_lz in CHANGES.md)
        lz = {"delta": 0.1, "g0": -0.2, "g1": 0.2, "g_q": 100.0}
        jc = {"omega": 1.0, "delta": near(0.1, 0.05), "g0": 0.0,
              "g1": near(0.2, 0.05), "n_cut": 40, "alpha": near(2.0, 0.05)}
        return [("fig1", {"preset": "fig1", "params": lz}),
                ("fig5", {"preset": "fig5", "tau": dict(JC_TAUS), "params": jc})]
    if workload == "cost-scans":
        g = near(0.2, 0.05)
        lz = {"delta": near(0.1, 0.05), "g0": -g, "g1": g, "g_q": 100.0}
        osc = {"omega0": 1.0, "omega1": 10.0, "beta": near(3.0, 0.1)}
        return [("fig3", {"preset": "fig3", "tau": dict(DENSE_TAUS), "params": lz}),
                ("fig4", {"preset": "fig4", "tau": dict(OSC_TAUS), "params": osc})]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose one of {', '.join(WORKLOADS)}")
