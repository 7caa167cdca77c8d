"""Checks of ctrlcost's output files against computations made apart from it.

Nothing here imports ctrlcost. Every reference value comes from a closed form
written out in this file, from scipy (``quad``/``quad_vec``, ``solve_ivp``,
``expm``, ``eigh``, ``poisson``), or from a property the method promises
(CD tracks the adiabatic state; the blended ramp never costs more than the
quintic one; Q* >= 1). One checked result is one operation: it passes, or it
fails because the property does not hold, a file is missing or a value does
not parse.

The program's fixed choices that no config key reaches are repeated here:
fig1 runs at tau_QSL and 0.1, the blended ramp uses m = 40 and eps = 0.1,
the JC runs sit at tau = 10, the oscillator Q* curves at tau = 1.6 and 2.5.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad, quad_vec, solve_ivp
from scipy.linalg import eigh, expm
from scipy.optimize import minimize_scalar
from scipy.stats import poisson

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

BLEND_M, BLEND_EPS = 40.0, 0.1       # blended-ramp kicks and weight
JC_TAU = 10.0                        # fig5 block and ensemble runs
OSC_CURVE_TAUS = (1.6, 2.5)          # fig4 Q* curves
EDGE_TOL = 1e-4                      # cd_validity_edge bisection tolerance

COST_RTOL = 1e-8      # Simpson cost vs quad; a 1e-6 perturbation must show
# The LCD norm has a near-corner where cz crosses zero while cx ~ Delta is
# small; Simpson converges at first order there, and at fast durations the
# program's 4096/8192-point cost is off by up to ~1.3e-6 relative.
LCD_COST_RTOL = 5e-6
SPECTRUM_TOL = 1e-10  # closed-form eigenvalues, relative to max(1, |E|); the
                      # LCD field at tau = 0.1 reaches |E| ~ 1e2 through cancellations
CD_FID_TOL = 1e-8     # CD stays on the adiabatic state
FINAL_FID_TOL = 1e-8  # CD / LCD final fidelity
OC_Q_MAX = 1e-7       # OC infidelity, re-propagated
OC_COST_RTOL = 1e-9
BOB_FID_MIN = 0.999
QSTAR_FLOOR = 1.0 - 1e-9
QSTAR_RTOL = 1e-12    # Q*_CD, Q*_IE closed forms
QSTAR_END_RTOL = 1e-6  # bare / LCD Q*(tau) vs solve_ivp
OSC_COST_RTOL = 1e-7   # oscillator cost cells


class Checker:
    """Collects (name, passed, detail) for every checked result."""

    def __init__(self):
        self.results = []

    def check(self, name: str, fn) -> None:
        try:
            ok, detail = fn()
        except Exception as err:  # noqa: BLE001 - any error fails this check only
            ok, detail = False, f"{type(err).__name__}: {err}"
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list:
        return [r for r in self.results if not r[1]]


# ---------------------------------------------------------------------------
# reading the program's files

def read_csv(path: Path) -> dict:
    """{column: float array} of a ctrlcost CSV (comment line, header, rows)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if data.ndim != 2 or data.shape[1] != len(cols):
        raise ValueError(f"{path.name}: rows do not match the header")
    return {c: data[:, i] for i, c in enumerate(cols)}


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tau_grid(spec) -> np.ndarray:
    if isinstance(spec, dict):
        space = np.geomspace if spec.get("log", True) else np.linspace
        return space(spec["min"], spec["max"], spec["num"])
    return np.asarray(spec, dtype=float)


# ---------------------------------------------------------------------------
# closed forms

def quintic(g0, gd, tau):
    """t -> (g, g', g'') of g0 + gd (10 x^3 - 15 x^4 + 6 x^5), x = t/tau."""
    def ramp(t):
        x = t / tau
        return (g0 + gd * x**3 * (10.0 - 15.0 * x + 6.0 * x * x),
                gd * 30.0 * x * x * (1.0 - x) ** 2 / tau,
                gd * 60.0 * x * (1.0 - x) * (1.0 - 2.0 * x) / tau**2)
    return ramp


def blended(delta, g0, g1, tau, m=BLEND_M, eps=BLEND_EPS):
    """t -> (g, g', None): arctan-weighted tanh kicks and tan-optimal ramp."""
    f = 2.0 / math.pi * np.arctan(eps * tau)
    a0 = np.arctan(g0 / delta)
    c1 = np.arctan(g1 / delta) - a0

    def ramp(t):
        s = t / tau
        kick = -g0 * (np.tanh(m * (s - 1.0)) + np.tanh(m * s))
        kick_d = -g0 * m * (1.0 / np.cosh(m * (s - 1.0)) ** 2 + 1.0 / np.cosh(m * s) ** 2)
        u = a0 + c1 * s
        tan_ = delta * np.tan(u)
        tan_d = delta * c1 / np.cos(u) ** 2
        return (f * kick + (1.0 - f) * tan_,
                (f * kick_d + (1.0 - f) * tan_d) / tau, None)
    return ramp


def lz_coefficients(protocol, delta, ramp, t):
    """(cx, cy, cz) of H = (cx sx + cy sy + cz sz)/2 for one LZ protocol.

    CD adds the mixing-angle rate theta' = -g' Delta / (Delta^2 + g^2) along
    sigma_y. LCD moves it into the bare operators: cx = sqrt(Delta^2 +
    theta'^2), cz = g - eta' with eta = arctan(theta'/Delta).
    """
    g, gd, gdd = ramp(t)
    if protocol == "bare":
        return delta + 0.0 * g, 0.0 * g, g
    r2 = delta**2 + g * g
    theta_d = -gd * delta / r2
    if protocol == "cd":
        return delta + 0.0 * g, theta_d, g
    if protocol == "lcd":
        theta_dd = -delta * (gdd * r2 - 2.0 * g * gd * gd) / r2**2
        eta_d = theta_dd * delta / (delta**2 + theta_d**2)
        return np.sqrt(delta**2 + theta_d**2), 0.0 * g, g - eta_d
    raise ValueError(f"no closed form for protocol {protocol!r}")


def norm(cx, cy, cz):
    """Frobenius norm of (cx sx + cy sy + cz sz)/2."""
    return np.sqrt((cx * cx + cy * cy + cz * cz) / 2.0)


def mean_norm(coeffs, taus) -> np.ndarray:
    """(1/tau) int_0^tau ||H|| dt for each tau, by quad_vec in scaled time."""
    taus = np.asarray(taus, dtype=float)
    val, _ = quad_vec(lambda s: norm(*coeffs(s * taus)), 0.0, 1.0,
                      epsabs=0.0, epsrel=1e-13, limit=2000)
    return val


def lz_mean_norm(protocol, p, taus, ramp_kind="quintic"):
    taus = np.asarray(taus, dtype=float)

    def coeffs(t):
        ramp = (blended(p["delta"], p["g0"], p["g1"], taus)
                if ramp_kind == "blended" else
                quintic(p["g0"], p["g1"] - p["g0"], taus))
        return lz_coefficients(protocol, p["delta"], ramp, t)
    return mean_norm(coeffs, taus)


def jc_mean_norm(protocol, p, taus, n):
    """JC block n cost via the LZ closed form under Delta -> delta, g -> -2 sqrt(n+1) g.

    ``taus`` and ``n`` broadcast against each other. The block's identity
    offset is excluded, as in the program's cost.
    """
    taus, n = np.broadcast_arrays(np.asarray(taus, dtype=float), np.asarray(n))
    k = -2.0 * np.sqrt(n + 1.0)

    def coeffs(t):
        g, gd, gdd = quintic(p["g0"], p["g1"] - p["g0"], taus)(t)
        return lz_coefficients(protocol, p["delta"], lambda _: (k * g, k * gd, k * gdd), t)
    return mean_norm(coeffs, taus)


def lz_ground(delta, g) -> np.ndarray:
    w, v = eigh(0.5 * (delta * SX + g * SZ))
    return v[:, np.argmin(w)]


def qsl(delta, g0, g1) -> float:
    a, b = np.abs(lz_ground(delta, g0)), np.abs(lz_ground(delta, g1))
    return 2.0 / delta * math.acos(min(1.0, a[0] * b[0] + a[1] * b[1]))


def bob_fidelity(delta, g0, g1, g_q, tau, phi1, phi2) -> float:
    """Three constant segments, each propagated with expm."""
    tb1, tb2 = phi1 / g_q, phi2 / g_q
    psi = lz_ground(delta, g0).astype(complex)
    for gz, dt in ((g_q, tb1), (0.0, tau - tb1 - tb2), (-g_q, tb2)):
        psi = expm(-0.5j * dt * (delta * SX + gz * SZ)) @ psi
    return float(abs(np.vdot(lz_ground(delta, g1), psi)) ** 2)


def bob_cost(delta, g_q, tau, phi1, phi2) -> float:
    kicks = (phi1 + phi2) / g_q
    return (kicks * math.sqrt((delta**2 + g_q**2) / 2.0)
            + (tau - kicks) * delta / math.sqrt(2.0)) / tau


def cost_tol(protocol: str) -> float:
    return LCD_COST_RTOL if protocol == "lcd" else COST_RTOL


def rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.abs(b)))


def sign_change(diff, tau, rel=0.01):
    lo, hi = diff(tau * (1.0 - rel)), diff(tau * (1.0 + rel))
    return lo * hi < 0.0, f"C_cd - C_lcd = {lo:.3e} at {tau * (1 - rel):.4g}, " \
                          f"{hi:.3e} at {tau * (1 + rel):.4g}"


# ---------------------------------------------------------------------------
# fig3-oc

def fourier_pulse(g0, tau, params):
    """g(t) = g0 - 2 g0 t/tau + sum_n a_n sin(n pi t/tau + phi_n), n = 1..n_max."""
    params = np.asarray(params, dtype=float)
    n_max = len(params) // 2
    amps, phases = params[:n_max], params[n_max:]
    w = np.arange(1, n_max + 1) * math.pi / tau
    return lambda t: g0 - 2.0 * g0 * t / tau + float(np.sin(w * t + phases) @ amps)


def check_oc(ck: Checker, out: Path, raw: dict) -> None:
    p = raw["params"]
    delta, g0, g1 = p["delta"], p["g0"], p["g1"]
    taus = tau_grid(raw["tau"])
    records = read_json(out / "oc_results.json")

    for i, tau in enumerate(taus):
        def rec():
            r = records[i]
            if abs(r["tau"] - tau) > 1e-12 * tau or len(r["best_params"]) != 2 * p["n_max"]:
                raise ValueError(f"record {i} is not tau={tau} with n_max={p['n_max']}")
            return r, fourier_pulse(g0, tau, r["best_params"])

        def infidelity():
            _, g = rec()

            def rhs(t, psi):
                gt = g(t)
                return -0.5j * np.array([gt * psi[0] + delta * psi[1],
                                         delta * psi[0] - gt * psi[1]])
            sol = solve_ivp(rhs, (0.0, tau), lz_ground(delta, g0).astype(complex),
                            method="DOP853", rtol=1e-12, atol=1e-12)
            q = 1.0 - abs(np.vdot(lz_ground(delta, g1), sol.y[:, -1])) ** 2
            return q <= OC_Q_MAX, f"re-propagated infidelity {q:.3e}"

        def cost():
            r, g = rec()
            c, _ = quad(lambda t: math.sqrt((delta**2 + g(t) ** 2) / 2.0), 0.0, tau,
                        epsabs=0.0, epsrel=1e-13, limit=1000)
            c /= tau
            err = abs(r["C"] - c) / c
            return err <= OC_COST_RTOL, f"C {r['C']!r} vs quad {c!r} (rel {err:.2e})"

        def floor():
            r, _ = rec()
            return r["C"] >= delta / math.sqrt(2.0), f"C {r['C']!r} vs Delta/sqrt2"

        ck.check(f"fig3-oc tau={tau:.6g} infidelity", infidelity)
        ck.check(f"fig3-oc tau={tau:.6g} cost", cost)
        ck.check(f"fig3-oc tau={tau:.6g} cost floor", floor)


# ---------------------------------------------------------------------------
# fig1

def check_fig1(ck: Checker, out: Path, raw: dict) -> None:
    p = raw["params"]
    delta, g0, g1, g_q = p["delta"], p["g0"], p["g1"], p["g_q"]
    summary = read_json(out / "summary.json")
    tqsl = qsl(delta, g0, g1)
    runs = {(r["protocol"], r["tau"]): r for r in summary.get("runs", [])}

    def tau_qsl():
        err = abs(summary["tau_qsl"] - tqsl) / tqsl
        return err <= 1e-12, f"{summary['tau_qsl']!r} vs {tqsl!r}"

    ck.check("fig1 tau_qsl", tau_qsl)

    fid = read_csv(out / "fidelity.csv")
    spec = read_csv(out / "spectra.csv")
    # the runs are keyed by the reported tau_QSL, checked just above
    for tau in (summary["tau_qsl"], 0.1):
        def rows(table):
            sel = np.abs(table["tau"] - tau) <= 1e-12 * tau
            if not sel.any():
                raise ValueError(f"no rows at tau={tau}")
            return sel

        def cd_tracks():
            dev = float(np.max(np.abs(fid["F_cd"][rows(fid)] - 1.0)))
            return dev <= CD_FID_TOL, f"max |F_cd - 1| = {dev:.2e}"

        ck.check(f"fig1 tau={tau:.6g} F_cd along trajectory", cd_tracks)

        for proto in ("cd", "lcd"):
            def final():
                f = runs[(proto, tau)]["final_fidelity"]
                return f >= 1.0 - FINAL_FID_TOL, f"final fidelity {f!r}"

            def spectrum():
                sel = rows(spec)
                cx, cy, cz = lz_coefficients(proto, delta, quintic(g0, g1 - g0, tau),
                                             spec["t"][sel])
                half = 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)
                worst = 0.0
                for col, e_ref in ((f"E_minus_{proto}", -half), (f"E_plus_{proto}", half)):
                    e = spec[col][sel]
                    worst = max(worst, float(np.max(np.abs(e - e_ref)
                                                    / np.maximum(1.0, np.abs(e_ref)))))
                return worst <= SPECTRUM_TOL, f"max deviation {worst:.2e}"

            ck.check(f"fig1 tau={tau:.6g} {proto} final fidelity", final)
            ck.check(f"fig1 tau={tau:.6g} {proto} spectrum", spectrum)

        for proto in ("bare", "cd", "lcd"):
            def cost():
                c = runs[(proto, tau)]["integrated_cost"]
                ref = float(lz_mean_norm(proto, p, [tau])[0])
                err = abs(c - ref) / ref
                return err <= cost_tol(proto), f"{c!r} vs quad {ref!r} (rel {err:.2e})"

            ck.check(f"fig1 tau={tau:.6g} {proto} cost", cost)

    def bob():
        b = summary["bob"]
        f = bob_fidelity(delta, g0, g1, g_q, summary["tau_qsl"], b["phi1"], b["phi2"])
        ok = f >= BOB_FID_MIN and abs(f - b["fidelity"]) <= 1e-9
        return ok, f"expm fidelity {f!r}, reported {b['fidelity']!r}"

    def bob_run_cost():
        b = summary["bob"]
        run = next(r for (proto, _), r in runs.items() if proto == "bob")
        ref = bob_cost(delta, g_q, summary["tau_qsl"], b["phi1"], b["phi2"])
        err = abs(run["integrated_cost"] - ref) / ref
        return err <= 1e-12, f"{run['integrated_cost']!r} vs {ref!r}"

    rate = read_csv(out / "cost_rate.csv")
    at_qsl = np.abs(rate["tau"] - summary["tau_qsl"]) <= 1e-12 * summary["tau_qsl"]

    def bob_rate_rows():
        # BOB's own grid is snapped to the kick edges; its rows must still be
        # the rates at the t column's times: g_q kicks, then Delta alone
        b, tau = summary["bob"], summary["tau_qsl"]
        edges = (b["phi1"] / g_q, tau - b["phi2"] / g_q)
        kick, free = math.sqrt((delta**2 + g_q**2) / 2.0), delta / math.sqrt(2.0)
        t, dc = rate["t"][at_qsl], rate["dC_bob"][at_qsl]
        # a row on a kick edge may take either side's rate
        err = np.min([np.abs(dc - ref) / ref for ref in
                      (np.where((s < edges[0]) | (s > edges[1]), kick, free)
                       for s in (t - 1e-9 * tau, t + 1e-9 * tau))], axis=0)
        worst = float(np.max(err))
        return worst <= 1e-12, f"max relative deviation {worst:.2e} over {t.size} rows"

    def bob_final_row():
        sel = np.abs(fid["tau"] - summary["tau_qsl"]) <= 1e-12 * summary["tau_qsl"]
        t, f = float(fid["t"][sel][-1]), float(fid["F_bob"][sel][-1])
        ok = (abs(t - summary["tau_qsl"]) <= 1e-12 * t
              and abs(f - summary["bob"]["fidelity"]) <= 1e-9)
        return ok, f"F_bob {f!r} at t = {t!r}, reported {summary['bob']['fidelity']!r}"

    ck.check("fig1 bob fidelity", bob)
    ck.check("fig1 bob cost", bob_run_cost)
    ck.check("fig1 bob cost rate along trajectory", bob_rate_rows)
    ck.check("fig1 bob final fidelity row", bob_final_row)


# ---------------------------------------------------------------------------
# fig5

def check_fig5(ck: Checker, out: Path, raw: dict) -> None:
    p = raw["params"]
    summary = read_json(out / "summary.json")
    runs = summary.get("runs", [])
    block = {r["protocol"]: r for r in runs if r.get("n") == 0}
    ens = {r["protocol"]: r for r in runs if "ensemble_cost" in r}
    n_all = np.arange(p["n_cut"] + 1)
    weights = poisson.pmf(n_all, p["alpha"] ** 2)

    for name in ("fidelity_n0.csv", "fidelity_coherent.csv"):
        def cd_tracks():
            dev = float(np.max(np.abs(read_csv(out / name)["F_cd"] - 1.0)))
            return dev <= CD_FID_TOL, f"max |F_cd - 1| = {dev:.2e}"
        ck.check(f"fig5 {name} F_cd along trajectory", cd_tracks)

    for proto in ("cd", "lcd"):
        def final_block():
            f = block[proto]["final_fidelity"]
            return f >= 1.0 - FINAL_FID_TOL, f"n=0 final fidelity {f!r}"

        def final_ens():
            f = ens[proto]["ensemble_final_fidelity"]
            return f >= 1.0 - FINAL_FID_TOL, f"ensemble final fidelity {f!r}"

        def ens_cost():
            ref = float(weights @ jc_mean_norm(proto, p, JC_TAU, n_all))
            c = ens[proto]["ensemble_cost"]
            err = abs(c - ref) / ref
            return err <= cost_tol(proto), f"{c!r} vs Poisson-weighted quad {ref!r} (rel {err:.2e})"

        ck.check(f"fig5 n=0 {proto} final fidelity", final_block)
        ck.check(f"fig5 coherent {proto} final fidelity", final_ens)
        ck.check(f"fig5 coherent {proto} cost", ens_cost)

    for proto in ("bare", "cd", "lcd"):
        def block_cost():
            ref = float(jc_mean_norm(proto, p, [JC_TAU], 0)[0])
            c = block[proto]["integrated_cost"]
            err = abs(c - ref) / ref
            return err <= cost_tol(proto), f"{c!r} vs quad {ref!r} (rel {err:.2e})"
        ck.check(f"fig5 n=0 {proto} cost", block_cost)

    taus = tau_grid(raw["tau"])
    for name, n, w in (("cost_scan_n0.csv", 0, None),
                       ("cost_scan_coherent.csv", n_all, weights)):
        table = read_csv(out / name)
        ck.check(f"fig5 {name} tau grid",
                 lambda: (np.array_equal(table["tau"], taus), f"{len(table['tau'])} rows"))
        for proto in ("cd", "lcd"):
            if w is None:
                ref = jc_mean_norm(proto, p, taus, n)
            else:
                ref = jc_mean_norm(proto, p, taus[:, None], n[None, :]) @ w
            for i, tau in enumerate(taus):
                def cell():
                    c = table[f"C_{proto}"][i]
                    err = abs(c - ref[i]) / ref[i]
                    return err <= cost_tol(proto), f"{c!r} vs quad {ref[i]!r} (rel {err:.2e})"
                ck.check(f"fig5 {name} tau={tau:.6g} C_{proto}", cell)

    def crossover():
        def diff(tau):
            return float(jc_mean_norm("cd", p, [tau], 0)[0] - jc_mean_norm("lcd", p, [tau], 0)[0])
        return sign_change(diff, summary["crossover_n0"])

    ck.check("fig5 crossover_n0", crossover)


# ---------------------------------------------------------------------------
# fig3 (dense)

def check_fig3(ck: Checker, out: Path, raw: dict) -> None:
    p = raw["params"]
    summary = read_json(out / "summary.json")
    table = read_csv(out / "cost_scan.csv")
    taus = tau_grid(raw["tau"])
    ck.check("fig3 tau grid",
             lambda: (np.array_equal(table["tau"], taus), f"{len(table['tau'])} rows"))
    refs = {"cd": lz_mean_norm("cd", p, taus), "lcd": lz_mean_norm("lcd", p, taus),
            "cd-blend": lz_mean_norm("cd", p, taus, ramp_kind="blended")}
    for proto, ref in refs.items():
        for i, tau in enumerate(taus):
            def cell():
                c = table[f"C_{proto}"][i]
                err = abs(c - ref[i]) / ref[i]
                return err <= cost_tol(proto), f"{c!r} vs quad {ref[i]!r} (rel {err:.2e})"
            ck.check(f"fig3 tau={tau:.6g} C_{proto}", cell)
    for i, tau in enumerate(taus):
        def blend_dominates():
            b, c = table["C_cd-blend"][i], table["C_cd"][i]
            return b <= c + 1e-12, f"C_cd-blend {b!r} vs C_cd {c!r}"
        ck.check(f"fig3 tau={tau:.6g} cd-blend <= cd", blend_dominates)

    def crossover():
        def diff(tau):
            return float(lz_mean_norm("cd", p, [tau])[0] - lz_mean_norm("lcd", p, [tau])[0])
        return sign_change(diff, summary["crossover_cd_lcd"])

    def tau_qsl():
        ref = qsl(p["delta"], p["g0"], p["g1"])
        ok = abs(summary["tau_qsl"] - ref) <= 1e-12 * ref and summary["bob"]["tau"] == summary["tau_qsl"]
        return ok, f"{summary['tau_qsl']!r} vs {ref!r}"

    def bob():
        f = summary["bob"]["fidelity"]
        return f >= BOB_FID_MIN, f"BOB fidelity {f!r}"

    ck.check("fig3 crossover_cd_lcd", crossover)
    ck.check("fig3 tau_qsl", tau_qsl)
    ck.check("fig3 bob fidelity", bob)


# ---------------------------------------------------------------------------
# fig4

def check_fig4(ck: Checker, out: Path, raw: dict) -> None:
    p = raw["params"]
    w0, w1, beta = p["omega0"], p["omega1"], p["beta"]
    summary = read_json(out / "summary.json")
    coth = 1.0 / math.tanh(beta * w0 / 2.0)

    def ratio(tau):
        """t -> omega'^2 / omega^4 on the quintic sweep."""
        ramp = quintic(w0, w1 - w0, tau)

        def f(t):
            w, wd, _ = ramp(t)
            return wd * wd / w**4
        return f

    def omega2_lcd(ramp, t):
        w, wd, wdd = ramp(t)
        return w * w - 0.75 * wd * wd / (w * w) + wdd / (2.0 * w)

    def edge():
        # 4 w^4 = w'^2  <=>  tau = h(x) = 15 (w1 - w0) x^2 (1 - x)^2 / w(x)^2,
        # so the smallest valid duration is the maximum of h over x in [0, 1]
        w_of_x = quintic(w0, w1 - w0, 1.0)

        def h(x):
            return 15.0 * (w1 - w0) * x * x * (1.0 - x) ** 2 / w_of_x(x)[0] ** 2

        x = np.linspace(0.0, 1.0, 100_001)
        k = int(np.argmax(h(x)))
        res = minimize_scalar(lambda y: -h(y), method="bounded", options={"xatol": 1e-14},
                              bounds=(x[max(k - 1, 0)], x[min(k + 1, len(x) - 1)]))
        ref = -float(res.fun)
        e = summary["cd_validity_edge"]
        return abs(e - ref) <= EDGE_TOL, f"edge {e!r} vs closed form {ref!r}"

    ck.check("fig4 cd_validity_edge", edge)

    qend = {(r["protocol"], r["tau"]): r["qstar_final"] for r in summary.get("qstar_end", [])}
    for tau in OSC_CURVE_TAUS:
        name = f"qstar_tau{tau:g}.csv"
        table = read_csv(out / name)
        for proto in ("bare", "cd", "lcd", "ie"):
            def floor():
                q = table[f"qstar_{proto}"]
                return bool(np.all(q >= QSTAR_FLOOR)), f"min Q* {float(np.min(q))!r}"
            ck.check(f"fig4 {name} qstar_{proto} >= 1", floor)
        for proto in ("cd", "ie"):
            def closed():
                t = table["t"]
                r = ratio(tau)(t)
                ref = (1.0 - r / 4.0) ** -0.5 if proto == "cd" else 1.0 + r / 8.0
                err = rel_err(table[f"qstar_{proto}"], ref)
                return err <= QSTAR_RTOL, f"max rel deviation {err:.2e}"
            ck.check(f"fig4 {name} qstar_{proto} closed form", closed)

        for proto in ("bare", "lcd"):
            def final():
                ramp = quintic(w0, w1 - w0, tau)
                if proto == "bare":
                    om2 = lambda t: ramp(t)[0] ** 2  # noqa: E731
                else:
                    om2 = lambda t: omega2_lcd(ramp, t)  # noqa: E731

                def rhs(t, y):
                    k = om2(t)
                    return [y[1], -k * y[0], y[3], -k * y[2]]
                sol = solve_ivp(rhs, (0.0, tau), [0.0, 1.0, 1.0, 0.0], method="DOP853",
                                rtol=1e-12, atol=1e-13)
                X, Xd, Y, Yd = sol.y[:, -1]
                ref0, w = math.sqrt(om2(0.0)), math.sqrt(om2(tau))
                q = (ref0**2 * (w * w * X * X + Xd * Xd) + (w * w * Y * Y + Yd * Yd)) \
                    / (2.0 * ref0 * w)
                got = qend[(proto, tau)]
                err = abs(got - q) / q
                return err <= QSTAR_END_RTOL, f"Q*(tau) {got!r} vs solve_ivp {q!r}"
            ck.check(f"fig4 tau={tau:g} {proto} Q*(tau)", final)

    table = read_csv(out / "cost_scan.csv")
    taus = tau_grid(raw["tau"])
    ck.check("fig4 cost_scan tau grid",
             lambda: (np.array_equal(table["tau"], taus), f"{len(table['tau'])} rows"))

    def closed_cost(proto):
        def integrand(s):
            t = s * taus
            w, wd, _ = quintic(w0, w1 - w0, taus)(t)
            r = wd * wd / w**4
            q = (1.0 - r / 4.0) ** -0.5 if proto == "cd" else 1.0 + r / 8.0
            return 0.5 * w * q * coth
        return quad_vec(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=2000)[0]

    def lcd_cost():
        # X, X', Y, Y' under Omega^2 plus the running cost, all taus at once
        # in scaled time; (Omega/2) Q*_LCD = [w0^2 (O^2 X^2 + X'^2) + O^2 Y^2 + Y'^2] / (4 w0)
        n = len(taus)

        def rhs(s, y):
            X, Xd, Y, Yd = y[:n], y[n:2 * n], y[2 * n:3 * n], y[3 * n:4 * n]
            o2 = omega2_lcd(quintic(w0, w1 - w0, taus), s * taus)
            e = (w0**2 * (o2 * X * X + Xd * Xd) + o2 * Y * Y + Yd * Yd) / (4.0 * w0)
            return np.concatenate([taus * Xd, -taus * o2 * X, taus * Yd, -taus * o2 * Y,
                                   e * coth])
        y0 = np.concatenate([np.zeros(n), np.ones(n), np.ones(n), np.zeros(n), np.zeros(n)])
        sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-12, atol=1e-13)
        return sol.y[4 * n:, -1]

    refs = {"cd": closed_cost("cd"), "ie": closed_cost("ie"), "lcd": lcd_cost()}
    for proto, ref in refs.items():
        for i, tau in enumerate(taus):
            def cell():
                c = table[f"C_{proto}"][i]
                err = abs(c - ref[i]) / ref[i]
                return err <= OSC_COST_RTOL, f"{c!r} vs {ref[i]!r} (rel {err:.2e})"
            ck.check(f"fig4 tau={tau:.6g} C_{proto}", cell)


CHECKS = {"fig3-oc": check_oc, "fig1": check_fig1, "fig5": check_fig5,
          "fig3": check_fig3, "fig4": check_fig4}


def check_round(round_dir: Path, configs: list) -> Checker:
    """Run every check on one round's outputs; configs as workloads.configs gives them.

    A file that cannot be read before the first check of its run is one
    failed operation for that run.
    """
    ck = Checker()
    for name, raw in configs:
        def run_checks():
            CHECKS[name](ck, round_dir / name, raw)
            return True, "read"
        ck.check(f"{name} outputs", run_checks)
    return ck
