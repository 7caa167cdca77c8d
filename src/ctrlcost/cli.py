"""Batch experiment runner: presets, config parsing, CSV/JSON emission.

Configs are JSON files (nested key-value); unknown keys are rejected so
typos fail loudly. Every CSV starts with a comment line carrying the hash
of the resolved config, and reruns with the same config and seed are
byte-identical. The --out and --seed flags beat the config's values.
Every run is serial. One input stage builds what a model's runner builds
before anything runs or is written, so every bad config fails run and
validate alike, with one error line and exit code 2.

Subcommands: run, validate, list-presets.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, jaynes_cummings, landau_zener, oscillator
from .ramps import poly_smooth_ramp, ramp_from_dict, _finite
from .twolevel import DEFAULT_STEPS, integrated_cost, instantaneous_eigenstates
from .landau_zener import (LzConfig, lz_schedule,
                           lz_ground_state, qsl_time, optimize_bob_kicks,
                           cost_scan, find_cd_lcd_crossover, run_protocol,
                           blended_ramp_for, DEFAULT_GQ)
from .oscillator import (qstar_series, cd_validity_edge,
                         cd_is_valid, lcd_is_valid, OscillatorError)
from .jaynes_cummings import (JcConfig, block_run, ensemble_run, jc_cost_scan,
                              coherent_cost_scan, find_jc_crossover, ensemble_weights)
from .oc import OcProblem, optimize, refine_result

# each model's params and the kind of number each must be
_REAL, _INT, _POSITIVE = "a finite number", "an integer", "a positive number"
_MODEL_KEYS = {
    "lz": {**dict.fromkeys(("delta", "g0", "g1"), _REAL), "g_q": _POSITIVE},
    "oscillator": dict.fromkeys(("omega0", "omega1", "beta"), _POSITIVE),
    "jc": {**dict.fromkeys(("omega", "delta", "g0", "g1", "alpha"), _REAL), "n_cut": _INT},
    "oc": {**dict.fromkeys(("delta", "g0", "g1", "q_target"), _REAL),
           **dict.fromkeys(("n_max", "budget", "steps"), _INT)},
}
_PROTOCOLS = {"lz": landau_zener.PROTOCOLS, "oscillator": oscillator.PROTOCOLS,
              "jc": jaynes_cummings.PROTOCOLS, "oc": ()}   # oc runs its own pulse
_TOP_KEYS = {"model", "preset", "protocols", "tau", "params", "seed", "out",
             "trajectory_steps", "scan_points", "description", "mode", "ramp"}
MAX_COUNT = 10**6   # ceiling on trajectory_steps, scan_points, a tau grid's num and n_cut
QSTAR_TAUS = (1.6, 2.5)   # the durations of an oscillator run's Q* curves


@dataclass
class ExperimentConfig:
    model: str
    protocols: list = field(default_factory=list)
    tau: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: str = "out"
    trajectory_steps: int = DEFAULT_STEPS
    scan_points: int = 25
    preset: str = ""
    mode: str = ""          # lz only: "" (auto), "trajectory" or "scan"
    ramp: dict | None = None  # {kind, parameters}, lz trajectory runs only

    def canonical(self) -> str:
        d = {k: getattr(self, k) for k in ("model", "protocols", "tau", "params",
                                           "seed", "trajectory_steps",
                                           "scan_points", "mode", "ramp")}
        return json.dumps(d, sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def _number(name: str, value, kind: str):
    """value, if it is a finite number of the kind (an integer may be written 600.0)."""
    ok = (_finite(value) and (kind != _INT or float(value).is_integer())
          and (kind != _POSITIVE or value > 0))
    if not ok:
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def _durations(values) -> list:
    """Floats from a list of durations, each finite and positive."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValueError(f"tau must be a list of numbers or a grid, got {values!r}")
    return [float(_number("tau values", t, _POSITIVE)) for t in values]


def _parse_tau(tau) -> list:
    """Durations from a list or a {min, max, num, log} grid."""
    if isinstance(tau, dict):
        extra = set(tau) - {"min", "max", "num", "log"}
        if extra:
            raise ValueError(f"unknown tau grid keys: {sorted(extra)}")
        num = tau.get("num")
        if not isinstance(num, int) or isinstance(num, bool) or not 1 <= num <= MAX_COUNT:
            raise ValueError(f"tau grid 'num' must be an integer in [1, {MAX_COUNT}], "
                             f"got {num!r}")
        log = tau.get("log", True)
        if not isinstance(log, bool):
            raise ValueError(f"tau grid 'log' must be true or false, got {log!r}")
        lo, hi = _durations([tau.get("min"), tau.get("max")])
        tau = (np.geomspace if log else np.linspace)(lo, hi, num)
    return _durations(tau)


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ValueError(f"a config must be a JSON object, got {raw!r}")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if not isinstance(raw.get("params", {}), dict):
        raise ValueError(f"params must map names to numbers, got {raw['params']!r}")
    if "preset" in raw:
        if not isinstance(raw["preset"], str) or raw["preset"] not in PRESETS:
            raise ValueError(f"unknown preset {raw['preset']!r}; available: {', '.join(PRESETS)}")
        preset = PRESETS[raw["preset"]]
        raw = {**preset, **raw, "params": {**preset.get("params", {}), **raw.get("params", {})}}
    if "model" not in raw:
        raise ValueError("config needs a 'model' (or a 'preset')")
    model = raw["model"]
    if model not in ("lz", "oscillator", "jc", "oc"):
        raise ValueError(f"unknown model {model!r}")
    params = dict(raw.get("params", {}))
    bad = set(params) - set(_MODEL_KEYS[model])
    if bad:
        raise ValueError(f"unknown params for model {model!r}: {sorted(bad)}")
    for name, value in params.items():
        _number(f"param {name!r}", value, _MODEL_KEYS[model][name])
    if params.get("n_cut", 0) > MAX_COUNT:   # jc's cutoff, one block per excitation number
        raise ValueError(f"param 'n_cut' must be <= {MAX_COUNT}, got {params['n_cut']!r}")
    tau = _parse_tau(raw.get("tau", []))
    mode = raw.get("mode", "")
    if mode not in ("", "trajectory", "scan"):
        raise ValueError(f"unknown mode {mode!r}")
    protocols = raw.get("protocols", [])
    if not isinstance(protocols, list):
        raise ValueError(f"protocols must be a list, got {protocols!r}")
    bad = [p for p in protocols if p not in _PROTOCOLS[model]]
    if bad:
        raise ValueError(f"unknown protocol {bad[0]!r} for model {model!r}; "
                         f"it takes {list(_PROTOCOLS[model])}")
    if mode and model != "lz":
        raise ValueError("mode is only supported for the lz model")
    ramp = raw.get("ramp")
    if ramp is not None and model != "lz":
        raise ValueError("a custom ramp is only supported for the lz model")
    counts = {k: int(_number(k, raw.get(k, d), _INT))
              for k, d in (("seed", 0), ("trajectory_steps", DEFAULT_STEPS), ("scan_points", 25))}
    for k, least in (("trajectory_steps", 2), ("scan_points", 1)):
        if counts[k] < least:
            raise ValueError(f"{k} must be >= {least}, got {counts[k]}")
        if counts[k] > MAX_COUNT:
            raise ValueError(f"{k} must be <= {MAX_COUNT}, got {counts[k]}")
    out = raw.get("out", "out")
    if not isinstance(out, str):
        raise ValueError(f"out must be a directory path, got {out!r}")
    return ExperimentConfig(model=model, protocols=list(protocols), tau=tau,
                            params=params, out=out,
                            preset=raw.get("preset", ""), mode=mode, ramp=ramp, **counts)


# ---------------------------------------------------------------------------
# presets (figure-style scenario bundles)

PRESETS = {
    "fig1": {
        "model": "lz",
        "description": "LZ trajectories: fidelity, cost rate and spectra at "
                       "tau = tau_QSL and tau = 0.1",
        "protocols": ["bare", "cd", "lcd", "bob"],
        "tau": [],  # filled with [tau_QSL, 0.1] at run time
    },
    "fig3": {
        "model": "lz",
        "description": "LZ cost vs duration for CD/LCD (quintic), blended-ramp "
                       "CD, plus the BOB point at tau_QSL",
        "protocols": ["cd", "lcd", "cd-blend"],
        "tau": {"min": 0.1, "max": 100.0, "num": 25, "log": True},
    },
    "fig3-oc": {
        "model": "oc",
        "description": "Fourier optimal control at tau = 25, 50, 100",
        "tau": [25.0, 50.0, 100.0],
    },
    "fig4": {
        "model": "oscillator",
        "description": "Oscillator Q* curves at tau = 1.6 and 2.5 plus cost "
                       "scan and CD validity edge",
        "protocols": ["bare", "cd", "lcd", "ie"],
        "tau": {"min": 1.55, "max": 10.0, "num": 20, "log": True},
    },
    "fig5": {
        "model": "jc",
        "description": "JC block fidelities at tau = 10, n = 0 cost scan and "
                       "coherent alpha = 2 ensemble",
        "protocols": ["bare", "cd", "lcd"],
        "tau": {"min": 5.0, "max": 40.0, "num": 17, "log": True},
        "params": {"alpha": 2.0},
    },
    "smoke": {
        "model": "lz",
        "description": "Tiny, fast scenario used for determinism checks",
        "protocols": ["cd", "lcd"],
        "tau": [1.0, 5.0],
        "trajectory_steps": 2000,
        "scan_points": 5,
    },
}


# ---------------------------------------------------------------------------
# output helpers

# "%.17g" in numpy, cell for cell the bytes of %. A finite x with 1e-4 <= |x| < 1e17
# prints in fixed notation: with e = floor(log10 |x|), D = |x| 10^(16 - e) rounded
# half-even has 17 digits, the point follows digit e, and trailing zeros are dropped.
# 10^k is a double for k <= 22, so Dekker's TwoProduct (Numer. Math. 18, 224 (1971))
# splits |x| 10^k exactly into p + err, and p >= 1e16 > 2^53 is an even integer, so
# D = p + rint(err). Zeros and nan are literals; every other cell is written by %
# itself. A block is laid out one byte row per slot of a field (sign, the "0.000"
# prefix, 18 digit-or-point slots, separator), 0 where a slot is empty; the rows are
# transposed to cell order and the zeros squeezed out.
_SPLIT = 134217729.0   # 2^27 + 1, Dekker's split
_FIELD = 25            # slots per cell; the longest %.17g is 24 bytes, "-1.2345678901234567e-308"
_BLOCK_ROWS = 1024     # table rows formatted at a time, which bounds the kernel's memory
# digits of v < 10^9 from y = v ceil(2^57 / 10^8): each is y >> 57, then y = (y mod 2^57) 10.
# y's error v (ceil - 2^57 / 10^8) < 2.5e8 stays below 2^57 / 10^8 = 1.4e9, so none is off
_DIGIT_MUL, _LOW57 = np.uint64(-(-2**57 // 10**8)), np.uint64(2**57 - 1)
_NAN_CODE, _FALLBACK_CODE = 21, 22   # layout codes; a fixed-notation cell's is e + 4
_PREFIX = np.zeros((5, _FALLBACK_CODE + 1), dtype=np.uint8)  # slots before the digits, per code
for _code, _text in ((0, b"0.000"), (1, b"0.00"), (2, b"0.0"), (3, b"0."), (_NAN_CODE, b"nan")):
    _PREFIX[:len(_text), _code] = list(_text)
_SLOT = np.arange(17, dtype=np.uint8)[:, None]


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(21)])
_POW10_HI, _POW10_LO = _split(_POW10)
# the least doubles >= 10^j, j = -3..16, so |x| >= edge j exactly when e >= j: 10^j
# itself for j >= 0, and the nearest double to 10^j, which lies above it, for j < 0
_E_EDGES = np.array([float(f"1e{j}") for j in range(-3, 17)])


def _two_prod(a, k):
    """(p, err) with p + err = a 10^k exactly: Dekker's TwoProduct."""
    p = a * _POW10[k]
    ah, al = _split(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    err = ah * bh
    err -= p
    err += ah * bl
    err += al * bh
    err += al * bl
    return p, err


def _format_cells(x: np.ndarray, ncols: int) -> bytes:
    """The bytes of ``"%.17g" % v`` for every v of x, a row-major table of ncols columns,
    "," after each cell and "\\n" after each row's last."""
    n = len(x)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    a[~fast] = 1.0
    e = np.searchsorted(_E_EDGES, a, side="right") - 4
    p, err = _two_prod(a, 16 - e)
    # D < 10^17, no carry into e + 1: a double below 10^(e + 1) is below it by
    # at least 5e-17 of it, and D would round up only within 5e-18
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    d[~fast] = 0   # so a zero prints as the digit 0 at e = 0
    y = np.empty((2, n), dtype=np.uint64)
    np.floor_divide(d, 10**9, out=y[0], casting="unsafe")
    np.remainder(d, 10**9, out=y[1], casting="unsafe")
    y *= _DIGIT_MUL
    digits = np.empty((2, 9, n), dtype=np.uint8)
    for j in range(9):
        np.right_shift(y, np.uint64(57), out=digits[:, j], casting="unsafe")
        y &= _LOW57
        y *= np.uint64(10)
    digits = digits.reshape(18, n)[1:]   # D's 17 digits; the first of 18 is 0
    nd = ((digits != 0) * (_SLOT + np.uint8(1))).max(axis=0)   # without trailing zeros
    code = np.where(fast | (x == 0.0), e + 4, _FALLBACK_CODE)
    code[np.isnan(x)] = _NAN_CODE
    literal = code >= _NAN_CODE
    digits += (_SLOT < np.where(literal, 0, np.maximum(nd, e + 1))) * np.uint8(ord("0"))
    point = np.where((e >= 0) & (nd > e + 1) & ~literal, e, 17).astype(np.uint8)
    slots = np.empty((_FIELD, n), dtype=np.uint8)
    slots[0] = (np.signbit(x) & (code != _NAN_CODE)) * np.uint8(ord("-"))
    slots[1:6] = _PREFIX.take(code, axis=1)
    # slot s holds digit s up to the point's digit, then the point, then digit s - 1
    slots[6] = digits[0]
    np.subtract(digits[1:], digits[:-1], out=slots[7:23])
    slots[7:23] *= _SLOT[1:] <= point
    slots[7:23] += digits[:-1]
    slots[23] = digits[16] * (point < 16)
    at = np.flatnonzero(point < 17)
    slots.ravel()[(7 + point[at].astype(np.intp)) * n + at] = ord(".")
    slots[24].reshape(-1, ncols)[:] = [ord(",")] * (ncols - 1) + [ord("\n")]
    slow = np.flatnonzero(code == _FALLBACK_CODE)
    if slow.size:
        text = b"".join(("%.17g" % v).encode().ljust(_FIELD - 1, b"\0") for v in x[slow].tolist())
        slots[:-1, slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _FIELD - 1).T
    cells = slots.T.ravel()
    return np.compress(cells != 0, cells).tobytes()


class CsvWriter:
    """A table added column-wise and written with every value as %.17g.

    ``write`` formats ``_BLOCK_ROWS`` rows at a time with ``_format_cells``: the
    numpy kernel for values in fixed notation, 0, -0 and nan, and ``%`` for each
    other cell, so the file holds the bytes of one ``"%.17g" % x`` per value.
    """

    def __init__(self, path: Path, columns, config_hash: str):
        self.path = path
        self.columns = columns
        self.blocks = [np.empty((0, len(columns)))]
        self.config_hash = config_hash

    def add(self, *columns):
        """Append rows, one argument per column: a scalar or an array of the rows' length."""
        cols = np.broadcast_arrays(*(np.atleast_1d(np.asarray(c, dtype=float)) for c in columns))
        if len(cols) != len(self.columns) or cols[0].ndim != 1:
            raise ValueError(f"{self.path.name} takes {len(self.columns)} equal-length columns")
        self.blocks.append(np.column_stack(cols))

    def write(self):
        table = np.concatenate(self.blocks)
        with open(self.path, "wb") as fh:
            fh.write(f"# config_hash={self.config_hash} ctrlcost={__version__}\n".encode())
            fh.write((",".join(self.columns) + "\n").encode())
            for i in range(0, len(table), _BLOCK_ROWS):
                fh.write(_format_cells(table[i:i + _BLOCK_ROWS].ravel(), len(self.columns)))


def _rows(n: int, limit: int = 4001) -> np.ndarray:
    """Indices of about ``limit`` evenly strided rows of n, always ending at n - 1."""
    idx = np.arange(0, n, max(1, int(np.ceil(n / limit))))
    return idx if idx[-1] == n - 1 else np.append(idx, n - 1)


# ---------------------------------------------------------------------------
# model runners

def _lz_config(cfg: ExperimentConfig, tau: float, with_ramp: bool = False) -> LzConfig:
    """The sweep of an lz or oc config at duration tau, with its custom ramp if asked."""
    p = cfg.params
    ramp = None
    if with_ramp and cfg.ramp is not None:
        ramp = ramp_from_dict(cfg.ramp)
        if abs(ramp.duration - tau) > 1e-12:
            raise ValueError(
                f"custom ramp duration {ramp.duration} differs from tau={tau}")
    return LzConfig(tau=tau, delta=p.get("delta", 0.1),
                    g0=p.get("g0", -0.2), g1=p.get("g1", 0.2), ramp=ramp)


def _tau_qsl(cfg: ExperimentConfig) -> float:
    base = _lz_config(cfg, 1.0)
    return qsl_time(base.delta, lz_ground_state(base.delta, base.g0),
                    lz_ground_state(base.delta, base.g1))


def _lz_trajectory_mode(cfg: ExperimentConfig) -> bool:
    """Whether an lz config runs trajectories: an explicit mode decides, else fig1 or no tau."""
    durations = cfg.tau or PRESETS.get(cfg.preset, {}).get("tau")   # the config's or its preset's
    return cfg.mode == "trajectory" or (not cfg.mode and (cfg.preset == "fig1" or not durations))


def _lz_durations(cfg: ExperimentConfig) -> list:
    """An lz config's durations; trajectories given none run at [tau_QSL, 0.1]."""
    return cfg.tau or [_tau_qsl(cfg), 0.1]


def _run_lz(cfg: ExperimentConfig, outdir: Path, summary: dict):
    h = cfg.digest()
    tqsl = _tau_qsl(cfg)
    summary["tau_qsl"] = tqsl
    g_q = cfg.params.get("g_q", DEFAULT_GQ)

    taus = _lz_durations(cfg)
    if _lz_trajectory_mode(cfg):
        # trajectory preset: fidelity / cost-rate / spectra CSVs
        fid = CsvWriter(outdir / "fidelity.csv",
                        ["tau", "t"] + [f"F_{p}" for p in cfg.protocols], h)
        rate = CsvWriter(outdir / "cost_rate.csv",
                         ["tau", "t"] + [f"dC_{p}" for p in cfg.protocols], h)
        spectra_protocols = [p for p in ("cd", "lcd") if p in cfg.protocols]
        spec = CsvWriter(outdir / "spectra.csv",
                         ["tau", "t"] + [f"E_{side}_{p}" for p in spectra_protocols
                                         for side in ("minus", "plus")], h)
        kicks = optimize_bob_kicks(_lz_config(cfg, tqsl), g_q) if "bob" in cfg.protocols else None
        if kicks is not None:
            summary["bob"] = {"phi1": kicks.phi1, "phi2": kicks.phi2, "fidelity": kicks.fidelity}
        for tau in taus:
            lzc = _lz_config(cfg, tau, with_ramp=True)
            trajs = {}
            for proto in cfg.protocols:
                if proto == "bob" and abs(tau - tqsl) > 1e-9:
                    continue  # BOB is defined at the speed limit
                traj, ffin, cost = run_protocol(lzc, proto, steps=cfg.trajectory_steps,
                                                g_q=g_q, bob_kicks=kicks)
                trajs[proto] = traj
                summary.setdefault("runs", []).append(
                    {"model": "lz", "protocol": proto, "tau": tau,
                     "final_fidelity": ffin, "integrated_cost": cost})
            # rows sit on the uniform nodes, which every protocol's grid holds
            # (BOB's also has its kick edges): take each protocol's row at t
            nodes = np.linspace(0.0, tau, cfg.trajectory_steps + 1)
            t = nodes[_rows(len(nodes))]
            cols = {p: (np.nan, np.nan) for p in cfg.protocols}
            for p, traj in trajs.items():
                j = np.searchsorted(traj.times, t)
                if not np.array_equal(traj.times[j], t):
                    raise RuntimeError(f"{p} trajectory grid lacks the uniform nodes")
                cols[p] = traj.fidelity[j], traj.cost_rate[j]
            spec.add(tau, t, *[e for p in spectra_protocols
                               for e in instantaneous_eigenstates(lz_schedule(lzc, p), t)[2:]])
            fid.add(tau, t, *[cols[p][0] for p in cfg.protocols])
            rate.add(tau, t, *[cols[p][1] for p in cfg.protocols])
        for w in (fid, rate, spec):
            w.write()
        return

    # scan preset
    base = _lz_config(cfg, taus[0])
    scan = cost_scan(base, taus, cfg.protocols)
    w = CsvWriter(outdir / "cost_scan.csv", ["tau"] + [f"C_{p}" for p in cfg.protocols], h)
    w.add(taus, *[scan[p] for p in cfg.protocols])
    w.write()
    if {"cd", "lcd"} <= set(cfg.protocols):
        summary["crossover_cd_lcd"] = find_cd_lcd_crossover(base, scan=scan)
    at_qsl = replace(base, tau=tqsl)
    kicks = optimize_bob_kicks(at_qsl, g_q)
    summary["bob"] = {"tau": tqsl, "fidelity": kicks.fidelity,
                      "cost": integrated_cost(lz_schedule(at_qsl, "bob", kicks, g_q))}


def _oscillator_runs(cfg: ExperimentConfig) -> tuple:
    """(omega0, omega1, CD validity edge, protocols, durations) of an oscillator config:
    each protocol runs on ``QSTAR_TAUS``, and all but bare on the durations, the
    config's or scan_points from max(1.05 edge, 1.55) to 10."""
    w0, w1 = cfg.params.get("omega0", 1.0), cfg.params.get("omega1", 10.0)
    edge = cd_validity_edge(w0, w1)
    return (w0, w1, edge, cfg.protocols or list(oscillator.PROTOCOLS),
            cfg.tau or list(np.geomspace(max(1.05 * edge, 1.55), 10.0, cfg.scan_points)))


def _run_oscillator(cfg: ExperimentConfig, outdir: Path, summary: dict):
    h = cfg.digest()
    w0, w1, edge, protocols, taus = _oscillator_runs(cfg)
    summary["cd_validity_edge"] = edge

    for tau in QSTAR_TAUS:
        omega = poly_smooth_ramp(w0, w1 - w0, tau)
        w = CsvWriter(outdir / f"qstar_tau{tau:g}.csv",
                      ["t"] + [f"qstar_{p_}" for p_ in protocols], h)
        series = {}
        for proto in protocols:
            try:
                series[proto] = qstar_series(omega, proto)
            except OscillatorError as err:
                summary.setdefault("invalid", []).append(
                    {"model": "oscillator", "protocol": proto, "tau": tau,
                     "reason": str(err)})
        if not series:
            continue
        t = next(iter(series.values()))[0]
        i = _rows(len(t))
        w.add(t[i], *[series[p_][1][i] if p_ in series else np.nan for p_ in protocols])
        w.write()
        for proto, (_, q) in series.items():
            summary.setdefault("qstar_end", []).append(
                {"tau": tau, "protocol": proto, "qstar_final": float(q[-1])})

    cost_protocols = [p_ for p_ in protocols if p_ != "bare"]
    w = CsvWriter(outdir / "cost_scan.csv",
                  ["tau"] + [f"C_{p_}" for p_ in cost_protocols], h)
    costs, errors = oscillator._cost_scan(w0, w1, taus, cost_protocols,
                                          cfg.params.get("beta", 3.0))
    for (i, k), err in errors.items():   # ordered by (tau, protocol)
        summary.setdefault("invalid", []).append(
            {"model": "oscillator", "protocol": cost_protocols[k], "tau": taus[i],
             "reason": str(err)})
    w.add(taus, *costs)
    w.write()


def _jc_config(cfg: ExperimentConfig) -> JcConfig:
    """The blocks of a jc config, at the trajectories' duration tau = 10."""
    p = cfg.params
    return JcConfig(tau=10.0, omega=p.get("omega", 1.0), delta=p.get("delta", 0.1),
                    g0=p.get("g0", 0.0), g1=p.get("g1", 0.2),
                    n_cut=int(p.get("n_cut", 40)), alpha=p.get("alpha", 2.0))


def _run_jc(cfg: ExperimentConfig, outdir: Path, summary: dict):
    h = cfg.digest()
    jc = _jc_config(cfg)
    protocols = cfg.protocols or ["bare", "cd", "lcd"]

    # fidelity curves at tau = 10: the vacuum block and the coherent ensemble
    curves = {"n0": {}, "coherent": {}}
    runs = summary.setdefault("runs", [])
    for proto in protocols:
        traj, ffin, cost = block_run(jc, proto, n=0, steps=cfg.trajectory_steps)
        curves["n0"][proto] = traj
        runs.append({"model": "jc", "protocol": proto, "tau": jc.tau, "n": 0,
                     "final_fidelity": ffin, "integrated_cost": cost})
    for proto in (p_ for p_ in protocols if p_ != "bare"):
        res = ensemble_run(jc, proto, steps=cfg.trajectory_steps)
        curves["coherent"][proto] = res
        runs.append({"model": "jc", "protocol": proto, "tau": jc.tau, "alpha": jc.alpha,
                     "ensemble_final_fidelity": float(res.fidelity[-1]),
                     "ensemble_cost": res.cost})
    for name, table in curves.items():
        if table:
            t = next(iter(table.values())).times
            i = _rows(len(t))
            w = CsvWriter(outdir / f"fidelity_{name}.csv", ["t"] + [f"F_{p_}" for p_ in table], h)
            w.add(t[i], *[c.fidelity[i] for c in table.values()])
            w.write()

    # cost scans: vacuum block and coherent ensemble
    taus = cfg.tau or list(np.geomspace(5.0, 40.0, cfg.scan_points))
    scan = jc_cost_scan(jc, taus, n=0)
    summary["crossover_n0"] = find_jc_crossover(jc, scan=scan)
    for name, costs in (("n0", scan), ("coherent", coherent_cost_scan(jc, taus))):
        w = CsvWriter(outdir / f"cost_scan_{name}.csv", ["tau", "C_cd", "C_lcd"], h)
        w.add(taus, costs["cd"], costs["lcd"])
        w.write()


def _oc_problem(cfg: ExperimentConfig, tau: float) -> OcProblem:
    """The problem at duration tau; a param the config leaves out keeps OcProblem's default."""
    kw = {k: int(v) if _MODEL_KEYS["oc"][k] == _INT else v
          for k, v in cfg.params.items() if k not in ("delta", "g0", "g1")}
    return OcProblem(config=_lz_config(cfg, float(tau)), seed=cfg.seed, **kw)


def _oc_problems(cfg: ExperimentConfig) -> list:
    """One problem per duration of the config, by default tau = 25, 50 and 100."""
    return [_oc_problem(cfg, tau) for tau in cfg.tau or [25.0, 50.0, 100.0]]


def _run_oc(cfg: ExperimentConfig, outdir: Path, summary: dict):
    h = cfg.digest()
    w = CsvWriter(outdir / "oc_results.csv", ["tau", "q", "C", "nfev", "success"], h)
    records = []
    for prob in _oc_problems(cfg):
        tau = prob.config.tau
        res = refine_result(prob, optimize(prob))
        records.append(res.to_record())
        w.add(tau, res.q, res.cost, res.nfev, 1.0 if res.success else 0.0)
        tr = CsvWriter(outdir / f"oc_trace_tau{tau:g}.csv", ["nfev", "q", "C"], h)
        tr.add(*([entry[k] for entry in res.trace] for k in ("nfev", "q", "C")))
        tr.write()
    w.write()
    summary["oc"] = records
    with open(outdir / "oc_results.json", "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)


_RUNNERS = {"lz": _run_lz, "oscillator": _run_oscillator, "jc": _run_jc,
            "oc": _run_oc}


# ---------------------------------------------------------------------------
# input stage, run and validate

def _check_inputs(cfg: ExperimentConfig) -> None:
    """The input stage: the schema on the config's own fields, which a hand-built
    config meets here, then what the model's runner builds from the config, so
    that a bad input raises its ValueError before anything runs or is written."""
    parse_config({k: getattr(cfg, k) for k in _TOP_KEYS - {"preset", "description"}})
    if cfg.model == "lz":
        base = _lz_config(cfg, 1.0)
        if _tau_qsl(cfg) == 0.0:   # a scan runs BOB at tau_QSL, trajectories default to it
            raise ValueError(f"g1 = {base.g1!r} is too close to g0 = {base.g0!r}: tau_QSL is 0")
        if not cfg.tau and not _lz_trajectory_mode(cfg):
            raise ValueError("tau is empty: an lz cost scan needs at least one duration")
        if "cd-blend" in cfg.protocols:
            blended_ramp_for(base, 1.0)
        if cfg.ramp is not None:
            if "cd-blend" in cfg.protocols:
                raise ValueError("cd-blend runs on its own blended ramp: drop the custom ramp")
            if not _lz_trajectory_mode(cfg):
                raise ValueError("a custom ramp requires mode='trajectory' "
                                 "(scans rebuild the ramp family per duration)")
            for tau in _lz_durations(cfg):
                _lz_config(cfg, tau, with_ramp=True)
    elif cfg.model == "oc":
        _oc_problems(cfg)
    elif cfg.model == "jc":
        ensemble_weights(_jc_config(cfg))


def run(cfg: ExperimentConfig, threads: int = 1) -> Path:
    """Run one config after the input stage and write its outputs; ``threads`` is ignored."""
    _check_inputs(cfg)
    return _run_checked(cfg)


def _run_checked(cfg: ExperimentConfig) -> Path:
    """``run`` for a config that has passed the input stage."""
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {"config_hash": cfg.digest(), "model": cfg.model,
               "preset": cfg.preset, "seed": cfg.seed}
    _RUNNERS[cfg.model](cfg, outdir, summary)
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return outdir


_VALIDITY = (("cd", cd_is_valid, "trap inversion: no CD protocol below the validity edge"),
             ("lcd", lcd_is_valid, "effective LCD frequency must stay positive"))


def validate(cfg: ExperimentConfig) -> dict:
    """The input stage, then the oscillator's physics-validity report; a dry run."""
    _check_inputs(cfg)
    checks = []
    if cfg.model == "oscillator":
        w0, w1, _, protocols, taus = _oscillator_runs(cfg)
        for tau in dict.fromkeys([*QSTAR_TAUS, *taus]):   # where run evaluates cd and lcd
            omega = poly_smooth_ramp(w0, w1 - w0, tau)
            checks += [{"check": f"{proto}_validity tau={tau:g}", "ok": ok(omega), "detail": detail}
                       for proto, ok, detail in _VALIDITY if proto in protocols]
    return {"model": cfg.model, "checks": checks, "valid": all(c["ok"] for c in checks)}


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ctrlcost",
        description="Batch runner for adiabatic control-protocol experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a preset or a config file")
    p_run.add_argument("preset", nargs="?", help="preset name (see list-presets)")
    p_run.add_argument("--config", help="JSON config file")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_val = sub.add_parser("validate", help="schema and physics-validity checks")
    p_val.add_argument("preset", nargs="?")
    p_val.add_argument("--config", help="JSON config file")

    sub.add_parser("list-presets", help="show available presets")

    args = parser.parse_args(argv)

    if args.command == "list-presets":
        for name, preset in PRESETS.items():
            print(f"{name:10s} {preset['description']}")
        return 0

    try:
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        elif args.preset:
            raw = {"preset": args.preset}
        else:
            raise ValueError("give a preset name or --config FILE")
        cfg = parse_config(raw)
        if args.command == "run":
            if args.out is not None:
                cfg.out = args.out
            elif cfg.preset and cfg.out == "out":
                cfg.out = f"out_{cfg.preset}"
            if args.seed is not None:
                cfg.seed = args.seed
        report = validate(cfg) if args.command == "validate" else _check_inputs(cfg)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(json.dumps(report, indent=1, sort_keys=True))
        if not report["valid"]:
            failed = [c["check"] for c in report["checks"] if not c["ok"]]
            print(f"error: invalid config, failed checks: {', '.join(failed)}",
                  file=sys.stderr)
            return 1
        return 0

    try:
        outdir = _run_checked(cfg)
    except (ValueError, OSError, OscillatorError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"wrote {outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
