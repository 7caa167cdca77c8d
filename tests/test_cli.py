"""CLI runner: config parsing, validation, presets, determinism."""

import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ctrlcost
from ctrlcost.cli import (parse_config, validate, run, PRESETS, main, _oc_problem, CsvWriter,
                          ExperimentConfig, _MODEL_KEYS, _TOP_KEYS)
from ctrlcost.landau_zener import LzConfig, find_cd_lcd_crossover
from ctrlcost.jaynes_cummings import JcConfig, find_jc_crossover
from oracles import percent_rows


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True, skip_header=1)


def input_error(tmp_path, raw, capsys):
    """The one error line that ends both validate and run on raw, each with exit code 2,
    before the output directory tmp_path / "o" exists."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**raw, "out": str(tmp_path / "o")}))
    errs = []
    for command in ("validate", "run"):
        assert main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        errs.append(err)
    assert errs[0] == errs[1]
    assert not (tmp_path / "o").exists()
    return errs[0]


# ---------------------------------------------------------------------------
# config parsing

def test_unknown_top_level_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        parse_config({"model": "lz", "bogus": 1})


def test_unknown_model_and_params_rejected():
    with pytest.raises(ValueError, match="unknown model"):
        parse_config({"model": "ising"})
    with pytest.raises(ValueError, match="unknown params"):
        parse_config({"model": "lz", "params": {"omega0": 1.0}})


def test_tau_grid_expansion():
    cfg = parse_config({"model": "lz", "tau": {"min": 1.0, "max": 4.0, "num": 3,
                                               "log": False}})
    assert cfg.tau == [1.0, 2.5, 4.0]
    cfg = parse_config({"model": "lz", "tau": {"min": 1.0, "max": 100.0, "num": 3}})
    assert cfg.tau == pytest.approx([1.0, 10.0, 100.0])


@pytest.mark.parametrize("tau", [{"min": 1.0, "max": 2.0, "num": 0},
                                 [float("nan"), 5.0], [0.0], [float("inf")],
                                 {"min": -1.0, "max": 2.0, "num": 3}])
def test_bad_tau_rejected_with_one_line_error(tau, tmp_path, capsys):
    with pytest.raises(ValueError, match="tau"):
        parse_config({"model": "lz", "tau": tau})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "lz", "tau": tau,
                                "out": str(tmp_path / "o")}))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tau") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_preset_resolution_and_param_merge():
    cfg = parse_config({"preset": "fig5", "params": {"n_cut": 50}})
    assert cfg.model == "jc"
    assert cfg.params["alpha"] == 2.0     # kept from preset
    assert cfg.params["n_cut"] == 50      # user override
    with pytest.raises(ValueError, match="unknown preset"):
        parse_config({"preset": "fig9"})


def test_digest_stable_and_out_independent():
    a = parse_config({"model": "lz", "tau": [1.0], "out": "x"})
    b = parse_config({"model": "lz", "tau": [1.0], "out": "y"})
    assert a.digest() == b.digest()


# ---------------------------------------------------------------------------
# validation

def test_fig_presets_validate_cleanly():
    for name in ("fig1", "fig3", "fig3-oc", "fig4", "fig5"):
        cfg = parse_config({"preset": name})
        report = validate(cfg)
        assert report["valid"], (name, report)


@pytest.mark.parametrize("model,name", [("lz", "ie"), ("jc", "bob"),
                                        ("oscillator", "foo"), ("oc", "cd")])
def test_unknown_protocol_rejected_with_one_line_error(model, name, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": model, "protocols": ["cd", name],
                                "out": str(tmp_path / "o")}))
    for command in ("validate", "run"):
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown protocol {name!r} for model {model!r}")
        assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_run_checks_a_hand_built_config_before_making_its_directory(tmp_path):
    # the schema never sees these configs: the input stage alone must stop them
    d = tmp_path / "o"
    for cfg, msg in ((ExperimentConfig(model="lz", protocols=["xyz"], tau=[1.0], out=str(d)),
                      "unknown protocol 'xyz' for model 'lz'; it takes"),
                     (ExperimentConfig(model="jc", protocols=["bob"], out=str(d)),
                      "unknown protocol 'bob' for model 'jc'"),
                     (ExperimentConfig(model="xyz", out=str(d)), "unknown model 'xyz'")):
        with pytest.raises(ValueError, match=msg):
            run(cfg)
        assert not d.exists()


@pytest.mark.parametrize("model", ["lz", "oc"])
def test_validate_rejects_a_bad_sweep_in_one_line(model, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": model, "tau": [30.0], "params": {"delta": -0.1}}))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: energy gap delta must be positive, got -0.1\n"


def test_every_preset_validates(capsys):
    for name in PRESETS:
        assert main(["validate", name]) == 0, name
        assert json.loads(capsys.readouterr().out)["valid"]


def test_cd_blend_off_the_antisymmetric_sweep_is_invalid(tmp_path, capsys):
    raw = {"model": "lz", "protocols": ["cd", "cd-blend"], "tau": [1.0, 5.0],
           "params": {"g1": 0.3}}
    # trajectories run cd-blend too, so the boundary check holds in both modes
    for change in ({}, {"mode": "trajectory"}):
        assert input_error(tmp_path, {**raw, **change}, capsys).startswith(
            "error: boundary mismatch at s=1.0: g_a=0.2 vs g_na=0.3")
    for change in ({"params": {"g1": 0.2}}, {"mode": "trajectory", "params": {"g1": 0.2}}):
        assert validate(parse_config({**raw, **change}))["valid"]


def test_cd_blend_trajectory_is_run_and_written(tmp_path):
    cfg = parse_config({"model": "lz", "mode": "trajectory", "tau": [5.0],
                        "protocols": ["cd", "cd-blend"], "trajectory_steps": 2000,
                        "out": str(tmp_path / "o")})
    outdir = run(cfg)
    with open(outdir / "fidelity.csv", encoding="utf-8") as fh:
        assert fh.read().splitlines()[1] == "tau,t,F_cd,F_cd-blend"
    runs = json.loads((outdir / "summary.json").read_text())["runs"]
    assert [r["protocol"] for r in runs] == ["cd", "cd-blend"]
    assert runs[1]["final_fidelity"] >= 1.0 - 1e-8


def test_cd_blend_with_a_custom_ramp_is_rejected(tmp_path, capsys):
    ramp = {"kind": "polynomial", "parameters": {"g0": -0.2, "g_d": 0.4, "tau": 5.0}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "lz", "mode": "trajectory", "tau": [5.0],
                                "protocols": ["cd-blend"], "ramp": ramp,
                                "out": str(tmp_path / "o")}))
    for command in ("validate", "run"):
        assert main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: cd-blend runs on its own blended ramp")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("model", ["jc", "oscillator", "oc"])
def test_mode_is_rejected_for_models_other_than_lz(model, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": model, "mode": "scan", "tau": [30.0],
                                "out": str(tmp_path / "o")}))
    for command in ("validate", "run"):
        assert main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: mode is only supported for the lz model\n"
    assert not (tmp_path / "o").exists()


def test_custom_ramp_validation_matches_run(tmp_path, capsys):
    ramp = {"kind": "polynomial", "parameters": {"g0": -0.2, "g_d": 0.4, "tau": 2.0}}
    base = {"model": "lz", "protocols": ["cd"], "ramp": ramp}
    for change, match in (({"mode": "scan", "tau": [2.0]},
                           "a custom ramp requires mode='trajectory'"),
                          ({"mode": "trajectory", "tau": [2.0, 3.0]},
                           "custom ramp duration 2.0 differs from tau=3.0"),
                          ({}, "custom ramp duration 2.0 differs from tau=22.14")):   # tau_QSL
        assert input_error(tmp_path, {**base, **change}, capsys).startswith(f"error: {match}")
        # a config built by hand meets the same input stage
        with pytest.raises(ValueError, match=match):
            run(parse_config({**base, **change, "out": str(tmp_path / "o")}))
        assert not (tmp_path / "o").exists()
    assert validate(parse_config({**base, "mode": "trajectory", "tau": [2.0]}))["valid"]


def test_oscillator_cd_below_edge_flagged():
    cfg = parse_config({"model": "oscillator", "tau": [1.0]})
    report = validate(cfg)
    assert not report["valid"]
    checks = {c["check"]: c["ok"] for c in report["checks"]}
    assert checks["cd_validity tau=1"] is False


def test_jc_large_alpha_tail_flagged(tmp_path, capsys):
    err = input_error(tmp_path, {"model": "jc", "params": {"alpha": 5.0, "n_cut": 40}}, capsys)
    assert err == "error: cutoff tail 2.036e-03 above 1e-12: increase n_cut for alpha=5.0\n"


def test_oc_below_qsl_flagged(tmp_path, capsys):
    err = input_error(tmp_path, {"model": "oc", "tau": [10.0]}, capsys)
    assert err == ("error: Fourier optimal control requires tau > tau_QSL = 22.1430, "
                   "got tau = 10.0\n")


@pytest.mark.parametrize("params", [{"n_max": 0}, {"steps": 1}, {"budget": 0},
                                    {"q_target": -1}])
def test_bad_oc_problem_is_invalid_and_fails_run_in_one_line(params, tmp_path, capsys):
    name, value = next(iter(params.items()))
    err = input_error(tmp_path, {"preset": "fig3-oc", "params": params}, capsys)
    assert err.startswith(f"error: {name} must ") and err.endswith(f"got {value}\n")


def test_oc_sweep_off_minus_g0_is_invalid_and_fails_run(tmp_path, capsys):
    # the Fourier ansatz ends at -g0, so g1 = 0.35 would be ignored, not reached
    err = input_error(tmp_path, {"preset": "fig3-oc", "params": {"g1": 0.35}}, capsys)
    assert err == "error: the Fourier ansatz sweeps g0 -> -g0: g1 must be 0.2, got 0.35\n"


@pytest.mark.parametrize("name", ["gamma", "restarts", "polish_budget"])
def test_removed_oc_params_rejected(name, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "fig3-oc", "params": {name: 1}}))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown params for model 'oc': [{name!r}]\n"


@pytest.mark.parametrize("raw, match", [
    ({"preset": "fig3-oc", "params": {"n_max": [1]}}, "param 'n_max' must be an integer"),
    ({"preset": "smoke", "params": {"delta": "abc"}}, "param 'delta' must be a finite number"),
    ({"preset": "smoke", "params": [1, 2]}, "params must map names to numbers"),
    ({"preset": "fig3-oc", "params": {"steps": 600.7}}, "param 'steps' must be an integer"),
    ({"preset": "fig4", "params": {"omega0": 0}}, "param 'omega0' must be a positive"),
    ({"preset": "fig4", "params": {"beta": -1}}, "param 'beta' must be a positive"),
    ({"preset": "smoke", "seed": [1]}, "seed must be an integer"),
    ({"preset": "fig1", "trajectory_steps": 0}, "trajectory_steps must be >= 2, got 0"),
    ({"preset": "fig1", "trajectory_steps": 1}, "trajectory_steps must be >= 2, got 1"),
    ({"preset": "fig4", "tau": [], "scan_points": 0}, "scan_points must be >= 1, got 0"),
    ({"model": "lz", "mode": "trajectory", "ramp": 5},
     "a ramp must be a {kind, parameters} object, got 5"),
    ({"model": "lz", "mode": "trajectory", "ramp": {"kind": "polynomial"}},
     "polynomial ramp needs a 'parameters' object"),
    ({"model": "lz", "mode": "trajectory",
      "ramp": {"kind": "tan-optimal", "parameters": {"delta": 0.1, "g0": -0.2}}},
     "tan-optimal ramp parameters lack 'g1'"),
    ({"model": "lz", "mode": "trajectory",
      "ramp": {"kind": "polynomial", "parameters": {"g0": -0.2, "g_d": 0.4, "tau": "abc"}}},
     "polynomial ramp 'tau' is not a finite number: 'abc'"),
    ({"model": "lz", "mode": "trajectory",
      "ramp": {"kind": "polynomial", "parameters": {"g0": [-0.2], "g_d": 0.4, "tau": 2.0}}},
     "polynomial ramp 'g0' is not a finite number: [-0.2]"),
    ({"model": "lz", "mode": "trajectory",
      "ramp": {"kind": "polynomial", "parameters": {"g0": -0.2, "g_d": math.nan, "tau": 2.0}}},
     "polynomial ramp 'g_d' is not a finite number: nan"),
    ({"model": "lz", "mode": "trajectory",
      "ramp": {"kind": "polynomial", "parameters": {"g0": -0.2, "g_d": 0.4, "tau": True}}},
     "polynomial ramp 'tau' is not a finite number: True"),
    ({"model": "lz", "mode": "trajectory",
      "ramp": {"kind": "fourier", "parameters": {"g0": -0.2, "tau": 2.0, "coeffs": [[0.1]]}}},
     "fourier ramp 'coeffs' are not [amplitude, phase] pairs: [[0.1]]"),
    ({"model": "lz", "mode": "trajectory",
      "ramp": {"kind": "blended", "parameters": {
          "eps": 0.1, "tau": 2.0,
          "g_a": {"kind": "tanh-optimal", "parameters": {"g0": -0.2, "m": "40"}},
          "g_na": {"kind": "tan-optimal", "parameters": {"delta": 0.1, "g0": -0.2, "g1": 0.2}}}}},
     "tanh-optimal ramp 'm' is not a finite number: '40'"),
    ({"preset": "fig3", "tau": []}, "tau is empty: an lz cost scan needs at least one duration"),
    ({"preset": "smoke", "tau": []}, "tau is empty: an lz cost scan needs at least one duration"),
    ({"model": "lz", "mode": "scan"}, "tau is empty: an lz cost scan needs at least one duration"),
    ({"model": "lz", "mode": "scan", "tau": []}, "tau is empty: an lz cost scan"),
    (5, "a config must be a JSON object, got 5"),
    ({"preset": ["fig1"]}, "unknown preset ['fig1']"),
    ({"model": "lz", "mode": "trajectory", "ramp": {"kind": ["x"]}}, "unknown ramp kind ['x']"),
    ({"preset": "smoke", "out": 5}, "out must be a directory path, got 5"),
    ({"model": "lz", "tau": {"min": 1.0, "max": 2.0, "num": 3, "log": "no"}},
     "tau grid 'log' must be true or false, got 'no'"),
    ({"preset": "smoke", "params": {"g_q": 0}}, "param 'g_q' must be a positive number, got 0"),
    ({"preset": "smoke", "params": {"g1": -0.2}}, "g1 = -0.2 is too close to g0 = -0.2"),
])
def test_bad_param_values_rejected_in_one_line(raw, match, tmp_path, capsys):
    # wrong types, fractional or too small counts, non-positive oscillator
    # parameters, incomplete ramps, ramp parameters that are not finite
    # numbers (a nested ramp's too), malformed shapes and an lz scan without
    # durations end both subcommands before anything runs
    path = tmp_path / "cfg.json"
    if isinstance(raw, dict):
        raw = {"out": str(tmp_path / "o"), **raw}
    path.write_text(json.dumps(raw))
    for command in ("validate", "run"):
        assert main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {match}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("raw, match", [
    ({"preset": "fig1", "trajectory_steps": 10**6 + 1},
     "trajectory_steps must be <= 1000000, got 1000001"),
    ({"preset": "fig4", "tau": [], "scan_points": 10**6 + 1},
     "scan_points must be <= 1000000, got 1000001"),
    ({"model": "lz", "tau": {"min": 1.0, "max": 2.0, "num": 10**6 + 1}},
     "tau grid 'num' must be an integer in [1, 1000000], got 1000001"),
    ({"preset": "fig3-oc", "params": {"steps": 2**19, "n_max": 9}},
     "steps * n_max must be <= 4194304, got 524288 * 9 = 4718592"),
])
def test_counts_above_their_ceilings_are_rejected_in_one_line(raw, match, tmp_path, capsys):
    # a count of 10**9 would allocate gigabytes before the run could fail;
    # every ceiling is at least 30x what a preset or a bench workload uses
    assert input_error(tmp_path, raw, capsys) == f"error: {match}\n"
    at_ceiling = {"preset": "fig3-oc", "params": {"steps": 2**18, "n_max": 16}}
    for raw in ({"preset": "fig1", "trajectory_steps": 10**6},
                {"preset": "fig4", "tau": [], "scan_points": 10**6}, at_ceiling):
        parse_config(raw)
    _oc_problem(parse_config(at_ceiling), 25.0)


@pytest.mark.parametrize("params, match", [({"delta": 0}, "detuning delta must be nonzero"),
                                           ({"n_cut": -1}, "excitation cutoff must be >= 0")])
def test_bad_jc_config_is_invalid_and_fails_run_in_one_line(params, match, tmp_path, capsys):
    # the input stage builds the blocks' JcConfig for both subcommands, and
    # neither warns on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = input_error(tmp_path, {"preset": "fig5", "params": params}, capsys)
    assert err.startswith(f"error: {match}")


def test_integral_float_counts_are_accepted():
    cfg = parse_config({"preset": "fig3-oc", "params": {"steps": 600.0, "n_max": 4}})
    prob = _oc_problem(cfg, 25.0)
    assert (prob.steps, prob.n_max) == (600, 4) and isinstance(prob.steps, int)
    assert parse_config({"preset": "smoke", "seed": 3.0}).seed == 3


# ---------------------------------------------------------------------------
# runs

def test_column_adds_write_the_bytes_of_per_value_formatting(tmp_path):
    # the reference: one f"{float(x):.17g}" per value, one row at a time
    t = np.array([0.0, -0.0, 5e-324, 1.0 / 3.0, np.nan, 1e300, -np.inf, 2.0**-1074 * 3])
    fid = np.linspace(-1.0, 1.0, len(t)) ** 3
    nfev = np.array([0, 1, 7, 12, 360, 2**40, 5, 9])
    w = CsvWriter(tmp_path / "t.csv", ["tau", "t", "F", "nfev"], "abc")
    w.add(2.5, t, fid, nfev)              # a broadcast scalar tau beside array columns
    w.add(0.1, -0.0, np.nan, 3)           # one row of scalars
    w.add([], [], [], [])                 # no rows
    w.add(7, t[:2], list(fid[:2]), nfev[:2].tolist())
    w.write()
    rows = ([(2.5, *r) for r in zip(t, fid, nfev)] + [(0.1, -0.0, np.nan, 3)]
            + [(7, *r) for r in zip(t[:2], fid[:2], nfev[:2])])
    want = (f"# config_hash=abc ctrlcost={ctrlcost.__version__}\ntau,t,F,nfev\n"
            + "".join(",".join(f"{float(x):.17g}" for x in row) + "\n" for row in rows))
    assert (tmp_path / "t.csv").read_bytes() == want.encode()
    with pytest.raises(ValueError, match="shape mismatch"):
        w.add(1.0, t, fid[:3], nfev)
    for bad in ((1.0, t, fid), (1.0, t, np.ones((1, len(t))), nfev)):
        with pytest.raises(ValueError, match="t.csv takes 4 equal-length columns"):
            w.add(*bad)
    empty = CsvWriter(tmp_path / "e.csv", ["nfev", "q", "C"], "abc")
    empty.write()
    assert (tmp_path / "e.csv").read_text().splitlines()[1:] == ["nfev,q,C"]


def _exactness_grid() -> np.ndarray:
    """Over 10^6 seeded doubles for the CSV kernel: random bit patterns, every decade's
    mantissas, the neighbours of each power of ten and exact decimal ties."""
    rng = np.random.default_rng(20250)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    bits[:20_000] &= np.uint64(0x800F_FFFF_FFFF_FFFF)               # subnormals and +-0
    bits[20_000:22_000] |= np.uint64(0x7FF0_0000_0000_0000)         # nan payloads, +-inf
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        1e-4, -1e-4, 1e17, np.nextafter(1e17, 0.0), np.nextafter(1e-4, 0.0)])
    decades = [rng.uniform(1.0, 10.0, 24_000) * 10.0**k * rng.choice([-1.0, 1.0], 24_000)
               for k in range(-6, 20)]
    # consecutive bit patterns are consecutive doubles: 2,000 neighbours of each 10^k
    powers = np.array([10.0**k for k in range(-5, 19)])
    near = (powers.view(np.int64)[:, None] + np.arange(-1_000, 1_001)).view(np.float64).ravel()
    # N 2^-q with N odd and N 5^q of 18 digits: 18 significant digits ending in 5, a tie at 17
    ties = []
    for q in range(2, 26):   # 5^26 > 10^18
        lo, hi = max(1, -(-10**17 // 5**q)), min(2**53, 10**18 // 5**q)
        if lo < hi:
            odd = rng.integers(lo, hi, 6_000, dtype=np.int64) | 1
            ties.append(np.ldexp(odd.astype(float), -q) * rng.choice([-1.0, 1.0], len(odd)))
    return np.concatenate([bits.view(np.float64), special, *decades, near, -near, *ties])


def test_csv_kernel_writes_the_bytes_of_per_row_formatting(tmp_path):
    x = _exactness_grid()
    assert len(x) >= 10**6
    table = x[:len(x) - len(x) % 5].reshape(-1, 5)
    w = CsvWriter(tmp_path / "x.csv", list("abcde"), "abc")
    w.add(*table.T)
    w.write()
    head, columns, body = (tmp_path / "x.csv").read_bytes().split(b"\n", 2)
    assert columns == b"a,b,c,d,e"
    assert body == percent_rows(table)


def test_csv_kernel_decade_edges_are_the_least_doubles_at_or_above_each_power():
    # the kernel reads e = floor(log10 |x|) off these edges with exact comparisons
    from fractions import Fraction
    from ctrlcost.cli import _E_EDGES
    for j, edge in zip(range(-3, 17), _E_EDGES.tolist()):
        assert Fraction(edge) >= Fraction(10) ** j > Fraction(np.nextafter(edge, 0.0)), j


def test_smoke_run_outputs(tmp_path):
    cfg = parse_config({"preset": "smoke", "out": str(tmp_path / "a")})
    outdir = run(cfg)
    scan = (outdir / "cost_scan.csv").read_text().splitlines()
    assert scan[0].startswith(f"# config_hash={cfg.digest()}")
    assert scan[1] == "tau,C_cd,C_lcd"
    assert len(scan) == 2 + 2
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["tau_qsl"] == pytest.approx(22.142974355881808)
    assert "bob" in summary


def test_rerun_is_byte_identical(tmp_path):
    out1 = run(parse_config({"preset": "smoke", "out": str(tmp_path / "a")}))
    out2 = run(parse_config({"preset": "smoke", "out": str(tmp_path / "b")}))
    for name in ("cost_scan.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_oscillator_invalid_cell_recorded_not_fatal(tmp_path):
    # CD is impossible at tau = 1.0 (trap inversion): the cell is skipped and
    # recorded, the run still succeeds
    cfg = parse_config({"model": "oscillator", "protocols": ["cd", "ie"],
                        "tau": [1.0, 2.5], "out": str(tmp_path / "o")})
    outdir = run(cfg)
    rows = (outdir / "cost_scan.csv").read_text().splitlines()[2:]
    first = rows[0].split(",")
    assert first[0] == "1"
    assert first[1] == "nan"          # CD cell invalid
    assert float(first[2]) > 0        # IE fine
    summary = json.loads((outdir / "summary.json").read_text())
    assert any(e["protocol"] == "cd" for e in summary.get("invalid", []))


def test_threads_do_not_change_output(tmp_path):
    out1 = run(parse_config({"preset": "smoke", "out": str(tmp_path / "a")}), threads=1)
    out2 = run(parse_config({"preset": "smoke", "out": str(tmp_path / "b")}), threads=4)
    assert (out1 / "cost_scan.csv").read_bytes() == (out2 / "cost_scan.csv").read_bytes()


def test_fig1_bob_rows_sit_at_their_times_off_preset(tmp_path):
    # at these inputs the kick edges used to cost the BOB grid a node, and the
    # run failed with an IndexError; elsewhere its rows drifted off the t column
    delta, g, g_q = 0.10044, 0.19476, 100.0
    cfg = parse_config({"preset": "fig1", "out": str(tmp_path / "o"),
                        "params": {"delta": delta, "g0": -g, "g1": g, "g_q": g_q}})
    outdir = run(cfg)
    summary = json.loads((outdir / "summary.json").read_text())
    tqsl, bob = summary["tau_qsl"], summary["bob"]
    rate = read_csv(outdir / "cost_rate.csv")
    at_qsl = rate["tau"] == tqsl
    t, dc = rate["t"][at_qsl], rate["dC_bob"][at_qsl]
    kick = (t < bob["phi1"] / g_q) | (t > tqsl - bob["phi2"] / g_q)
    ref = np.where(kick, math.sqrt((delta**2 + g_q**2) / 2.0), delta / math.sqrt(2.0))
    assert t.size > 1000
    assert np.max(np.abs(dc - ref) / ref) < 1e-12
    fid = read_csv(outdir / "fidelity.csv")
    at_qsl = fid["tau"] == tqsl
    assert fid["t"][at_qsl][-1] == tqsl
    assert fid["F_bob"][at_qsl][-1] == pytest.approx(bob["fidelity"], abs=1e-9)


def test_fig4_qstar_rows_end_at_tau(tmp_path):
    cfg = parse_config({"preset": "fig4", "protocols": ["ie"], "tau": [2.0],
                        "out": str(tmp_path / "o")})
    outdir = run(cfg)
    for tau in (1.6, 2.5):
        table = read_csv(outdir / f"qstar_tau{tau:g}.csv")
        assert table["t"][-1] == tau
        assert np.all(np.diff(table["t"]) > 0)
        # both curves take the 4,000-step floor of the step rule: every node is written
        t = [line.split(",")[0] for line in
             (outdir / f"qstar_tau{tau:g}.csv").read_text().splitlines()[2:]]
        assert t == ["%.17g" % x for x in np.linspace(0.0, tau, 4001)]


def test_fig4_runs_where_the_cd_edge_is_below_half(tmp_path, capsys):
    # omega 2 -> 3 puts the CD validity edge near 0.161, below the bracket
    # the bisection used to start from; validate and run must agree
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "fig4", "protocols": ["ie"], "tau": [2.0],
                                "params": {"omega0": 2.0, "omega1": 3.0},
                                "out": str(tmp_path / "o")}))
    assert main(["validate", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"]
    assert main(["run", "--config", str(path)]) == 0
    edge = json.loads((tmp_path / "o" / "summary.json").read_text())["cd_validity_edge"]
    # closed form: max over x of 15 |w1 - w0| x^2 (1 - x)^2 / w(x)^2
    x = np.linspace(0.0, 1.0, 200_001)
    w = 2.0 + (10 * x**3 - 15 * x**4 + 6 * x**5)
    assert edge == pytest.approx(np.max(15.0 * x**2 * (1 - x) ** 2 / w**2), abs=1e-4)


def test_explicit_scan_mode_beats_the_fig1_preset(tmp_path):
    # a preset supplies only the default mode: fig1 told to scan scans
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "fig1", "mode": "scan", "tau": [1.0, 5.0],
                                "protocols": ["cd", "lcd"], "out": str(tmp_path / "o")}))
    assert main(["run", "--config", str(path)]) == 0
    names = {p.name for p in (tmp_path / "o").iterdir()}
    assert "cost_scan.csv" in names
    assert "fidelity.csv" not in names


def test_default_trajectory_rows_are_every_uniform_node(tmp_path):
    # at the default 4,000 steps every grid node is written, so each t column
    # is linspace(0, tau, 4001) to the byte (fig5's trajectories run at tau = 10)
    for preset, names in (("fig1", ("fidelity.csv", "cost_rate.csv", "spectra.csv")),
                          ("fig5", ("fidelity_n0.csv", "fidelity_coherent.csv"))):
        outdir = run(parse_config({"preset": preset, "out": str(tmp_path / preset)}))
        for name in names:
            lines = (outdir / name).read_text().splitlines()
            cols = lines[1].split(",")
            t_of = {}
            for row in (line.split(",") for line in lines[2:]):
                tau = row[0] if cols[0] == "tau" else "10"
                t_of.setdefault(tau, []).append(row[cols.index("t")])
            assert len(t_of) == (2 if preset == "fig1" else 1)
            for tau, t in t_of.items():
                assert t == ["%.17g" % x for x in np.linspace(0.0, float(tau), 4001)], name


def test_fig4_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every Simpson cost is a row sum: the BLAS dot it replaced split the
    # oscillator's long sums differently on 1 and 2 threads
    src = str(Path(ctrlcost.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    procs = [subprocess.Popen([sys.executable, "-m", "ctrlcost.cli", "run", "fig4",
                               "--out", str(tmp_path / n)],
                              env={**env, "OPENBLAS_NUM_THREADS": n}, stdout=subprocess.DEVNULL)
             for n in ("1", "2")]
    assert [p.wait() for p in procs] == [0, 0]
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert "cost_scan.csv" in names
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_fig3_oc_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OC runs on numpy alone, and its matrix-vector products are einsum loops
    # (oc._mv), which run on the calling thread whatever the BLAS pool's size,
    # so a short fig3-oc run writes the same bytes at 1 and 2 threads
    src = str(Path(ctrlcost.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    config = tmp_path / "oc.json"
    config.write_text(json.dumps({"preset": "fig3-oc", "tau": [25.0],
                                  "params": {"n_max": 16, "budget": 50}}))
    procs = [subprocess.Popen([sys.executable, "-m", "ctrlcost.cli", "run", "--config",
                               str(config), "--out", str(tmp_path / n)],
                              env={**env, "OPENBLAS_NUM_THREADS": n}, stdout=subprocess.DEVNULL)
             for n in ("1", "2")]
    assert [p.wait() for p in procs] == [0, 0]
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert "oc_results.json" in names
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_fig3_crossover_matches_a_fresh_scan(tmp_path):
    cfg = parse_config({"preset": "fig3", "out": str(tmp_path / "o")})
    summary = json.loads((run(cfg) / "summary.json").read_text())
    base = LzConfig(tau=cfg.tau[0])
    assert summary["crossover_cd_lcd"] == find_cd_lcd_crossover(base, cfg.tau)


def test_fig5_crossover_matches_a_fresh_scan(tmp_path):
    cfg = parse_config({"preset": "fig5", "out": str(tmp_path / "o"),
                        "tau": [5.0, 10.0, 20.0, 40.0], "trajectory_steps": 1000,
                        "params": {"alpha": 2.0, "n_cut": 30}})
    summary = json.loads((run(cfg) / "summary.json").read_text())
    assert summary["crossover_n0"] == find_jc_crossover(JcConfig(tau=10.0), taus=cfg.tau)


def test_fig5_crossover_is_null_outside_the_configured_durations(tmp_path):
    # tau* ~ 16.6 lies below [20, 40]: nothing to bracket, and no wider scan is made
    cfg = parse_config({"preset": "fig5", "out": str(tmp_path / "o"),
                        "tau": [20.0, 40.0], "trajectory_steps": 1000,
                        "params": {"alpha": 2.0, "n_cut": 30}})
    assert json.loads((run(cfg) / "summary.json").read_text())["crossover_n0"] is None


def test_import_and_numpy_presets_leave_scipy_unloaded(tmp_path):
    # only the test oracles load scipy; optimal control runs on numpy alone
    code = ("import sys\n"
            "from ctrlcost.cli import parse_config, run\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            "for name in ('smoke', 'fig1', 'fig3', 'fig4', 'fig5', 'fig3-oc'):\n"
            "    run(parse_config({'preset': name, 'out': sys.argv[1] + '/' + name}))\n"
            "    print(name, loaded())\n")
    src = str(Path(ctrlcost.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split("\n") == ["[]", "smoke []", "fig1 []", "fig3 []", "fig4 []",
                                        "fig5 []", "fig3-oc []", ""]


# ---------------------------------------------------------------------------
# entry point

def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


def test_validate_subcommand(capsys):
    assert main(["validate", "fig4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"]


def test_main_errors_on_missing_input(capsys):
    assert main(["run"]) == 2
    assert "preset" in capsys.readouterr().err


def test_main_errors_on_unknown_preset(capsys):
    assert main(["run", "fig9"]) == 2


def test_threads_flag_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["run", "smoke", "--threads", "2", "--out", str(tmp_path / "o")])
    assert err.value.code == 2
    assert not (tmp_path / "o").exists()


def test_flag_wins_over_config_which_wins_over_default(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "smoke", "seed": 5, "out": str(tmp_path / "config")}))
    assert main(["run", "--config", str(path), "--seed", "3", "--out", str(tmp_path / "flag")]) == 0
    assert json.loads((tmp_path / "flag" / "summary.json").read_text())["seed"] == 3
    assert not (tmp_path / "config").exists()
    assert main(["run", "--config", str(path)]) == 0
    assert json.loads((tmp_path / "config" / "summary.json").read_text())["seed"] == 5
    assert main(["run", "smoke", "--out", str(tmp_path / "default")]) == 0
    assert json.loads((tmp_path / "default" / "summary.json").read_text())["seed"] == 0


def test_validate_exits_nonzero_when_invalid(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "oscillator", "tau": [1.0]}))
    assert main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["valid"] is False
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "cd_validity tau=1" in captured.err


def test_main_runs_the_input_stage_once(tmp_path, monkeypatch):
    from ctrlcost import cli
    calls = []
    check = cli._check_inputs
    monkeypatch.setattr(cli, "_check_inputs", lambda cfg: calls.append(cfg.out) or check(cfg))
    assert main(["run", "smoke", "--out", str(tmp_path / "o")]) == 0
    assert calls == [str(tmp_path / "o")]


def test_main_run_smoke(tmp_path, capsys):
    rc = main(["run", "smoke", "--out", str(tmp_path / "o"), "--seed", "3"])
    assert rc == 0
    assert (tmp_path / "o" / "summary.json").exists()


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_unusable_out_directory_fails_in_one_line(out, tmp_path, capsys):
    # --out at an existing file raised FileExistsError, and below one NotADirectoryError,
    # each as a traceback out of the output directory's mkdir
    (tmp_path / "file").write_text("kept\n")
    assert main(["run", "smoke", "--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert (tmp_path / "file").read_text() == "kept\n"


def test_config_file_run(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "lz", "protocols": ["cd"],
                                "tau": [2.0], "out": str(tmp_path / "o")}))
    assert main(["run", "--config", str(path)]) == 0
    lines = (tmp_path / "o" / "cost_scan.csv").read_text().splitlines()
    assert lines[1] == "tau,C_cd"


def test_custom_ramp_trajectory_run(tmp_path):
    ramp = {"kind": "fourier", "parameters": {"g0": -0.2, "tau": 2.0,
                                              "coeffs": [[0.05, 0.0]]}}
    cfg = parse_config({"model": "lz", "mode": "trajectory", "protocols": ["cd"],
                        "tau": [2.0], "ramp": ramp, "out": str(tmp_path / "o"),
                        "trajectory_steps": 2000})
    outdir = run(cfg)
    assert (outdir / "fidelity.csv").exists()


def test_custom_ramp_guards(tmp_path, capsys):
    ramp = {"kind": "polynomial", "parameters": {"g0": -0.2, "g_d": 0.4, "tau": 2.0}}
    for raw, match in (({"model": "jc", "ramp": ramp},
                        "a custom ramp is only supported for the lz"),
                       ({"model": "lz", "mode": "scan", "protocols": ["cd"], "tau": [2.0],
                         "ramp": ramp}, "a custom ramp requires mode='trajectory'"),
                       ({"model": "lz", "mode": "trajectory", "protocols": ["cd"], "tau": [3.0],
                         "ramp": ramp}, "custom ramp duration 2.0 differs from tau=3.0")):
        assert input_error(tmp_path, raw, capsys).startswith(f"error: {match}")


# ---------------------------------------------------------------------------
# mutated presets

def _mutations(st, presets):
    """(raw config, its preset): one key or model param of a preset replaced by a
    value of the wrong type, a negative number, zero or NaN. Numbers stay within
    64: a count up to its ceiling of 10**6 is valid, and a run that long would be slow."""
    small = st.integers(-64, 64)
    values = st.one_of(
        st.text(max_size=4), st.booleans(), st.none(),
        st.lists(st.one_of(small, st.text(max_size=2)), max_size=3),
        st.dictionaries(st.sampled_from(["min", "max", "num", "log", "kind", "parameters"]),
                        small, max_size=3),
        st.integers(-64, -1), st.floats(-64.0, -1e-3), st.sampled_from([0, 0.0, math.nan]))

    @st.composite
    def mutation(draw):
        name = draw(st.sampled_from(presets))
        params = sorted(_MODEL_KEYS[PRESETS[name]["model"]])
        key = draw(st.sampled_from(sorted(_TOP_KEYS) + [f"params.{p}" for p in params]))
        # a string out would be a directory to write to
        value = draw(values.filter(lambda v: not isinstance(v, str)) if key == "out" else values)
        if key.startswith("params."):
            return {"preset": name, "params": {key[len("params."):]: value}}, name
        return {"preset": name, key: value}, name

    return mutation()


def _fuzz(capsys, tmp_path, presets, max_examples):
    """Validate every mutation: exit 0, 1 or 2 with at most one error line; run
    each mutation of smoke that validates, which must then exit 0."""
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / "cfg.json"

    @hypothesis.settings(max_examples=max_examples, deadline=None)
    @hypothesis.given(_mutations(hypothesis.strategies, presets))
    def check(case):
        raw, name = case
        path.write_text(json.dumps(raw))
        code = main(["validate", "--config", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), raw
        assert err == "" if code == 0 else err.startswith("error: ") and err.count("\n") == 1
        if code == 0 and name == "smoke":
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0, raw
            capsys.readouterr()
            shutil.rmtree(tmp_path / "o")

    check()


def test_mutated_presets_fail_validate_in_one_line(capsys, tmp_path):
    _fuzz(capsys, tmp_path, sorted(PRESETS), 150)


def test_mutated_smoke_that_validates_runs(capsys, tmp_path):
    _fuzz(capsys, tmp_path, ["smoke"], 100)
