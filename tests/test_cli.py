"""CLI runner: config parsing, validation, presets, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ctrlcost
from ctrlcost.cli import parse_config, validate, run, PRESETS, main, _oc_problem, CsvWriter
from ctrlcost.landau_zener import LzConfig, find_cd_lcd_crossover
from ctrlcost.jaynes_cummings import JcConfig, find_jc_crossover


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True, skip_header=1)


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
           "params": {"g1": 0.3}, "out": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    checks = {c["check"]: c for c in json.loads(captured.out)["checks"]}
    assert not checks["cd-blend boundary"]["ok"]
    assert "boundary mismatch" in checks["cd-blend boundary"]["detail"]
    assert captured.err == "error: invalid config, failed checks: cd-blend boundary\n"
    # run fails on the same config, as validate said it would
    assert main(["run", "--config", str(path)]) == 1
    assert "boundary mismatch" in capsys.readouterr().err
    # trajectories run cd-blend too, so the boundary check holds in both modes
    trajectory = {**raw, "mode": "trajectory"}
    assert not validate(parse_config(trajectory))["valid"]
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


def test_custom_ramp_validation_matches_run(tmp_path):
    ramp = {"kind": "polynomial", "parameters": {"g0": -0.2, "g_d": 0.4, "tau": 2.0}}
    base = {"model": "lz", "protocols": ["cd"], "ramp": ramp, "out": str(tmp_path / "o")}
    for change, failed in (({"mode": "scan", "tau": [2.0]}, "ramp needs trajectory mode"),
                           ({"mode": "trajectory", "tau": [2.0, 3.0]}, "ramp duration tau=3"),
                           ({}, "ramp duration tau=0.1")):   # tau_QSL and 0.1 by default
        cfg = parse_config({**base, **change})
        report = validate(cfg)
        assert not report["valid"]
        assert failed in [c["check"] for c in report["checks"] if not c["ok"]]
        with pytest.raises(ValueError):
            run(cfg)
    assert validate(parse_config({**base, "mode": "trajectory", "tau": [2.0]}))["valid"]


def test_oscillator_cd_below_edge_flagged():
    cfg = parse_config({"model": "oscillator", "tau": [1.0]})
    report = validate(cfg)
    assert not report["valid"]
    checks = {c["check"]: c["ok"] for c in report["checks"]}
    assert checks["cd_validity tau=1"] is False


def test_jc_large_alpha_tail_flagged():
    cfg = parse_config({"model": "jc", "params": {"alpha": 5.0, "n_cut": 40}})
    report = validate(cfg)
    assert not report["valid"]


def test_oc_below_qsl_flagged():
    cfg = parse_config({"model": "oc", "tau": [10.0]})
    report = validate(cfg)
    assert not report["valid"]


@pytest.mark.parametrize("params", [{"n_max": 0}, {"steps": 1}, {"budget": 0},
                                    {"q_target": -1}])
def test_bad_oc_problem_is_invalid_and_fails_run_in_one_line(params, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "fig3-oc", "params": params,
                                "out": str(tmp_path / "o")}))
    assert main(["validate", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert [c["ok"] for c in report["checks"]] == [False] * 3
    assert err.startswith("error: invalid config") and err.count("\n") == 1
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert next(iter(params)) in err
    assert not (tmp_path / "o" / "oc_results.csv").exists()


def test_oc_sweep_off_minus_g0_is_invalid_and_fails_run(tmp_path, capsys):
    # the Fourier ansatz ends at -g0, so g1 = 0.35 would be ignored, not reached
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "fig3-oc", "params": {"g1": 0.35},
                                "out": str(tmp_path / "o")}))
    assert main(["validate", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    checks = json.loads(out)["checks"]
    assert [c["ok"] for c in checks] == [False] * 3
    assert all("g1 must be 0.2, got 0.35" in c["detail"] for c in checks)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "g1 must be 0.2" in err and err.count("\n") == 1
    assert not (tmp_path / "o" / "oc_results.csv").exists()


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
])
def test_bad_param_values_rejected_in_one_line(raw, match, tmp_path, capsys):
    # wrong types, fractional or too small counts, non-positive oscillator
    # parameters, incomplete ramps, ramp parameters that are not finite
    # numbers (a nested ramp's too) and an lz scan without durations end both
    # subcommands before anything runs
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**raw, "out": str(tmp_path / "o")}))
    for command in ("validate", "run"):
        assert main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {match}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("params, match", [({"delta": 0}, "detuning delta must be nonzero"),
                                           ({"n_cut": -1}, "excitation cutoff must be >= 0")])
def test_bad_jc_config_is_invalid_and_fails_run_in_one_line(params, match, tmp_path, capsys):
    # validate builds the blocks' JcConfig, so it rejects what run rejects,
    # and neither warns on the way
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": "fig5", "params": params, "out": str(tmp_path / "o")}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err == "error: invalid config, failed checks: jc config\n"
        assert [(c["check"], c["ok"]) for c in json.loads(out)["checks"]] == [("jc config", False)]
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {match}") and err.count("\n") == 1
    assert not list((tmp_path / "o").glob("*"))


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
    # only optimal control and the test oracles load scipy
    code = ("import sys\n"
            "from ctrlcost.cli import parse_config, run\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            "for name in ('smoke', 'fig1', 'fig3', 'fig4', 'fig5'):\n"
            "    run(parse_config({'preset': name, 'out': sys.argv[1] + '/' + name}))\n"
            "    print(name, loaded())\n")
    src = str(Path(ctrlcost.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split("\n") == ["[]", "smoke []", "fig1 []", "fig3 []", "fig4 []",
                                        "fig5 []", ""]


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


@pytest.mark.parametrize("name", ["SEED"])
def test_main_errors_on_non_integer_env_setting(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(f"CTRLCOST_{name}", "abc")
    assert main(["run", "smoke", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"CTRLCOST_{name}" in err
    assert not (tmp_path / "o").exists()


def test_flag_wins_over_env_which_wins_over_default(tmp_path, monkeypatch):
    monkeypatch.setenv("CTRLCOST_SEED", "5")
    monkeypatch.setenv("CTRLCOST_OUT", str(tmp_path / "env"))
    assert main(["run", "smoke", "--seed", "3", "--out", str(tmp_path / "flag")]) == 0
    assert json.loads((tmp_path / "flag" / "summary.json").read_text())["seed"] == 3
    assert not (tmp_path / "env").exists()
    assert main(["run", "smoke"]) == 0
    assert json.loads((tmp_path / "env" / "summary.json").read_text())["seed"] == 5
    monkeypatch.delenv("CTRLCOST_SEED")
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


def test_main_run_smoke(tmp_path, capsys):
    rc = main(["run", "smoke", "--out", str(tmp_path / "o"), "--seed", "3"])
    assert rc == 0
    assert (tmp_path / "o" / "summary.json").exists()


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


def test_custom_ramp_guards():
    ramp = {"kind": "polynomial", "parameters": {"g0": -0.2, "g_d": 0.4, "tau": 2.0}}
    with pytest.raises(ValueError, match="only supported for the lz"):
        parse_config({"model": "jc", "ramp": ramp})
    cfg = parse_config({"model": "lz", "mode": "scan", "protocols": ["cd"],
                        "tau": [2.0], "ramp": ramp})
    with pytest.raises(ValueError, match="mode='trajectory'"):
        run(cfg)
    cfg = parse_config({"model": "lz", "mode": "trajectory", "protocols": ["cd"],
                        "tau": [3.0], "ramp": ramp})
    with pytest.raises(ValueError, match="differs from tau"):
        run(cfg)
