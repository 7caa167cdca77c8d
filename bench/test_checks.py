"""The benchmark's own test: its checks pass on the program's outputs and
catch a perturbed output on every workload.

    python3 -m pytest bench/test_checks.py -q

Runs each workload's configs once at seed 0 (about half a minute in all).
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{workload: round directory} with one round of each workload at seed 0."""
    from ctrlcost import cli
    made = {}
    for workload in workloads.WORKLOADS:
        rdir = tmp_path_factory.mktemp(workload)
        for name, raw in workloads.configs(workload, 0):
            cli.run(cli.parse_config(dict(raw, out=str(rdir / name))), threads=1)
        made[workload] = rdir
    return made


def failures(rdir, workload):
    return checks.check_round(rdir, workloads.configs(workload, 0)).failed


def perturbed_copy(src, tmp_path):
    dst = tmp_path / "perturbed"
    shutil.copytree(src, dst)
    return dst


def edit_csv(path, column, row, change):
    """Apply change(float) -> float to one CSV cell, written back as %.17g."""
    lines = path.read_text(encoding="utf-8").splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[head].split(",").index(column)
    fields = lines[head + 1 + row].split(",")
    fields[col] = f"{change(float(fields[col])):.17g}"
    lines[head + 1 + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_on_program_outputs(outputs, workload):
    assert failures(outputs[workload], workload) == []


def test_cost_scan_value_off_by_1e6_relative_fails(outputs, tmp_path):
    rdir = perturbed_copy(outputs["cost-scans"], tmp_path)
    edit_csv(rdir / "fig3" / "cost_scan.csv", "C_cd", 150, lambda c: c * (1.0 + 1e-6))
    names = [name for name, _, _ in failures(rdir, "cost-scans")]
    assert len(names) == 1 and names[0].endswith("C_cd"), names


def test_oc_amplitude_change_fails(outputs, tmp_path):
    rdir = perturbed_copy(outputs["oc-fourier"], tmp_path)
    path = rdir / "fig3-oc" / "oc_results.json"
    records = json.loads(path.read_text(encoding="utf-8"))
    records[1]["best_params"][2] += 1e-3
    path.write_text(json.dumps(records), encoding="utf-8")
    names = [name for name, _, _ in failures(rdir, "oc-fourier")]
    assert names and all("tau=50" in n for n in names), names


def test_fidelity_entry_off_by_1e6_fails(outputs, tmp_path):
    rdir = perturbed_copy(outputs["trajectories"], tmp_path)
    edit_csv(rdir / "fig1" / "fidelity.csv", "F_cd", 2000, lambda f: f - 1e-6)
    names = [name for name, _, _ in failures(rdir, "trajectories")]
    assert len(names) == 1 and "F_cd along trajectory" in names[0], names


def test_bob_rate_row_at_another_time_fails(outputs, tmp_path):
    # row 2 of fig1's tau_QSL block lies inside the first kick; give it the
    # rate of the free segment, as a BOB grid offset from the t column would
    rdir = perturbed_copy(outputs["trajectories"], tmp_path)
    edit_csv(rdir / "fig1" / "cost_rate.csv", "dC_bob", 2, lambda c: 0.1 / 2 ** 0.5)
    names = [name for name, _, _ in failures(rdir, "trajectories")]
    assert names == ["fig1 bob cost rate along trajectory"], names


def test_missing_file_fails_not_raises(outputs, tmp_path):
    rdir = perturbed_copy(outputs["cost-scans"], tmp_path)
    (rdir / "fig4" / "summary.json").unlink()
    assert failures(rdir, "cost-scans")


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "cpu_s", "setup_s",
                                                       "peak_rss_mb"]
