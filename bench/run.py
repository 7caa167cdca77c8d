"""Benchmark of the ctrlcost CLI. Run from the repository root:

    python3 bench/run.py --workload oc-fourier|trajectories|cost-scans \\
        --seed N --seconds S --trace 0|1

Each run starts fresh processes with the numeric thread pools pinned to one
(bench/worker.py): with ``--trace 0`` it first times set-up in several of
them, then one process runs whole rounds of the workload for ``--seconds``
as a closed loop. Every round's output files are then checked against
computations made apart from the program (bench/checks.py); one checked
result is one operation. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over the run's rounds;
set-up as the median of its samples), with every time given at the reference
host speed (bench/speed.py), ``--trace 1`` the per-layer metrics of a traced
run (bench/spans.py), with times as measured. ``correct`` is false when two
rounds of the same inputs wrote different bytes. Result, check and span files
go to bench/out/<workload>/, which git ignores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CTRLCOST_") and k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update({k: "1" for k in PINNED})
    return env


def worker(args: list, env: dict) -> dict:
    """Run bench/worker.py in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker {' '.join(args[:3])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description="ctrlcost CLI benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "ctrlcost" / "cli.py").is_file():
        print(f"error: no src/ctrlcost/cli.py under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    configs = workloads.configs(args.workload, args.seed)
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    if not args.trace:
        worker(["setup", *common], env)  # untimed: byte-compiles a fresh checkout
        setup = [worker(["setup", *common], env) for _ in range(SETUP_SAMPLES)]
    run = worker(["run", *common, "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--out", str(out)], env)
    rounds = run["rounds"]

    import checks
    verdicts, digests, attempted, failed = {}, [], 0, []
    for k in range(len(rounds)):
        d = digest(out / f"round{k}")
        digests.append(d)
        if d not in verdicts:  # identical bytes give identical verdicts
            verdicts[d] = checks.check_round(out / f"round{k}", configs).results
        attempted += len(verdicts[d])
        failed += [f"round{k} {name}: {detail}" for name, ok, detail in verdicts[d] if not ok]
    for line in failed[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    if args.trace:
        layers = [r["layers"] for r in rounds]
        metrics = {}
        for name, unit in spans.PER_LAYER:
            if name in layers[0]:
                # counts repeat exactly from round to round; times take the median
                median = statistics.median_low if unit in ("count", "bytes") else statistics.median
                metrics[name] = {"value": median(l[name] for l in layers), "unit": unit}
        metrics["trace.wall_s"] = {"value": statistics.median(r["wall_s"] for r in rounds),
                                   "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setup), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": len(set(digests)) == 1, "attempted": attempted,
              "failed": len(failed), "metrics": metrics}
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "setup_samples": setup,
                   "rounds": rounds, "peak_rss_mb": run["peak_rss_mb"],
                   "failed_checks": failed}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
