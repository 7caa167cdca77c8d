"""Measure the README's reference figures again. Run from the repository root:

    python3 bench/reference.py [--seeds 10] [--trace]

Runs bench/run.py once per seed (1..N) and workload, one run at a time, for
the ``run_seconds`` that BENCHMARK.json gives, and prints per workload the
median and quartile spread (IQR / median, from ``statistics.quantiles(values,
n=4)``) of every end-to-end metric, the share of failed operations, and the
wall time of the whole run. With ``--trace`` it also makes one traced run per
seed and prints the per-layer medians and the tracing overhead (traced wall_s
minus untraced raw wall time, as traced runs are not scaled to the reference
host speed). Every run's JSON line is appended to
bench/out/reference.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - start


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    (HERE / "out").mkdir(exist_ok=True)
    log = open(HERE / "out" / "reference.jsonl", "a", encoding="utf-8")
    for workload in workloads.WORKLOADS:
        runs = {0: [], 1: []}
        for seed in range(1, args.seeds + 1):
            for trace in (0, 1) if args.trace else (0,):
                result, elapsed = bench(workload, seed, seconds, trace)
                runs[trace].append(result)
                with open(HERE / "out" / workload / "result.json", encoding="utf-8") as fh:
                    rounds = json.load(fh)["rounds"]
                raw = [r.get("raw_wall_s", r["wall_s"]) for r in rounds]
                result["raw_wall_s"] = statistics.median(raw)
                log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                      "elapsed_s": elapsed, "round_raw_wall_s": raw,
                                      **result}) + "\n")
                log.flush()
                print(f"{workload} seed={seed} trace={trace} {elapsed:.1f} s "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        print(f"## {workload} ({args.seeds} seeds, {seconds} s runs)")
        print(f"failed share: {sorted({r['failed'] / r['attempted'] for r in runs[0]})}, "
              f"correct: {all(r['correct'] for r in runs[0])}")
        for name in runs[0][0]["metrics"]:
            med, iqr = spread([r["metrics"][name]["value"] for r in runs[0]])
            print(f"  {name:12s} median {med:.4g} {runs[0][0]['metrics'][name]['unit']}, "
                  f"IQR/median {iqr:.2%}")
        med, iqr = spread([r["raw_wall_s"] for r in runs[0]])
        print(f"  {'raw wall':12s} median {med:.4g} s, IQR/median {iqr:.2%}")
        if args.trace:
            wall = statistics.median(r["raw_wall_s"] for r in runs[0])
            traced = statistics.median(r["metrics"]["trace.wall_s"]["value"] for r in runs[1])
            print(f"  tracing overhead: {traced - wall:+.3f} s ({traced / wall - 1:+.1%})")
            for name, m in runs[1][0]["metrics"].items():
                med = statistics.median(r["metrics"][name]["value"] for r in runs[1])
                if med:
                    print(f"  {name:45s} {med:.6g} {m['unit']}")
    log.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
