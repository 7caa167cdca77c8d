"""One fresh benchmark process: set up, then run a workload's rounds.

    python3 bench/worker.py setup --workload W --seed N
    python3 bench/worker.py run --workload W --seed N --seconds S --trace 0|1 --out DIR

Set-up is everything a CLI call pays before its first step: importing
ctrlcost (numpy, scipy) and parsing the workload's configs. ``run`` then
repeats whole rounds of the workload until ``--seconds`` have passed (at
least one round). A round drives ``ctrlcost.cli.run`` once per config, with
one thread, writing into DIR/round<k>/<name>/. Untraced, every time is also
given at the reference host speed (bench/speed.py): set-up from kernel
samples taken right after it, each round from samples taken during it. The
process prints one JSON line. bench/run.py starts it with the numeric thread
pools pinned to one.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

SETUP_KERNELS = 20  # kernel samples after each set-up, about 90 ms


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    runs = workloads.configs(args.workload, args.seed)
    from ctrlcost import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported ctrlcost from {cli.__file__}, not from {SRC}")
    for _, raw in runs:
        cli.parse_config(raw)
    setup_s = time.perf_counter() - T0
    import speed
    if args.mode == "setup":
        speed.kernel()  # first call warms numpy's ufunc loops
        kernel_s = [speed.kernel() for _ in range(SETUP_KERNELS)]
        print(json.dumps({"setup_s": setup_s * speed.factor(kernel_s), "raw_setup_s": setup_s,
                          "kernel_ms": 1e3 * sum(kernel_s) / len(kernel_s)}))
        return 0

    tracer = sampler = None
    if args.trace:
        import spans
        tracer = spans.install()
    else:
        sampler = speed.Sampler()
        sampler.start()
    out = Path(args.out)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rdir = out / f"round{len(rounds)}"
        if tracer is not None:
            tracer.begin_round()
        mark = sampler.mark() if sampler is not None else None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for name, raw in runs:
            cli.run(cli.parse_config(dict(raw, out=str(rdir / name))), threads=1)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            rounds.append({"wall_s": wall, "cpu_s": cpu, "layers": tracer.end_round()})
        else:
            rounds.append(sampler.scale(mark, wall, cpu))
        if len(rounds) == 1:
            # ru_maxrss is in KiB on Linux. Later rounds add only allocator
            # growth, and how many rounds fit in a run depends on the host.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if sampler is not None:
        sampler.stop()
    if tracer is not None:
        tracer.write(out / "spans.csv")
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "rounds": rounds}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
