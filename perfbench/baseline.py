"""Run the benchmark over several seeds and report each metric's spread.

Usage:
    python3 perfbench/baseline.py [--seeds 1-10] [--workloads sweep,odd-mmm]
        [--write perfbench/baseline.json --label TEXT]

For every workload and seed it runs ``run.py --trace 0`` once, then prints
each end-to-end metric's median, quartiles and interquartile range as a
share of the median, next to the metric's bound from BENCHMARK.json, and
the median share of failed queries.  With ``--write`` it also makes one
traced run per workload and records the medians, quartiles, tracing
overhead and the interaction table as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys

import layers
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace):
    cmd = [
        sys.executable,
        str(run.BENCH / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[0], json.loads(proc.stdout.splitlines()[-1])


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--write", metavar="PATH")
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    record = {"label": args.label, "seeds": args.seeds, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        failed_frac = []
        for seed in args.seeds:
            header, out = bench(workload, seed, 0)
            if not out["correct"]:
                raise SystemExit(f"{workload} seed {seed}: wrong results")
            failed_frac.append(out["failed"] / out["attempted"])
            for name in bounds:
                values[name].append(out["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        stats = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            stats[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(
                f"  {workload:<14} {name:<12} median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}"
                f"  spread {spread:.4f}  bound {bounds[name]}  {flag}",
                flush=True,
            )
        print(f"  {workload:<14} failed_frac  median {statistics.median(failed_frac):.4f}", flush=True)
        record["workloads"][workload] = {"end_to_end": stats, "failed_frac": failed_frac}
        if args.write:
            _, traced = bench(workload, args.seeds[0], 1)
            record["workloads"][workload]["trace"] = {
                name: traced["metrics"][name]["value"] for name, _ in layers.TRACE
            }
    if args.write:
        record["compiled_core"] = "compiled core: True" in header
        record["interactions"] = layers.INTERACTIONS
        with open(args.write, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
