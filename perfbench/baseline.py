#!/usr/bin/env python3
"""Record the benchmark's baseline on this commit.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10

Runs every workload of BENCHMARK.json twice per seed, untraced, for the
file's run_seconds: two sets of the same runs, alternating, so host
drift falls on both alike.  Writes perfbench/baseline.json: per workload
and end-to-end metric, the median and quartiles of the first set's runs
(Python's statistics.quantiles), the spread (interquartile distance over
the median) and every run's value; under "repeat", the same for the
second set and each median's change from the first.  The metrics printed
but not bounded (test_ms_p95, find_s, failed_frac) are read from the
human-readable table above the result line.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

UNBOUNDED = {"test_ms_p95": "ms", "find_s": "s", "failed_frac": "ratio"}


def run(workload, seed, seconds):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in out[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] in UNBOUNDED:
            values[parts[0]] = float(parts[1])
    return result, values


def summarise(runs, units):
    metrics = {}
    for name, vals in runs.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        metrics[name] = {
            "unit": units[name],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "runs": vals,
        }
    return metrics


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="inclusive range A-B")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bench = json.load(open("BENCHMARK.json"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update(UNBOUNDED)
    out = {
        "host": f"{platform.machine()}, {platform.system()}, {os.cpu_count()} CPUs",
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(lo, hi + 1)),
        "workloads": {},
    }
    for w in bench["workloads"]:
        sets = ({}, {})
        for seed in range(lo, hi + 1):
            for runs in sets:
                result, values = run(w["name"], seed, bench["run_seconds"])
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{w['name']} seed {seed}: run not correct")
                for k, v in values.items():
                    runs.setdefault(k, []).append(v)
            print(f"{w['name']} seed {seed} done", file=sys.stderr)
        first, second = (summarise(runs, units) for runs in sets)
        for name, m in second.items():
            m0 = first[name]["median"]
            m["median_change"] = (m["median"] - m0) / m0 if m0 else None
        spreads = ", ".join(
            f"{m['name']} {first[m['name']]['spread']:.3f}/{second[m['name']]['spread']:.3f}"
            for m in bench["end_to_end"]
        )
        out["workloads"][w["name"]] = {
            "note": f"{w['why']}. Spread over seeds {lo}-{hi}, set 1/set 2: {spreads}.",
            "metrics": first,
            "repeat": {
                "note": "a second set of the same runs of the same code, each made right after its twin in the first set",
                "metrics": second,
            },
        }
    with open("perfbench/baseline.json", "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
