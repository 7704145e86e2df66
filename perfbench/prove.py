#!/usr/bin/env python3
"""Check that the benchmark is steady: run each workload over seeds 0-9
and report every end-to-end metric's median and quartile spread.

    python3 perfbench/prove.py [--workloads fuzz-cov ...] [--record]

The spread is (Q3 - Q1) / median over the seeds' values, with the
quartiles of ``statistics.quantiles(values, n=4)``.  A metric is steady
when its spread is below a third of its bound in BENCHMARK.json; setup_s,
whose host noise no amount of work in a run averages away, must keep its
spread within its whole bound.  ``--workloads`` re-proves only the named
workloads, e.g. after changing one of them.  ``--record`` appends the
medians to ``perfbench/trajectory.json``, the benchmark's committed
history.  The exit code is 1 when a metric is not steady.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")
SEEDS = range(10)


def run_once(spec, workload, seed, trace):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    fingerprint = next((line.split("sha256=")[1] for line in lines
                        if line.startswith("fingerprint ")), None)
    return result, fingerprint


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    steady = True
    entries = []
    for workload in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        attempted = failed = 0
        fingerprints = {}
        for seed in SEEDS:
            result, fingerprints[seed] = run_once(spec, workload, seed, 0)
            if not result["correct"]:
                raise SystemExit("%s seed %d: correctness gate failed"
                                 % (workload, seed))
            attempted += result["attempted"]
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (name, vals[-1])
                for name, vals in values.items())), flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            median, share = spread(values[name])
            limit = metric["bound"] / (1 if name == "setup_s" else 3)
            ok = share < limit
            steady &= ok
            summary[name] = {"median": median, "spread": share,
                             "unit": metric["unit"]}
            print("  %-16s median %12.4f %-4s spread %.4f (limit %.3f) %s"
                  % (name, median, metric["unit"], share, limit,
                     "ok" if ok else "WIDE"))
        print("  attempted %d failed %d" % (attempted, failed), flush=True)
        entries.append({"workload": workload, "seeds": list(SEEDS),
                        "attempted": attempted, "failed": failed,
                        "fingerprints": fingerprints, "metrics": summary})
    if args.record:
        history = []
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY, encoding="utf-8") as f:
                history = json.load(f)
        stamp = datetime.datetime.now(datetime.timezone.utc)
        history.append({"utc": stamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
                        "run_seconds": spec["run_seconds"],
                        "cpus": os.cpu_count(), "workloads": entries})
        with open(TRAJECTORY, "w", encoding="utf-8") as f:
            json.dump(history, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
