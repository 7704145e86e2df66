#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory holding ``src/repro`` and
``BENCHMARK.json``).  With ``--trace 0`` the run measures the end-to-end
metrics with tracing off: back-to-back iterations of the workload for
about ``--seconds``, and set-up time, the median of fresh-interpreter
set-ups made before, between and after the iterations.  In-process
workloads iterate at least twice, so the determinism gate has repeats to
compare; a pooled workload runs one fixed-size session and repeats its
first runs in a short second one.
With ``--trace 1`` it runs one untraced iteration and one traced pass and
reports the per-layer metrics (see ``bench_trace``).

Every metric is printed by name with its unit and direction, then a
fingerprint of the simulated outputs (equal fingerprints mean
bit-identical simulated behaviour), then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when a correctness check fails, 2 on bad usage, a missing program or a
per-layer metric whose function no longer runs.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: spans and per-function tables of traced runs (ignored by git)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: fresh-interpreter set-ups made before the iterations and again after
#: them; one more runs between each two iterations, so the probes sample
#: the host over the whole run.  setup_s is their median.
SETUP_EDGE_PROBES = 4
#: runs of a pooled session that the traced pass replays in-process
REPLAY_RUNS = 8


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: the self-test's small sizes")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


#: the set-up prober: on each line of input, start one probe and print
#: its seconds
PROBER = """
import json, subprocess, sys, time
command = json.loads(sys.argv[1])
for _ in sys.stdin:
    started = time.perf_counter()
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    print(time.perf_counter() - started, flush=True)
"""


class SetupProbes:
    """Times set-ups: seconds from a fresh interpreter to the workload's
    first machine (or pool) built, i.e. interpreter start, imports and
    construction.

    The probes are started by a small prober process, itself started
    while this one is still small: a child started from this process
    later would begin with its peak resident set and so inflate
    peak_rss_mb.
    """

    def __init__(self, args):
        command = [sys.executable, os.path.abspath(__file__),
                   "--setup-probe", "--workload", args.workload,
                   "--scale", args.scale, "--seed", str(args.seed)]
        self.times = []
        self.prober = subprocess.Popen(
            [sys.executable, "-c", PROBER, json.dumps(command)], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def probe(self):
        self.prober.stdin.write("\n")
        self.prober.stdin.flush()
        line = self.prober.stdout.readline()
        if not line:
            raise RuntimeError("a set-up probe failed")
        self.times.append(float(line))

    def close(self):
        self.prober.stdin.close()
        self.prober.wait()


def measure(workload, seconds, between):
    """Closed loop: iterate until the next iteration would end well past
    ``seconds`` of iterating (and at least the workload's ``min_repeats``
    times), calling ``between()`` between each two iterations."""
    outcomes = []
    elapsed = 0.0
    while True:
        started = time.perf_counter()
        outcomes.append(workload.iterate())
        elapsed += time.perf_counter() - started
        typical = statistics.median(o.wall_s for o in outcomes)
        if (len(outcomes) >= workload.min_repeats
                and elapsed + typical / 2 > seconds):
            return outcomes
        between()


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(args, workload, bw):
    setups = SetupProbes(args)
    try:
        for _ in range(SETUP_EDGE_PROBES):
            setups.probe()
        outcomes = measure(workload, args.seconds, setups.probe)
        for _ in range(SETUP_EDGE_PROBES):
            setups.probe()
    finally:
        setups.close()
    metrics = {
        "setup_s": statistics.median(setups.times),
        "wall_s": statistics.median(o.wall_s for o in outcomes),
        "runs_per_hour": statistics.median(3600.0 * o.runs / o.wall_s
                                           for o in outcomes),
        "peak_rss_mb": peak_rss_mb(),
    }
    return outcomes, metrics, bw.repeat_problems(outcomes), {}


def campaign_metrics(outcome):
    """Per-run host time and executor idleness of the untraced iteration.

    A pooled session's runs are timed by their workers; an in-process
    iteration is a single run, executed without any dispatcher.
    """
    elapsed = sorted(session[3] for session in outcome.sessions) \
        or [outcome.wall_s]
    count = len(elapsed)
    median = statistics.median(elapsed)
    # The highest percentile with at least ten runs beyond it (nearest
    # rank); a session too short to have one reports its median.
    rank = count - 10
    tail = elapsed[rank - 1] if rank >= 1 else median
    capacity = outcome.extras.get("jobs", 1) * outcome.wall_s
    return {
        "campaign.runs": count,
        "campaign.run_s.p50": median,
        "campaign.run_s.tail": max(tail, median),
        "campaign.dispatch_idle_share": (capacity - sum(elapsed)) / capacity,
    }


def per_layer(args, workload, bw):
    import bench_trace as bt

    plain = workload.iterate()
    replayed = plain.sessions[:REPLAY_RUNS]
    spans = workload.spans

    def traced_body():
        if not workload.pooled:
            return spans.run(workload.iterate)
        return [spans.run(workload.replay, schedule, seed, plain.extras)
                for schedule, seed, _status, _elapsed in replayed]

    with spans.machines_started() as machines:
        value, traced_wall, profile = bt.traced(traced_body)

    if workload.pooled:
        problems = bw.repeat_problems([plain])
        untraced_wall = sum(session[3] for session in replayed)
        recorded = [session[2] for session in replayed]
        if value != recorded:
            problems.append("in-process replay verdicts %s differ from the"
                            " session's %s" % (value, recorded))
    else:
        problems = bw.repeat_problems([plain, value])
        untraced_wall = plain.wall_s

    metrics = {"%s.self_s" % layer: profile.self_s[layer]
               for layer in bt.BUSY_LAYERS}
    metrics.update({"%s.self_share" % layer:
                    profile.self_s[layer] / traced_wall
                    for layer in bt.PART_TIME_LAYERS})
    metrics.update({"core.%s_share" % phase: share
                    for phase, share in spans.shares().items()})
    metrics.update(bt.machine_counters(machines, profile))
    metrics.update(campaign_metrics(plain))
    coverage_s = profile.cumulative_s("fuzz/coverage.py", "run_coverage",
                                      required=workload.name == "fuzz-cov")
    metrics.update({
        "fuzz.features": plain.extras.get("features", 0),
        "fuzz.coverage_share": coverage_s / traced_wall,
        "fuzz.new_coverage_ratio": (
            plain.extras.get("new_coverage_runs", 0) / plain.runs),
        "fuzz.skip_dup": plain.extras.get("skip_dup", 0),
        "recovery.sim_ms": bw.median_recovery_ms([plain]) or 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.unattributed_s": traced_wall - sum(profile.self_s.values()),
    })
    artifact = {"spans": spans.spans(), "top_functions": profile.top(),
                "layer_self_s": profile.self_s, "phases_s": spans.totals()}
    return [plain], metrics, problems, artifact


def write_artifact(args, artifact, metrics, digest):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    artifact = dict(artifact, workload=args.workload, seed=args.seed,
                    scale=args.scale, metrics=metrics, fingerprint=digest)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=1, sort_keys=True)
    return path


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program at %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        print("perfbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(bw.WORKLOADS)), file=sys.stderr)
        return 2
    if args.setup_probe:
        bw.make_workload(args.workload, args.scale, args.seed,
                         None).build_first()
        return 0

    import bench_trace as bt
    e2e_spec, layer_spec = load_spec()
    spec = layer_spec if args.trace else e2e_spec
    run = per_layer if args.trace else end_to_end
    with bt.PhaseSpans() as spans:
        workload = bw.make_workload(args.workload, args.scale, args.seed,
                                    spans)
        try:
            outcomes, metrics, problems, artifact = run(args, workload, bw)
        except bt.MissingFunction as exc:
            print("perfbench: %s; a per-layer metric counts it and must be"
                  " redefined" % exc, file=sys.stderr)
            return 2

    if set(metrics) != set(spec):
        print("perfbench: metrics do not match BENCHMARK.json: missing %s,"
              " unlisted %s" % (sorted(set(spec) - set(metrics)),
                                sorted(set(metrics) - set(spec))),
              file=sys.stderr)
        return 2
    attempted = sum(o.runs for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    digest = outcomes[0].digest
    print("perfbench %s seed=%d scale=%s trace=%d: %d iteration(s),"
          " %d run(s), %d failed"
          % (args.workload, args.seed, args.scale, args.trace,
             len(outcomes), attempted, failed))
    for name in sorted(metrics):
        print("  %-34s %16.6f %-6s (%s is better)"
              % (name, metrics[name], spec[name]["unit"],
                 spec[name]["better"]))
    if artifact:
        print("  spans and per-function table: %s"
              % write_artifact(args, artifact, metrics, digest))
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    print("fingerprint %s seed=%d sha256=%s"
          % (args.workload, args.seed, digest))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name],
                           "unit": spec[name]["unit"]}
                    for name in sorted(metrics)},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
