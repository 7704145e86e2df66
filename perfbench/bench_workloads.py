"""The benchmark's four workloads: how each is built, run, fingerprinted and
gated.

Every workload is a closed loop driven by one client (this process): the
next iteration starts only after the previous one returned.  An iteration
is one call of a public harness entry point with its defaults, except for
the sizes in :data:`SCALES`.  The seed given on the command line is the
only input; each workload turns it into the harness's own seed arguments,
so the program sees only the generated inputs.
"""

import dataclasses
import hashlib
import json
import statistics
import time
import warnings

from repro.campaign.pool import _execute_schedule_run
from repro.campaign.runner import CampaignRunner
from repro.core.config import MachineConfig
from repro.core.experiment import (
    run_recovery_scalability,
    run_validation_experiment,
)
from repro.core.machine import FlashMachine
from repro.faults.models import FaultSpec
from repro.fuzz.engine import FuzzEngine

#: Workload sizes.  "full" is what the benchmark measures; "toy" is the
#: self-test's (seconds per workload).  validate-8n keeps the 8-node mesh,
#: the 0.6 fill, node_failure(7) and the equal L2 and memory sizes of the
#: defaults, but at 64 KB each instead of 1 MB: a default-size run takes
#: about 33 s, and a run of the benchmark needs many iterations of a
#: couple of seconds for a steady median on a noisy host.
SCALES = {
    "full": {
        "validate-8n": {"nodes": 8, "mem_kb": 64, "l2_kb": 64},
        "recover-64n": {"nodes": 64, "mem_kb": 64, "l2_kb": 8},
        "campaign-multi": {"runs": 24, "jobs": 2},
        "fuzz-cov": {"runs": 12},
    },
    "toy": {
        "validate-8n": {"nodes": 4, "mem_kb": 16, "l2_kb": 16},
        "recover-64n": {"nodes": 8, "mem_kb": 64, "l2_kb": 8},
        "campaign-multi": {"runs": 3, "jobs": 2},
        "fuzz-cov": {"runs": 3},
    },
}

WORKLOADS = tuple(SCALES["full"])


@dataclasses.dataclass
class Outcome:
    """What one iteration produced."""

    wall_s: float
    runs: int                   # fault-injection runs executed
    failed: int                 # runs that did not PASS or recover fully
    recovery_ms: list           # simulated recovery time per episode (ms)
    fingerprint: list           # simulated outputs, JSON-serializable
    problems: list              # correctness-gate findings
    #: per-run (schedule dict, seed, status, elapsed_s) of a pooled session
    sessions: list = dataclasses.field(default_factory=list)
    #: the pooled session's own counters (fuzz stats, coverage size)
    extras: dict = dataclasses.field(default_factory=dict)

    @property
    def digest(self):
        return fingerprint_digest(self.fingerprint)


def fingerprint_digest(fingerprint):
    text = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _ms(ns):
    return None if ns is None else ns / 1e6


class Workload:
    """One workload at one scale and seed."""

    name = None
    #: True when iterations run in subprocess pools (the traced pass then
    #: replays the recorded runs in-process)
    pooled = False
    #: iterations per run at least, so the determinism gate has repeats
    min_repeats = 2

    def __init__(self, scale, seed, spans):
        self.size = SCALES[scale][self.name]
        self.seed = seed
        #: the run's bench_trace.PhaseSpans, which lists machines started
        self.spans = spans

    def build_first(self):
        """Set-up probe body: build what the first iteration needs."""
        raise NotImplementedError

    def iterate(self):
        raise NotImplementedError


class ValidateWorkload(Workload):
    """§5.2 validation: fill, fail the last node, recover, check memory."""

    name = "validate-8n"

    def config(self):
        return MachineConfig(num_nodes=self.size["nodes"],
                             mem_per_node=self.size["mem_kb"] << 10,
                             l2_size=self.size["l2_kb"] << 10,
                             seed=self.seed)

    def build_first(self):
        FlashMachine(self.config()).start()

    def iterate(self):
        nodes = self.size["nodes"]
        with self.spans.machines_started() as built:
            started = time.perf_counter()
            result = run_validation_experiment(
                FaultSpec.node_failure(nodes - 1), config=self.config(),
                seed=self.seed)
            wall = time.perf_counter() - started
        report = result.recovery_report
        duration = None if report is None else report.total_duration
        available = [] if report is None else sorted(report.available_nodes)
        problems = []
        if not result.passed:
            problems.append("verdict is FAIL: %s" % result.problems[:3])
        if result.lines_checked == 0:
            problems.append("lines_checked is 0")
        if result.lines_marked_incoherent != result.lines_allowed_incoherent:
            problems.append("marked %d lines, oracle allowed %d"
                            % (result.lines_marked_incoherent,
                               result.lines_allowed_incoherent))
        failed = int(not result.passed or duration is None
                     or len(available) != nodes - 1)
        return Outcome(
            wall_s=wall, runs=1, failed=failed,
            recovery_ms=[] if duration is None else [_ms(duration)],
            fingerprint=[result.passed, result.lines_checked,
                         result.lines_marked_incoherent,
                         result.lines_allowed_incoherent, duration,
                         available, built[-1].sim.events_executed],
            problems=problems)


class RecoverWorkload(Workload):
    """Figure 5.5 recovery point: fail the highest node of a big mesh."""

    name = "recover-64n"

    def build_first(self):
        FlashMachine(MachineConfig(
            num_nodes=self.size["nodes"],
            mem_per_node=self.size["mem_kb"] << 10,
            l2_size=self.size["l2_kb"] << 10, seed=self.seed)).start()

    def iterate(self):
        nodes = self.size["nodes"]
        with self.spans.machines_started() as built:
            started = time.perf_counter()
            report = run_recovery_scalability(
                nodes, mem_per_node=self.size["mem_kb"] << 10,
                l2_size=self.size["l2_kb"] << 10, seed=self.seed)
            wall = time.perf_counter() - started
        duration = report.total_duration
        available = sorted(report.available_nodes)
        problems = []
        if duration is None:
            problems.append("recovery did not complete")
        if len(available) != nodes - 1:
            problems.append("%d nodes available after recovery, expected %d"
                            % (len(available), nodes - 1))
        return Outcome(
            wall_s=wall, runs=1, failed=int(bool(problems)),
            recovery_ms=[] if duration is None else [_ms(duration)],
            fingerprint=[duration, available, report.restarts,
                         report.marked_incoherent,
                         built[-1].sim.events_executed],
            problems=problems)


class PooledWorkload(Workload):
    """A fixed-size session whose runs execute in worker processes.

    One session per iteration; its determinism repeat is a second, short
    session with the same seed, whose runs must reproduce the first
    PREFIX_RUNS runs of the full session exactly.
    """

    pooled = True
    min_repeats = 1
    PREFIX_RUNS = 2

    def session(self, runs):
        """Run one session; returns (wall_s, per-run rows, extras)."""
        raise NotImplementedError

    def replay(self, schedule, seed, extras):
        """Re-run one recorded run of a session in this process, through
        the body the session's workers run, with its defaults; returns the
        run's status."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # skipped injections are data
            return _execute_schedule_run(
                schedule, seed, extras["run_limit"], extras["mem_per_node"],
                extras["l2_size"], coverage=self.name == "fuzz-cov")["status"]

    def iterate(self):
        wall, rows, extras = self.session(self.size["runs"])
        _, prefix, _ = self.session(self.PREFIX_RUNS)
        fingerprint = [row["fingerprint"] for row in rows]
        problems = []
        if [row["fingerprint"] for row in prefix] != \
                fingerprint[:self.PREFIX_RUNS]:
            problems.append("a %d-run session did not repeat the first"
                            " runs of the full session" % self.PREFIX_RUNS)
        if "features" in extras:
            fingerprint.append(extras["features"])
        return Outcome(
            wall_s=wall, runs=len(rows),
            failed=sum(row["status"] != "pass" for row in rows),
            recovery_ms=[ms for row in rows for ms in row["recovery_ms"]],
            fingerprint=fingerprint, problems=problems,
            sessions=[(row["schedule"], row["seed"], row["status"],
                       row["elapsed_s"]) for row in rows],
            extras=extras)


class CampaignWorkload(PooledWorkload):
    """A fixed-size random-multi campaign through CampaignRunner."""

    name = "campaign-multi"

    def runner(self, runs):
        return CampaignRunner(runs=runs, campaign_seed=self.seed,
                              jobs=self.size["jobs"])

    def build_first(self):
        runner = self.runner(self.size["runs"])
        seed, schedule = runner.plan_run(0)
        FlashMachine(MachineConfig(
            num_nodes=schedule.num_nodes, topology=schedule.topology,
            mem_per_node=runner.mem_per_node, l2_size=runner.l2_size,
            seed=seed)).start()

    def session(self, runs):
        runner = self.runner(runs)
        started = time.perf_counter()
        summary = runner.run()
        wall = time.perf_counter() - started
        rows = []
        for record in summary.records:
            metrics = record.metrics
            recovery = metrics.get("recovery", {})
            total_ms = recovery.get("total_ms")
            rows.append({
                "schedule": record.schedule, "seed": record.seed,
                "status": record.status.value,
                "elapsed_s": record.elapsed_s,
                "recovery_ms": [] if total_ms is None else [total_ms],
                "fingerprint": [
                    record.run_index, record.status.value, record.episodes,
                    record.restarts, metrics.get("sim_events"),
                    metrics.get("packets", {}).get("forwarded"), total_ms,
                    recovery.get("marked_incoherent")]})
        return wall, rows, {"jobs": runner.jobs,
                            "run_limit": runner.run_limit,
                            "mem_per_node": runner.mem_per_node,
                            "l2_size": runner.l2_size}


class FuzzWorkload(PooledWorkload):
    """A fixed-budget coverage-guided fuzz session (deterministic at
    jobs=1)."""

    name = "fuzz-cov"

    def engine(self, runs, progress=None):
        return FuzzEngine(campaign_seed=self.seed, runs=runs, jobs=1,
                          max_shrinks=0, progress=progress)

    def build_first(self):
        from repro.campaign.pool import BatchWorkerPool
        engine = self.engine(self.size["runs"])
        with BatchWorkerPool(jobs=engine.jobs, coverage=True):
            pass

    def session(self, runs):
        records = []
        engine = self.engine(runs, progress=records.append)
        started = time.perf_counter()
        engine.run()
        wall = time.perf_counter() - started
        rows = [{
            "schedule": record["schedule"], "seed": record["seed"],
            "status": record["status"], "elapsed_s": record["elapsed_s"],
            "recovery_ms": [_ms(ns) for ns in record["containment_ns"]],
            "fingerprint": [record["run_index"], record["status"],
                            record["fingerprint"], record["features"],
                            record["containment_ns"]],
        } for record in records]
        stats = engine.stats
        return wall, rows, {"jobs": engine.jobs,
                            "run_limit": engine.run_limit,
                            "mem_per_node": engine.mem_per_node,
                            "l2_size": engine.l2_size,
                            "features": len(engine.coverage),
                            "new_coverage_runs": stats["new_coverage_runs"],
                            "skip_dup": stats["skip_dup"]}


_CLASSES = {cls.name: cls for cls in (ValidateWorkload, RecoverWorkload,
                                      CampaignWorkload, FuzzWorkload)}


def make_workload(name, scale, seed, spans):
    return _CLASSES[name](scale, seed, spans)


def repeat_problems(outcomes):
    """Gate findings across the iterations of one run: every workload's
    simulated outputs must repeat exactly, and every iteration's own
    checks must hold."""
    problems = []
    for index, outcome in enumerate(outcomes):
        problems.extend("iteration %d: %s" % (index, problem)
                        for problem in outcome.problems)
    digests = [outcome.digest for outcome in outcomes]
    if len(set(digests)) > 1:
        problems.append("simulated outputs differ between repeats: %s"
                        % [digest[:12] for digest in digests])
    return problems


def median_recovery_ms(outcomes):
    values = [value for outcome in outcomes for value in outcome.recovery_ms]
    return statistics.median(values) if values else None
