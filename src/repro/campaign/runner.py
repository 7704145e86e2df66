"""Crash-isolated campaign runner.

Runs execute in the persistent workers of
:class:`~repro.campaign.pool.BatchWorkerPool`, each task under a
wall-clock watchdog, so a simulator bug found by an aggressive schedule —
a Python crash, an infinite event loop, a drained event heap — is *data*
(a ``CRASHED``/``HUNG`` record) rather than the death of the whole batch.

Determinism and resume:

* per-run seeds derive from the campaign seed via BLAKE2b
  (:func:`derive_run_seed`), so run *i* of campaign seed *s* is the same
  experiment on every machine and every re-run, whichever worker runs it;
* each finished run appends one JSONL record
  (:mod:`repro.campaign.records`); re-running the same campaign against an
  existing results file skips the already-recorded run indices.
"""

# repro-lint: disable-file=wall-clock — this module IS the real-time
# boundary: the watchdog and per-run elapsed_s measure wall clock around
# crash-isolated workers; nothing here runs under the event scheduler.

import dataclasses
import hashlib
import random
import time

from repro.campaign.pool import BatchWorkerPool
from repro.campaign.records import (
    RunRecord,
    RunStatus,
    append_record,
    completed_indices,
    load_records,
)
from repro.campaign.schedule import FaultSchedule, make_schedule


def derive_run_seed(campaign_seed, run_index):
    """Deterministic 63-bit per-run seed (stable across processes, unlike
    salted ``hash()``)."""
    digest = hashlib.blake2b(
        ("%d:%d" % (campaign_seed, run_index)).encode("ascii"),
        digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclasses.dataclass
class CampaignSummary:
    """Aggregate of a finished (or resumed-and-finished) campaign."""

    total: int
    passed: int
    failed: int
    crashed: int
    hung: int
    records: list

    @classmethod
    def from_records(cls, records):
        counts = {status: 0 for status in RunStatus}
        for record in records:
            counts[record.status] += 1
        return cls(total=len(records),
                   passed=counts[RunStatus.PASS],
                   failed=counts[RunStatus.FAIL],
                   crashed=counts[RunStatus.CRASHED],
                   hung=counts[RunStatus.HUNG],
                   records=list(records))

    @property
    def ok(self):
        """True when every run reached a verdict (no batch-level aborts)."""
        return self.crashed == 0 and self.hung == 0

    def failures(self):
        return [record for record in self.records
                if record.status is not RunStatus.PASS]

    def __str__(self):
        return ("campaign: %d runs — %d pass, %d fail, %d crashed, %d hung"
                % (self.total, self.passed, self.failed,
                   self.crashed, self.hung))


@dataclasses.dataclass
class _PlannedRun:
    """The identity of a submitted run: what its record is built from."""

    run_index: int
    seed: int
    schedule: FaultSchedule


class CampaignRunner:
    """Run ``runs`` schedules, each crash-isolated, streaming JSONL records.

    ``kind`` names a generator from
    :data:`~repro.campaign.schedule.SCHEDULE_GENERATORS`; alternatively a
    fixed ``schedule`` replays one exact scenario every run (the per-run
    seeds still vary the machine's random fill and timing draws).
    """

    def __init__(self, kind="random-multi", runs=50, campaign_seed=0,
                 num_nodes=8, topology="mesh", schedule=None, out_path=None,
                 timeout_s=300.0, run_limit=60_000_000_000, jobs=1,
                 mem_per_node=64 << 10, l2_size=8 << 10, progress=None):
        self.kind = kind
        self.runs = runs
        self.campaign_seed = campaign_seed
        self.num_nodes = num_nodes
        self.topology = topology
        self.fixed_schedule = schedule
        self.out_path = out_path
        self.timeout_s = timeout_s
        self.run_limit = run_limit
        self.jobs = max(1, jobs)
        # Campaigns trade machine size for run count: a small memory/cache
        # still exercises every protocol path, and a run finishes in
        # seconds instead of minutes.
        self.mem_per_node = mem_per_node
        self.l2_size = l2_size
        self.progress = progress

    # ------------------------------------------------------------ scheduling

    def plan_run(self, run_index):
        """The (seed, schedule) of run ``run_index`` — pure and stable.

        In replay mode (a fixed schedule) the campaign seed is used
        *literally* for every run, so a failure's printed repro command —
        which carries the failing run's own derived seed — reproduces that
        exact run.
        """
        if self.fixed_schedule is not None:
            return self.campaign_seed, self.fixed_schedule
        seed = derive_run_seed(self.campaign_seed, run_index)
        rng = random.Random(seed)
        return seed, make_schedule(self.kind, rng, num_nodes=self.num_nodes,
                                   topology=self.topology)

    # --------------------------------------------------------------- driving

    def _status_writer(self):
        """Heartbeat sidecar next to the records file (None without one)."""
        if not self.out_path:
            return None
        from repro.telemetry.status import StatusWriter
        return StatusWriter(self.out_path + ".status.json",
                            kind="campaign", total=self.runs)

    @staticmethod
    def _counts_of(records):
        counts = {}
        for record in records.values():
            key = record.status.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def run(self):
        """Execute all pending runs; returns a :class:`CampaignSummary`."""
        records = {}
        if self.out_path:
            for record in load_records(self.out_path):
                if record.run_index < self.runs:
                    records[record.run_index] = record
        pending = [index for index in range(self.runs)
                   if index not in records]
        plans = {}
        status = self._status_writer()
        counts = self._counts_of(records)
        with BatchWorkerPool(jobs=self.jobs, timeout_s=self.timeout_s,
                             run_limit=self.run_limit,
                             mem_per_node=self.mem_per_node,
                             l2_size=self.l2_size) as pool:
            outstanding = 0
            while pending or outstanding:
                while pending and pool.idle_count():
                    run_index = pending.pop(0)
                    seed, schedule = self.plan_run(run_index)
                    plans[run_index] = (seed, schedule)
                    pool.submit(run_index, schedule.to_dict(), seed)
                    outstanding += 1
                time.sleep(0.02)
                for run_index, payload in pool.poll():
                    outstanding -= 1
                    seed, schedule = plans.pop(run_index)
                    record = self._record(
                        _PlannedRun(run_index, seed, schedule), payload)
                    records[record.run_index] = record
                    counts[record.status.value] = \
                        counts.get(record.status.value, 0) + 1
                    if self.out_path:
                        append_record(self.out_path, record)
                    if self.progress is not None:
                        self.progress(record)
                if status is not None:
                    now = time.monotonic()
                    status.update(
                        done=len(records), counts=counts,
                        in_flight=[
                            {"run_index": worker.task[0],
                             "elapsed_s": round(now - worker.started, 2)}
                            for worker in pool.workers
                            if worker.task is not None])
        if status is not None:
            status.update(done=len(records), counts=counts, finished=True,
                          force=True)
        ordered = [records[index] for index in sorted(records)]
        return CampaignSummary.from_records(ordered)

    def _record(self, run, payload):
        return RunRecord(
            run_index=run.run_index,
            seed=run.seed,
            status=RunStatus(payload["status"]),
            schedule=run.schedule.to_dict(),
            problems=list(payload.get("problems", ())),
            restarts=payload.get("restarts", 0),
            episodes=payload.get("episodes", 0),
            error=payload.get("error", ""),
            elapsed_s=payload.get("elapsed_s", 0.0),
            metrics=dict(payload.get("metrics", {})),
            forensics=dict(payload.get("forensics", {})),
            flight=dict(payload.get("flight", {})),
        )


def run_schedule_isolated(schedule, seed, timeout_s=300.0,
                          run_limit=60_000_000_000,
                          mem_per_node=64 << 10, l2_size=8 << 10):
    """Run one exact (schedule, seed) in a crash-isolated worker.

    Used by the shrinker's still-fails predicate and by replay: the seed is
    the failing run's own, not derived, so the reproduction is exact.
    Returns a :class:`~repro.campaign.records.RunRecord`.
    """
    # A fixed schedule uses the campaign seed literally (plan_run), so a
    # one-run campaign on a one-worker pool is exactly this run.
    runner = CampaignRunner(schedule=schedule, runs=1, campaign_seed=seed,
                            timeout_s=timeout_s, run_limit=run_limit,
                            mem_per_node=mem_per_node, l2_size=l2_size)
    (record,) = runner.run().records
    return record


def resume_info(out_path, runs):
    """How much of a campaign file is already done (for CLI messaging)."""
    records = load_records(out_path)
    done = {index for index in completed_indices(records) if index < runs}
    return len(done), runs - len(done)
