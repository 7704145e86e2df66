"""The batch worker pool and its machine-reuse determinism contract.

A pooled worker holds one :class:`~repro.core.machine.MachineFactory`
for its lifetime and builds every run's machine through it.  That is
only sound if a machine built from a reused factory behaves
bit-identically to a fresh one — the directed test here — if a campaign's
records match fresh in-process runs of the same (schedule, seed), and if
the worker frees each run's machine before the next one starts.
"""

import gc
import random

from repro.campaign.pool import (
    BatchWorkerPool,
    _execute_schedule_run,
    _reclaim,
)
from repro.campaign.records import RunStatus
from repro.campaign.runner import CampaignRunner
from repro.campaign.schedule import make_schedule
from repro.core.machine import FlashMachine, MachineFactory


def _strip_wall_clock(payload):
    data = dict(payload)
    data.pop("elapsed_s", None)
    return data


def _schedules(count, num_nodes=4):
    rng = random.Random(17)
    return [make_schedule("random-multi", rng, num_nodes=num_nodes)
            for _ in range(count)]


class TestMachineReuseDeterminism:
    def test_reused_factory_matches_fresh_machines(self):
        """The directed test: one factory across back-to-back runs vs a
        fresh machine per run — identical payloads (minus wall clock)."""
        schedules = _schedules(3)
        factory = MachineFactory()
        reused = [_execute_schedule_run(
            schedule.to_dict(), seed=100 + index,
            run_limit=60_000_000_000, mem_per_node=64 << 10,
            l2_size=8 << 10, factory=factory)
            for index, schedule in enumerate(schedules)]
        fresh = [_execute_schedule_run(
            schedule.to_dict(), seed=100 + index,
            run_limit=60_000_000_000, mem_per_node=64 << 10,
            l2_size=8 << 10)
            for index, schedule in enumerate(schedules)]
        for left, right in zip(reused, fresh):
            assert _strip_wall_clock(left) == _strip_wall_clock(right)

    def test_reuse_holds_with_coverage_extraction(self):
        schedule = _schedules(1)[0]
        factory = MachineFactory()
        reused = _execute_schedule_run(
            schedule.to_dict(), seed=7, run_limit=60_000_000_000,
            mem_per_node=64 << 10, l2_size=8 << 10, factory=factory,
            coverage=True)
        fresh = _execute_schedule_run(
            schedule.to_dict(), seed=7, run_limit=60_000_000_000,
            mem_per_node=64 << 10, l2_size=8 << 10, coverage=True)
        assert _strip_wall_clock(reused) == _strip_wall_clock(fresh)

    def test_factory_memoizes_topology(self):
        factory = MachineFactory()
        from repro.core.config import MachineConfig
        config = MachineConfig(num_nodes=4, mem_per_node=64 << 10,
                               l2_size=8 << 10, seed=1)
        machine_a = factory.build(config)
        machine_b = factory.build(config)
        assert machine_a.topology is machine_b.topology


class TestBatchWorkerPool:
    def test_pool_results_match_inline_execution(self):
        schedules = _schedules(4)
        expected = {
            index: _strip_wall_clock(_execute_schedule_run(
                schedule.to_dict(), seed=200 + index,
                run_limit=60_000_000_000, mem_per_node=64 << 10,
                l2_size=8 << 10))
            for index, schedule in enumerate(schedules)}
        got = {}
        with BatchWorkerPool(jobs=2, timeout_s=120.0,
                             run_limit=60_000_000_000) as pool:
            pending = list(enumerate(schedules))
            while pending or len(got) < len(schedules):
                while pending and pool.idle_count():
                    index, schedule = pending.pop(0)
                    pool.submit(index, schedule.to_dict(), 200 + index)
                for index, payload in pool.poll():
                    got[index] = _strip_wall_clock(payload)
        assert got == expected

    def test_pool_statuses_are_valid(self):
        statuses = {status.value for status in RunStatus}
        with BatchWorkerPool(jobs=1, timeout_s=120.0,
                             run_limit=60_000_000_000) as pool:
            pool.submit(0, _schedules(1)[0].to_dict(), 5)
            results = []
            while not results:
                results = pool.poll()
        assert results[0][1]["status"] in statuses


class TestCampaignRunnerRecords:
    def test_pooled_records_match_fresh_inline_runs(self):
        """The executor changes throughput, never records: every record of
        a two-worker campaign equals an in-process run of its planned
        (schedule, seed) on a fresh machine."""
        runner = CampaignRunner(kind="random-multi", runs=3,
                                campaign_seed=11, num_nodes=4, jobs=2,
                                timeout_s=120.0)
        records = runner.run().records
        assert [record.run_index for record in records] == [0, 1, 2]
        for record in records:
            seed, schedule = runner.plan_run(record.run_index)
            payload = _execute_schedule_run(
                schedule.to_dict(), seed, runner.run_limit,
                runner.mem_per_node, runner.l2_size)
            assert (record.seed, record.schedule) == (seed,
                                                      schedule.to_dict())
            assert record.status.value == payload["status"]
            assert record.problems == payload.get("problems", [])
            assert record.restarts == payload.get("restarts", 0)
            assert record.episodes == payload.get("episodes", 0)
            assert record.metrics == payload.get("metrics", {})
            assert record.forensics == payload.get("forensics", {})
            assert record.flight == payload.get("flight", {})


class TestWorkerReclaim:
    def test_no_machine_survives_a_finished_task(self):
        """A long-lived worker must not accumulate dead machines: after a
        run and the worker's reclaim step, no FlashMachine is left."""
        def machines():
            return sum(1 for obj in gc.get_objects()
                       if isinstance(obj, FlashMachine))

        gc.collect()
        before = machines()
        factory = MachineFactory()
        for index, schedule in enumerate(_schedules(2)):
            _execute_schedule_run(
                schedule.to_dict(), seed=300 + index,
                run_limit=60_000_000_000, mem_per_node=64 << 10,
                l2_size=8 << 10, factory=factory)
            _reclaim()
            assert machines() == before
