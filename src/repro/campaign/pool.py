"""Persistent crash-isolated workers: the one campaign executor.

Campaigns, fuzz sessions and single-run replays all execute here.  Most
runs are a few simulated milliseconds long, so a process spawn plus
module imports per run would dominate wall clock; instead each worker is
a long-lived subprocess that runs task after task while keeping the
crash-isolation contract (a wedged or crashing run becomes a HUNG/CRASHED
payload, never the death of the batch):

* each worker holds a :class:`~repro.core.machine.MachineFactory`, so
  consecutive runs whose shape parameters match share topology
  construction, and it reclaims each finished run's machine before the
  next one starts, so a long-lived worker stays as small as a fresh one;
* the pool tracks one in-flight task per worker; a watchdog kills and
  respawns the whole worker when a task exceeds its wall-clock budget, so
  one wedged schedule costs one worker restart, not the batch;
* results arrive on a shared queue tagged with the worker id, keeping
  completion strictly attributable even across respawns.

Determinism is untouched: a run executes the same
:func:`~repro.core.experiment.run_schedule_experiment` with the same
(schedule, seed) regardless of which worker picks it up, and directed
tests prove factory-reused and fresh machines produce bit-identical
records.
"""

# repro-lint: disable-file=wall-clock — this module is a real-time
# boundary like the campaign runner: watchdogs and elapsed_s measure wall
# clock around crash-isolated workers; nothing here runs under the event
# scheduler.

import gc
import multiprocessing
import queue as queue_module
import time

from repro.campaign.records import RunStatus

#: newest events a dumped flight window keeps in the run record (the full
#: ring still feeds in-process forensics; the record stays one JSONL line)
FLIGHT_DUMP_EVENTS = 2_000

#: stray protocol messages after which a worker dumps its flight window
#: even on a PASS verdict — a stray storm is evidence worth keeping
STRAY_DUMP_THRESHOLD = 5


def _attach_flight(payload, telemetry):
    """Attach the flight recorder's tail window to a worker payload."""
    if telemetry is not None:
        payload["flight"] = telemetry.recorder.dump(limit=FLIGHT_DUMP_EVENTS)
    return payload


def _execute_schedule_run(schedule_dict, seed, run_limit, mem_per_node,
                          l2_size, factory=None, coverage=False):
    """Run one (schedule, seed) to a payload dict; never raises.

    The body of every batch-worker task.  With ``coverage=True`` the
    payload additionally carries the fuzzer's per-run coverage summary
    (feature strings + containment times).  The run records into an
    always-on :class:`~repro.telemetry.flight.FlightRecorder` ring; a
    FAIL/HUNG/CRASHED verdict (or a stray-message storm) dumps its tail
    window into the payload.
    """
    started = time.monotonic()
    telemetry = None
    try:
        from repro.campaign.schedule import FaultSchedule
        from repro.core.config import MachineConfig
        from repro.core.experiment import run_schedule_experiment
        from repro.core.machine import FlashMachine
        from repro.telemetry import Telemetry
        from repro.telemetry.flight import DEFAULT_CAPACITY
        from repro.telemetry.forensics import forensic_summary
        schedule = FaultSchedule.from_dict(schedule_dict)
        config = MachineConfig(
            num_nodes=schedule.num_nodes, topology=schedule.topology,
            mem_per_node=mem_per_node, l2_size=l2_size, seed=seed)
        # A recorder is attached to every campaign run (bit-identical to
        # untraced by the §9 contract) so a FAIL verdict arrives with its
        # forensic story attached instead of needing a re-run to diagnose.
        telemetry = Telemetry(flight=DEFAULT_CAPACITY)
        if factory is not None:
            machine = factory.build(config, telemetry=telemetry)
        else:
            machine = FlashMachine(config, telemetry=telemetry)
        result = run_schedule_experiment(schedule, seed=seed,
                                         run_limit=run_limit,
                                         telemetry=telemetry,
                                         collect_metrics=True,
                                         machine=machine)
        payload = {
            "status": (RunStatus.PASS if result.passed
                       else RunStatus.FAIL).value,
            "problems": list(result.problems),
            "restarts": result.restarts,
            "episodes": result.episodes,
            "elapsed_s": time.monotonic() - started,
            "metrics": result.metrics or {},
        }
        if not result.passed:
            payload["forensics"] = forensic_summary(telemetry.recorder)
        strays = sum(node.magic.stats.stray_messages
                     for node in machine.nodes)
        if not result.passed or strays >= STRAY_DUMP_THRESHOLD:
            _attach_flight(payload, telemetry)
        if coverage:
            from repro.fuzz.coverage import run_coverage
            payload["coverage"] = run_coverage(machine, result,
                                               telemetry.recorder)
        return payload
    except (TimeoutError, RuntimeError) as exc:
        # Simulation-limit and deadlock/heap-drain conditions: the run
        # never reached a verdict.
        return _attach_flight({
            "status": RunStatus.HUNG.value,
            "error": "%s: %s" % (type(exc).__name__, exc),
            "elapsed_s": time.monotonic() - started,
        }, telemetry)
    except BaseException:   # repro-lint: disable=broad-except — the
        # crash-isolation boundary itself: any worker death must become a
        # CRASHED record, not kill the campaign batch.
        import traceback
        return _attach_flight({
            "status": RunStatus.CRASHED.value,
            "error": traceback.format_exc(),
            "elapsed_s": time.monotonic() - started,
        }, telemetry)


def _reclaim():
    """Free the finished run's machine before the next task starts.

    A machine's components reference each other in cycles, so dropping the
    last reference leaves it to the cyclic collector, which a long-lived
    worker may not run for several tasks — each dead machine meanwhile
    adds to the worker's peak memory.
    """
    gc.collect()


def _batch_worker(task_queue, result_queue, worker_id, run_limit,
                  mem_per_node, l2_size, coverage):
    """Long-lived worker loop: one task at a time until the None sentinel.

    The factory lives for the worker's whole life, which is exactly the
    machine-reuse amortization: every run in this worker with matching
    shape parameters shares topology construction.
    """
    import warnings
    warnings.simplefilter("ignore")   # skipped-injection warnings are data
    from repro.core.machine import MachineFactory
    factory = MachineFactory()
    while True:
        task = task_queue.get()
        if task is None:
            return
        run_index, schedule_dict, seed = task
        payload = _execute_schedule_run(
            schedule_dict, seed, run_limit, mem_per_node, l2_size,
            factory=factory, coverage=coverage)
        result_queue.put((worker_id, run_index, payload))
        _reclaim()


class _Worker:
    """One pool slot: a subprocess plus its private task queue."""

    def __init__(self, worker_id, result_queue, run_limit, mem_per_node,
                 l2_size, coverage):
        self.worker_id = worker_id
        self.task_queue = multiprocessing.Queue()
        self.process = multiprocessing.Process(
            target=_batch_worker,
            args=(self.task_queue, result_queue, worker_id, run_limit,
                  mem_per_node, l2_size, coverage),
            daemon=True)
        self.process.start()
        self.task = None          # (run_index, schedule_dict, seed)
        self.started = None


class BatchWorkerPool:
    """A fixed set of persistent workers with per-task watchdogs.

    Usage: ``submit`` tasks while :meth:`idle_count` is positive, then
    ``poll`` for ``(run_index, payload)`` completions; a task that blows
    its wall-clock budget or kills its worker comes back as a HUNG or
    CRASHED payload and the worker slot is respawned.  ``close`` always —
    the workers are daemons, but an orderly sentinel shutdown keeps queue
    feeder threads from complaining.
    """

    def __init__(self, jobs=1, timeout_s=300.0, run_limit=60_000_000_000,
                 mem_per_node=64 << 10, l2_size=8 << 10, coverage=False):
        self.jobs = max(1, jobs)
        self.timeout_s = timeout_s
        self.run_limit = run_limit
        self.mem_per_node = mem_per_node
        self.l2_size = l2_size
        self.coverage = coverage
        self.result_queue = multiprocessing.Queue()
        self._next_worker_id = 0
        self.workers = [self._spawn() for _ in range(self.jobs)]

    def _spawn(self):
        worker = _Worker(self._next_worker_id, self.result_queue,
                         self.run_limit, self.mem_per_node, self.l2_size,
                         self.coverage)
        self._next_worker_id += 1
        return worker

    # ------------------------------------------------------------ dispatch

    def idle_count(self):
        return sum(1 for worker in self.workers if worker.task is None)

    def busy_count(self):
        return sum(1 for worker in self.workers if worker.task is not None)

    def submit(self, run_index, schedule_dict, seed):
        """Hand one run to an idle worker; returns False when all busy."""
        for worker in self.workers:
            if worker.task is None:
                worker.task = (run_index, schedule_dict, seed)
                worker.started = time.monotonic()
                worker.task_queue.put(worker.task)
                return True
        return False

    # ------------------------------------------------------------- results

    def poll(self):
        """Collect finished runs; returns a list of (run_index, payload).

        Also runs the watchdog: any worker whose task exceeded the budget
        (or whose process died without reporting) yields a HUNG/CRASHED
        payload and a fresh worker takes its slot.
        """
        finished = []
        by_id = {worker.worker_id: worker for worker in self.workers}
        while True:
            try:
                worker_id, run_index, payload = \
                    self.result_queue.get_nowait()
            except queue_module.Empty:
                break
            finished.append((run_index, payload))
            worker = by_id.get(worker_id)
            if worker is not None and worker.task is not None \
                    and worker.task[0] == run_index:
                worker.task = None
                worker.started = None

        for index, worker in enumerate(self.workers):
            if worker.task is None:
                continue
            elapsed = time.monotonic() - worker.started
            if not worker.process.is_alive():
                finished.append((worker.task[0], {
                    "status": RunStatus.CRASHED.value,
                    "error": ("batch worker died without reporting "
                              "(exitcode %s)" % worker.process.exitcode),
                    "elapsed_s": elapsed,
                }))
                self.workers[index] = self._spawn()
            elif elapsed >= self.timeout_s:
                self._kill(worker)
                finished.append((worker.task[0], {
                    "status": RunStatus.HUNG.value,
                    "error": ("watchdog: run exceeded %.0fs wall clock"
                              % self.timeout_s),
                    "elapsed_s": elapsed,
                }))
                self.workers[index] = self._spawn()
        return finished

    @staticmethod
    def _kill(worker):
        worker.process.terminate()
        worker.process.join(5.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(5.0)

    # ------------------------------------------------------------ shutdown

    def close(self):
        for worker in self.workers:
            if worker.process.is_alive():
                worker.task_queue.put(None)
        deadline = time.monotonic() + 5.0
        for worker in self.workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                self._kill(worker)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False
