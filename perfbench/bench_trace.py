"""The traced pass: per-layer host self-time, phase spans and counters,
measured from outside the program.

Layers are the packages under ``src/repro/``.  A deterministic profiler
(``cProfile``) records every call; a function's self time goes to the
package its code lives in.  Code outside the package (the standard
library, built-ins) is charged to the layers of its callers, in
proportion to the self time it spent under each caller.  What no layer
accounts for — profiler bookkeeping, the benchmark's own code — is the
unattributed remainder, so layer self-times plus that remainder equal the
traced wall time.

Phase spans (build / fill / inject+recover / check) come from wrapping
public methods: ``FlashMachine.start`` opens the fill, the first
``FaultInjector.inject``/``inject_schedule`` opens recovery, and the last
``FlashMachine.run_until`` after it is the post-recovery memory check.
The same wrappers list the machines started inside a
:meth:`PhaseSpans.machines_started` block, for the counters and the
fingerprints; they are the benchmark's only patch of the program.

Counters that only the profiler sees are looked up by function name.  A
name that no profiled function has raises :class:`MissingFunction`: the
function was renamed or retired, and the metric must be redefined rather
than read as 0.
"""

import contextlib
import cProfile
import os
import pstats
import time

import repro
from repro.core.machine import FlashMachine
from repro.faults.injector import FaultInjector

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: the packages under src/repro that every workload executes
BUSY_LAYERS = ("sim", "core", "interconnect", "node", "coherence",
               "recovery", "faults", "workloads", "common")
#: packages that some workloads never enter; they report their share of
#: the traced wall time, so an idle layer reads as a 0 ratio rather than
#: as a time that never changes
PART_TIME_LAYERS = ("campaign", "fuzz", "telemetry")
#: hive, lint and verify are on no workload's path
LAYERS = BUSY_LAYERS + PART_TIME_LAYERS

PHASES = ("build", "fill", "recover", "check")


def layer_of(filename):
    """The layer a code object's file belongs to, or None."""
    if not filename.startswith(REPRO_DIR):
        return None
    package = filename[len(REPRO_DIR):].split(os.sep, 1)[0]
    return package if package in LAYERS else None


class MissingFunction(LookupError):
    """A function a per-layer metric counts did not run."""


class PhaseSpans:
    """Wraps public methods for a whole run: lists the machines started
    inside :meth:`machines_started` blocks and records harness-phase
    boundaries inside :meth:`run`.  Outside both the wrappers only pass
    calls on, so worker processes forked outside them keep nothing."""

    WRAPPED = ((FlashMachine, "start", "start"),
               (FlashMachine, "run_until", "run_until"),
               (FaultInjector, "inject", "inject"),
               (FaultInjector, "inject_schedule", "inject"))

    def __init__(self):
        self.runs = []            # [(start, end, [(t, mark, "begin"|"end")])]
        self._lists = []          # the open machines_started lists
        self._marks = None
        self._originals = []

    def __enter__(self):
        for owner, method, mark in self.WRAPPED:
            original = getattr(owner, method)
            self._originals.append((owner, method, original))
            setattr(owner, method, self._wrap(original, mark))
        return self

    def __exit__(self, *_exc):
        for owner, method, original in reversed(self._originals):
            setattr(owner, method, original)
        self._originals = []
        return False

    def _wrap(self, original, mark):
        spans = self

        def wrapper(*args, **kwargs):
            if mark == "start":
                for machines in spans._lists:
                    machines.append(args[0])
            marks = spans._marks
            if marks is None:
                return original(*args, **kwargs)
            marks.append((time.perf_counter(), mark, "begin"))
            try:
                return original(*args, **kwargs)
            finally:
                marks.append((time.perf_counter(), mark, "end"))
        wrapper.__name__ = original.__name__
        return wrapper

    @contextlib.contextmanager
    def machines_started(self):
        """Lists the FlashMachines started inside the block."""
        machines = []
        self._lists.append(machines)
        try:
            yield machines
        finally:
            self._lists.remove(machines)

    def run(self, fn, *args):
        """Call one harness run, recording its marks; returns fn's value."""
        self._marks = marks = []
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.runs.append((started, time.perf_counter(), marks))
            self._marks = None

    @staticmethod
    def phases_of(start, end, marks):
        """Split one run's wall interval into PHASES (seconds each)."""
        begins = [(t, mark) for t, mark, edge in marks if edge == "begin"]
        fill_at = next((t for t, mark in begins if mark == "start"), start)
        inject_at = next((t for t, mark in begins
                          if mark == "inject" and t >= fill_at), end)
        checks = [t for t, mark in begins
                  if mark == "run_until" and t >= inject_at]
        check_at = checks[-1] if checks else end
        bounds = (start, fill_at, inject_at, check_at, end)
        return {phase: bounds[i + 1] - bounds[i]
                for i, phase in enumerate(PHASES)}

    def totals(self):
        totals = dict.fromkeys(PHASES, 0.0)
        for start, end, marks in self.runs:
            for phase, seconds in self.phases_of(start, end, marks).items():
                totals[phase] += seconds
        return totals

    def shares(self):
        """Each phase's share of the recorded runs' wall time."""
        totals = self.totals()
        whole = sum(totals.values())
        return {phase: seconds / whole for phase, seconds in totals.items()}

    def spans(self):
        """The span tree: run -> phase, as (name, parent, start, end)."""
        out = []
        for index, (start, end, marks) in enumerate(self.runs):
            run_name = "run%d" % index
            out.append({"name": run_name, "parent": None,
                        "start": start, "end": end})
            at = start
            for phase, seconds in self.phases_of(start, end, marks).items():
                out.append({"name": phase, "parent": run_name,
                            "start": at, "end": at + seconds})
                at += seconds
        return out


class LayerProfile:
    """Self time per layer from one cProfile run."""

    def __init__(self, profile):
        self.stats = pstats.Stats(profile).stats
        self._shares = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        for func, entry in self.stats.items():
            for layer, share in self._share(func, ()).items():
                if layer is not None:
                    self.self_s[layer] += entry[2] * share

    def _share(self, func, stack):
        """How ``func``'s self time splits over layers ({layer: share})."""
        cached = self._shares.get(func)
        if cached is not None:
            return cached
        layer = layer_of(func[0])
        if layer is not None:
            share = {layer: 1.0}
        else:
            callers = self.stats[func][4] if func in self.stats else {}
            callers = {caller: edge for caller, edge in callers.items()
                       if caller not in stack and caller != func}
            weights = {caller: edge[2] for caller, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0.0:
                weights = {caller: edge[0]
                           for caller, edge in callers.items()}
                total = sum(weights.values())
            if total <= 0:
                share = {None: 1.0}
            else:
                share = {}
                for caller, weight in weights.items():
                    for owner, part in self._share(
                            caller, stack + (func,)).items():
                        share[owner] = (share.get(owner, 0.0)
                                        + part * weight / total)
        self._shares[func] = share
        return share

    def _find(self, suffix, name, required=True):
        """Profiled functions called ``name`` in a file ending ``suffix``;
        raises MissingFunction if ``required`` and there are none."""
        suffix = os.sep.join(suffix.split("/"))
        found = [(func, entry) for func, entry in self.stats.items()
                 if func[2] == name and func[0].endswith(suffix)]
        if required and not found:
            raise MissingFunction("no profiled function %s in %s"
                                  % (name, suffix))
        return found

    def calls(self, suffix, name):
        """Call count of a function, by file suffix and name."""
        return sum(entry[1] for _, entry in self._find(suffix, name))

    def cumulative_s(self, suffix, name, required=True):
        return sum(entry[3] for _, entry in self._find(suffix, name,
                                                       required))

    def callee_calls(self, suffix, name, exclude=()):
        """Calls made from a function to others (e.g. predicate polls)."""
        callers = {func for func, _ in self._find(suffix, name)}
        total = 0
        for func, entry in self.stats.items():
            if func[2] in exclude:
                continue
            for caller, edge in entry[4].items():
                if caller in callers:
                    total += edge[0]
        return total

    def top(self, limit=25):
        rows = sorted(self.stats.items(), key=lambda item: -item[1][2])
        return [{"function": "%s:%d(%s)" % (func[0].replace(
                    REPRO_DIR, "repro/"), func[1], func[2]),
                 "layer": layer_of(func[0]), "calls": entry[1],
                 "self_s": entry[2], "cumulative_s": entry[3]}
                for func, entry in rows[:limit]]


def traced(fn):
    """Run ``fn`` under the profiler; returns (value, wall_s,
    LayerProfile).  ``fn`` must route each harness run through the run's
    ``PhaseSpans.run`` so its phases are recorded."""
    profile = cProfile.Profile()
    started = time.perf_counter()
    profile.enable()
    try:
        value = fn()
    finally:
        profile.disable()
    wall = time.perf_counter() - started
    return value, wall, LayerProfile(profile)


def machine_counters(machines, profile):
    """Per-layer counters from the stats the model keeps, plus call counts
    the profiler saw."""
    routers = [router for m in machines for router in m.network.routers]
    magics = [node.magic for m in machines for node in m.nodes]
    caches = [node.cache for m in machines for node in m.nodes]
    reports = [report for m in machines
               for report in m.recovery_manager.reports]
    forwarded = sum(router.stats.forwarded for router in routers)
    drops = sum(value for router in routers
                for field, value in vars(router.stats).items()
                if field.startswith("dropped_"))
    scans = profile.calls("interconnect/router.py", "_scan_once")
    hits = sum(cache.hits for cache in caches)
    accesses = hits + sum(cache.misses for cache in caches)
    trace_events = 0
    for machine in machines:
        recorder = (machine.telemetry.recorder
                    if machine.telemetry is not None else None)
        if recorder is not None:
            trace_events += (len(recorder.events)
                             + getattr(recorder, "dropped_events", 0))
    return {
        "sim.events": sum(m.sim.events_executed for m in machines),
        "sim.wakeups": profile.calls("sim/process.py", "_step"),
        "sim.compactions": sum(m.sim.compactions for m in machines),
        "core.predicate_polls": profile.callee_calls(
            "sim/engine.py", "run_until", exclude=("step",)),
        "interconnect.packets_forwarded": forwarded,
        "interconnect.router_wakeups": scans,
        "interconnect.forward_yield": forwarded / scans if scans else 0.0,
        "interconnect.drops": drops,
        "node.handlers_run": sum(magic.stats.handlers_run
                                 for magic in magics),
        "node.cache_hit_ratio": hits / accesses if accesses else 0.0,
        "node.timeouts": sum(magic.stats.timeouts for magic in magics),
        "node.naks": sum(magic.stats.naks_sent for magic in magics),
        "coherence.stray_messages": sum(magic.stats.stray_messages
                                        for magic in magics),
        "recovery.view_merges": profile.calls("recovery/view.py", "merge"),
        "recovery.view_merge_s": profile.cumulative_s("recovery/view.py",
                                                      "merge"),
        "recovery.p2_rounds": sum(max(report.agent_rounds.values(),
                                      default=0) for report in reports),
        "recovery.restarts": sum(report.restarts for report in reports),
        "faults.injections": sum(len(m.injector.injected) for m in machines),
        "faults.skipped": sum(len(m.injector.skipped) for m in machines),
        "telemetry.trace_events": trace_events,
    }
