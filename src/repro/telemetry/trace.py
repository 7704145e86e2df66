"""The low-overhead event bus: TraceRecorder and the Telemetry bundle.

Design contract (the "disabled-by-default overhead" rule, DESIGN.md §9):

* every instrumented component initializes ``self.trace = None``;
* every emission site is written as::

      tr = self.trace
      if tr is not None:
          tr.emit("pkt", "drop", node=self.router_id, reason="link")

  so with telemetry off the *entire* cost is one attribute load and one
  identity comparison — no call, no argument packing, no event object;
* recording must never perturb the simulation: :meth:`TraceRecorder.emit`
  reads the clock and appends to a list, draws no randomness and schedules
  nothing.  A directed test asserts a traced run and an untraced run
  produce bit-identical recovery reports.

Event taxonomy (category / name):

========== ===================== ==========================================
category   names                 emitted by
========== ===================== ==========================================
pkt        send, recv, drop      NodeInterface (send/recv), Router (drop)
detect     timeout, nak_overflow MAGIC failure detectors (§4.2)
           truncated
recovery   trigger               MAGIC -> RecoveryManager fan-in
episode    begin, restart, end   RecoveryManager
phase      enter, exit           recovery agents via the manager (P1..P4)
round      done                  agent dissemination loop (§4.3)
barrier    done                  RecoveryComm combining-tree barrier (§4.4)
fault      inject, skip          FaultInjector
========== ===================== ==========================================

Events optionally carry a *causal edge* (DESIGN.md §11): ``emit`` accepts
``cause=<parent eid or tuple of eids>`` and returns the new event's eid so
callers can thread provenance through packets and handler fan-out.  The
forensics module (:mod:`repro.telemetry.forensics`) reconstructs the
per-fault causal DAG from those edges.
"""


class TraceEvent:
    """One structured event: (time ns, category, name, node, data).

    ``eid`` is the event's index in its recorder; ``cause`` is the eid of
    the event that caused it (or a tuple of eids for merge points), forming
    the causal DAG edges used by forensics.  Both are None for events
    recorded without provenance.
    """

    __slots__ = ("time", "category", "name", "node", "data", "eid", "cause")

    def __init__(self, time, category, name, node, data, eid=None,
                 cause=None):
        self.time = time
        self.category = category
        self.name = name
        self.node = node
        self.data = data
        self.eid = eid
        self.cause = cause

    @property
    def key(self):
        return "%s.%s" % (self.category, self.name)

    def to_dict(self):
        cause = self.cause
        if isinstance(cause, tuple):
            cause = list(cause)
        return {"time": self.time, "category": self.category,
                "name": self.name, "node": self.node, "data": self.data,
                "eid": self.eid, "cause": cause}

    def __repr__(self):
        return "<TraceEvent %s.%s node=%s @%.0f %r>" % (
            self.category, self.name, self.node, self.time, self.data)


class TraceRecorder:
    """Collects every :class:`TraceEvent` from instrumented components.

    The trace is unbounded; :class:`~repro.telemetry.flight.FlightRecorder`
    is the bounded variant, keeping the newest N events.
    ``dropped_events`` stays 0 here and counts evictions there.
    """

    def __init__(self, sim=None):
        self._sim = sim
        self.events = []
        self.dropped_events = 0
        self.enabled = True

    def bind(self, sim):
        """Attach the simulator whose clock stamps the events."""
        self._sim = sim
        return self

    @property
    def now(self):
        return self._sim.now if self._sim is not None else 0.0

    def emit(self, category, name, node=None, cause=None, **data):
        """Record one event; returns its eid (None when not recorded).

        ``cause`` is an optional causal-parent eid (or tuple of eids) as
        returned by a previous ``emit``; forensics reconstructs the causal
        DAG from these edges.
        """
        if not self.enabled:
            return None
        eid = len(self.events)
        self.events.append(
            TraceEvent(self.now, category, name, node, data, eid, cause))
        return eid

    # ------------------------------------------------------------- queries

    def __len__(self):
        return len(self.events)

    def events_of(self, category, name=None):
        return [event for event in self.events
                if event.category == category
                and (name is None or event.name == name)]

    def count(self, category, name=None):
        return len(self.events_of(category, name))

    def clear(self):
        self.events = []
        self.dropped_events = 0

    def to_dicts(self):
        return [event.to_dict() for event in self.events]


class _NullRecorder(TraceRecorder):
    """A recorder that records nothing.

    Components never call it (they check ``trace is None``), but harness
    code that wants to call ``recorder.emit`` unconditionally can use
    :data:`NULL_RECORDER` instead of branching.  A no-op-recorder test
    pins this behaviour.
    """

    def __init__(self):
        super().__init__()
        self.enabled = False

    def emit(self, category, name, node=None, cause=None, **data):
        return None


NULL_RECORDER = _NullRecorder()


class Telemetry:
    """The bundle a :class:`~repro.core.machine.FlashMachine` accepts.

    ``Telemetry()`` enables both the event bus (the full trace) and the
    metrics registry; ``Telemetry(trace=False)`` keeps only metrics (cheap
    counters harvested at the end of a run, nothing on the hot path);
    ``Telemetry(flight=N)`` records into a
    :class:`~repro.telemetry.flight.FlightRecorder` instead — a bounded
    ring keeping the *last* N events (what campaign and fuzz workers
    attach, so a failure always arrives with its tail window).
    """

    def __init__(self, trace=True, flight=None):
        if flight is not None:
            from repro.telemetry.flight import FlightRecorder
            self.recorder = FlightRecorder(capacity=flight)
        elif trace:
            self.recorder = TraceRecorder()
        else:
            self.recorder = None
        from repro.telemetry.metrics import MetricsRegistry
        self.metrics = MetricsRegistry()

    def bind(self, sim):
        if self.recorder is not None:
            self.recorder.bind(sim)
        return self

    @property
    def events(self):
        return self.recorder.events if self.recorder is not None else []
