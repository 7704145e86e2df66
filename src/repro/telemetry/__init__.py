"""Telemetry: event tracing, metrics, timelines, and the scalability bench.

The subsystem has four layers, all disabled by default (zero-cost when off):

* :mod:`repro.telemetry.trace` — the structured event bus.  Instrumented
  components (routers, node interfaces, MAGIC, the recovery manager and
  agents, the fault injector) each hold a ``trace`` attribute that is
  ``None`` unless a :class:`TraceRecorder` was attached; every emission
  site is guarded by a single ``is None`` check, which is the whole
  overhead contract (see DESIGN.md §9).
* :mod:`repro.telemetry.metrics` — counters / gauges / histograms with
  per-node labels and machine-wide aggregation, plus harvesting of the
  hardware stats (RouterStats, MagicStats, RecoveryReports) that the model
  maintains anyway.
* :mod:`repro.telemetry.timeline` — reconstruction of per-episode recovery
  timelines (P1..P4 spans per node, critical path) from a trace.
* :mod:`repro.telemetry.chrome` — Chrome ``trace_event`` JSON export for
  chrome://tracing / Perfetto, with flow arrows along causal edges.
* :mod:`repro.telemetry.forensics` — causal DAG reconstruction, per-fault
  blast radii and the observational containment audit (DESIGN.md §11).

The observability layer (DESIGN.md §15) builds on the same contract:

* :mod:`repro.telemetry.flight` — the always-on flight recorder, the
  one bounded recorder: a ring keeping the *last* N events;
* :mod:`repro.telemetry.profiler` — per-handler sim-time profiling over
  the event-loop dispatch (attach-only, same ``is not None`` guard);
* :mod:`repro.telemetry.availability` — per-cell up/degraded/down
  timelines and MTTR percentiles from recovery reports;
* :mod:`repro.telemetry.status` / :mod:`repro.telemetry.report` — fleet
  heartbeat sidecars and the aggregated HTML report.

:mod:`repro.telemetry.scalability` builds the paper's Section 6 style
recovery-latency-vs-machine-size sweep on top (``repro.cli bench``).
"""

from repro.telemetry.chrome import write_chrome_trace
from repro.telemetry.forensics import analyze, build_dag, forensic_summary
from repro.telemetry.status import read_status
from repro.telemetry.timeline import build_timelines
from repro.telemetry.trace import NULL_RECORDER, Telemetry, TraceRecorder

__all__ = [
    "NULL_RECORDER",
    "Telemetry",
    "TraceRecorder",
    "analyze",
    "build_dag",
    "build_timelines",
    "forensic_summary",
    "read_status",
    "write_chrome_trace",
]
