"""Runtime observability: timelines, metrics, and phase profiling.

The simulator's ledgers answer "how much did the run cost"; this package
answers "what happened *when*":

* :mod:`repro.obs.timeline` — per-cycle :class:`TimelineRecorder` of
  link/message/fault events from the engine (both matchers and the fast
  bookkeeping path) plus coarse per-round records from the array
  backends, with :func:`cross_validate_timeline` checking the recording
  against the static analyzer's extracted schedule;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and histograms fed by :class:`~repro.simulator.counters.CostCounters`
  and the recorder, exporting JSON lines and Prometheus text format;
* :mod:`repro.obs.profile` — :class:`PhaseProfiler` wallclock spans for
  algorithm phases, surfaced in ``repro bench`` records.

The ``repro timeline`` CLI command renders a recorded run as an ASCII
link-utilization heatmap; see ``docs/observability.md`` for the tour.
"""

from repro.obs.timeline import (
    CycleAggregate,
    FaultEvent,
    LinkEvent,
    StepRecord,
    TimelineRecorder,
    cross_validate_timeline,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry_from_counters,
    registry_from_timeline,
)
from repro.obs.profile import NULL_PROFILER, PhaseProfiler, PhaseSpan

__all__ = [
    "CycleAggregate",
    "FaultEvent",
    "LinkEvent",
    "StepRecord",
    "TimelineRecorder",
    "cross_validate_timeline",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry_from_counters",
    "registry_from_timeline",
    "PhaseProfiler",
    "PhaseSpan",
    "NULL_PROFILER",
]
