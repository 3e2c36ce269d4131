"""``repro.obs``: the scheduler flight recorder.

A zero-overhead-when-disabled observability layer for the EAS runtime
(see docs/OBSERVABILITY.md):

* :class:`Observer` / :data:`NULL_OBSERVER` - span tracing, point
  events, per-invocation :class:`DecisionRecord` audit records, and a
  counters/gauges/histograms :class:`MetricsRegistry`;
* :mod:`repro.obs.export` - JSONL event logs and Chrome
  ``chrome://tracing`` trace-event JSON, merging scheduler spans with
  the simulator's power timeline;
* :mod:`repro.obs.validate` - structural schema validators for every
  exported format (also runnable: ``python -m repro.obs.validate f``).

The default everywhere is :data:`NULL_OBSERVER`: instrumented layers
pay one attribute load per phase until a harness passes a real
:class:`Observer`.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.observer import NULL_OBSERVER, NullObserver, Observer, resolve
from repro.obs.records import (
    ALL_EXIT_PATHS,
    EXIT_DEGRADED,
    EXIT_FAULT_DEGRADED,
    EXIT_GPU_BUSY,
    EXIT_PROFILED,
    EXIT_SMALL_N,
    EXIT_TABLE_HIT,
    DecisionRecord,
)
from repro.obs.spans import EventRecord, SpanRecord

__all__ = [
    "Observer", "NullObserver", "NULL_OBSERVER", "resolve",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "SpanRecord", "EventRecord",
    "DecisionRecord", "ALL_EXIT_PATHS",
    "EXIT_TABLE_HIT", "EXIT_SMALL_N", "EXIT_GPU_BUSY", "EXIT_DEGRADED",
    "EXIT_FAULT_DEGRADED", "EXIT_PROFILED",
]
