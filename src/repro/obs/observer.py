"""The observer: the one object instrumentation points talk to.

Design goal: **zero overhead when disabled**.  Every instrumented
layer (scheduler, runtime, simulator, harness) holds an observer
reference that defaults to the shared :data:`NULL_OBSERVER`, whose
``enabled`` flag is ``False`` and whose hooks are no-ops.  Hot paths
guard any non-trivial bookkeeping with ``if observer.enabled:`` - a
single attribute load - so a run without ``--trace``/``--metrics-out``
pays one pointer and one boolean per *phase*, not per tick.

An enabled :class:`Observer` collects four streams in memory:

* **spans** (:class:`~repro.obs.spans.SpanRecord`) - nested, wall- and
  simulated-time stamped intervals;
* **events** (:class:`~repro.obs.spans.EventRecord`) - point events;
* **decisions** (:class:`~repro.obs.records.DecisionRecord`) - one per
  scheduled invocation, every exit path;
* **metrics** (:class:`~repro.obs.metrics.MetricsRegistry`) -
  counters, gauges, histograms.

Exporters (:mod:`repro.obs.export`) turn these into a JSONL event log
or a Chrome ``chrome://tracing`` trace merged with the simulator's
:class:`~repro.soc.trace.PowerTrace`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.records import DecisionRecord
from repro.obs.spans import EventRecord, SpanRecord


class _SpanContext:
    """Context manager closing one span on exit (reentrant-free)."""

    __slots__ = ("_observer", "_record")

    def __init__(self, observer: "Observer", record: SpanRecord) -> None:
        self._observer = observer
        self._record = record

    def __enter__(self) -> SpanRecord:
        return self._record

    def __exit__(self, exc_type, exc, tb) -> None:
        self._observer._close_span(self._record, exc)


class _NullSpanContext:
    """Shared do-nothing span context for the disabled observer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class Observer:
    """Collects spans, events, decisions, and metrics for one run."""

    enabled: bool = True

    def __init__(self, metadata: Optional[Dict[str, Any]] = None) -> None:
        self.metadata: Dict[str, Any] = dict(metadata or {})
        self.metrics = MetricsRegistry()
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []
        self.decisions: List[DecisionRecord] = []
        self._stack: List[SpanRecord] = []
        self._seq = 0
        self._sim_clock: Optional[Callable[[], float]] = None

    # -- wiring -----------------------------------------------------------------

    def bind_sim_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Bind the simulated-time source (e.g. ``lambda: processor.now``).

        Spans and events opened afterwards carry simulated timestamps
        alongside wall time; ``None`` unbinds.
        """
        self._sim_clock = clock

    def _sim_now(self) -> Optional[float]:
        clock = self._sim_clock
        return clock() if clock is not None else None

    # -- spans ------------------------------------------------------------------

    # span(), _close_span(), inc() and observe() run several times per
    # simulated phase of an observed run, so they read the clock and the
    # registry's dicts directly instead of through helper calls.

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a nested span; use as ``with obs.span("name", k=v):``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        clock = self._sim_clock
        record = SpanRecord(
            name=name,
            seq=self._seq,
            parent_seq=parent.seq if parent is not None else None,
            depth=len(stack),
            wall_start_s=time.perf_counter(),
            sim_start_s=clock() if clock is not None else None,
            attrs=attrs,
        )
        self._seq += 1
        self.spans.append(record)
        stack.append(record)
        return _SpanContext(self, record)

    def _close_span(self, record: SpanRecord, exc: Optional[BaseException]) -> None:
        record.wall_end_s = time.perf_counter()
        clock = self._sim_clock
        record.sim_end_s = clock() if clock is not None else None
        if exc is not None:
            record.attrs.setdefault("error", type(exc).__name__)
        # Unwind to (and including) the record even if inner spans
        # leaked - an exception may have skipped their __exit__.
        while self._stack:
            if self._stack.pop() is record:
                break

    # -- events & decisions ------------------------------------------------------

    def event(self, name: str, **attrs: Any) -> None:
        """Record one point event."""
        self.events.append(EventRecord(
            name=name, wall_s=time.perf_counter(),
            sim_s=self._sim_now(), attrs=attrs))

    def decision(self, record: DecisionRecord) -> None:
        """Attach one per-invocation scheduling decision record."""
        if record.sim_time_s is None:
            record.sim_time_s = self._sim_now()
        self.decisions.append(record)

    # -- merging -----------------------------------------------------------------

    def merge_child(self, child: "Observer") -> None:
        """Absorb a child observer's streams (worker -> parent merge).

        Child span sequence numbers are offset past this observer's
        so they stay unique and parent links stay intact; events,
        decisions, and metrics append/fold in order.  Used by the
        execution engine to reassemble whole traces from process-pool
        workers (see docs/PARALLELISM.md).
        """
        offset = self._seq
        for span in child.spans:
            span.seq += offset
            if span.parent_seq is not None:
                span.parent_seq += offset
            self.spans.append(span)
        self._seq += child._seq
        self.events.extend(child.events)
        self.decisions.extend(child.decisions)
        self.metrics.merge(child.metrics)

    # -- metric shorthands -------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        counter = self.metrics._counters.get(name)
        if counter is None:
            counter = self.metrics.counter(name)
        counter.value += amount

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        histogram = self.metrics._histograms.get(name)
        if histogram is None:
            histogram = self.metrics.histogram(name)
        histogram.observe(value)


class NullObserver(Observer):
    """The disabled observer: every hook is a no-op.

    A process-wide singleton (:data:`NULL_OBSERVER`) is what every
    instrumented component holds by default, so "observability off"
    costs one attribute load per guard.
    """

    enabled = False

    def bind_sim_clock(self, clock) -> None:  # noqa: D102 - no-op
        pass

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:  # type: ignore[override]
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def decision(self, record: DecisionRecord) -> None:
        pass

    def merge_child(self, child: "Observer") -> None:
        pass

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


#: The shared disabled observer.
NULL_OBSERVER = NullObserver()


def resolve(observer: Optional[Observer]) -> Observer:
    """``observer or NULL_OBSERVER`` with the type spelled out."""
    return observer if observer is not None else NULL_OBSERVER
