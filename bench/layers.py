"""Per-layer spans for the traced benchmark pass.

The traced pass wraps public functions of each layer of ``repro``
from the outside: :func:`install` swaps every target for a wrapper
that opens a span, and :func:`uninstall` puts the originals back.
Nothing under ``src/`` is edited.  Spans nest on one stack per process;
a span's *self* time is its duration minus the durations of the spans
directly inside it.

Work done in a forked child (the service's per-job process, engine
pool workers) is invisible here, which is why the traced pass runs the
engine serially.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Nested spans with exact per-name self-time totals.

    Totals are kept for every span; at most ``max_events`` raw spans
    are kept for the Chrome trace (the rest only counted in
    :attr:`dropped`).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_events: int = 50_000) -> None:
        self.clock = clock
        self.max_events = max_events
        #: name -> [calls, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: extra counters recorded by the wrappers (hits, bytes, ...)
        self.counts: Dict[str, float] = {}
        #: (name, start, end, depth)
        self.events: List[Tuple[str, float, float, int]] = []
        self.dropped = 0
        self._stack: List[List[Any]] = []

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def end(self) -> float:
        name, start, covered = self._stack.pop()
        stop = self.clock()
        duration = stop - start
        totals = self.stats.setdefault(name, [0, 0.0])
        totals[0] += 1
        totals[1] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.events) < self.max_events:
            self.events.append((name, start, stop, len(self._stack)))
        else:
            self.dropped += 1
        return duration

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount


# -- hooks: counters read from a wrapped call's arguments and result ----------

def _phase_hook(tracer, args, kwargs, result) -> None:
    tracer.add("soc.sim_s", result.duration_s)


def _eas_hook(tracer, args, kwargs, result) -> None:
    if getattr(result, "profiled", False):
        tracer.add("core.eas_profiled")


def _batch_hook(tracer, args, kwargs, result) -> None:
    tracer.add("engine.run_batch.specs", len(result))
    tracer.add("engine.run_batch.hits",
               sum(1 for r in result if r.from_cache))


def _execute_hook(tracer, args, kwargs, result) -> None:
    tracer.add("engine.run_batch.executed")


def _cache_get_hook(tracer, args, kwargs, result) -> None:
    if result is not None:
        cache, key = args[0], args[1]
        tracer.add("cache.get.hits")
        tracer.add("cache.get.bytes", os.path.getsize(cache.path_for(key)))


def _cache_put_hook(tracer, args, kwargs, result) -> None:
    cache, key = args[0], args[1]
    tracer.add("cache.put.bytes", os.path.getsize(cache.path_for(key)))


def _dispatch_name(args, kwargs) -> str:
    fleet = kwargs.get("fleet", args[0] if args else None)
    policy = kwargs.get("policy", args[2] if len(args) > 2
                        else "energy_aware")
    carbon = getattr(fleet, "carbon", None) is not None
    return f"fleet.dispatch.{policy}" + ("_carbon" if carbon else "")


# -- the layer table ------------------------------------------------------------

#: (module, qualified attribute or "*" for every public method of the
#: class, span name, hook).  Module-level functions are patched in every
#: ``repro`` module that imported them by name.
TARGETS: Tuple[Tuple[str, str, Any, Optional[Callable]], ...] = (
    ("repro.soc.simulator", "IntegratedProcessor.run_phase",
     "soc.run_phase", _phase_hook),
    ("repro.soc.simulator", "IntegratedProcessor.idle", "soc.idle", None),
    ("repro.runtime.runtime", "ConcordRuntime.parallel_for",
     "runtime.parallel_for", None),
    ("repro.runtime.runtime", "KernelLaunch.profile_chunk",
     "runtime.profile_chunk", None),
    ("repro.core.scheduler", "EnergyAwareScheduler.execute",
     "core.eas_execute", _eas_hook),
    ("repro.core.optimizer", "AlphaOptimizer.best_alpha",
     "core.grid_search", None),
    ("repro.core.optimizer", "AlphaOptimizer.best_alpha_constrained",
     "core.grid_search", None),
    ("repro.core.characterization", "PowerCharacterizer.characterize",
     "core.characterize", None),
    ("repro.harness.engine", "ExecutionEngine.run_batch",
     "engine.run_batch", _batch_hook),
    ("repro.harness.engine", "RunSpec.cache_key", "engine.cache_key", None),
    ("repro.harness.engine", "execute_spec", "engine.execute_spec",
     _execute_hook),
    ("repro.harness.engine", "ResultCache.get", "cache.get",
     _cache_get_hook),
    ("repro.harness.engine", "ResultCache.put", "cache.put",
     _cache_put_hook),
    ("repro.harness.suite", "get_characterization",
     "suite.get_characterization", None),
    ("repro.harness.chaos", "run_chaos_campaign", "figures.regenerate",
     None),
    ("repro.fleet.trace", "trace_columns", "fleet.trace_columns", None),
    ("repro.fleet.dispatcher", "dispatch_stream", _dispatch_name, None),
    ("repro.fleet.dispatcher", "run_fleet", _dispatch_name, None),
    ("repro.fleet.policies", "FleetView.note_dispatch",
     "fleet.note_dispatch", None),
    ("repro.fleet.policies", "FleetView.note_completion",
     "fleet.note_completion", None),
    ("repro.fleet.sketch", "LatencySketch.add_batch",
     "fleet.sketch_add_batch", None),
    ("repro.service.store", "DurableStore.*", "service.store", None),
    ("repro.service.daemon", "SchedulerService.submit", "service.submit",
     None),
    ("repro.service.daemon", "SchedulerService.run_until_idle",
     "service.serve", None),
)

#: (module name prefix, method, span name): the method is wrapped on
#: every class that defines it itself, in every module whose name
#: starts with the prefix.
METHODS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.fleet.policies", "place", "fleet.place"),
    ("repro.harness.figures", "render", "figures.render"),
    ("repro.harness.chaos", "render", "figures.render"),
    ("repro.fleet.dispatcher", "render", "figures.render"),
    ("repro.workloads.", "invocations", "workloads.inputs"),
    ("repro.workloads.", "make_kernel", "workloads.inputs"),
)

#: Span names reported as layers, in report order.
LAYERS: Tuple[str, ...] = (
    "soc.run_phase", "soc.idle",
    "runtime.parallel_for", "runtime.profile_chunk",
    "core.eas_execute", "core.grid_search", "core.characterize",
    "engine.run_batch", "engine.cache_key", "engine.execute_spec",
    "cache.get", "cache.put",
    "suite.get_characterization", "workloads.inputs",
    "figures.regenerate", "figures.render",
    "fleet.trace_columns", "fleet.place", "fleet.note_dispatch",
    "fleet.note_completion", "fleet.sketch_add_batch",
    "service.store", "service.submit", "service.serve",
)


def _wrap(fn: Callable, name: Any, tracer: Tracer,
          hook: Optional[Callable]) -> Callable:
    named = callable(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name(args, kwargs) if named else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


#: What :func:`install` replaced: (owner, attribute or key, original).
Saved = List[Tuple[Any, str, Any]]


def _replace(saved: Saved, owner: Any, attr: str, new: Any) -> None:
    if isinstance(owner, dict):
        saved.append((owner, attr, owner[attr]))
        owner[attr] = new
    else:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)


def _repro_modules() -> List[Any]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "repro"
                                  or name.startswith("repro."))]


def _patch_method(saved: Saved, cls: type, attr: str, name: Any,
                  tracer: Tracer, hook: Optional[Callable]) -> None:
    original = cls.__dict__[attr]
    if not inspect.isfunction(original):
        raise TypeError(f"{cls.__name__}.{attr} is not a plain method")
    _replace(saved, cls, attr, _wrap(original, name, tracer, hook))


def _patch_function(saved: Saved, module: Any, attr: str, name: Any,
                    tracer: Tracer, hook: Optional[Callable]) -> None:
    original = getattr(module, attr)
    wrapper = _wrap(original, name, tracer, hook)
    for holder in _repro_modules():
        if holder.__dict__.get(attr) is original:
            _replace(saved, holder, attr, wrapper)


def install(tracer: Tracer) -> Saved:
    """Wrap every layer target (importing its module first); return
    what was replaced, for :func:`uninstall`."""
    saved: Saved = []
    for module_name, target, name, hook in TARGETS:
        module = importlib.import_module(module_name)
        if "." not in target:
            _patch_function(saved, module, target, name, tracer, hook)
            continue
        cls_name, attr = target.split(".")
        cls = getattr(module, cls_name)
        attrs = ([a for a, v in cls.__dict__.items()
                  if not a.startswith("_") and inspect.isfunction(v)]
                 if attr == "*" else [attr])
        for a in attrs:
            _patch_method(saved, cls, a, name, tracer, hook)
    # The workload registry imports its modules lazily; load them all
    # so that their classes exist to be wrapped.
    package = importlib.import_module("repro.workloads")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"repro.workloads.{info.name}")
    for prefix, attr, name in METHODS:
        for module in _repro_modules():
            if not module.__name__.startswith(prefix):
                continue
            for cls in vars(module).values():
                if (inspect.isclass(cls) and cls.__module__ == module.__name__
                        and inspect.isfunction(cls.__dict__.get(attr))):
                    _patch_method(saved, cls, attr, name, tracer, None)
    figures = importlib.import_module("repro.harness.figures")
    for key, fn in list(figures.REGENERATORS.items()):
        _replace(saved, figures.REGENERATORS, key,
                 _wrap(fn, "figures.regenerate", tracer, None))
    return saved


def uninstall(saved: Saved) -> None:
    """Restore every original, last replaced first."""
    while saved:
        owner, attr, original = saved.pop()
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


# -- reporting ------------------------------------------------------------------

FLEET_POLICIES: Tuple[str, ...] = (
    "round_robin", "random", "least_loaded", "energy_aware",
    "deadline_aware", "energy_aware_carbon")


#: Per-layer metrics where more is better; every other one is better
#: lower (less time, work, bytes or overhead).
HIGHER_IS_BETTER = ("soc.sim_s_per_host_s", "engine.cache_hit_frac",
                    "cache.get.hits", ".req_per_s")


def per_layer_spec(figure_ids: Tuple[str, ...]
                   ) -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric the traced pass reports: name -> (unit,
    better).

    Self time is reported as a share of the traced wall, so a layer a
    workload never enters reads 0 rather than a constant time.
    """
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_frac"] = "frac"
    units.update({
        "soc.host_us_per_phase": "us",
        "soc.sim_s_per_host_s": "s/s",
        "core.eas_profiled_frac": "frac",
        "engine.run_batch.specs": "count",
        "engine.run_batch.executed": "count",
        "engine.cache_hit_frac": "frac",
        "cache.get.hits": "count",
        "cache.get.bytes": "B",
        "cache.put.bytes": "B",
    })
    for policy in FLEET_POLICIES:
        units[f"fleet.dispatch.{policy}.self_frac"] = "frac"
        units[f"fleet.dispatch.{policy}.req_per_s"] = "1/s"
    for fid in figure_ids:
        units[f"figure.{fid}.wall_frac"] = "frac"
    units.update({
        "trace.wall_s": "s",
        "trace.unattributed_s": "s",
        "trace.unattributed_frac": "frac",
        "trace.overhead_frac": "frac",
        "trace.spans": "count",
    })
    return {name: (unit, "higher" if name.endswith(HIGHER_IS_BETTER)
                   else "lower")
            for name, unit in units.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: Dict[str, List[float]], counts: Dict[str, float],
                  wall_s: float, root: str) -> Dict[str, float]:
    """Per-layer numbers from summed span totals (several traced
    children add up before this is called)."""
    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0))[1]

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_frac"] = _ratio(self_s(layer), wall_s)
    phase_self = self_s("soc.run_phase")
    out["soc.host_us_per_phase"] = _ratio(1e6 * phase_self,
                                          calls("soc.run_phase"))
    out["soc.sim_s_per_host_s"] = _ratio(counts.get("soc.sim_s", 0.0),
                                         phase_self)
    out["core.eas_profiled_frac"] = _ratio(counts.get("core.eas_profiled", 0),
                                           calls("core.eas_execute"))
    specs = counts.get("engine.run_batch.specs", 0)
    out["engine.run_batch.specs"] = specs
    out["engine.run_batch.executed"] = counts.get(
        "engine.run_batch.executed", 0)
    out["engine.cache_hit_frac"] = _ratio(
        counts.get("engine.run_batch.hits", 0), specs)
    out["cache.get.hits"] = counts.get("cache.get.hits", 0)
    out["cache.get.bytes"] = counts.get("cache.get.bytes", 0)
    out["cache.put.bytes"] = counts.get("cache.put.bytes", 0)
    for policy in FLEET_POLICIES:
        out[f"fleet.dispatch.{policy}.self_frac"] = _ratio(
            self_s(f"fleet.dispatch.{policy}"), wall_s)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = self_s(root)
    out["trace.unattributed_frac"] = _ratio(self_s(root), wall_s)
    out["trace.spans"] = sum(v[0] for v in stats.values())
    return out


def chrome_trace(children: List[List[Tuple[str, float, float, int]]],
                 metadata: Dict[str, Any]) -> Dict[str, Any]:
    """Chrome trace-event JSON: one process per traced child."""
    events = []
    for pid, spans in enumerate(children):
        if not spans:
            continue
        origin = min(start for _, start, _, _ in spans)
        for name, start, stop, _ in spans:
            events.append({"name": name, "cat": name.split(".")[0],
                           "ph": "X", "pid": pid, "tid": 0,
                           "ts": round(1e6 * (start - origin), 3),
                           "dur": round(1e6 * (stop - start), 3)})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "metadata": metadata}
