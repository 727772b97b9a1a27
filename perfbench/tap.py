"""Layer timing from outside the program.

The benchmark never edits ``src/``.  It times each layer by wrapping
that layer's public functions at the name its callers look up (e.g.
``repro.experiments.workflow.analyze_trace``, which the campaign calls,
and ``repro.analysis.analyze_trace``, which the serve jobs import at
call time).  Spans go to a :class:`repro.obs.ObsSession` owned by the
benchmark; the session is never made the process's active session, so
the program's own ``obs`` calls stay no-ops and the dump holds only the
benchmark's spans.  ``repro-obs summary`` reads the dump.

Two wrappers run even when tracing is off, because the output checks
and the campaign's per-run latency need them: the clock-replay tap
records the final clock value of every location, and the ``Engine.run``
tap records when each simulated run starts.  Both cost a few
microseconds per call.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer): every public call the split times
SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine", "Engine.run", "sim"),
    ("repro.measure.columnar", "TraceColumns.from_raw", "measure.columnize"),
    ("repro.measure", "read_trace", "measure.io"),
    ("repro.measure.io", "read_trace", "measure.io"),
    ("repro.clocks", "timestamp_trace", "clocks"),
    ("repro.experiments.workflow", "timestamp_trace", "clocks"),
    ("repro.analysis", "analyze_trace", "analysis"),
    ("repro.experiments.workflow", "analyze_trace", "analysis"),
    ("repro.cube.profile", "CubeProfile.normalized", "cube"),
    ("repro.cube.profile", "CubeProfile.mean", "cube"),
    ("repro.experiments.workflow", "preflight_lint", "verify"),
    ("repro.causal", "build_dag", "causal"),
    ("repro.causal", "blame_profile", "causal"),
    ("repro.causal", "critical_path_table", "causal"),
    ("repro.causal", "run_whatif", "causal"),
    ("repro.scoring", "jaccard_metric_callpath", "scoring"),
)

#: every layer the benchmark reports, in report order
LAYERS = (
    "sim", "measure.columnize", "measure.io", "clocks", "analysis", "cube",
    "verify", "experiments", "causal", "scoring", "serve.job",
    "serve.funnel", "serve.cache",
)

#: logical modes whose clock finals are seed-invariant (checked)
PINNED_MODES = ("lt1", "ltbb", "ltstmt")


def finals_of(timestamped) -> List[float]:
    """Final clock value per location, as the serve ``replay`` op reports."""
    return [float(t[-1]) if len(t) else 0.0 for t in timestamped.times]


class Tap:
    """Installs the wrappers, records spans and the captured outputs."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.session = None
        if trace:
            from repro.obs import ObsSession

            self.session = ObsSession()
        #: request id stamped on every span (spans of one request share it)
        self.req = ""
        #: (experiment, mode) -> finals, from the workflow's clock replay
        self.finals: Dict[Tuple[str, str], List[List[float]]] = defaultdict(list)
        self.experiment = ""
        #: perf_counter at the start of every simulated run
        self.run_starts: List[float] = []
        #: seconds per campaign run, see :meth:`close_runs`
        self.run_seconds: List[float] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._undo: List[Callable[[], None]] = []

    # -- wrappers -----------------------------------------------------------
    def install(self) -> "Tap":
        """Wrap the taps, plus every site in :data:`SITES` when tracing."""
        taps = {
            ("repro.sim.engine", "Engine.run"): (self._on_run_start,
                                                 self._on_run),
            ("repro.experiments.workflow", "timestamp_trace"):
                (None, self._on_replay),
        }
        for module, attr, layer in SITES:
            before, after = taps.get((module, attr), (None, None))
            if layer == "measure.io":
                after = self._on_read
            if self.trace or (module, attr) in taps:
                self._wrap(module, attr, layer, after, before)
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tap":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def _wrap(self, module: str, attr: str, layer: str,
              after: Optional[Callable] = None,
              before: Optional[Callable] = None) -> None:
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        static = inspect.getattr_static(owner, name)
        is_classmethod = isinstance(static, classmethod)
        func = static.__func__ if is_classmethod else getattr(owner, name)
        tap = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            if tap.session is None:
                out = func(*args, **kwargs)
            else:
                with tap.session.span(layer, req=tap.req):
                    out = func(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = func
        setattr(owner, name, classmethod(wrapper) if is_classmethod
                else wrapper)
        self._undo.append(lambda: setattr(owner, name, static))

    def _on_run_start(self) -> None:
        self.run_starts.append(time.perf_counter())

    def _on_run(self, _args, result) -> None:
        trace = getattr(result, "trace", None)
        if trace is not None:
            self.counts["sim.events"] += trace.n_events

    def _on_replay(self, args, timestamped) -> None:
        mode = args[1] if len(args) > 1 else timestamped.mode
        if mode in PINNED_MODES:
            self.finals[(self.experiment, mode)].append(finals_of(timestamped))

    def _on_read(self, args, _trace) -> None:
        try:
            self.counts["measure.io.read_bytes"] += os.path.getsize(args[0])
        except (OSError, TypeError):
            pass

    def close_runs(self, end: float) -> None:
        """Turn the ``Engine.run`` starts of one experiment into run times.

        Every campaign run, reference or instrumented, begins with one
        simulation, so a run lasts from its start to the next start, or
        to the end of the experiment for the last run.
        """
        bounds = self.run_starts + [end]
        self.run_seconds.extend(b - a for a, b in zip(bounds, bounds[1:]))
        self.run_starts = []

    def span(self, layer: str, **args):
        """A span around a call the benchmark makes itself."""
        from repro.obs import NULL_SPAN

        if self.session is None:
            return NULL_SPAN
        return self.session.span(layer, req=self.req, **args)


def self_times(records) -> Dict[str, Tuple[float, int]]:
    """Per-layer ``(self seconds, calls)`` of one span recorder.

    A span's self time is its duration minus the durations of its direct
    children.
    """
    child = [0.0] * len(records)
    for span in records:
        if span.parent >= 0:
            child[span.parent] += span.duration
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for i, span in enumerate(records):
        acc = out[span.name]
        acc[0] += span.duration - child[i]
        acc[1] += 1
    return {k: (v[0], int(v[1])) for k, v in out.items()}
