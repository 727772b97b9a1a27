"""The raw trace: per-location event sequences plus definitions.

A :class:`RawTrace` is what one instrumented run produces -- the analogue
of an OTF2 archive.  It stores *physical* timestamps and work deltas; the
clock modules (:mod:`repro.clocks`) derive the mode's final timestamps
from it, and the analyzer (:mod:`repro.analysis`) replays it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.machine.topology import Pinning
from repro.sim.events import Ev, RegionRegistry

__all__ = ["RawTrace"]


class RawTrace:
    """Trace of one instrumented run.

    Attributes
    ----------
    mode:
        Measurement mode the run was taken with.
    regions:
        Region-name registry shared by all events.
    locations:
        ``[(rank, thread), ...]`` indexed by location id.
    events:
        ``events[loc]`` is the time-ordered event list of that location.
        A trace built by :meth:`from_columns` (every archive read) builds
        these ``Ev`` lists only when first asked for them.
    runtime:
        Total wall runtime of the run (physical virtual-seconds).
    """

    def __init__(
        self,
        mode: str,
        regions: RegionRegistry,
        locations: List[Tuple[int, int]],
        events: Optional[List[List[Ev]]],
        runtime: float = 0.0,
        pinning: Optional[Pinning] = None,
    ):
        if events is not None and len(locations) != len(events):
            raise ValueError(
                f"{len(locations)} locations but {len(events)} event lists"
            )
        self.mode = mode
        self.regions = regions
        self.locations = locations
        self._events = events
        self.runtime = runtime
        self.pinning = pinning
        #: provenance manifest read back from an archive (see
        #: :mod:`repro.obs.provenance`), ``None`` for in-memory traces
        self.provenance: Optional[dict] = None
        self._loc_index: Dict[Tuple[int, int], int] = {
            lt: i for i, lt in enumerate(locations)
        }
        self._columns = None

    @classmethod
    def from_columns(cls, cols, provenance: Optional[dict] = None) -> "RawTrace":
        """A trace over the columnar snapshot ``cols`` (archive reads).

        ``columns()`` returns ``cols`` itself, so the clock replay, the
        analyzer and what-if never create an ``Ev``; :attr:`events` is
        materialized from the columns on first access.
        """
        trace = cls(cols.mode, cols.regions, list(cols.locations), None,
                    runtime=cols.runtime, pinning=cols.pinning)
        trace._columns = cols
        trace.provenance = provenance
        return trace

    @property
    def events(self) -> List[List[Ev]]:
        if self._events is None:
            self._events = self._columns.ev_lists()
        return self._events

    # -- queries ---------------------------------------------------------
    @property
    def n_locations(self) -> int:
        return len(self.locations)

    @property
    def n_events(self) -> int:
        if self._events is None:
            return self._columns.n_events
        return sum(len(e) for e in self._events)

    @property
    def n_ranks(self) -> int:
        return len({r for (r, _t) in self.locations})

    def loc_id(self, rank: int, thread: int) -> int:
        return self._loc_index[(rank, thread)]

    def threads_of(self, rank: int) -> List[int]:
        return sorted(t for (r, t) in self.locations if r == rank)

    def master_locations(self) -> List[int]:
        """Location ids of the master thread of every rank."""
        return [self._loc_index[(r, 0)] for r in sorted({r for (r, _t) in self.locations})]

    def columns(self):
        """Columnar (structure-of-arrays) view of this trace, built once.

        Returns the memoized :class:`repro.measure.columnar.TraceColumns`
        snapshot used by the vectorized clock replay and the bulk archive
        writer.  Raises
        :class:`repro.measure.columnar.ColumnarConversionError` for traces
        whose event payloads do not follow the engine's conventions.
        """
        if self._columns is None:
            from repro.measure.columnar import TraceColumns

            self._columns = TraceColumns.from_raw(self)
        return self._columns

    def merged(self) -> Iterator[Tuple[int, Ev]]:
        """All events in a global order consistent with happens-before.

        Per-location order is preserved; across locations, events are
        merged by physical timestamp (ties broken by location id).  In
        this simulator physical timestamps respect causality, so the
        merged order is a valid topological order of the event DAG -- the
        property the logical-clock replay relies on.
        """
        import heapq

        iters = []
        for loc, evs in enumerate(self.events):
            it = iter(evs)
            first = next(it, None)
            if first is not None:
                iters.append((first.t, loc, first, it))
        heapq.heapify(iters)
        while iters:
            t, loc, ev, it = heapq.heappop(iters)
            yield loc, ev
            nxt = next(it, None)
            if nxt is not None:
                heapq.heappush(iters, (nxt.t, loc, nxt, it))

    def validate(self) -> None:
        """Check per-location monotonicity and matching consistency.

        Runs the full structural pass of the trace sanitizer
        (:func:`repro.verify.sanitize_raw`): per-location monotonicity,
        ENTER/LEAVE stack discipline, send/recv match-id integrity and
        collective-epoch consistency.  Raises ``AssertionError`` on the
        first rule violation (preserving the historical contract of this
        method); use :func:`repro.verify.sanitize_trace` directly for a
        structured report instead of an exception.
        """
        from repro.verify.diagnostics import format_diagnostics, has_errors
        from repro.verify.sanitizer import sanitize_raw

        diagnostics = sanitize_raw(self)
        if has_errors(diagnostics):
            raise AssertionError(format_diagnostics(
                diagnostics, header="trace failed validation:"
            ))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RawTrace(mode={self.mode!r}, locations={self.n_locations}, "
            f"events={self.n_events}, runtime={self.runtime:.4g}s)"
        )
