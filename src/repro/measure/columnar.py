"""Structure-of-arrays (columnar) trace representation.

A :class:`TraceColumns` holds the same information as the event lists of a
:class:`~repro.measure.trace.RawTrace`, but as per-location NumPy arrays:
one array per field (event kind, region, timestamp, work-delta components,
auxiliary payload) instead of one Python object per event.  This is the
layout the vectorized clock replay (:mod:`repro.clocks.columnar`) and the
bulk archive I/O (:mod:`repro.measure.io`) operate on.

The ``aux`` payload of :class:`~repro.sim.events.Ev` is kind-specific --
a ``(match_id, rendezvous)`` pair for sends, a match id for receives, a
``(group_id, size)`` pair for collective and barrier completions, an OpenMP
construct id for fork/join/team events, and absent otherwise.  Columnar
storage decomposes it into two integer columns ``aux_a``/``aux_b`` with
``-1`` marking "no payload"; :meth:`TraceColumns.ev_lists` reconstructs the
exact original Python values from the kind table below.

=============  =========  =========
event kind     aux_a      aux_b
=============  =========  =========
MPI_SEND       match id   rendezvous (0/1)
MPI_RECV       match id   --
COLL_END       coll id    group size
FORK/JOIN      omp id     --
TEAM_BEGIN     omp id     --
OBAR_LEAVE     omp id     team size
FAULT          match id   --
RESTART        restart id n_ranks
(all others)   --         --
=============  =========  =========

Conversion is strict: traces whose ``aux`` payloads do not follow the
engine's conventions (possible for hand-built test traces) raise
:class:`ColumnarConversionError`; such a trace has no clock replay.

Archive readers build a :class:`TraceColumns` straight from the stored
columns (:meth:`TraceColumns.from_flat`) and never create an ``Ev``; the
per-event lists of a :class:`~repro.measure.trace.RawTrace` read from an
archive are materialized only when an ``Ev`` walker asks for them.  The
global merged order every replay consumer walks is computed once per
trace (:meth:`TraceColumns.merged_order`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.sim.events import (
    COLL_END,
    FAULT,
    FORK,
    JOIN,
    MPI_RECV,
    MPI_SEND,
    OBAR_LEAVE,
    RESTART,
    TEAM_BEGIN,
    Ev,
    RegionRegistry,
)
from repro.sim.kernels import EMPTY_DELTA, WorkDelta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.topology import Pinning
    from repro.measure.trace import RawTrace

__all__ = ["ColumnarConversionError", "LocationColumns", "TraceColumns"]

#: event kinds that participate in clock synchronisation (send/fork are
#: producers, the rest consumers); everything else only accumulates work
SYNC_KINDS = (MPI_SEND, MPI_RECV, COLL_END, FORK, TEAM_BEGIN, OBAR_LEAVE, RESTART)

_PAIR_AUX = (MPI_SEND, COLL_END, OBAR_LEAVE, RESTART)
_SCALAR_AUX = (MPI_RECV, FORK, JOIN, TEAM_BEGIN, FAULT)

_DELTA_FIELDS = ("omp_iters", "bb", "stmt", "instr", "burst_calls", "omp_calls")
_INT_FIELDS = ("etype", "region", "aux_a", "aux_b")
#: every column, in archive order
_COLUMN_FIELDS = ("etype", "region", "t", "t_enter", "aux_a", "aux_b") + _DELTA_FIELDS

#: rows per chunk of :meth:`TraceColumns.rows` (bounds its Python lists)
ROW_CHUNK = 4096

_INT_TYPES = (int, np.integer)


class ColumnarConversionError(ValueError):
    """A trace's events do not follow the engine's payload conventions."""


class LocationColumns:
    """The event columns of one location (all arrays share one length)."""

    __slots__ = ("etype", "region", "t", "t_enter", "aux_a", "aux_b",
                 "omp_iters", "bb", "stmt", "instr", "burst_calls", "omp_calls")

    def __init__(self, **arrays):
        for name in self.__slots__:
            setattr(self, name, arrays[name])

    def __len__(self) -> int:
        return len(self.etype)


def _location_to_columns(evs: List[Ev]) -> LocationColumns:
    n = len(evs)
    etype = np.empty(n, dtype=np.int64)
    region = np.empty(n, dtype=np.int64)
    t = np.empty(n, dtype=np.float64)
    t_enter = np.empty(n, dtype=np.float64)
    aux_a = np.full(n, -1, dtype=np.int64)
    aux_b = np.full(n, -1, dtype=np.int64)
    deltas = {f: np.zeros(n, dtype=np.float64) for f in _DELTA_FIELDS}
    try:
        for i, ev in enumerate(evs):
            et = ev.etype
            etype[i] = et
            region[i] = ev.region
            t[i] = ev.t
            t_enter[i] = ev.t_enter
            aux = ev.aux
            if et in _PAIR_AUX:
                a, b = aux
                if not isinstance(a, _INT_TYPES) or not isinstance(b, _INT_TYPES):
                    raise ColumnarConversionError(
                        f"non-integer aux pair {aux!r} on event kind {et}"
                    )
                aux_a[i] = a
                aux_b[i] = b
            elif et in _SCALAR_AUX:
                if not isinstance(aux, _INT_TYPES):
                    raise ColumnarConversionError(
                        f"non-integer aux {aux!r} on event kind {et}"
                    )
                aux_a[i] = aux
            elif aux is not None:
                raise ColumnarConversionError(
                    f"unexpected aux payload {aux!r} on event kind {et}"
                )
            d = ev.delta
            if not d.is_empty:
                for f in _DELTA_FIELDS:
                    v = getattr(d, f)
                    if v:
                        deltas[f][i] = v
    except ColumnarConversionError:
        raise
    except (TypeError, ValueError) as exc:
        raise ColumnarConversionError(
            f"event payload not columnar-convertible: {exc}"
        ) from exc
    return LocationColumns(etype=etype, region=region, t=t, t_enter=t_enter,
                           aux_a=aux_a, aux_b=aux_b, **deltas)


def _reconstruct_aux(et: int, a: int, b: int):
    if et in _PAIR_AUX:
        return (int(a), int(b))
    if et in _SCALAR_AUX:
        return int(a)
    return None


class TraceColumns:
    """Columnar view of a whole trace (the SoA analogue of ``RawTrace``).

    Attributes mirror :class:`~repro.measure.trace.RawTrace`; ``locs[l]``
    is the :class:`LocationColumns` of location ``l``.  The object is a
    *snapshot*: mutating the source trace's event lists afterwards is not
    reflected here.

    Whole-trace queries (:meth:`merged_order`, :meth:`rows`,
    :meth:`sync_order`) index the *flat* event space: every column
    concatenated over locations, location 0 first (:meth:`flat`,
    :meth:`offsets`).
    """

    def __init__(
        self,
        mode: str,
        regions: RegionRegistry,
        locations: List[Tuple[int, int]],
        locs: List[LocationColumns],
        runtime: float = 0.0,
        pinning: Optional["Pinning"] = None,
    ):
        if len(locations) != len(locs):
            raise ValueError(
                f"{len(locations)} locations but {len(locs)} column sets"
            )
        self.mode = mode
        self.regions = regions
        self.locations = locations
        self.locs = locs
        self.runtime = runtime
        self.pinning = pinning
        self._merged_order = None
        self._sync_order = None
        self._replay_plan = None  # compiled by repro.clocks.columnar

    # -- construction ----------------------------------------------------
    @classmethod
    def from_raw(cls, trace: "RawTrace") -> "TraceColumns":
        """Convert a per-event trace once (O(events), single pass)."""
        return cls(
            mode=trace.mode,
            regions=trace.regions,
            locations=list(trace.locations),
            locs=[_location_to_columns(evs) for evs in trace.events],
            runtime=trace.runtime,
            pinning=trace.pinning,
        )

    @classmethod
    def from_flat(
        cls,
        mode: str,
        regions: RegionRegistry,
        locations: List[Tuple[int, int]],
        offsets: np.ndarray,
        flat: Dict[str, np.ndarray],
        runtime: float = 0.0,
    ) -> "TraceColumns":
        """Columns over location-concatenated arrays (the archive layout).

        ``flat`` maps every column name to one array; location ``l`` owns
        rows ``offsets[l]:offsets[l + 1]``.  The caller has checked shapes
        and dtype kinds (:func:`repro.measure.io.read_trace` does).  The
        columns come out exactly as ``from_raw(to_raw(...))`` would leave
        them: integer columns ``int64``, float columns ``float64``,
        ``aux_a``/``aux_b`` ``-1`` on kinds without that payload, and
        ``-0.0`` work deltas ``0.0``.  Canonical input is not copied.
        """
        flat = {f: flat[f].astype(np.int64 if f in _INT_FIELDS else np.float64,
                                  copy=False)
                for f in _COLUMN_FIELDS}
        etype = flat["etype"]
        for field, kinds in (("aux_a", _PAIR_AUX + _SCALAR_AUX),
                             ("aux_b", _PAIR_AUX)):
            stray = (flat[field] != -1) & ~np.isin(etype, kinds)
            if stray.any():
                flat[field] = np.where(stray, -1, flat[field])
        for field in _DELTA_FIELDS:
            col = flat[field]
            if np.signbit(col[col == 0.0]).any():
                flat[field] = np.where(col == 0.0, 0.0, col)
        bounds = [int(o) for o in offsets]
        locs = [
            LocationColumns(**{f: flat[f][a:b] for f in _COLUMN_FIELDS})
            for a, b in zip(bounds, bounds[1:])
        ]
        return cls(mode=mode, regions=regions, locations=locations,
                   locs=locs, runtime=runtime)

    def to_raw(self) -> "RawTrace":
        """A :class:`RawTrace` over these columns (``Ev`` lists built lazily)."""
        from repro.measure.trace import RawTrace

        return RawTrace.from_columns(self)

    def ev_lists(self) -> List[List[Ev]]:
        """Materialize the per-event ``Ev`` lists, one per location.

        The only place a columnar trace turns into ``Ev`` objects; records
        a ``measure.materialize`` span and adds the event count to the
        ``measure.events_materialized`` counter.
        """
        with obs.span("measure.materialize", events=self.n_events):
            events: List[List[Ev]] = []
            for lc in self.locs:
                evs = []
                etype = lc.etype.tolist()
                region = lc.region.tolist()
                t = lc.t.tolist()
                t_enter = lc.t_enter.tolist()
                aux_a = lc.aux_a.tolist()
                aux_b = lc.aux_b.tolist()
                dlists = [getattr(lc, f).tolist() for f in _DELTA_FIELDS]
                for i in range(len(lc)):
                    if (dlists[0][i] or dlists[1][i] or dlists[2][i]
                            or dlists[3][i] or dlists[4][i] or dlists[5][i]):
                        delta = WorkDelta(*(d[i] for d in dlists))
                    else:
                        delta = EMPTY_DELTA
                    evs.append(Ev(
                        etype[i], region[i], t[i], delta,
                        aux=_reconstruct_aux(etype[i], aux_a[i], aux_b[i]),
                        t_enter=t_enter[i],
                    ))
                events.append(evs)
        obs.counter("measure.events_materialized").add(self.n_events)
        return events

    # -- queries ---------------------------------------------------------
    @property
    def n_locations(self) -> int:
        return len(self.locations)

    @property
    def n_events(self) -> int:
        return sum(len(lc) for lc in self.locs)

    def offsets(self) -> np.ndarray:
        """Flat index of every location's first event, plus the total."""
        return np.cumsum([0] + [len(lc) for lc in self.locs], dtype=np.int64)

    def flat(self, field: str) -> np.ndarray:
        """One column concatenated over all locations (a fresh array)."""
        parts = [getattr(lc, field) for lc in self.locs]
        if parts:
            return np.concatenate(parts)
        return np.empty(0, dtype=np.int64 if field in _INT_FIELDS
                        else np.float64)

    def locate(self, pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(loc, index in loc)`` of flat event indices ``pos``."""
        offsets = self.offsets()
        loc = np.searchsorted(offsets, pos, side="right") - 1
        return loc, pos - offsets[loc]

    def merged_order(self) -> np.ndarray:
        """Flat event indices in global merged order (memoized).

        The visit order of :meth:`RawTrace.merged` -- a heap merge by
        ``(t, loc)`` that keeps every location's own order -- as one
        stable sort on the per-location *running maximum* of ``t``, ties
        broken by ``(loc, index)``.  The running maximum matters only for
        a location whose timestamps go backwards: the heap cannot pop such
        an event before its predecessor, so it leaves at its predecessor's
        key.  Mode-independent, so one sort serves every consumer: the
        analyzer's row feed, :meth:`sync_order` and the shards writer.
        """
        if self._merged_order is None:
            key = self.flat("t")
            bounds = self.offsets().tolist()
            for a, b in zip(bounds, bounds[1:]):
                np.maximum.accumulate(key[a:b], out=key[a:b])
            self._merged_order = np.argsort(key, kind="stable")
        return self._merged_order

    def rows(self, times: Optional[Sequence[np.ndarray]] = None) -> Iterator[tuple]:
        """Events as ``(loc, etype, region, aux_a, aux_b, t)`` in merged order.

        ``t`` is taken from ``times`` (per-location timestamps of a clock
        replay) or, by default, the physical timestamps.  Rows are built
        :data:`ROW_CHUNK` at a time, so neither whole-trace Python lists
        nor whole-trace gathered arrays exist at any moment.
        """
        order = self.merged_order()
        offsets = self.offsets()
        if times is None:
            times = [lc.t for lc in self.locs]
        per_loc = [(lc.etype, lc.region, lc.aux_a, lc.aux_b, ts)
                   for lc, ts in zip(self.locs, times)]
        for start in range(0, len(order), ROW_CHUNK):
            pos = order[start:start + ROW_CHUNK]
            # merged order keeps each location's own order, so the chunk
            # holds one contiguous run per location: gather the runs in
            # flat order, then permute them into merged order
            flat_pos = np.sort(pos)
            flat_loc = np.searchsorted(offsets, flat_pos, side="right") - 1
            run_loc, first, count = np.unique(
                flat_loc, return_index=True, return_counts=True)
            runs = list(zip(run_loc.tolist(),
                            (flat_pos[first] - offsets[run_loc]).tolist(),
                            count.tolist()))
            perm = np.searchsorted(flat_pos, pos)
            fields = [
                np.concatenate([per_loc[loc][k][i:i + n] for loc, i, n in runs])[perm]
                for k in range(5)
            ]
            yield from zip(flat_loc[perm].tolist(),
                           *(f.tolist() for f in fields))

    def sync_order(self):
        """Synchronisation events in global merged order (memoized).

        Returns five parallel lists ``(loc, idx, etype, aux_a, aux_b)`` of
        all :data:`SYNC_KINDS` events: :meth:`merged_order` filtered to
        those kinds.  Mode-independent, so one sort serves all clock
        replays.
        """
        if self._sync_order is None:
            order = self.merged_order()
            etype = self.flat("etype")
            pos = order[np.isin(etype[order], SYNC_KINDS)]
            loc, idx = self.locate(pos)
            self._sync_order = (
                loc.tolist(),
                idx.tolist(),
                etype[pos].tolist(),
                self.flat("aux_a")[pos].tolist(),
                self.flat("aux_b")[pos].tolist(),
            )
        return self._sync_order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceColumns(mode={self.mode!r}, locations={self.n_locations}, "
            f"events={self.n_events}, runtime={self.runtime:.4g}s)"
        )
