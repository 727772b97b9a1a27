"""Bounded-memory clock replay over streamed (sharded) traces.

:func:`stream_clock_replay` runs the Lamport replay (Algorithm 1) over
any trace-like object's ``merged()`` iterator -- including
:class:`~repro.measure.shards.ShardedTrace`, which keeps at most one
shard resident -- but keeps only O(locations + in-flight groups) state
instead of materialising per-event timestamp arrays.  The result is a
:class:`ClockReplaySummary`: the final clock value per location, the
global maximum (the mode's makespan measure), and per-location event
counts.

All six modes are supported: ``tsc`` passes the physical timestamps
through (final clock = last event time per location), the logical modes
walk :func:`_stream_walk` with the per-location increment callables of
:func:`location_increments` (``lthwctr``'s counter model needs only the
location table, so it streams too).  Final values are bit-identical to
the full :func:`repro.clocks.base.timestamp_trace` replay; the suite
checks this per mode.

:func:`_stream_walk` is the package's one per-event state machine for
the eager Lamport replay; the what-if validator (:mod:`repro.causal.whatif`) drives it
with its own edited increment callables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.clocks.hwcounter import HwCounterIncrement
from repro.clocks.increments import make_increment
from repro.machine.noise import CounterNoise, NoiseConfig
from repro.measure.config import LTHWCTR, TSC, validate_mode
from repro.sim.events import (
    COLL_END,
    FORK,
    MPI_RECV,
    MPI_SEND,
    OBAR_LEAVE,
    RESTART,
    TEAM_BEGIN,
    Ev,
)
from repro.util.rng import RngStreams

__all__ = ["ClockReplaySummary", "location_increments", "stream_clock_replay"]


@dataclass
class ClockReplaySummary:
    """Bounded-size result of a streaming clock replay."""

    mode: str
    final: List[float]  # last clock value per location
    n_events: List[int]  # events replayed per location
    max_clock: float  # global maximum over all locations

    def __post_init__(self):
        if not self.final:
            self.max_clock = 0.0


def location_increments(
    trace_like,
    mode: str,
    counter_seed: int = 0,
    counter_noise_config: Optional[NoiseConfig] = None,
) -> List[Callable[[Ev], float]]:
    """Per-location increment callables of logical ``mode``.

    :func:`repro.clocks.increments.make_increment` for the static modes;
    for ``lthwctr`` one :class:`~repro.clocks.hwcounter.HwCounterIncrement`
    callable per location, drawing counter noise from ``counter_seed``.
    """
    n = trace_like.n_locations
    if mode == LTHWCTR:
        cfg = (counter_noise_config if counter_noise_config is not None
               else NoiseConfig())
        model = HwCounterIncrement(trace_like,
                                   CounterNoise(RngStreams(counter_seed), cfg))
        return [model.for_location(loc) for loc in range(n)]
    return [make_increment(mode)] * n


def _stream_walk(
    trace_like, inc: Sequence[Callable[[Ev], float]]
) -> Tuple[List[float], List[int]]:
    """Algorithm 1 over ``trace_like.merged()``; returns (finals, counts).

    ``inc[loc]`` is called exactly once per event of location ``loc``,
    in that location's event order, so a callable may carry per-location
    state (the what-if validator tracks the region stack this way).
    Merge rules: a receive takes ``max(own, send + 1)``, a team begin
    ``max(own, fork + 1)``, and the members of a collective, OpenMP
    barrier or restart group all take the group maximum once the last
    member arrives.
    """
    n = trace_like.n_locations
    counter = [0.0] * n
    idx = [0] * n
    send_clock: Dict[int, float] = {}
    fork_clock: Dict[int, float] = {}
    # (kind, id) -> list of (loc, provisional clock)
    groups: Dict[Tuple[str, int], List[Tuple[int, float]]] = {}

    for loc, ev in trace_like.merged():
        idx[loc] += 1
        c = counter[loc] + inc[loc](ev)
        et = ev.etype

        if et == MPI_SEND:
            counter[loc] = c
            send_clock[ev.aux[0]] = c
        elif et == MPI_RECV:
            try:
                partner = send_clock.pop(ev.aux)
            except KeyError:
                raise AssertionError(
                    f"receive of message {ev.aux} before/without its send -- "
                    "merged order is not topological"
                ) from None
            counter[loc] = max(c, partner + 1.0)
        elif et == COLL_END or et == OBAR_LEAVE or et == RESTART:
            gid, size = ev.aux
            key = ("c" if et == COLL_END else "b" if et == OBAR_LEAVE else "r",
                   gid)
            members = groups.setdefault(key, [])
            members.append((loc, c))
            counter[loc] = c  # provisional until the group completes
            if len(members) == size:
                m = max(pre for (_l, pre) in members)
                for (l2, _pre) in members:
                    counter[l2] = m
                del groups[key]
        elif et == FORK:
            counter[loc] = c
            fork_clock[ev.aux] = c
        elif et == TEAM_BEGIN:
            counter[loc] = max(c, fork_clock[ev.aux] + 1.0)
        else:
            counter[loc] = c

    if groups:
        raise AssertionError(
            f"{len(groups)} incomplete synchronisation groups at end of "
            f"trace (first keys: {list(groups)[:3]})"
        )
    return counter, idx


def stream_clock_replay(
    trace_like,
    mode: Optional[str] = None,
    counter_seed: int = 0,
    counter_noise_config: Optional[NoiseConfig] = None,
) -> ClockReplaySummary:
    """Replay ``trace_like`` under ``mode`` without storing timestamps.

    ``trace_like`` is anything exposing ``mode``, ``locations``,
    ``n_locations`` and ``merged()`` -- a
    :class:`~repro.measure.trace.RawTrace` or a
    :class:`~repro.measure.shards.ShardedTrace`.  The final per-location
    clocks are bit-identical to ``timestamp_trace(...)``'s last entries.
    """
    mode = validate_mode(mode or trace_like.mode)
    if mode == TSC:
        n = trace_like.n_locations
        final = [0.0] * n
        idx = [0] * n
        for loc, ev in trace_like.merged():
            idx[loc] += 1
            final[loc] = ev.t
    else:
        final, idx = _stream_walk(trace_like, location_increments(
            trace_like, mode, counter_seed, counter_noise_config))
    return ClockReplaySummary(mode, final, idx, max(final, default=0.0))
