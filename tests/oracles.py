"""Scalar reference implementations the production kernels are checked against.

:class:`LamportClock` is the per-event Lamport logical clock replay
(Algorithm 1 of the paper), kept as the oracle for the vectorized
columnar replay of :mod:`repro.clocks.columnar` and the bounded-memory
stream walk of :mod:`repro.clocks.streaming`.

For event *a* on location *i*: increment the local counter (by the effort
model's amount), merge partner clocks at synchronisation points, record
``C(a)``.  Synchronisation edges in our event model:

* ``MPI_SEND`` -> ``MPI_RECV``: receive takes ``max(own, sender + 1)``.
* ``COLL_END`` (one per participant): all participants take the group
  maximum -- the counter exchange rides on the collective itself.
* ``FORK`` -> ``TEAM_BEGIN``: workers adopt ``master + 1``.
* ``OBAR_LEAVE``: the whole team takes the team maximum.
* ``RESTART``: all ranks take the job-wide maximum -- the restart
  protocol of :mod:`repro.sim.recovery` is a coordinated rollback, so
  the logical clocks re-synchronise across the discontinuity exactly
  like at a collective.

The replay walks events in a topological order of the happens-before DAG
(physical-time merge order, valid because simulated physical timestamps
respect causality).  The resulting logical timestamps depend only on the
DAG and the deterministic work deltas -- repeated noisy runs of the same
deterministic program yield identical logical traces, which is the
noise-resilience property under study.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from repro.clocks.hwcounter import HwCounterIncrement
from repro.clocks.increments import make_increment
from repro.experiments.faultsweep import CheckpointedRing, default_fault_config
from repro.machine import small_test_cluster
from repro.machine.faults import FaultModel
from repro.machine.noise import CounterNoise, NoiseConfig, NoiseModel
from repro.measure import Measurement
from repro.measure.config import LTHWCTR, TSC
from repro.measure.trace import RawTrace
from repro.sim import CostModel, run_with_recovery
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

__all__ = ["LamportClock", "oracle_times", "faulted_ring_trace",
           "FAULT_SEEDS"]

IncrementLike = Union[Callable[[Ev], float], "object"]


class LamportClock:
    """Replay a raw trace into logical timestamps.

    Parameters
    ----------
    increment:
        Either a plain callable ``(ev) -> float`` used for every location,
        or an object with ``for_location(loc)`` returning per-location
        callables (the hardware-counter model needs the location to seed
        its noise stream).
    """

    def __init__(self, increment: IncrementLike):
        self._increment = increment

    def _per_location(self, n: int) -> List[Callable[[Ev], float]]:
        if hasattr(self._increment, "for_location"):
            return [self._increment.for_location(loc) for loc in range(n)]
        return [self._increment] * n

    def assign(self, trace: RawTrace) -> List[np.ndarray]:
        """Logical timestamps per location, parallel to ``trace.events``."""
        n = trace.n_locations
        times = [np.zeros(len(evs), dtype=float) for evs in trace.events]
        idx = [0] * n
        counter = [0.0] * n
        inc = self._per_location(n)

        send_clock: Dict[int, float] = {}
        fork_clock: Dict[int, float] = {}
        # (kind, id) -> list of (loc, event index, provisional clock)
        groups: Dict[Tuple[str, int], List[Tuple[int, int, float]]] = {}

        for loc, ev in trace.merged():
            i = idx[loc]
            idx[loc] = i + 1
            c = counter[loc] + inc[loc](ev)
            et = ev.etype

            if et == MPI_SEND:
                counter[loc] = c
                times[loc][i] = c
                send_clock[ev.aux[0]] = c
            elif et == MPI_RECV:
                try:
                    partner = send_clock.pop(ev.aux)
                except KeyError:
                    raise AssertionError(
                        f"receive of message {ev.aux} before/without its send -- "
                        "merged order is not topological"
                    ) from None
                c = max(c, partner + 1.0)
                counter[loc] = c
                times[loc][i] = c
            elif et == COLL_END or et == OBAR_LEAVE or et == RESTART:
                gid, size = ev.aux
                key = ("c" if et == COLL_END else "b" if et == OBAR_LEAVE else "r", gid)
                members = groups.setdefault(key, [])
                members.append((loc, i, c))
                counter[loc] = c  # provisional until the group completes
                if len(members) == size:
                    m = max(pre for (_l, _i, pre) in members)
                    for (l2, i2, _pre) in members:
                        times[l2][i2] = m
                        counter[l2] = m
                    del groups[key]
            elif et == FORK:
                counter[loc] = c
                times[loc][i] = c
                fork_clock[ev.aux] = c
            elif et == TEAM_BEGIN:
                c = max(c, fork_clock[ev.aux] + 1.0)
                counter[loc] = c
                times[loc][i] = c
            else:
                counter[loc] = c
                times[loc][i] = c

        if groups:
            raise AssertionError(
                f"{len(groups)} incomplete synchronisation groups at end of "
                f"trace (first keys: {list(groups)[:3]})"
            )
        return times


def oracle_times(trace: RawTrace, mode: str,
                 counter_seed: int = 0) -> List[np.ndarray]:
    """Per-event reference timestamps of ``trace`` under ``mode``.

    The scalar counterpart of :func:`repro.clocks.timestamp_trace`:
    recorded physical times for ``tsc``, :class:`LamportClock` with the
    mode's increment callable for the logical modes.
    """
    if mode == TSC:
        return [np.array([ev.t for ev in evs], dtype=float)
                for evs in trace.events]
    if mode == LTHWCTR:
        noise = CounterNoise(RngStreams(counter_seed), NoiseConfig())
        return LamportClock(HwCounterIncrement(trace, noise)).assign(trace)
    return LamportClock(make_increment(mode)).assign(trace)


#: fault seeds whose recovered CheckpointedRing traces carry RESTART groups
FAULT_SEEDS = (99, 5, 17)


def faulted_ring_trace(fault_seed: int) -> RawTrace:
    """Recovered ``CheckpointedRing`` trace under ``default_fault_config()``.

    The crash-and-restart protocol leaves ``RESTART`` groups (job-wide
    joins) in the trace, which the miniapp traces never contain.
    """
    cluster = small_test_cluster()

    def cost():
        return CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=3))

    outcome = run_with_recovery(
        CheckpointedRing(), cluster, cost,
        FaultModel(default_fault_config(), seed=fault_seed),
        measurement=Measurement("tsc"))
    assert outcome.n_restarts > 0, fault_seed
    return outcome.result.trace
