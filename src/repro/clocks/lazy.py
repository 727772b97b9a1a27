"""Lazy Lamport clock (extension, after Vo et al. [26] in the paper).

The lazy protocol defers merging the sender's clock into the receiver at
point-to-point receives: the received value is remembered, and the
receiver's counter is reconciled only at the next *strong* synchronisation
(a collective or OpenMP barrier).  Between reconciliations the receiver's
timestamps advance purely by local increments, which keeps piggyback
traffic cheap at the cost of temporarily violating the clock condition
for p2p edges.

This is a simplified study implementation: it reproduces the protocol's
characteristic behaviour -- identical timestamps to the eager clock at and
after every strong sync, potentially smaller ones between -- and is used
by tests and an ablation bench, not by the main reproduction pipeline.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.measure.trace import RawTrace
from repro.sim.events import COLL_END, FORK, MPI_RECV, MPI_SEND, OBAR_LEAVE, TEAM_BEGIN, Ev

__all__ = ["LazyLamportClock"]


class LazyLamportClock:
    """Deferred-merge variant of the eager Lamport replay (Algorithm 1)."""

    def __init__(self, increment: Callable[[Ev], float]):
        self._increment = increment

    def assign(self, trace: RawTrace) -> List[np.ndarray]:
        n = trace.n_locations
        times = [np.zeros(len(evs), dtype=float) for evs in trace.events]
        idx = [0] * n
        counter = [0.0] * n
        deferred = [0.0] * n  # largest unmerged incoming clock per location
        send_clock: Dict[int, float] = {}
        fork_clock: Dict[int, float] = {}
        groups: Dict[Tuple[str, int], List[Tuple[int, int, float]]] = {}
        inc = self._increment

        for loc, ev in trace.merged():
            i = idx[loc]
            idx[loc] = i + 1
            c = counter[loc] + inc(ev)
            et = ev.etype
            if et == MPI_SEND:
                counter[loc] = c
                times[loc][i] = c
                send_clock[ev.aux[0]] = c
            elif et == MPI_RECV:
                # Lazy: remember, do not merge yet.
                deferred[loc] = max(deferred[loc], send_clock.pop(ev.aux) + 1.0)
                counter[loc] = c
                times[loc][i] = c
            elif et in (COLL_END, OBAR_LEAVE):
                gid, size = ev.aux
                key = ("c" if et == COLL_END else "b", gid)
                # Reconcile the deferred value at the strong sync.
                pre = max(c, deferred[loc])
                deferred[loc] = 0.0
                members = groups.setdefault(key, [])
                members.append((loc, i, pre))
                counter[loc] = pre
                if len(members) == size:
                    m = max(p for (_l, _i, p) in members)
                    for (l2, i2, _p) in members:
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
            raise AssertionError("incomplete synchronisation groups in lazy replay")
        return times
