"""Vector clock (extension beyond the paper's implementation).

The paper (Sec. II) notes that for programs with nondeterministic message
matching the plain Lamport clock cannot capture all causalities, and cites
the vector clock as a remedy.  This module provides a reference vector
clock replay over the same event model, primarily for correctness studies
and tests: ``happens_before`` answers exact causality queries that a
scalar Lamport timestamp can only approximate in one direction.
Collective, OpenMP-barrier and restart groups are joins: every member
takes the group's elementwise maximum (a restart is the coordinated,
job-wide rollback of :mod:`repro.sim.recovery`).

Storage is O(events x locations); use on small traces.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.measure.trace import RawTrace
from repro.sim.events import COLL_END, FORK, MPI_RECV, MPI_SEND, OBAR_LEAVE, RESTART, TEAM_BEGIN

__all__ = ["VectorClock"]


class VectorClock:
    """Full vector-clock replay of a raw trace."""

    def __init__(self, trace: RawTrace):
        self.trace = trace
        n = trace.n_locations
        self.vectors: List[List[np.ndarray]] = [[] for _ in range(n)]
        self._replay()

    def _replay(self) -> None:
        trace = self.trace
        n = trace.n_locations
        current = [np.zeros(n, dtype=np.int64) for _ in range(n)]
        send_vec: Dict[int, np.ndarray] = {}
        fork_vec: Dict[int, np.ndarray] = {}
        # group key -> list of (loc, appended-event index)
        groups: Dict[Tuple[str, int], List[Tuple[int, int]]] = {}

        for loc, ev in trace.merged():
            v = current[loc]
            v[loc] += 1
            et = ev.etype
            if et == MPI_SEND:
                send_vec[ev.aux[0]] = v.copy()
            elif et == MPI_RECV:
                np.maximum(v, send_vec.pop(ev.aux), out=v)
            elif et == FORK:
                fork_vec[ev.aux] = v.copy()
            elif et == TEAM_BEGIN:
                np.maximum(v, fork_vec[ev.aux], out=v)
            self.vectors[loc].append(v.copy())

            if et == COLL_END or et == OBAR_LEAVE or et == RESTART:
                gid, size = ev.aux
                key = ("c" if et == COLL_END else "b" if et == OBAR_LEAVE
                       else "r", gid)
                members = groups.setdefault(key, [])
                members.append((loc, len(self.vectors[loc]) - 1))
                if len(members) == size:
                    merged = np.zeros(n, dtype=np.int64)
                    for (l2, ei) in members:
                        np.maximum(merged, self.vectors[l2][ei], out=merged)
                    for (l2, ei) in members:
                        self.vectors[l2][ei][:] = merged
                        current[l2][:] = merged
                    del groups[key]

    def vector_at(self, loc: int, event_index: int) -> np.ndarray:
        """Vector timestamp of the given event."""
        return self.vectors[loc][event_index]

    def happens_before(self, a: Tuple[int, int], b: Tuple[int, int]) -> bool:
        """True iff event ``a`` (loc, index) causally precedes ``b``."""
        va = self.vector_at(*a)
        vb = self.vector_at(*b)
        return bool(np.all(va <= vb) and np.any(va < vb))

    def concurrent(self, a: Tuple[int, int], b: Tuple[int, int]) -> bool:
        """True iff neither event causally precedes the other."""
        return not self.happens_before(a, b) and not self.happens_before(b, a)
