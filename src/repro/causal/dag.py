"""Happened-before DAG with per-edge cost attribution and blame analysis.

:func:`build_dag` streams any trace-like object's ``merged()`` iterator
(a :class:`~repro.measure.trace.RawTrace` or an out-of-core
:class:`~repro.measure.shards.ShardedTrace`) through the exact clock
state machine of :func:`repro.clocks.streaming.stream_clock_replay` and
materializes **only the synchronisation events** as DAG nodes -- sends,
receives, collective/barrier/restart completions, forks and team begins,
typically a third of a trace.  Everything between two synchronisation
events on a location collapses into the *program edge* connecting them,
whose cost is the clock advance over the stretch, broken down by the
call path in which the work happened.  Memory is therefore bounded by
the synchronisation structure (plus one resident shard when streaming),
not by the event count.

Per-edge costs follow the active clock mode: physical seconds under
``tsc``, logical units under the ``lt*`` modes (the per-location clock
values are bit-identical to :func:`repro.clocks.timestamp_trace`, locked
by the tests).  Under the Lamport semantics a node's clock value *is*
its longest-path distance from the source, so critical-path extraction
is a backward walk along whichever predecessor determined each clock
value -- no second fixpoint pass.

Wait-state **root-cause attribution** (the blame profile): every wait
interval -- a late-sender max-exchange jump at a receive, the group-max
jump of an early arriver at a collective, and their physical-timer
analogues via :mod:`repro.analysis.patterns` -- is traced *backwards*
through the DAG along the chain of edges that determined the delaying
partner's arrival, consuming compute-edge work (latest first) and
transfer edges until the wait is fully explained.  The blame lands on
the call paths that performed the originating work, aggregated into a
:class:`~repro.cube.profile.CubeProfile` so
:func:`repro.cube.diff.profile_diff` can compare blame across runs,
modes or code versions.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, List, Optional, Tuple

from repro.analysis.patterns import late_sender_wait, nxn_waits
from repro.clocks.streaming import location_increments
from repro.cube.profile import CubeProfile
from repro.cube.systemtree import SystemTree
from repro.machine.noise import NoiseConfig
from repro.measure.config import TSC, validate_mode
from repro.sim.events import (
    BURST,
    COLL_END,
    ENTER,
    FORK,
    LEAVE,
    MPI_RECV,
    MPI_SEND,
    OBAR_LEAVE,
    RESTART,
    TEAM_BEGIN,
)

__all__ = [
    "BLAME_COMPUTE",
    "BLAME_TRANSFER",
    "BLAME_RESIDUAL",
    "BLAME_LEAVES",
    "CAUSAL_WAIT",
    "CausalDag",
    "build_dag",
    "blame_profile",
    "critical_path_table",
]

#: blame metrics: work on the delayer's critical chain that explains a
#: wait (compute edges / transfer edges), plus the residual that reaches
#: the program source unexplained.  Their sum over the profile equals the
#: total attributed wait, so they form the profile's *time* leaves.
BLAME_COMPUTE = "blame_compute"
BLAME_TRANSFER = "blame_transfer"
BLAME_RESIDUAL = "blame_residual"
BLAME_LEAVES: Tuple[str, ...] = (BLAME_COMPUTE, BLAME_TRANSFER, BLAME_RESIDUAL)

#: the wait severities themselves, recorded at the *waiting* call path
#: (outside the blame time tree, like Scalasca's delay metrics)
CAUSAL_WAIT = "causal_wait"

#: synthetic event kind of the per-location terminal node
TERMINAL = -1

#: hard bound on DAG nodes visited per blame walk (a walk consumes
#: ``wait`` units of edge cost, so it terminates on its own; the cap
#: guards degenerate traces with near-zero edge costs)
_MAX_BLAME_HOPS = 100_000


class CausalDag:
    """The happened-before DAG of one trace under one clock mode.

    Nodes are stored as parallel lists (structure-of-arrays, like the
    trace itself); node ``0..n_nodes-1`` in creation order, which is the
    global merged order of the underlying synchronisation events plus
    one :data:`TERMINAL` node per location at the end.

    Per node: ``loc``/``idx`` locate the event, ``etype``/``region``
    describe it, ``t`` is its physical timestamp, ``clock`` its (final)
    clock value under :attr:`mode`, ``work`` the cost of the program
    edge from the previous node on the location, ``wait`` the wait-state
    severity ending at this node, ``pred_prog``/``pred_remote`` the
    program-order and remote predecessors (``-1`` when absent), and
    ``remote_critical`` whether the remote edge determined the clock
    value.  ``seg[k]`` breaks node ``k``'s program-edge work down by call
    path (``(callpath id, work)`` in first-touch order); ``callpaths``
    interns the tuples.
    """

    def __init__(self, mode: str, region_names: List[str],
                 locations: List[Tuple[int, int]]):
        self.mode = mode
        self.region_names = region_names
        self.locations = locations
        self.loc: List[int] = []
        self.idx: List[int] = []
        self.etype: List[int] = []
        self.region: List[int] = []
        self.t: List[float] = []
        self.clock: List[float] = []
        self.work: List[float] = []
        self.wait: List[float] = []
        self.pred_prog: List[int] = []
        self.pred_remote: List[int] = []
        self.remote_critical: List[bool] = []
        self.cpid: List[int] = []
        self.seg: List[List[Tuple[int, float]]] = []
        self.callpaths: List[Tuple[str, ...]] = []
        self.final: List[float] = []
        self.n_events = 0

    @property
    def n_nodes(self) -> int:
        return len(self.loc)

    @property
    def makespan(self) -> float:
        return max(self.final, default=0.0)

    def callpath(self, nid: int) -> Tuple[str, ...]:
        path = self.callpaths[self.cpid[nid]]
        return path if path else ("<program>",)

    def node_name(self, nid: int) -> str:
        if self.etype[nid] == TERMINAL:
            return "<end>"
        rid = self.region[nid]
        return self.region_names[rid] if rid >= 0 else "<none>"

    # -- critical path ---------------------------------------------------
    def sink(self) -> int:
        """Terminal node of the location with the maximal final clock."""
        best, best_c = -1, float("-inf")
        for nid in range(self.n_nodes):
            if self.etype[nid] != TERMINAL:
                continue
            c = self.clock[nid]
            if c > best_c:
                best, best_c = nid, c
        return best

    def critical_path(self) -> List[int]:
        """Node ids from the program source to the makespan sink.

        Backward walk along whichever predecessor determined each node's
        clock value: the remote edge where a max-exchange won (strictly),
        the program edge otherwise.  Under the Lamport semantics the
        resulting chain's edge costs sum to the sink's clock value.
        """
        path: List[int] = []
        cur = self.sink()
        while cur >= 0:
            path.append(cur)
            cur = (self.pred_remote[cur] if self.remote_critical[cur]
                   else self.pred_prog[cur])
        path.reverse()
        return path

    def critical_path_fingerprint(self) -> str:
        """SHA-256 over the critical path's structure and edge costs.

        Hashes, per node on the path: location, event kind, region name
        and the raw IEEE-754 bits of the program-edge work and the wait
        severity.  Two runs share a fingerprint iff their critical paths
        are bit-identical -- the paper's noise-resilience claim extended
        to causal structure.
        """
        h = hashlib.sha256()
        for nid in self.critical_path():
            h.update(struct.pack("<qq", self.loc[nid], self.etype[nid]))
            h.update(self.node_name(nid).encode("utf-8"))
            h.update(struct.pack("<dd", self.work[nid], self.wait[nid]))
        return h.hexdigest()

    def total_wait(self) -> float:
        return sum(self.wait)


def build_dag(
    trace_like,
    mode: Optional[str] = None,
    counter_seed: int = 0,
    counter_noise_config: Optional[NoiseConfig] = None,
) -> CausalDag:
    """Construct the happened-before DAG of ``trace_like`` under ``mode``.

    ``trace_like`` is anything exposing ``mode``, ``regions``,
    ``locations``, ``n_locations`` and ``merged()`` -- a ``RawTrace`` or
    a ``ShardedTrace`` (streamed shard-at-a-time).  The clock rules
    mirror :func:`repro.clocks.streaming.stream_clock_replay` exactly,
    so per-location final clocks are bit-identical to the full replay.
    """
    mode = validate_mode(mode or trace_like.mode)
    n = trace_like.n_locations
    regions = trace_like.regions
    dag = CausalDag(mode, list(regions.names), list(trace_like.locations))
    is_tsc = mode == TSC

    if not is_tsc:
        inc_of = location_increments(trace_like, mode, counter_seed,
                                     counter_noise_config)

    clock = [0.0] * n
    ev_idx = [0] * n
    last_node = [-1] * n
    last_node_clock = [0.0] * n
    stacks: List[List[str]] = [[] for _ in range(n)]
    cp_index: Dict[Tuple[str, ...], int] = {}
    seg_acc: List[Dict[int, float]] = [{} for _ in range(n)]

    def intern(path: Tuple[str, ...]) -> int:
        cid = cp_index.get(path)
        if cid is None:
            cid = cp_index[path] = len(dag.callpaths)
            dag.callpaths.append(path)
        return cid

    root = intern(())
    cur_cpid = [root] * n

    def new_node(loc: int, i: int, et: int, rid: int, t: float,
                 c: float, wait: float, pred_remote: int,
                 remote_critical: bool) -> int:
        nid = dag.n_nodes
        dag.loc.append(loc)
        dag.idx.append(i)
        dag.etype.append(et)
        dag.region.append(rid)
        dag.t.append(t)
        dag.clock.append(c)
        dag.work.append(c - last_node_clock[loc])
        dag.wait.append(wait)
        dag.pred_prog.append(last_node[loc])
        dag.pred_remote.append(pred_remote)
        dag.remote_critical.append(remote_critical)
        dag.cpid.append(cur_cpid[loc])
        acc = seg_acc[loc]
        dag.seg.append(list(acc.items()))
        acc.clear()
        last_node[loc] = nid
        last_node_clock[loc] = c
        return nid

    # match id -> (send node, send clock); omp id -> (fork node, fork clock)
    send_info: Dict[int, Tuple[int, float]] = {}
    fork_info: Dict[int, Tuple[int, float]] = {}
    # (etype, group id) -> list of (loc, provisional clock, node, enter clock)
    groups: Dict[Tuple[int, int], List[Tuple[int, float, int, float]]] = {}

    for loc, ev in trace_like.merged():
        i = ev_idx[loc]
        ev_idx[loc] = i + 1
        prev = clock[loc]
        if is_tsc:
            c = ev.t
            step = c - prev
        else:
            step = inc_of[loc](ev)
            c = prev + step
        et = ev.etype

        # attribute the step to the call path active *before* the event
        # (a BURST's work belongs to the burst's own child call path)
        if et == BURST:
            cp = intern(dag.callpaths[cur_cpid[loc]]
                        + (regions.name(ev.region),))
        else:
            cp = cur_cpid[loc]
        acc = seg_acc[loc]
        acc[cp] = acc.get(cp, 0.0) + step

        if et == ENTER:
            stk = stacks[loc]
            stk.append(regions.name(ev.region))
            cur_cpid[loc] = intern(tuple(stk))
            clock[loc] = c
            continue
        if et == LEAVE:
            stk = stacks[loc]
            if stk:
                stk.pop()
            cur_cpid[loc] = intern(tuple(stk))
            clock[loc] = c
            continue

        if et == MPI_SEND:
            clock[loc] = c
            nid = new_node(loc, i, et, ev.region, ev.t, c, 0.0, -1, False)
            send_info[ev.aux[0]] = (nid, c)
        elif et == MPI_RECV:
            try:
                snid, sclk = send_info.pop(ev.aux)
            except KeyError:
                raise AssertionError(
                    f"receive of message {ev.aux} before/without its send -- "
                    "merged order is not topological"
                ) from None
            if is_tsc:
                new = c
                wait = late_sender_wait(sclk, prev, c)
                rc = wait > 0.0
            else:
                p1 = sclk + 1.0
                rc = p1 > c
                wait = p1 - c if rc else 0.0
                new = p1 if rc else c
            clock[loc] = new
            nid = new_node(loc, i, et, ev.region, ev.t, c, wait, snid, rc)
            if rc:
                dag.clock[nid] = new
                last_node_clock[loc] = new
        elif et == COLL_END or et == OBAR_LEAVE or et == RESTART:
            gid, size = ev.aux
            clock[loc] = c
            nid = new_node(loc, i, et, ev.region, ev.t, c, 0.0, -1, False)
            key = (et, gid)
            members = groups.setdefault(key, [])
            members.append((loc, c, nid, prev))
            if len(members) == size:
                if is_tsc:
                    completion = ev.t
                    waits = nxn_waits([en for (_l, _c, _n, en) in members],
                                      completion)
                    win = max(range(len(members)),
                              key=lambda k: members[k][3])
                else:
                    m = max(cm for (_l, cm, _n, _e) in members)
                    waits = [m - cm for (_l, cm, _n, _e) in members]
                    win = next(k for k, mem in enumerate(members)
                               if mem[1] == m)
                win_nid = members[win][2]
                for k, (l2, _c2, nid2, _en) in enumerate(members):
                    dag.wait[nid2] = waits[k]
                    if k != win and waits[k] > 0.0:
                        dag.pred_remote[nid2] = win_nid
                        dag.remote_critical[nid2] = True
                    if not is_tsc:
                        clock[l2] = m
                        dag.clock[nid2] = m
                        last_node_clock[l2] = m
                del groups[key]
        elif et == FORK:
            clock[loc] = c
            nid = new_node(loc, i, et, ev.region, ev.t, c, 0.0, -1, False)
            fork_info[ev.aux] = (nid, c)
        elif et == TEAM_BEGIN:
            fnid, fclk = fork_info[ev.aux]
            if is_tsc:
                new = c
                rc = last_node[loc] < 0 or fclk > prev
                wait = 0.0
            else:
                p1 = fclk + 1.0
                rc = p1 > c or last_node[loc] < 0
                wait = p1 - c if p1 > c else 0.0
                new = p1 if p1 > c else c
            clock[loc] = new
            nid = new_node(loc, i, et, ev.region, ev.t, c, wait, fnid, rc)
            if new != c:
                dag.clock[nid] = new
                last_node_clock[loc] = new
        else:
            clock[loc] = c

    if groups:
        raise AssertionError(
            f"{len(groups)} incomplete synchronisation groups at end of "
            f"trace (first keys: {list(groups)[:3]})"
        )

    for loc in range(n):
        new_node(loc, ev_idx[loc], TERMINAL, -1, 0.0, clock[loc],
                 0.0, -1, False)
    dag.final = list(clock)
    dag.n_events = sum(ev_idx)
    return dag


def blame_profile(dag: CausalDag, pinning=None) -> CubeProfile:
    """Aggregate the DAG's wait root causes into a blame profile.

    For every node with a positive wait, walks the chain of edges that
    determined the delaying partner's arrival: transfer edges contribute
    to :data:`BLAME_TRANSFER`, program-edge work (consumed latest-first
    from the segment's call-path breakdown) to :data:`BLAME_COMPUTE`,
    and whatever reaches the program source unexplained to
    :data:`BLAME_RESIDUAL`.  The wait severities themselves are recorded
    under :data:`CAUSAL_WAIT` at the *waiting* call path, so the profile
    shows both sides of every wait.  The result plugs directly into
    :func:`repro.cube.diff.profile_diff` and
    :func:`repro.cube.io.write_profile`.
    """
    nodes_of_ranks = None
    if pinning is not None:
        nodes_of_ranks = {
            r: pinning.node_of(r) for (r, _t) in dag.locations
        }
    system = SystemTree(dag.locations, nodes_of_ranks)
    prof = CubeProfile(system, BLAME_LEAVES, mode=dag.mode,
                       meta={"kind": "causal_blame"})
    for nid in range(dag.n_nodes):
        w = dag.wait[nid]
        if w <= 0.0:
            continue
        prof.add(CAUSAL_WAIT, dag.callpath(nid), dag.loc[nid], w)
        _distribute_blame(dag, nid, w, prof)
    return prof


def _distribute_blame(dag: CausalDag, nid: int, wait: float,
                      prof: CubeProfile) -> None:
    """Charge ``wait`` units to the edges that caused node ``nid``'s wait."""
    remaining = wait
    cur = dag.pred_remote[nid]
    if cur < 0:
        prof.add(BLAME_RESIDUAL, ("<source>",), dag.loc[nid], remaining)
        return
    # the transfer edge that ended the wait (its cost delayed the waiter
    # beyond the partner's publication)
    edge = dag.clock[nid] - dag.clock[cur]
    if edge > 0.0:
        take = min(edge, remaining)
        prof.add(BLAME_TRANSFER, dag.callpath(cur), dag.loc[cur], take)
        remaining -= take
    hops = 0
    last_loc = dag.loc[cur]
    while cur >= 0 and remaining > 0.0 and hops < _MAX_BLAME_HOPS:
        hops += 1
        last_loc = dag.loc[cur]
        if dag.remote_critical[cur]:
            prev = dag.pred_remote[cur]
            edge = dag.clock[cur] - (dag.clock[prev] if prev >= 0 else 0.0)
            if edge > 0.0:
                take = min(edge, remaining)
                prof.add(BLAME_TRANSFER, dag.callpath(cur),
                         dag.loc[cur], take)
                remaining -= take
            cur = prev
        else:
            loc = dag.loc[cur]
            for cpid, w in reversed(dag.seg[cur]):
                if w <= 0.0:
                    continue
                take = min(w, remaining)
                path = dag.callpaths[cpid] or ("<program>",)
                prof.add(BLAME_COMPUTE, path, loc, take)
                remaining -= take
                if remaining <= 0.0:
                    break
            cur = dag.pred_prog[cur]
    if remaining > 0.0:
        prof.add(BLAME_RESIDUAL, ("<source>",), last_loc, remaining)


def critical_path_table(dag: CausalDag, top: int = 10) -> List[Tuple[str, int, float, float]]:
    """Critical path aggregated by call path: (path, hops, work, wait).

    Rows are sorted by descending work share; ``top`` bounds the list.
    """
    agg: Dict[Tuple[str, ...], List[float]] = {}
    order: List[Tuple[str, ...]] = []
    for nid in dag.critical_path():
        path = dag.callpath(nid)
        row = agg.get(path)
        if row is None:
            row = agg[path] = [0, 0.0, 0.0]
            order.append(path)
        row[0] += 1
        row[1] += dag.work[nid]
        row[2] += dag.wait[nid]
    rows = [(" / ".join(p), int(agg[p][0]), agg[p][1], agg[p][2])
            for p in order]
    rows.sort(key=lambda r: -r[2])
    return rows[:top]
