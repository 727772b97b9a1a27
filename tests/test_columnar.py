"""Columnar traces and the vectorized clock replay.

Locks the central equivalence claims: the structure-of-arrays view
round-trips exactly, the segment-vectorized Lamport replay is
bit-identical to the per-event ``LamportClock`` oracle for all six modes
on real MPI+OpenMP traces and on recovered traces with restart groups,
the npz archive format round-trips, and the vectorized pattern
formulas match their scalar definitions element for element.
"""

import numpy as np
import pytest

from repro.analysis import (
    barrier_split,
    barrier_split_batch,
    late_receiver_wait,
    late_receiver_wait_many,
    late_sender_wait,
    late_sender_wait_many,
    nxn_waits,
    nxn_waits_batch,
)
from repro.analysis import patterns as P
from repro.clocks import timestamp_trace
from repro.machine import jureca_dc
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import (
    MODES,
    ColumnarConversionError,
    Measurement,
    RawTrace,
    read_trace,
    write_trace,
)
from repro.measure.columnar import TraceColumns
from repro.miniapps.minife import MiniFE, MiniFEConfig
from repro.miniapps.tealeaf import TeaLeaf, TeaLeafConfig
from repro.sim import CostModel, Engine
from repro.sim.events import ENTER, LEAVE, MPI_RECV, RESTART, Ev, RegionRegistry
from repro.sim.kernels import EMPTY_DELTA, WorkDelta
from tests.oracles import FAULT_SEEDS, faulted_ring_trace, oracle_times


def _run(app, seed=1):
    cl = jureca_dc(1)
    cost = CostModel(cl, noise=NoiseModel(NoiseConfig(), seed=seed))
    return Engine(app, cl, cost, measurement=Measurement("tsc")).run().trace


@pytest.fixture(scope="module")
def minife_trace():
    return _run(MiniFE(MiniFEConfig.tiny(nx=64, n_ranks=4, threads_per_rank=2,
                                         cg_iters=4)))


@pytest.fixture(scope="module")
def tealeaf_trace():
    return _run(TeaLeaf(TeaLeafConfig.tiny(n_ranks=4, threads_per_rank=2)))


class TestTraceColumns:
    def test_round_trip_reconstructs_events(self, minife_trace):
        cols = minife_trace.columns()
        back = cols.to_raw()
        assert back.mode == minife_trace.mode
        assert back.locations == list(minife_trace.locations)
        assert back.runtime == minife_trace.runtime
        for orig, rec in zip(minife_trace.events, back.events):
            assert len(orig) == len(rec)
            for a, b in zip(orig, rec):
                assert (a.etype, a.region, a.t, a.t_enter, a.aux) == \
                    (b.etype, b.region, b.t, b.t_enter, b.aux)
                assert a.delta == b.delta

    def test_columns_memoized(self, minife_trace):
        assert minife_trace.columns() is minife_trace.columns()

    def test_counts_match(self, minife_trace):
        cols = minife_trace.columns()
        assert cols.n_events == minife_trace.n_events
        assert cols.n_locations == minife_trace.n_locations

    def test_nonconvertible_aux_raises(self):
        regions = RegionRegistry()
        rid = regions.intern("r", "user")
        evs = [Ev(MPI_RECV, rid, 1.0, EMPTY_DELTA, aux="not-an-int")]
        trace = RawTrace(mode="tsc", regions=regions, locations=[(0, 0)],
                         events=[evs])
        with pytest.raises(ColumnarConversionError):
            TraceColumns.from_raw(trace)


@pytest.fixture(scope="module")
def faulted_traces():
    """fault seed -> recovered CheckpointedRing trace (RESTART groups)."""
    return {fs: faulted_ring_trace(fs) for fs in FAULT_SEEDS}


def _assert_matches_oracle(trace, mode, counter_seed):
    want = oracle_times(trace, mode, counter_seed=counter_seed)
    got = timestamp_trace(trace, mode, counter_seed=counter_seed)
    assert len(got.times) == len(want)
    for a, b in zip(want, got.times):
        np.testing.assert_array_equal(a, b)


class TestReplayEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    def test_minife_bit_identical(self, minife_trace, mode):
        _assert_matches_oracle(minife_trace, mode, counter_seed=7)

    @pytest.mark.parametrize("mode", MODES)
    def test_tealeaf_bit_identical(self, tealeaf_trace, mode):
        _assert_matches_oracle(tealeaf_trace, mode, counter_seed=3)

    @pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
    @pytest.mark.parametrize("mode", MODES)
    def test_faulted_ring_bit_identical(self, faulted_traces, mode,
                                        fault_seed):
        trace = faulted_traces[fault_seed]
        assert any(ev.etype == RESTART for evs in trace.events for ev in evs)
        _assert_matches_oracle(trace, mode, counter_seed=5)

    def test_nonconvertible_trace_raises_typed_error(self):
        # A hand-built trace the converter rejects (string aux) has no
        # replay path: the typed conversion error reaches the caller.
        regions = RegionRegistry()
        rid = regions.intern("main", "user")
        evs = [Ev(ENTER, rid, 0.5, WorkDelta(bb=2.0), aux=None),
               Ev(LEAVE, rid, 1.0, EMPTY_DELTA, aux="odd")]
        trace = RawTrace(mode="tsc", regions=regions, locations=[(0, 0)],
                         events=[evs])
        with pytest.raises(ColumnarConversionError):
            timestamp_trace(trace, "ltbb")


class TestNpzArchive:
    def test_npz_round_trip(self, minife_trace, tmp_path):
        path = tmp_path / "trace.npz"
        write_trace(minife_trace, path)
        back = read_trace(path)
        assert back.mode == minife_trace.mode
        assert back.locations == list(minife_trace.locations)
        for orig, rec in zip(minife_trace.events, back.events):
            for a, b in zip(orig, rec):
                assert (a.etype, a.region, a.t, a.t_enter, a.aux) == \
                    (b.etype, b.region, b.t, b.t_enter, b.aux)
                assert a.delta == b.delta

    def test_npz_and_json_agree(self, tealeaf_trace, tmp_path):
        write_trace(tealeaf_trace, tmp_path / "t.npz")
        write_trace(tealeaf_trace, tmp_path / "t.json.gz")
        a = read_trace(tmp_path / "t.npz")
        b = read_trace(tmp_path / "t.json.gz")
        for ea, eb in zip(a.events, b.events):
            for x, y in zip(ea, eb):
                assert (x.etype, x.region, x.t, x.aux) == \
                    (y.etype, y.region, y.t, y.aux)

    def test_npz_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises((ValueError, KeyError)):
            read_trace(path)


class TestVectorizedPatterns:
    def test_nxn_vector_path_matches_scalar(self):
        rng = np.random.default_rng(5)
        enters = rng.uniform(0.0, 10.0, size=P.VECTOR_MIN + 9).tolist()
        completion = 8.5
        vec = nxn_waits(enters, completion)
        scalar = [max(0.0, min(max(enters), completion) - e) for e in enters]
        assert vec == scalar

    def test_barrier_vector_path_matches_scalar(self):
        rng = np.random.default_rng(6)
        n = P.VECTOR_MIN + 5
        enters = rng.uniform(0.0, 5.0, size=n).tolist()
        leaves = [e + d for e, d in zip(enters, rng.uniform(0.1, 2.0, size=n))]
        waits, overheads = barrier_split(enters, leaves)
        durations = [l - e for e, l in zip(enters, leaves)]
        oh = max(0.0, min(durations))
        assert waits == [max(0.0, d - oh) for d in durations]
        assert overheads == [oh] * n

    def test_nxn_batch_matches_per_instance(self):
        rng = np.random.default_rng(7)
        sizes = [3, 8, 1, 40, 5]
        groups = [rng.uniform(0.0, 9.0, size=s) for s in sizes]
        completions = [float(g.max()) + rng.uniform(0.0, 1.0) for g in groups]
        flat = np.concatenate(groups)
        starts = np.cumsum([0] + sizes[:-1])
        batch = nxn_waits_batch(flat, starts, completions)
        expected = np.concatenate([
            nxn_waits(g.tolist(), c) for g, c in zip(groups, completions)
        ])
        np.testing.assert_array_equal(batch, expected)

    def test_barrier_batch_matches_per_instance(self):
        rng = np.random.default_rng(8)
        sizes = [4, 2, 33, 6]
        enters = [rng.uniform(0.0, 4.0, size=s) for s in sizes]
        leaves = [e + rng.uniform(0.1, 1.0, size=s)
                  for e, s in zip(enters, sizes)]
        starts = np.cumsum([0] + sizes[:-1])
        w_batch, o_batch = barrier_split_batch(
            np.concatenate(enters), np.concatenate(leaves), starts)
        w_exp, o_exp = [], []
        for e, l in zip(enters, leaves):
            w, o = barrier_split(e.tolist(), l.tolist())
            w_exp.extend(w)
            o_exp.extend(o)
        np.testing.assert_array_equal(w_batch, np.asarray(w_exp))
        np.testing.assert_array_equal(o_batch, np.asarray(o_exp))

    def test_p2p_many_match_scalar(self):
        rng = np.random.default_rng(9)
        n = 50
        send = rng.uniform(0.0, 5.0, size=n)
        enter = rng.uniform(0.0, 5.0, size=n)
        comp = enter + rng.uniform(0.0, 3.0, size=n)
        ls = late_sender_wait_many(send, enter, comp)
        lr = late_receiver_wait_many(send, enter, comp)
        for k in range(n):
            assert ls[k] == late_sender_wait(send[k], enter[k], comp[k])
            assert lr[k] == late_receiver_wait(send[k], enter[k], comp[k])

    def test_empty_inputs(self):
        assert nxn_waits([], 1.0) == []
        assert barrier_split([], []) == ([], [])
        assert len(nxn_waits_batch(np.empty(0), np.empty(0, int), np.empty(0))) == 0
