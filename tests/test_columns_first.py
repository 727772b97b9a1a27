"""Columns-first archive reads and the memoized merged order.

Locks the claims of the columns-first read path:

* :meth:`TraceColumns.merged_order` visits events exactly as
  :meth:`RawTrace.merged` does -- on engine traces, on recovered traces
  with restart groups, and on hand-built traces whose per-location
  timestamps go backwards -- and :meth:`TraceColumns.sync_order` is its
  filter;
* ``read_trace`` of a columnar archive returns the columns the per-event
  round trip ``from_raw(to_raw(...))`` produced, field for field and
  byte for byte, without building an ``Ev``;
* damage the deferred ``Ev`` build would have hidden raises
  :class:`TraceFormatError` from ``read_trace`` itself;
* of the served analyses only ``blame`` (an ``Ev`` walker) materializes
  events.
"""

import json
import random

import numpy as np
import pytest

from repro import obs
from repro.clocks import timestamp_trace
from repro.machine import jureca_dc
from repro.machine.noise import NoiseConfig, NoiseModel
from repro.measure import Measurement, RawTrace, read_trace, write_trace
from repro.measure.columnar import (
    _COLUMN_FIELDS,
    SYNC_KINDS,
    LocationColumns,
    TraceColumns,
)
from repro.measure.io import TraceFormatError
from repro.miniapps.lulesh import Lulesh, LuleshConfig
from repro.miniapps.minife import MiniFE, MiniFEConfig
from repro.miniapps.tealeaf import TeaLeaf, TeaLeafConfig
from repro.sim import CostModel, Engine
from repro.sim.events import BURST, COLL_END, ENTER, LEAVE, MPI_RECV, Ev, RegionRegistry
from repro.sim.kernels import WorkDelta
from tests.oracles import FAULT_SEEDS, faulted_ring_trace, oracle_times


def _run(app, mode="tsc", seed=1):
    cl = jureca_dc(1)
    cost = CostModel(cl, noise=NoiseModel(NoiseConfig(), seed=seed))
    return Engine(app, cl, cost, measurement=Measurement(mode)).run().trace


APPS = {
    "minife": lambda: MiniFE(MiniFEConfig.tiny(nx=64, n_ranks=4,
                                               threads_per_rank=2, cg_iters=4)),
    "tealeaf": lambda: TeaLeaf(TeaLeafConfig.tiny(n_ranks=4,
                                                  threads_per_rank=2)),
    "lulesh": lambda: Lulesh(LuleshConfig.tiny()),
}


@pytest.fixture(scope="module")
def engine_traces():
    return {name: _run(make()) for name, make in APPS.items()}


def _merged_pairs(trace):
    """``(loc, index in loc)`` in the visit order of ``trace.merged()``."""
    seen = [0] * trace.n_locations
    out = []
    for loc, _ev in trace.merged():
        out.append((loc, seen[loc]))
        seen[loc] += 1
    return out


def _order_pairs(cols):
    loc, idx = cols.locate(cols.merged_order())
    return list(zip(loc.tolist(), idx.tolist()))


def _random_trace(rng):
    """Hand-built trace with tied and backward-going timestamps."""
    regions = RegionRegistry()
    rid = regions.intern("r", "user")
    n_loc = rng.randint(1, 5)
    events = []
    for _ in range(n_loc):
        evs = [Ev(rng.choice((ENTER, LEAVE, BURST)), rid,
                  float(rng.randint(0, 12)))
               for _ in range(rng.randint(0, 25))]
        events.append(evs)
    return RawTrace("tsc", regions, [(r, 0) for r in range(n_loc)], events)


class TestMergedOrder:
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_engine_traces(self, engine_traces, app):
        trace = engine_traces[app]
        assert _order_pairs(trace.columns()) == _merged_pairs(trace)

    @pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
    def test_faulted_ring_traces(self, fault_seed):
        trace = faulted_ring_trace(fault_seed)
        assert _order_pairs(trace.columns()) == _merged_pairs(trace)

    def test_random_traces_with_backward_timestamps(self):
        rng = random.Random(20)
        backward = 0
        for _ in range(400):
            trace = _random_trace(rng)
            backward += any(b.t < a.t for evs in trace.events
                            for a, b in zip(evs, evs[1:]))
            assert _order_pairs(TraceColumns.from_raw(trace)) == \
                _merged_pairs(trace)
        assert backward > 300  # the hard case is actually exercised

    @pytest.mark.parametrize("mode", ["lt1", "ltbb"])
    def test_replay_with_groups_and_backward_timestamps(self, mode):
        # the replay plan places each group's clock overwrite by the merge
        # key, so it matches the merged-order oracle on any trace
        rng = random.Random(3)
        for _ in range(300):
            regions = RegionRegistry()
            coll = regions.intern("MPI_Allreduce")
            kern = regions.intern("k")
            n_loc = rng.randint(2, 4)
            events = [[] for _ in range(n_loc)]
            for group in range(rng.randint(1, 3)):
                for evs in events:
                    evs.extend(
                        Ev(BURST, kern, float(rng.randint(0, 20)),
                           WorkDelta(bb=float(rng.randint(0, 3)),
                                     burst_calls=float(rng.randint(0, 3))))
                        for _ in range(rng.randint(0, 3)))
                    evs.append(Ev(COLL_END, coll, float(rng.randint(0, 20)),
                                  aux=(group, n_loc)))
            trace = RawTrace("tsc", regions, [(r, 0) for r in range(n_loc)],
                             events)
            got = timestamp_trace(trace, mode).times
            for want, have in zip(oracle_times(trace, mode), got):
                np.testing.assert_array_equal(want, have)

    def test_memoized(self, engine_traces):
        cols = engine_traces["minife"].columns()
        assert cols.merged_order() is cols.merged_order()

    def test_sync_order_filters_merged_order(self, engine_traces):
        cols = engine_traces["tealeaf"].columns()
        loc, idx = cols.locate(cols.merged_order())
        etype = cols.flat("etype")[cols.merged_order()]
        keep = np.isin(etype, SYNC_KINDS)
        s_loc, s_idx, s_et, s_a, _b = cols.sync_order()
        assert s_loc == loc[keep].tolist()
        assert s_idx == idx[keep].tolist()
        assert s_et == etype[keep].tolist()
        assert s_a == [cols.locs[lc].aux_a[i] for lc, i in zip(s_loc, s_idx)]

    def test_rows_follow_merged_order(self, engine_traces, monkeypatch):
        from repro.measure import columnar

        monkeypatch.setattr(columnar, "ROW_CHUNK", 100)  # many chunks
        trace = engine_traces["minife"]
        want = [(loc, ev.etype, ev.region, ev.t) for loc, ev in trace.merged()]
        got = [(loc, et, reg, t)
               for loc, et, reg, _a, _b, t in trace.columns().rows()]
        assert got == want


# ---------------------------------------------------------------------------
# columns-first reads
# ---------------------------------------------------------------------------

def _npz_members(path):
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def _parent_round_trip(path):
    """The columns the per-event read path produced: the archive's raw
    slices materialized as ``Ev`` objects and converted back."""
    data = _npz_members(path)
    header = json.loads(bytes(data["header"]).decode("utf-8"))
    regions = RegionRegistry()
    for name, paradigm in zip(header["regions"], header["paradigms"]):
        regions.intern(name, paradigm)
    locations = [tuple(lt) for lt in header["locations"]]
    off = data["offsets"]
    raw = TraceColumns(header["mode"], regions, locations, [
        LocationColumns(**{f: data[f][off[i]:off[i + 1]] for f in _COLUMN_FIELDS})
        for i in range(len(locations))])
    events = raw.ev_lists()
    return TraceColumns.from_raw(RawTrace(header["mode"], regions, locations,
                                          events, header["runtime"]))


def _assert_columns_identical(got, want):
    assert got.locations == want.locations
    assert len(got.locs) == len(want.locs)
    for a, b in zip(got.locs, want.locs):
        for f in _COLUMN_FIELDS:
            x, y = getattr(a, f), getattr(b, f)
            assert x.dtype == y.dtype, f
            assert x.tobytes() == y.tobytes(), f


def _archive_traces():
    from repro.experiments.configs import make_app, make_cluster

    cluster = make_cluster("LULESH-1")
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=3))
    lulesh1 = Engine(make_app("LULESH-1"), cluster, cost,
                     measurement=Measurement("tsc")).run().trace
    return {
        "minife": _run(APPS["minife"]()),
        "tealeaf": _run(APPS["tealeaf"](), mode="lt1"),
        "LULESH-1": lulesh1,
        "faulted-ring-99": faulted_ring_trace(99),
    }


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    root = tmp_path_factory.mktemp("archives")
    paths = {}
    for name, trace in _archive_traces().items():
        paths[name] = root / f"{name}.npz"
        write_trace(trace, paths[name])
        write_trace(trace, root / f"{name}.shards")
    return paths


class TestColumnsFirstRead:
    @pytest.mark.parametrize(
        "name", ["minife", "tealeaf", "LULESH-1", "faulted-ring-99"])
    def test_npz_read_equals_per_event_round_trip(self, archives, name):
        session = obs.ObsSession()
        with obs.scoped(session):
            trace = read_trace(archives[name])
            got = trace.columns()
        _assert_columns_identical(got, _parent_round_trip(archives[name]))
        assert "measure.events_materialized" not in session.metrics.totals()
        shards = read_trace(archives[name].with_suffix(".shards"))
        _assert_columns_identical(shards.columns(), got)

    def test_canonicalizes_like_the_round_trip(self, archives, tmp_path):
        data = _npz_members(archives["minife"])
        etype = data["etype"]
        # payload columns carry junk on kinds without a payload, deltas
        # carry -0.0, ids are stored narrower than int64
        data["aux_a"] = np.where(etype == ENTER, 77, data["aux_a"])
        data["aux_b"] = np.where(etype == MPI_RECV, 5, data["aux_b"])
        data["bb"] = np.where(data["bb"] == 0.0, -0.0, data["bb"])
        data["etype"] = etype.astype(np.int32)
        data["t_enter"] = data["t_enter"].astype(np.float32)
        path = tmp_path / "odd.npz"
        np.savez_compressed(path, **data)
        got = read_trace(path).columns()
        _assert_columns_identical(got, _parent_round_trip(path))
        assert (got.flat("aux_a")[got.flat("etype") == ENTER] == -1).all()
        assert not np.signbit(got.flat("bb")).any()


def _damaged(archives, tmp_path, **edits):
    data = _npz_members(archives["minife"])
    for name, edit in edits.items():
        data[name] = edit(data[name])
    path = tmp_path / "damaged.npz"
    np.savez_compressed(path, **data)
    return path


class TestEagerTypedErrors:
    def test_truncated_column(self, archives, tmp_path):
        path = _damaged(archives, tmp_path, t=lambda a: a[:-7])
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.offset == "t"

    def test_decreasing_offsets(self, archives, tmp_path):
        def swap(off):
            off = off.copy()
            off[1], off[2] = off[2], off[1]
            return off

        path = _damaged(archives, tmp_path, offsets=swap)
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.offset == "offsets"

    def test_nan_aux(self, archives, tmp_path):
        def nan(aux):
            aux = aux.astype(np.float64)
            aux[3] = np.nan
            return aux

        path = _damaged(archives, tmp_path, aux_a=nan)
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert err.value.offset == "aux_a"

    def test_offsets_per_location(self, archives, tmp_path):
        path = _damaged(archives, tmp_path, offsets=lambda off: off[:-1])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_shard_record_outside_locations(self, tmp_path):
        from repro.measure.shards import open_sharded_trace

        trace = _run(APPS["minife"]())
        root = tmp_path / "t.shards"
        write_trace(trace, root)
        shard = root / "shard-0000.npy"
        rec = np.load(shard)
        rec["loc"][5] = trace.n_locations
        np.save(shard, rec)
        with pytest.raises(TraceFormatError) as err:
            read_trace(root)
        assert err.value.offset == "loc"
        with pytest.raises(TraceFormatError):
            open_sharded_trace(root).columns()


class TestMaterializeCounter:
    """Of the served ops only ``blame`` walks ``Ev`` objects."""

    @pytest.fixture(scope="class")
    def lt1_archives(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("served")
        paths = []
        for seed in (1, 2):
            path = root / f"s{seed}.npz"
            write_trace(_run(APPS["minife"](), mode="lt1", seed=seed), path)
            paths.append(str(path))
        return paths

    def _materialized(self, op, paths, params):
        from repro.serve.jobs import execute_analysis_job

        session = obs.ObsSession()
        with obs.scoped(session):
            execute_analysis_job(op, paths[0], params, paths[1])
        spans = [s.name for s in session.spans.records]
        return (session.metrics.totals().get("measure.events_materialized",
                                             0.0),
                spans.count("measure.materialize"))

    @pytest.mark.parametrize("op,params", [
        ("replay", {"mode": "ltbb"}),
        ("score", {"mode": "lt1"}),
        ("whatif", {"mode": "lt1", "scale_rank": {"0": 0.5}}),
    ])
    def test_columnar_ops_build_no_ev(self, lt1_archives, op, params):
        assert self._materialized(op, lt1_archives, params) == (0.0, 0)

    def test_blame_materializes(self, lt1_archives):
        count, spans = self._materialized("blame", lt1_archives,
                                          {"mode": "lt1"})
        assert count == read_trace(lt1_archives[0]).n_events
        assert spans == 1
