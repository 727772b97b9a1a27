"""Clocks: timestamp assignment for raw traces.

``timestamp_trace`` is the main entry point: it turns a
:class:`~repro.measure.trace.RawTrace` into per-location timestamp arrays
under the chosen measurement mode -- physical time for ``tsc``, Lamport
logical time with the paper's increment models for the ``lt*`` modes.

Logical timestamps depend only on the event DAG (per-location order plus
message/collective/fork/barrier edges) and the deterministic work counts,
never on the physical timing -- which is precisely the noise-resilience
property the paper investigates.

The eager Lamport replay (Algorithm 1) has two implementations here:
the columnar replay plan (:mod:`repro.clocks.columnar`) timestamps
every trace held in memory, and the stream walk
(:mod:`repro.clocks.streaming`) computes final clocks with bounded
memory over ``.shards`` archives.  The per-event reference replay both
are checked against lives with the tests.
"""

from repro.clocks.base import TimestampedTrace, final_clocks, timestamp_trace
from repro.clocks.columnar import (
    columnar_increments,
    lamport_assign_columnar,
    timestamp_columns,
)
from repro.clocks.increments import (
    increment_lt1,
    increment_ltloop,
    increment_ltbb,
    increment_ltstmt,
    make_increment,
)
from repro.clocks.hwcounter import HwCounterIncrement
from repro.clocks.vector import VectorClock
from repro.clocks.lazy import LazyLamportClock
from repro.clocks.sync import SyncMechanism, overhead_for_mechanism

__all__ = [
    "TimestampedTrace",
    "final_clocks",
    "timestamp_trace",
    "columnar_increments",
    "lamport_assign_columnar",
    "timestamp_columns",
    "increment_lt1",
    "increment_ltloop",
    "increment_ltbb",
    "increment_ltstmt",
    "make_increment",
    "HwCounterIncrement",
    "VectorClock",
    "LazyLamportClock",
    "SyncMechanism",
    "overhead_for_mechanism",
]
