"""Workload inputs, derived only from the workload seed."""

from __future__ import annotations

import random
from pathlib import Path
from typing import Tuple

#: whatif edit every whatif request applies (rank 0 runs 20% faster)
WHATIF_EDIT = {"scale_rank": {"0": 0.8}}


def input_seeds(seed: int, n: int = 2) -> Tuple[int, ...]:
    """``n`` distinct noise seeds derived from the workload seed."""
    rng = random.Random(f"perfbench:{seed}")
    out = []
    while len(out) < n:
        s = rng.randrange(1, 2**31)
        if s not in out:
            out.append(s)
    return tuple(out)


def record_trace(experiment: str, mode: str, seed: int):
    """Simulate one instrumented run, as ``repro-run`` records it."""
    from repro.experiments.configs import make_app, make_cluster
    from repro.machine.noise import NoiseConfig, NoiseModel
    from repro.measure import Measurement
    from repro.sim import CostModel, Engine

    cluster = make_cluster(experiment)
    cost = CostModel(cluster, noise=NoiseModel(NoiseConfig(), seed=seed))
    engine = Engine(make_app(experiment), cluster, cost,
                    measurement=Measurement(mode))
    return engine.run().trace


def write_archive(trace, path: Path, manifest=None) -> bytes:
    """Write ``trace`` as a columnar ``.npz`` archive; return its bytes."""
    from repro.measure import write_trace

    write_trace(trace, path, manifest=manifest)
    return path.read_bytes()
