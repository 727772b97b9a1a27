"""What one benchmark run reports: metric names, units, the result line."""

from __future__ import annotations

import json
import resource
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from perfbench.tap import LAYERS

#: end-to-end metrics (every workload reports every one; README says how)
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "campaign_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

#: per-layer metrics beyond ``<layer>.self_s|calls|share``
LAYER_EXTRAS: Dict[str, str] = {
    "sim.events": "count",
    "measure.io.read_bytes": "bytes",
    "experiments.serialize_s": "s",
    "serve.wait_s": "s",
    "serve.jobs_executed": "count",
    "serve.batch_size_mean": "count",
    "serve.job_retries": "count",
    "serve.job_failures": "count",
    "serve.coalesced": "count",
    "serve.shed": "count",
    "serve.quota_rejections": "count",
    "serve.mem_hit_ratio": "share",
    "serve.store_read_ms": "ms",
    "serve.mem_read_ms": "ms",
    "serve.upload_ms": "ms",
    "latency.tail_pct": "%",
    "latency.samples": "count",
    "unattributed.self_s": "s",
    "unattributed.share": "share",
    "wall_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.share"] = "share"
    units.update(LAYER_EXTRAS)
    return units


def peak_rss_mb(children: bool) -> float:
    """Largest resident set of this process, or with ``children`` of any
    process it started and waited for."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """Everything one workload run found out."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: digest of the run's outputs; repeats for a given (workload, seed)
    digest: str = ""
    notes: List[str] = field(default_factory=list)
    #: the traced run's ``repro.obs`` session, dumped at the end
    session: object = None

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def layer_split(self_s: Dict[str, Tuple[float, int]], wall: float,
                extras: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics: self time, calls, share of ``wall``, and the
    ``unattributed`` remainder, so that self times plus remainder equal
    the wall time."""
    out: Dict[str, float] = {}
    attributed = 0.0
    for layer in LAYERS:
        seconds, calls = self_s.get(layer, (0.0, 0))
        attributed += seconds
        out[f"{layer}.self_s"] = seconds
        out[f"{layer}.calls"] = calls
        out[f"{layer}.share"] = seconds / wall if wall > 0 else 0.0
    out["unattributed.self_s"] = wall - attributed
    out["unattributed.share"] = (wall - attributed) / wall if wall > 0 else 0.0
    out["wall_s"] = wall
    for name in LAYER_EXTRAS:
        out.setdefault(name, float(extras.get(name, 0.0)))
    return out


def result_line(outcome: Outcome, trace: bool) -> str:
    units = per_layer_units() if trace else END_TO_END
    missing = [name for name in units if name not in outcome.metrics]
    if missing:
        raise KeyError(f"workload did not report {missing}")
    doc = {
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": max(1, int(outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return json.dumps(doc)
