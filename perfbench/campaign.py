"""Workload ``campaign``: the uncached paper campaign users wait for.

``run_experiment`` for MiniFE-2 then TeaLeaf-2 at the workload seed,
serial (``workers=1``), uncached, with the default preflight, followed
by the canonical serialization ``repro-serve`` would return.  Every
compute layer works here; causal, io and serve do none.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from pathlib import Path
from typing import List

from perfbench import checks, stats
from perfbench.report import Outcome, layer_split, peak_rss_mb
from perfbench.service import clean_env
from perfbench.tap import Tap, self_times

EXPERIMENTS = ("MiniFE-2", "TeaLeaf-2")
#: a set-up takes well under a second, so a median of seven is cheap
SETUP_REPS = 7
#: a run makes ``round(--seconds / PASS_SECONDS)`` passes, four at
#: ``--seconds 30``; the count is fixed up front so that a slower host does
#: not change what a run measures.  A pass takes about 15 s on the 2-CPU
#: reference machine, whose speed drifts by some 15% from one pass to the
#: next: with two passes the latency tail spread past its bound between
#: runs of the same code
PASS_SECONDS = 7.5

#: the start-up a campaign pays: a fresh interpreter importing the
#: pipeline and building both experiments' programs and clusters
_SETUP_CODE = (
    "from repro.experiments.configs import make_app, make_cluster\n"
    "import repro.experiments.workflow\n"
    f"for name in {EXPERIMENTS!r}:\n"
    "    make_app(name), make_cluster(name)\n"
)


def setup_once(root: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=root,
                   env=clean_env(root), check=True, timeout=120)
    return time.perf_counter() - t0


class _Pass:
    """One campaign over both experiments."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.serialize_s = 0.0
        self.blobs: List[bytes] = []


def campaign_pass(seed: int, tap: Tap, cache_dir: Path,
                  out: Outcome) -> _Pass:
    from repro.experiments import workflow as W

    # use_cache=False already skips the store; pointing the cache at a
    # fresh directory keeps a stale entry from ever standing in for work
    W._CACHE_DIR = cache_dir
    expected = checks.load_expected()
    p = _Pass()
    t0 = time.perf_counter()
    results = []
    for name in EXPERIMENTS:
        tap.experiment = tap.req = name
        out.attempted += 1
        with tap.span("experiments"):
            result = W.run_experiment(name, seed=seed, use_cache=False,
                                      workers=1)
        tap.close_runs(time.perf_counter())
        t_ser = time.perf_counter()
        with tap.span("experiments"):
            p.blobs.append(W.serialize_result(result))
        p.serialize_s += time.perf_counter() - t_ser
        results.append(result)
    p.wall = time.perf_counter() - t0
    for result in results:
        finals = {mode: runs for (exp, mode), runs in tap.finals.items()
                  if exp == result.name}
        problems = checks.check_campaign(result, finals, expected)
        if problems:
            out.fail(f"{result.name}: {problems[0]}")
            out.problems.extend(problems[1:])
    tap.finals.clear()
    return p


def run(root: Path, tmp: Path, seed: int, seconds: float, trace: bool,
        setup_reps: int = SETUP_REPS) -> Outcome:
    out = Outcome()
    setups = [setup_once(root) for _ in range(setup_reps)]
    n_passes = 1 if trace else max(1, round(seconds / PASS_SECONDS))
    passes = []
    with Tap(trace=False) as tap:
        for i in range(n_passes):
            # every pass starts from the same heap, not the last one's garbage
            gc.collect()
            passes.append(campaign_pass(seed, tap, tmp / f"cache{i}", out))
    out.digest = checks.sha(b"".join(passes[0].blobs))
    for p in passes[1:]:
        if checks.sha(b"".join(p.blobs)) != out.digest:
            out.fail("campaign outputs differ between passes of one seed")
    walls = [p.wall for p in passes]
    lat = [s * 1e3 for s in tap.run_seconds]
    tail, pct, n = stats.tail(lat)
    out.notes.append(f"latency: per campaign run, tail = p{pct:.1f} "
                     f"of {n} runs; {len(passes)} campaign pass(es) of "
                     + ", ".join(f"{w:.3f}" for w in walls) + " s")
    out.metrics.update({
        "setup_s": stats.median(setups),
        "campaign_s": stats.median(walls),
        # the campaign runs in this process; set-up children are excluded
        "peak_rss_mb": peak_rss_mb(children=False),
        "latency_p50_ms": stats.median(lat),
        "latency_tail_ms": tail,
    })
    if trace:
        with Tap(trace=True) as traced:
            tp = campaign_pass(seed, traced, tmp / "cache-traced", out)
        if checks.sha(b"".join(tp.blobs)) != out.digest:
            out.fail("traced campaign outputs differ from untraced ones")
        extras = dict(traced.counts)
        extras["experiments.serialize_s"] = tp.serialize_s
        extras["trace.overhead_s"] = tp.wall - passes[0].wall
        extras["latency.tail_pct"] = pct
        extras["latency.samples"] = n
        out.metrics.update(layer_split(
            self_times(traced.session.spans.records), tp.wall, extras))
        out.session = traced.session
    return out
