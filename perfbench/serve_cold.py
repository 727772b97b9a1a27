"""Workload ``serve-cold``: analysis requests that all miss the cache.

A closed loop of ``CONNECTIONS`` clients sends a fixed list of
``POST /v1/analyze`` requests, each with a distinct content address,
over archives uploaded in set-up: MiniFE-2 and TeaLeaf-2 recorded in
lt1 and tsc at two noise seeds derived from the workload seed.  The ops
are replay, blame and whatif under lt1/ltbb/ltstmt, plus score under
lt1 and tsc.  Every request misses the cache, so trace I/O, clock
replay, causal analysis, scoring and the service's pool/dispatch funnel
do the work; simulation runs only in set-up.  Afterwards every key is
read twice from a restarted service, so the disk store and then the
memory LRU answer.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench import checks, stats
from perfbench.inputs import WHATIF_EDIT, input_seeds, record_trace, \
    write_archive
from perfbench.report import Outcome, layer_split, peak_rss_mb
from perfbench.service import CONNECTIONS, Request, ServerProcess, \
    cache_hits, closed_loop, fetch_metrics, request_spans, serve_counters, \
    server_log, upload
from perfbench.tap import LAYERS, PINNED_MODES, Tap, self_times

EXPERIMENTS = ("MiniFE-2", "TeaLeaf-2")
RECORD_MODES = ("lt1", "tsc")
OPS = ("replay", "blame", "whatif")
#: nominal analyses per second on the reference machine; a run sends the
#: first ``round(--seconds * NOMINAL_RATE)`` requests of the fixed list, a
#: count fixed up front so that a slower host does not change what a run
#: measures
NOMINAL_RATE = 1.6
MIN_REQUESTS = 8
#: cache tiers the re-reads go to, in order (see :func:`run`)
REREAD_TIERS = ("store", "mem")
SETUP_REPS = 3
TENANT = "perfbench-cold"

#: (experiment, seed index, recording mode) of one uploaded archive
ArchiveKey = Tuple[str, int, str]


class Inputs:
    """A running service with this workload's archives uploaded."""

    def __init__(self, server: ServerProcess,
                 paths: Dict[ArchiveKey, Path],
                 hashes: Dict[ArchiveKey, str],
                 upload_s: List[float]) -> None:
        self.server, self.paths, self.hashes = server, paths, hashes
        #: latency of each set-up upload (``PUT /v1/traces``)
        self.upload_s = upload_s


def setup_once(root: Path, tmp: Path, seed: int) -> Tuple[Inputs, float]:
    """Start a service over a fresh store, record and upload archives."""
    t0 = time.perf_counter()
    work = Path(tempfile.mkdtemp(prefix="setup-", dir=tmp))
    server = ServerProcess(root, work / "store", server_log(tmp)).start()
    try:
        seeds = input_seeds(seed)
        paths = {}
        for exp in EXPERIMENTS:
            for si, noise_seed in enumerate(seeds):
                for mode in RECORD_MODES:
                    path = work / f"{exp}-s{si}-{mode}.trace.npz"
                    write_archive(record_trace(exp, mode, noise_seed), path)
                    paths[(exp, si, mode)] = path
        hashes, upload_s = upload(server.port, paths, TENANT)
    except BaseException:
        server.stop()
        raise
    return Inputs(server, paths, hashes, upload_s), time.perf_counter() - t0


def request_list(inputs: Inputs) -> List[Request]:
    """Every request of the workload, in sending order.

    The order is fixed and interleaves experiments, ops, modes and
    archives, so any prefix has nearly the same mix whatever the seed.
    """
    per_exp = []
    for exp in EXPERIMENTS:
        archives = [(exp, si, mode) for si in (0, 1) for mode in RECORD_MODES]
        seq = []
        for k in range(len(OPS) * len(PINNED_MODES) * len(archives)):
            op = OPS[k % 3]
            mode = PINNED_MODES[(k // 3) % 3]
            seq.append(_analyze(inputs, op, mode, archives[k // 9]))
            if k % 9 == 8:
                # one score per nine: lt1 and tsc over each recording pair
                rec = RECORD_MODES[(k // 9) % 2]
                score_mode = RECORD_MODES[(k // 18) % 2]
                seq.append(_analyze(inputs, "score", score_mode,
                                    (exp, 0, rec), (exp, 1, rec)))
        per_exp.append(seq)
    return [r for pair in zip(*per_exp) for r in pair]


def _analyze(inputs: Inputs, op: str, mode: str, key: ArchiveKey,
             key_b=None) -> Request:
    params = {"mode": mode}
    if op == "whatif":
        params.update(WHATIF_EDIT)
    doc = {"op": op, "trace": inputs.hashes[key], "params": params}
    if key_b is not None:
        doc["trace_b"] = inputs.hashes[key_b]
    meta = {"experiment": key[0], "op": op, "mode": mode,
            "path": inputs.paths[key],
            "path_b": inputs.paths[key_b] if key_b is not None else None,
            "params": dict(params, trace=doc["trace"],
                           **({"trace_b": doc["trace_b"]} if key_b else {}))}
    return Request("POST", "/v1/analyze", json.dumps(doc).encode(),
                   {"X-Tenant": TENANT}, meta)


def check_outcomes(reqs, outcomes, out: Outcome) -> List[tuple]:
    """Count failures; return ``(experiment, op, mode, body)`` of the
    requests that succeeded."""
    expected = checks.load_expected()
    good = []
    for o in outcomes:
        req = reqs[o.index]
        m = req.meta
        what = f"request {o.index} ({m['experiment']} {m['op']}/{m['mode']})"
        if o.error or o.status != 200:
            out.fail(f"{what}: {o.status} {o.error or o.body[:200]!r}")
            continue
        if o.headers.get("x-repro-cache") != "miss":
            out.fail(f"{what}: answered from cache "
                     f"({o.headers.get('x-repro-cache')}), not computed")
            continue
        problems = checks.check_analysis(m["experiment"], m["op"], m["mode"],
                                         o.body, expected)
        if problems:
            out.fail(f"{what}: {problems[0]}")
            continue
        good.append((m["experiment"], m["op"], m["mode"], o.body))
    for problem in checks.check_agreement(good):
        out.problems.append(problem)
    return good


def replay_jobs(reqs, outcomes, tap: Tap) -> Tuple[float, Dict[int, bytes]]:
    """Run the completed requests' jobs in-process, in order."""
    from repro.serve.jobs import execute_analysis_job

    bodies = {}
    t0 = time.perf_counter()
    for o in outcomes:
        m = reqs[o.index].meta
        tap.req = str(o.index)
        with tap.span("serve.job", op=m["op"], mode=m["mode"]):
            bodies[o.index] = execute_analysis_job(
                m["op"], str(m["path"]), m["params"],
                str(m["path_b"]) if m["path_b"] else None)
    return time.perf_counter() - t0, bodies


def run(root: Path, tmp: Path, seed: int, seconds: float, trace: bool,
        setup_reps: int = SETUP_REPS) -> Outcome:
    out = Outcome()
    setups = []
    inputs = None
    # a traced run reports no setup_s, so it sets up once
    for _ in range(1 if trace else setup_reps):
        if inputs is not None:
            inputs.server.stop()
        inputs, took = setup_once(root, tmp, seed)
        setups.append(took)
    try:
        reqs = request_list(inputs)
        reqs = reqs[:request_count(seconds, len(reqs))]
        port = inputs.server.port
        before = asyncio.run(fetch_metrics(port))
        outcomes, wall = asyncio.run(closed_loop(port, reqs))
        after = asyncio.run(fetch_metrics(port))
        # read every key twice more from a service restarted over the same
        # store: the disk store answers the first read, the memory LRU the
        # second; both must return the cold bytes.  These reads feed the
        # checks and the serve.cache layer, not the end-to-end metrics.
        server = inputs.server
        server.stop()
        inputs.server = ServerProcess(root, server.store, server.log).start()
        rereads = {tier: reread(inputs.server.port, reqs, outcomes)
                   for tier in REREAD_TIERS}
    finally:
        inputs.server.stop()
    out.attempted = len(outcomes) + sum(len(r[0]) for r in rereads.values())
    good = check_outcomes(reqs, outcomes, out)
    for tier, (again, _wall, hits) in rereads.items():
        check_rereads(tier, outcomes, again, hits, out)
    out.digest = checks.sha(b"".join(o.body for o in outcomes))

    lat = [o.latency * 1e3 for o in outcomes]
    tail, pct, n = stats.tail(lat)
    out.notes.append(f"latency: per request, tail = p{pct:.1f} of {n} "
                     f"requests, closed loop of {CONNECTIONS} clients")
    out.notes.append(f"{len(good)} correct analyses in {wall:.3f} s "
                     f"({len(good) / wall:.4g} analyses/s)")
    out.metrics.update({
        "setup_s": stats.median(setups),
        "campaign_s": wall,
        # the service and its pool workers, all stopped and waited for
        "peak_rss_mb": peak_rss_mb(children=True),
        "latency_p50_ms": stats.median(lat),
        "latency_tail_ms": tail,
    })
    if trace:
        traced_split(reqs, outcomes, wall, rereads, before, after,
                     inputs.upload_s, out)
        out.metrics["latency.tail_pct"] = pct
        out.metrics["latency.samples"] = n
    return out


def request_count(seconds: float, available: int) -> int:
    """Requests a run sends: the length of a prefix of the fixed list
    that depends only on ``--seconds``."""
    return min(available, max(MIN_REQUESTS, round(seconds * NOMINAL_RATE)))


def reread(port: int, reqs, outcomes):
    """Send every completed request once more, each on its own tenant so
    the quota's burst never binds.  Returns the outcomes, the wall time
    and the cache hits per tier."""
    before = asyncio.run(fetch_metrics(port))
    again, wall = asyncio.run(closed_loop(port, [
        Request(r.method, r.path, r.body, {"X-Tenant": f"reread-{i}"}, r.meta)
        for i, r in enumerate(reqs[o.index] for o in outcomes)]))
    return again, wall, cache_hits(before, asyncio.run(fetch_metrics(port)))


def check_rereads(tier: str, outcomes, again, hits, out: Outcome) -> None:
    for o, a in zip(outcomes, again):
        if a.status != 200 or a.headers.get("x-repro-cache") != "hit":
            out.fail(f"{tier} re-read of request {o.index}: {a.status} "
                     f"{a.headers.get('x-repro-cache')} {a.error}")
        elif o.status == 200 and a.body != o.body:
            out.fail(f"{tier} re-read of request {o.index}: warm bytes "
                     f"differ from the cold bytes")
    if hits[tier] != len(again):
        out.problems.append(f"{tier} re-reads: {hits} cache hits, expected "
                            f"all {len(again)} from the {tier} tier")


def traced_split(reqs, outcomes, wall, rereads, before, after, upload_s,
                 out: Outcome) -> None:
    """Per-layer split of the load phase and the re-reads.

    The service's jobs run in its pool, out of reach of the wrappers, so
    the completed requests' jobs are replayed in-process: once plain and
    once traced (the difference is the tracing overhead).  Each request's
    latency splits into its replayed job's layers and ``serve.funnel``,
    the rest (queue, dispatch batching, pool hand-off, HTTP).  Request
    seconds are divided by the number of clients, so self times plus
    ``unattributed`` (client idle time) equal the phases' wall time.  The
    re-reads' time goes to ``serve.cache``.
    """
    plain_s, _ = replay_jobs(reqs, outcomes, Tap(trace=False))
    with Tap(trace=True) as tap:
        traced_s, bodies = replay_jobs(reqs, outcomes, tap)
    for o in outcomes:
        if o.status == 200 and bodies[o.index] != o.body:
            out.problems.append(f"request {o.index}: in-process job bytes "
                                f"differ from the served bytes")
    records = tap.session.spans.records
    job_s = {r.args["req"]: r.duration for r in records
             if r.name == "serve.job"}
    split = {k: v for k, v in self_times(records).items() if k in LAYERS}
    funnel = sum(o.latency - job_s[str(o.index)] for o in outcomes)
    split["serve.funnel"] = (funnel, len(outcomes))
    split["serve.cache"] = (
        sum(a.latency for again, _w, _h in rereads.values() for a in again),
        sum(len(again) for again, _w, _h in rereads.values()))
    scaled = {k: (s / CONNECTIONS, c) for k, (s, c) in split.items()}
    extras = dict(tap.counts)
    extras["serve.wait_s"] = funnel
    extras["trace.overhead_s"] = traced_s - plain_s
    serve_counters(before, after, extras)
    hits = {tier: sum(h[tier] for _a, _w, h in rereads.values())
            for tier in REREAD_TIERS}
    extras["serve.mem_hit_ratio"] = hits["mem"] / max(1, sum(hits.values()))
    for tier, (again, _w, _h) in rereads.items():
        extras[f"serve.{tier}_read_ms"] = stats.median(
            [a.latency * 1e3 for a in again])
    extras["serve.upload_ms"] = stats.median([s * 1e3 for s in upload_s])
    phases = wall + sum(w for _a, w, _h in rereads.values())
    out.metrics.update(layer_split(scaled, phases, extras))
    request_spans(tap.session, outcomes, reqs)
    out.session = tap.session
