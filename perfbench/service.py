"""The service under test and the load generator that drives it.

The service runs as ``repro-serve run --port 0 --workers 2`` in its own
process group, over a fresh store directory, so the load generator never
shares its event loop.  The load generator is one asyncio process with
at most ``CONNECTIONS`` keep-alive connections in flight (one per CPU of
the 2-CPU reference machine).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

CONNECTIONS = 2
POOL_WORKERS = 2
REQUEST_TIMEOUT_S = 60.0

_SERVE_MAIN = ("import sys; from repro.cli import main_serve; "
               "sys.exit(main_serve(sys.argv[1:]))")
_LISTEN = re.compile(r"listening on http://[^\s:]+:(\d+)")


def server_log(tmp: Path) -> Path:
    """Where a run's service writes its stderr (kept after the run)."""
    return tmp.parent / f"{tmp.name}.serve.log"


def clean_env(root: Path) -> Dict[str, str]:
    """The process environment with every setting that could stand in
    for work cleared, and ``src/`` importable."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_WORKERS", "REPRO_CACHE_MAX_BYTES",
                        "REPRO_OBS", "REPRO_OBS_OUT")}
    env["PYTHONPATH"] = str(root / "src")
    return env


class ServerProcess:
    """``repro-serve run`` as a subprocess; :meth:`stop` ends its group."""

    def __init__(self, root: Path, store: Path, log: Path) -> None:
        self.root, self.store, self.log = root, store, log
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        cmd = [sys.executable, "-u", "-c", _SERVE_MAIN, "run",
               "--host", "127.0.0.1", "--port", "0",
               "--workers", str(POOL_WORKERS), "--cache-dir", str(self.store)]
        with open(self.log, "ab") as err:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=clean_env(self.root),
                stdout=subprocess.PIPE, stderr=err, start_new_session=True,
                preexec_fn=_default_sigint)
        deadline = time.monotonic() + timeout
        line = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                match = _LISTEN.search(line.decode("utf-8", "replace"))
                if match:
                    self.port = int(match.group(1))
                    return self
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"repro-serve did not start (see {self.log}): "
                           f"{line!r}")

    def stop(self, timeout: float = 10.0) -> None:
        """Interrupt the server, then make sure its whole group is gone."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                _kill_group(proc.pid)
                proc.wait()
        proc.stdout.close()
        deadline = time.monotonic() + timeout
        while _group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if _group_alive(proc.pid):
            _kill_group(proc.pid)


def _default_sigint() -> None:
    # a parent started in the background may ignore SIGINT, and the
    # child would inherit that; the server stops cleanly on SIGINT only
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- HTTP ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection (reopened after an error)."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader = self._writer = None

    async def request(self, method: str, path: str, body: bytes = b"",
                      headers: Optional[Dict[str, str]] = None,
                      timeout: float = REQUEST_TIMEOUT_S
                      ) -> Tuple[int, Dict[str, str], bytes]:
        try:
            return await asyncio.wait_for(
                self._exchange(method, path, body, headers or {}), timeout)
        except BaseException:
            await self.close()
            raise

    async def _exchange(self, method, path, body, headers):
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
        head = [f"{method} {path} HTTP/1.1", f"Host: {self.host}",
                f"Content-Length: {len(body)}"]
        head.extend(f"{k}: {v}" for k, v in headers.items())
        self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                           + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        resp: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            resp[name.strip().lower()] = value.strip()
        payload = await self._reader.readexactly(
            int(resp.get("content-length", "0") or "0"))
        if resp.get("connection", "").lower() == "close":
            await self.close()
        return status, resp, payload

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


@dataclass
class Request:
    """One request of a workload and what the check needs to know."""

    method: str
    path: str
    body: bytes = b""
    headers: Dict[str, str] = field(default_factory=dict)
    #: free-form description the checks use (experiment, op, mode, ...)
    meta: dict = field(default_factory=dict)


@dataclass
class Exchange:
    """What happened to one request; times are ``perf_counter`` seconds."""

    index: int
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.sent


async def _send(conn: Connection, req: Request, out: Exchange) -> None:
    out.sent = time.perf_counter()
    try:
        out.status, out.headers, out.body = await conn.request(
            req.method, req.path, req.body, req.headers)
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
            ValueError, IndexError) as exc:
        out.error = f"{type(exc).__name__}: {exc}"
    out.done = time.perf_counter()


async def closed_loop(port: int, requests: Sequence[Request]
                      ) -> Tuple[List[Exchange], float]:
    """``CONNECTIONS`` callers, each sending its next request after a reply.

    Requests go out in list order.  Returns the outcomes in list order
    and the wall time.
    """
    conns = [Connection("127.0.0.1", port) for _ in range(CONNECTIONS)]
    outcomes: List[Exchange] = []
    t0 = time.perf_counter()

    async def caller(conn: Connection) -> None:
        while len(outcomes) < len(requests):
            out = Exchange(len(outcomes))
            outcomes.append(out)
            await _send(conn, requests[out.index], out)

    try:
        await asyncio.gather(*(caller(c) for c in conns))
    finally:
        for c in conns:
            await c.close()
    return outcomes, time.perf_counter() - t0


async def fetch_metrics(port: int) -> dict:
    """Flat ``{"name{label=value,...}": value}`` of the service counters,
    plus ``<histogram>.sum`` / ``<histogram>.count``."""
    conn = Connection("127.0.0.1", port)
    try:
        status, _h, body = await conn.request("GET", "/metrics?format=json")
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    metrics = json.loads(body.decode("utf-8"))["metrics"]
    flat: Dict[str, float] = {}
    for row in metrics.get("counters", ()):
        labels = ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
        flat[f"{row['name']}{{{labels}}}"] = row["value"]
    for row in metrics.get("histograms", ()):
        flat[f"{row['name']}.sum"] = flat.get(f"{row['name']}.sum", 0.0) \
            + row["sum"]
        flat[f"{row['name']}.count"] = flat.get(f"{row['name']}.count", 0) \
            + row["count"]
    return flat


def metric_delta(before: Dict[str, float], after: Dict[str, float],
                 name: str, **labels: str) -> float:
    """Sum of the change of every series of ``name`` matching ``labels``."""
    total = 0.0
    for key, value in after.items():
        series, _sep, rest = key.partition("{")
        if series != name:
            continue
        have = dict(p.split("=", 1) for p in rest.rstrip("}").split(",") if p)
        if all(have.get(k) == v for k, v in labels.items()):
            total += value - before.get(key, 0.0)
    return total


def upload(port: int, paths: Dict[object, Path], tenant: str
           ) -> Tuple[Dict[object, str], List[float]]:
    """PUT every archive; return the content address of each and the
    latency of each upload in seconds."""
    reqs = [Request("PUT", "/v1/traces", path.read_bytes(),
                    {"X-Archive-Name": path.name, "X-Tenant": tenant},
                    {"key": key}) for key, path in paths.items()]
    outcomes, _wall = asyncio.run(closed_loop(port, reqs))
    hashes = {}
    for req, o in zip(reqs, outcomes):
        if o.status != 201:
            raise RuntimeError(f"upload of {req.meta['key']} failed: "
                               f"{o.status} {o.error or o.body[:200]!r}")
        hashes[req.meta["key"]] = json.loads(o.body)["hash"]
    return hashes, [o.latency for o in outcomes]


def serve_counters(before: dict, after: dict, out: Dict[str, float]) -> None:
    """Per-layer serve counters: deltas of ``/metrics`` over the phase."""
    for name in ("serve.jobs_executed", "serve.job_retries",
                 "serve.job_failures", "serve.coalesced", "serve.shed",
                 "serve.quota_rejections"):
        out[name] = out.get(name, 0.0) + metric_delta(before, after, name)
    batches = after.get("serve.batch_size.count", 0) \
        - before.get("serve.batch_size.count", 0)
    jobs = after.get("serve.batch_size.sum", 0) \
        - before.get("serve.batch_size.sum", 0)
    if batches:
        out["serve.batch_size_mean"] = jobs / batches


def cache_hits(before: dict, after: dict) -> Dict[str, float]:
    """Cache hits per tier over the phase (``serve.cache_hits`` deltas)."""
    return {tier: metric_delta(before, after, "serve.cache_hits", tier=tier)
            for tier in ("mem", "store", "offline")}


def request_spans(session, outcomes, reqs) -> None:
    """Record each request as a ``serve.request`` span in ``session``;
    the ``req`` argument matches the spans of its replayed job."""
    from repro.obs import Span

    rec = session.spans
    for o in outcomes:
        span = Span("serve.request",
                    {"req": str(o.index), "op": reqs[o.index].meta.get("op", ""),
                     "status": o.status,
                     "cache": o.headers.get("x-repro-cache", "")},
                    o.sent - rec.t_base, os.getpid(), 0, -1)
        span.t1 = o.done - rec.t_base
        rec.records.append(span)
