"""The experiment-grid job server: asyncio HTTP over a shared pool.

One process serves every tenant:

* ``POST /jobs`` — submit a sweep spec (JSON; see
  :mod:`repro.serve.spec`).  The server expands it into cells and
  answers ``{"job": id, "cells": N}`` immediately; cells execute in the
  background.
* ``GET /jobs/<id>/stream`` — NDJSON stream: one record per cell *as it
  lands* (out of submission order, each tagged with its ``index``),
  then a final ``{"event": "done", ...}`` record.
* ``GET /jobs/<id>`` — job snapshot; once done it includes ``table``,
  the rendered output byte-identical to the sequential CLI's.
* ``GET /stats`` — pool, cache, dedup, and per-tenant counters;
  ``cache.source_current`` turns false once the source on disk has
  moved past what the server runs (restart to pick it up).
* ``GET /healthz`` — liveness; ``POST /shutdown`` — graceful stop.

Each cell takes the cheapest path that can serve it: the **in-flight
index** (another tenant is computing it right now — await their future),
the **result cache** (same task + same key material executed any time
in the past), and only then :meth:`WorkerPool.submit
<repro.exec.pool.WorkerPool.submit>` on the server's one warm pool,
where cells from every concurrent job interleave across the workers.
The cache's key material — source fingerprint included — is fixed when
the server starts, before its workers fork; after editing source,
restart the server.  After every ``evict_interval`` cache writes the
server sweeps the store — generations other than its own first (left
by runs of other source trees), then oldest entries — so a long-lived
server under ``--max-cache-mb`` never grows without bound.

The HTTP layer is deliberately minimal (HTTP/1.1, ``Connection:
close``, stdlib only): the clients are the bench/verify CLIs and
``curl``, not browsers.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Optional, Sequence

from ..exec.cache import DEFAULT_CACHE_DIR, ResultCache, source_fingerprint
from ..exec.pool import WorkerPool
from .jobs import InFlightIndex, Job, JobRegistry
from .spec import Cell, SpecError, expand

__all__ = ["JobServer", "serve_forever"]

_MAX_BODY = 8 * 1024 * 1024


class JobServer:
    """State and request handling; :func:`serve_forever` runs it."""

    def __init__(
        self,
        jobs=None,
        *,
        cache_root=DEFAULT_CACHE_DIR,
        namespace: str = "serve",
        source_roots: Optional[Sequence] = None,
        max_cache_bytes: Optional[int] = None,
        evict_interval: int = 64,
        task_timeout: Optional[float] = None,
    ):
        # the cache's key material is taken before the workers fork, so
        # every key names the code the workers run
        self.cache = ResultCache(root=cache_root, namespace=namespace,
                                 source_roots=source_roots)
        self.pool = WorkerPool(jobs, task_timeout=task_timeout)
        self.registry = JobRegistry()
        self.inflight = InFlightIndex()
        self.max_cache_bytes = max_cache_bytes
        self.evict_interval = max(1, evict_interval)
        self.started = time.time()
        self.shutdown = asyncio.Event()
        self._puts_since_evict = 0
        self._last_evict: dict = {}

    # -- lifecycle -----------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 8750) -> asyncio.AbstractServer:
        return await asyncio.start_server(self._handle, host, port)

    def close(self) -> None:
        self.pool.close()

    # -- HTTP plumbing -------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=30)
            parts = request.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            headers = {}
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=30)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length") or 0)
            body = b""
            if 0 < length <= _MAX_BODY:
                body = await reader.readexactly(length)
            await self._route(method, target, headers, body, writer)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, obj,
                       status: int = 200) -> None:
        payload = (json.dumps(obj, indent=2) + "\n").encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed"}.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n".encode() + payload)
        await writer.drain()

    async def _route(self, method: str, target: str, headers: dict,
                     body: bytes, writer: asyncio.StreamWriter) -> None:
        if target == "/healthz" and method == "GET":
            await self._respond(writer, {"ok": True,
                                         "uptime_s": round(
                                             time.time() - self.started, 3)})
        elif target == "/stats" and method == "GET":
            await self._respond(writer, self.stats())
        elif target == "/jobs" and method == "POST":
            await self._post_job(headers, body, writer)
        elif target.startswith("/jobs/"):
            rest = target[len("/jobs/"):]
            if rest.endswith("/stream") and method == "GET":
                await self._stream_job(rest[:-len("/stream")], writer)
            elif method == "GET":
                job = self.registry.get(rest)
                if job is None:
                    await self._respond(writer,
                                        {"error": f"no job {rest!r}"}, 404)
                else:
                    await self._respond(writer, job.snapshot())
            else:
                await self._respond(writer, {"error": "method"}, 405)
        elif target == "/shutdown" and method == "POST":
            await self._respond(writer, {"ok": True, "shutting_down": True})
            self.shutdown.set()
        else:
            await self._respond(
                writer, {"error": f"no route {method} {target}"}, 404)

    # -- routes --------------------------------------------------------
    async def _post_job(self, headers: dict, body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        try:
            spec = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._respond(writer, {"error": f"bad JSON: {exc}"}, 400)
            return
        try:
            expanded = expand(spec)
        except SpecError as exc:
            await self._respond(writer, {"error": str(exc)}, 400)
            return
        tenant = (headers.get("x-tenant")
                  or (spec.get("tenant") if isinstance(spec, dict) else None)
                  or "anon")
        job = self.registry.create(str(tenant), spec, expanded)
        asyncio.get_running_loop().create_task(self._run_job(job))
        await self._respond(writer, {
            "job": job.id, "tenant": job.tenant, "kind": expanded.kind,
            "cells": len(expanded.cells),
        })

    async def _stream_job(self, job_id: str,
                          writer: asyncio.StreamWriter) -> None:
        job = self.registry.get(job_id)
        if job is None:
            await self._respond(writer, {"error": f"no job {job_id!r}"}, 404)
            return
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        queue = job.subscribe()
        while True:
            event = await queue.get()
            if event is None:
                break
            writer.write((json.dumps(event) + "\n").encode())
            await writer.drain()

    # -- execution -----------------------------------------------------
    async def _run_job(self, job: Job) -> None:
        try:
            await asyncio.gather(*(self._run_cell(job, cell)
                                   for cell in job.expanded.cells))
            job.finish()
        except Exception as exc:  # noqa: BLE001 — the job fails, not the server
            job.finish(error=f"{type(exc).__name__}: {exc}")

    async def _run_cell(self, job: Job, cell: Cell) -> None:
        tenant = self.registry.tenants[job.tenant]
        outcome = {"event": "cell", "job": job.id, "index": cell.index,
                   "series": cell.series, "label": cell.label,
                   "ok": False, "value": None, "error": None,
                   "cached": False, "deduped": False, "wall_s": 0.0}
        key = self.cache.task_key(cell.task)
        if key is None:
            ok, value, error, wall = await self._execute(cell)
            tenant.executed += 1
        else:
            flight = self.inflight.lookup(key)
            if flight is not None:
                ok, value, error, wall = await flight
                outcome["deduped"] = True
                tenant.deduped += 1
            else:
                hit, value = self.cache.get(key)
                if hit:
                    ok, error, wall = True, None, 0.0
                    outcome["cached"] = True
                    tenant.cache_hits += 1
                else:
                    future = self.inflight.begin(key)
                    try:
                        ok, value, error, wall = await self._execute(cell)
                        tenant.executed += 1
                        if ok:
                            self.cache.put(key, value)
                            self._maybe_evict()
                    finally:
                        # Settle even on failure so waiters see the
                        # error instead of hanging; errors are not
                        # cached, so a later request re-executes.
                        self.inflight.settle(
                            key, (ok, value, error, wall)
                            if not isinstance(value, BaseException)
                            else (False, None, str(value), 0.0))
        outcome["ok"] = ok
        outcome["error"] = error
        outcome["wall_s"] = round(wall, 6)
        if ok:
            outcome["value"] = job.expanded.summarize(value)
        else:
            tenant.failed += 1
        job.record(outcome)

    async def _execute(self, cell: Cell):
        """Run one cell on the shared pool; returns (ok, value, error,
        wall_s) and never raises for per-cell failures."""
        try:
            result = await asyncio.wrap_future(
                self.pool.submit(cell.task))
        except Exception as exc:  # noqa: BLE001 — pool-level failure
            return False, None, f"{type(exc).__name__}: {exc}", 0.0
        return result.ok, result.value, result.error, result.wall_s

    def _maybe_evict(self) -> None:
        self._puts_since_evict += 1
        if self._puts_since_evict < self.evict_interval:
            return
        self._puts_since_evict = 0
        self._last_evict = self.cache.evict(max_bytes=self.max_cache_bytes)

    # -- stats ---------------------------------------------------------
    def stats(self) -> dict:
        entries, total_bytes = self.cache.usage()
        return {
            "uptime_s": round(time.time() - self.started, 3),
            "pool": self.pool.stats(),
            "cache": {
                **self.cache.stats(),
                "entries": entries,
                "total_bytes": total_bytes,
                "max_bytes": self.max_cache_bytes,
                "generation": self.cache.generation(),
                # False once the on-disk source moved past what this
                # server runs: a restart is due
                "source_current": source_fingerprint(
                    self.cache.source_roots) == self.cache.source_fp,
                "last_evict": self._last_evict,
            },
            "inflight": {"open": len(self.inflight),
                         "deduped": self.inflight.deduped},
            "jobs": self.registry.stats(),
        }


async def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8750,
    announce=None,
    **kwargs,
) -> None:
    """Run a :class:`JobServer` until ``POST /shutdown`` (or cancel)."""
    app = JobServer(**kwargs)
    server = await app.start(host, port)
    try:
        if announce is not None:
            bound = server.sockets[0].getsockname()
            announce(f"serving on http://{bound[0]}:{bound[1]}")
        await app.shutdown.wait()
    finally:
        server.close()
        await server.wait_closed()
        app.close()
