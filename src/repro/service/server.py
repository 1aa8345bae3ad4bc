"""The HTTP server: stdlib ``ThreadingHTTPServer``, no dependencies.

Endpoints (all JSON; see ``docs/service.md`` for the full schema):

====== ========================== =========================================
method path                       meaning
====== ========================== =========================================
POST   ``/v1/sweeps``             submit a spec batch; 202 + sweep id
GET    ``/v1/sweeps/<id>``        job status, per-cell progress + results
GET    ``/v1/runs/<hash>``        raw cache envelope of one cell
GET    ``/v1/health``             liveness + engine counters
GET    ``/v1/cache/stats``        cache size/hit/miss/eviction counters
====== ========================== =========================================

``GET /v1/sweeps/<id>`` supports ``?wait=<seconds>`` (long-poll until
the job finishes, capped) and ``?include=stats`` (embed the full
versioned ``MachineStats`` payload per cell instead of just the
summary digest).

Each request runs on its own thread; simulation work never blocks the
listener because jobs execute on their own worker threads (see
:mod:`repro.service.jobs`), and duplicate submissions are collapsed by
the engine's in-flight table, so a thundering herd on one paper figure
costs one simulation.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.service.jobs import JobManager
from repro.service.schema import (
    API_VERSION,
    ApiError,
    error_payload,
    parse_sweep_request,
)
from repro.sweep import HOT_ENTRIES, ResultCache, SweepEngine

#: refuse request bodies larger than this (64 MiB ~ a maxed-out batch).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: cap on ``?wait=`` long-polls so a dead client cannot pin a thread.
MAX_WAIT_SECONDS = 60.0


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ReproService`."""

    server_version = "repro-sweep-service/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> "ReproService":
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.service.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, error_payload(status, message))

    def _read_json_body(self) -> dict:
        length = self.headers.get("Content-Length")
        if length is None:
            raise ApiError(411, "Content-Length required")
        try:
            length = int(length)
        except ValueError:
            raise ApiError(400, "malformed Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise ApiError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            return json.loads(self.rfile.read(length))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ApiError(400, f"body is not valid JSON: {exc}") from exc

    # -- routing --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        try:
            if parts == ["v1", "health"]:
                self._send_json(200, self.service.health_payload())
            elif parts == ["v1", "cache", "stats"]:
                self._send_json(200, self.service.cache_stats_payload())
            elif parts == ["v1", "sweeps"]:
                self._send_json(200, self.service.sweeps_payload())
            elif len(parts) == 3 and parts[:2] == ["v1", "sweeps"]:
                self._get_sweep(parts[2], query)
            elif len(parts) == 3 and parts[:2] == ["v1", "runs"]:
                self._get_run(parts[2])
            else:
                self._send_error(404, f"no such endpoint: {url.path}")
        except ApiError as exc:
            self._send_error(exc.status, exc.message)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "sweeps"]:
                specs = parse_sweep_request(self._read_json_body())
                job = self.service.manager.submit(specs)
                self._send_json(202, {
                    "v": API_VERSION,
                    "sweep": job.id,
                    "cells": len(job.cells),
                    "url": f"/v1/sweeps/{job.id}",
                })
            else:
                self._send_error(404, f"no such endpoint: {url.path}")
        except ApiError as exc:
            self._send_error(exc.status, exc.message)

    # -- endpoint bodies ------------------------------------------------

    def _get_sweep(self, job_id: str, query: dict) -> None:
        job = self.service.manager.get(job_id)
        if job is None:
            raise ApiError(404, f"no such sweep: {job_id}")
        if "wait" in query:
            try:
                timeout = float(query["wait"][0])
            except (TypeError, ValueError):
                raise ApiError(400, "wait must be a number of seconds") \
                    from None
            job.wait(min(max(timeout, 0.0), MAX_WAIT_SECONDS))
        include_stats = "stats" in query.get("include", [])
        self._send_json(200, job.to_dict(include_stats=include_stats))

    def _get_run(self, key: str) -> None:
        cache = self.service.engine.cache
        if cache is None:
            raise ApiError(404, "this server runs without a result cache")
        if not all(c in "0123456789abcdef" for c in key) or len(key) != 64:
            raise ApiError(400, "run id must be a 64-hex-digit spec hash")
        payload = cache.get_by_key(key)
        if payload is None:
            raise ApiError(404, f"no cached result for {key}")
        self._send_json(200, {"v": API_VERSION, "run": payload})


class ReproService:
    """The sweep service: one engine, one job manager, one HTTP server.

    Use as a context manager (tests) or call :meth:`serve_forever`
    (the ``repro serve`` CLI)::

        with ReproService(engine) as svc:
            print(svc.url)          # http://127.0.0.1:<ephemeral>
    """

    def __init__(
        self,
        engine: SweepEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.engine = engine
        self.manager = JobManager(engine)
        self.verbose = verbose
        self.started = time.time()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproService":
        """Serve on a daemon thread; returns self (for chaining)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service", daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` path)."""
        self._httpd.serve_forever()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        # stop the persistent worker pool -- the service owns the
        # process, so its shutdown is the pool's shutdown.
        self.engine.close(shutdown_pool=True)

    def __enter__(self) -> "ReproService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- endpoint payloads ----------------------------------------------

    def health_payload(self) -> dict:
        jobs = self.manager.jobs()
        return {
            "v": API_VERSION,
            "status": "ok",
            "uptime": time.time() - self.started,
            "engine": self.engine.counters(),
            "jobs": {
                "total": len(jobs),
                "running": sum(1 for j in jobs if j.state == "running"),
            },
        }

    def cache_stats_payload(self) -> dict:
        cache = self.engine.cache
        return {
            "v": API_VERSION,
            "cache": cache.stats() if cache is not None else None,
            "engine": self.engine.counters(),
        }

    def sweeps_payload(self) -> dict:
        """Index of submitted sweeps (id + state, no cell detail)."""
        return {
            "v": API_VERSION,
            "sweeps": [
                {
                    "sweep": j.id,
                    "state": j.state,
                    "cells": len(j.cells),
                    "url": f"/v1/sweeps/{j.id}",
                }
                for j in self.manager.jobs()
            ],
        }


def create_service(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir: str | None = None,
    max_cache_bytes: int | None = None,
    max_cache_entries: int | None = None,
    jobs: int = 1,
    verbose: bool = False,
) -> ReproService:
    """Build a service with its own engine + (optionally bounded) cache.

    The service runs the drivers' configuration: the persistent warm
    worker pool and a :data:`~repro.sweep.HOT_ENTRIES`-entry hot tier
    over a write-through result cache.
    """
    cache = None
    if cache_dir is not None:
        cache = ResultCache(
            cache_dir,
            max_bytes=max_cache_bytes,
            max_entries=max_cache_entries,
            hot_entries=HOT_ENTRIES,
        )
    engine = SweepEngine(
        max_workers=jobs,
        cache=cache,
    )
    return ReproService(engine, host=host, port=port, verbose=verbose)
