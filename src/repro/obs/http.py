"""An embedded, stdlib-only observability scrape endpoint.

:class:`ObservabilityServer` wraps ``http.server.ThreadingHTTPServer``
in a daemon thread and serves four read-only routes:

============  ==========================================================
``/metrics``  Prometheus text exposition of the bound registry
              (collectors run per scrape, so pull-model gauges and the
              ``repro_slo_*`` exports are fresh).
``/healthz``  JSON from the bound health callback (the service's
              state and, sharded, its shards); 200 when it reports
              ``"healthy": true``, 503 otherwise.
``/slo``      JSON burn report from the bound
              :class:`~repro.obs.slo.SLOTracker`.
``/spans``    Recent spans as JSONL, newest last. Query params:
              ``?trace=<id>`` filters to one trace, ``?limit=<n>``
              caps the line count (default 512).
============  ==========================================================

The server binds ``127.0.0.1`` by default — this is an operator
surface, not a public API — and ``port=0`` asks the OS for an
ephemeral port (read the resolved one from :attr:`port`; tests and the
smoke script rely on it). Every handler snapshots under the relevant
component's own locking, so a scrape never blocks the serving path.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import InvalidConfiguration

_DEFAULT_SPAN_LIMIT = 512


class ObservabilityServer:
    """Serve ``/metrics``, ``/healthz``, ``/slo`` and ``/spans``.

    Args:
        registry: the :class:`~repro.obs.MetricsRegistry` behind
            ``/metrics`` (required — a scrape surface without metrics
            is a bug, not a configuration).
        tracer: the :class:`~repro.obs.Tracer` behind ``/spans``
            (``None`` serves an empty span list).
        slo_tracker: the :class:`~repro.obs.slo.SLOTracker` behind
            ``/slo`` (``None`` serves an empty report).
        health: zero-arg callable returning a JSON-friendly dict for
            ``/healthz``; it should include a boolean ``"healthy"``
            key (absent reads as healthy).
        port: TCP port; 0 picks an ephemeral one.
        host: bind address.
    """

    def __init__(
        self,
        registry,
        *,
        tracer=None,
        slo_tracker=None,
        health=None,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        if registry is None:
            raise InvalidConfiguration(
                "ObservabilityServer needs a MetricsRegistry"
            )
        if not 0 <= int(port) <= 65535:
            raise InvalidConfiguration(f"invalid scrape port {port}")
        self.registry = registry
        self.tracer = tracer
        self.slo_tracker = slo_tracker
        self.health = health
        server = self

        class _Handler(BaseHTTPRequestHandler):
            # One scrape per request; keep-alive would pin the
            # threading server's worker threads on idle scrapers.
            protocol_version = "HTTP/1.0"

            def log_message(self, *args) -> None:  # silence stderr
                pass

            def do_GET(self) -> None:  # noqa: N802 - stdlib API
                try:
                    server._route(self)
                except BrokenPipeError:
                    pass

        self._httpd = ThreadingHTTPServer((host, int(port)), _Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            daemon=True,
            name="fxrz-obs-http",
        )
        self._thread.start()
        self._closed = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop serving and join the server thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "ObservabilityServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- routing ---------------------------------------------------------------

    def _route(self, handler: BaseHTTPRequestHandler) -> None:
        parsed = urlparse(handler.path)
        if parsed.path == "/metrics":
            body = self.registry.render_prometheus().encode("utf-8")
            self._reply(
                handler, 200, body, "text/plain; version=0.0.4; charset=utf-8"
            )
        elif parsed.path == "/healthz":
            payload = dict(self.health()) if self.health is not None else {}
            healthy = bool(payload.get("healthy", True))
            self._json(handler, 200 if healthy else 503, payload)
        elif parsed.path == "/slo":
            if self.slo_tracker is None:
                self._json(
                    handler, 200, {"slos": [], "alerting": [],
                                   "frames_sampled": 0}
                )
            else:
                self._json(handler, 200, self.slo_tracker.report())
        elif parsed.path == "/spans":
            self._spans(handler, parse_qs(parsed.query))
        else:
            self._json(
                handler,
                404,
                {
                    "error": f"no route {parsed.path}",
                    "routes": ["/metrics", "/healthz", "/slo", "/spans"],
                },
            )

    def _spans(self, handler: BaseHTTPRequestHandler, query: dict) -> None:
        try:
            limit = int(query.get("limit", [_DEFAULT_SPAN_LIMIT])[0])
            trace_id = int(query.get("trace", [0])[0])
        except ValueError:
            self._json(
                handler, 400, {"error": "trace and limit must be integers"}
            )
            return
        spans = self.tracer.spans if self.tracer is not None else []
        records = [span.to_dict() for span in spans]
        if trace_id:
            records = [r for r in records if r.get("trace_id") == trace_id]
        if limit > 0:
            records = records[-limit:]
        body = "".join(
            json.dumps(record, separators=(",", ":")) + "\n"
            for record in records
        ).encode("utf-8")
        self._reply(handler, 200, body, "application/jsonl; charset=utf-8")

    # -- plumbing --------------------------------------------------------------

    @staticmethod
    def _reply(
        handler: BaseHTTPRequestHandler,
        status: int,
        body: bytes,
        content_type: str,
    ) -> None:
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    @classmethod
    def _json(
        cls, handler: BaseHTTPRequestHandler, status: int, payload: dict
    ) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        cls._reply(handler, status, body, "application/json; charset=utf-8")
