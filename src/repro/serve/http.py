"""Stdlib JSON-over-HTTP front end for :class:`TimingService`.

No web framework is available in this environment, so the server is built
on :mod:`http.server`'s ``ThreadingHTTPServer`` — one thread per connection,
which is exactly what feeds the service's micro-batching queue.  Endpoints:

``POST /predict``
    ``{"source": <verilog>, "name": <design name>}`` → the full fine-grained
    prediction (overall WNS/TNS, per-signal slack/ranking/groups) plus
    per-request serving stats.  Pre-built records can be referenced by
    registering them on the server (used by the benchmark harness).

``POST /whatif``
    Same payload plus optional ``"k"`` → incremental what-if projections of
    candidate synthesis option sets (no re-synthesis).

``GET /health``
    Liveness + the manifest of the served model bundle, with the active
    bundle id and promotion eval digest surfaced at the top level (so a
    canary promotion is observable with one probe).

``GET /metrics``
    The service's :class:`~repro.runtime.report.RuntimeReport` snapshot with
    latency percentiles and realized batch size.

Responses are always JSON — the stdlib's own error paths (malformed request
line, unsupported method) included; errors use conventional status codes
with an ``{"error": ...}`` body.  Every response leaves in one write on a
``TCP_NODELAY`` socket: with Nagle on, a body sent after its headers would
wait for the client's delayed ACK (tens of milliseconds per request).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

from repro.core.pipeline import RTLTimerPrediction
from repro.hdl.design import AnalysisError
from repro.hdl.lexer import LexerError
from repro.hdl.parser import ParseError
from repro.serve.resilience import DeadlineExceeded, RejectedError, WorkerUnavailable
from repro.serve.service import TimingService

#: Maximum accepted request body (a Verilog source payload), in bytes.
MAX_BODY_BYTES = 4 * 1024 * 1024


def prediction_to_json(prediction: RTLTimerPrediction) -> Dict[str, Any]:
    """The JSON shape of one prediction (stable across server and client)."""
    return {
        "design": prediction.design,
        "overall": {key: float(value) for key, value in prediction.overall.items()},
        "signal_arrival": {k: float(v) for k, v in prediction.signal_arrival.items()},
        "signal_slack": {k: float(v) for k, v in prediction.signal_slack.items()},
        "signal_ranking": {k: float(v) for k, v in prediction.signal_ranking.items()},
        "rank_group": {k: int(v) for k, v in prediction.rank_group.items()},
        "ranked_signals": prediction.ranked_signals(),
        "runtime_seconds": float(prediction.runtime_seconds),
    }


class TimingRequestHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints onto the server's :class:`TimingService`."""

    server: "TimingHTTPServer"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(
        self,
        payload: Dict[str, Any],
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Status line, headers and JSON body in a single write."""
        body = json.dumps(payload).encode()
        self.log_request(status)
        lines = [
            f"{self.protocol_version} {status} {self.responses.get(status, ('',))[0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
        if self.close_connection:
            lines.append("Connection: close")
        self.wfile.write("\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body)

    def send_error(self, code: int, message: Optional[str] = None, explain=None) -> None:
        """The stdlib's error replies (bad request line, unknown method), as JSON."""
        self.log_error("code %d, message %s", code, message)
        self.close_connection = True
        self._send_json({"error": message or self.responses.get(code, ("error",))[0]}, code)

    def _send_error_json(
        self, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        self._send_json({"error": message}, status=status, headers=headers)

    def _read_body(self) -> Optional[Dict[str, Any]]:
        if "chunked" in (self.headers.get("Transfer-Encoding") or "").lower():
            # No Content-Length means no upfront bound; accepting the frames
            # would mean reading unbounded input into memory.
            self.close_connection = True
            self._send_error_json(413, "chunked request bodies are not accepted")
            return None
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            # The body was never read, so this keep-alive connection is
            # desynced — close it instead of parsing body bytes as the next
            # request line.
            self.close_connection = True
            self._send_error_json(400, "bad Content-Length header")
            return None
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._send_error_json(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} byte cap"
            )
            return None
        if length <= 0:
            self.close_connection = True
            self._send_error_json(400, "request body must not be empty")
            return None
        try:
            payload = json.loads(self.rfile.read(length))
        except (OSError, json.JSONDecodeError):
            self._send_error_json(400, "request body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._send_error_json(400, "request body must be a JSON object")
            return None
        return payload

    def _record_from(self, payload: Dict[str, Any]):
        """Resolve the design a request refers to (source text or registered name)."""
        service = self.server.service
        name = payload.get("name")
        source = payload.get("source")
        if source is not None:
            if not isinstance(source, str):
                self._send_error_json(400, "'source' must be a Verilog source string")
                return None
            return service.record_for_source(source, name=name)
        if name is not None:
            record = self.server.registered_records.get(name)
            if record is not None:
                return record
            self._send_error_json(404, f"no registered design named {name!r}")
            return None
        self._send_error_json(400, "request must carry 'source' (and optionally 'name')")
        return None

    # -- endpoints ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            if self.path == "/health":
                service = self.server.service
                self._send_json(
                    {
                        "status": "ok",
                        "model": service.manifest or {},
                        "active_bundle_id": service.active_bundle_id,
                        "eval_digest": service.eval_digest,
                        "uptime_seconds": round(
                            service.metrics()["serving"]["uptime_seconds"], 3
                        ),
                    }
                )
            elif self.path == "/metrics":
                self._send_json(self.server.service.metrics())
            else:
                self._send_error_json(404, f"unknown endpoint {self.path!r}")
        except Exception as exc:  # a racing scrape must get JSON, not a reset
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path not in ("/predict", "/whatif"):
            # The unread body would desync this keep-alive connection.
            self.close_connection = True
            self._send_error_json(404, f"unknown endpoint {self.path!r}")
            return
        payload = self._read_body()
        if payload is None:
            return
        try:
            started = time.perf_counter()
            record = self._record_from(payload)
            if record is None:
                return
            if self.path == "/predict":
                record_seconds = time.perf_counter() - started
                prediction, stats = self.server.service.predict_with_stats(record)
                response = prediction_to_json(prediction)
                response["serve"] = {**stats, "record_seconds": round(record_seconds, 6)}
            else:
                k = payload.get("k")
                if k is not None and (not isinstance(k, int) or k < 1):
                    self._send_error_json(400, "'k' must be a positive integer")
                    return
                estimates = self.server.service.what_if(record, k=k)
                response = {
                    "design": record.name,
                    "candidates": [
                        {
                            "index": index,
                            "wns": float(estimate.wns),
                            "tns": float(estimate.tns),
                            "n_patches": int(estimate.n_patches),
                            "uses_grouping": bool(estimate.options.uses_grouping),
                            "uses_retiming": bool(estimate.options.uses_retiming),
                            "retime_signals": list(estimate.options.retime_signals or []),
                        }
                        for index, estimate in enumerate(estimates)
                    ],
                }
            self._send_json(response)
        except RejectedError as exc:  # load shed: bounded queue said no
            self._send_error_json(
                429, str(exc), headers={"Retry-After": f"{exc.retry_after_s:g}"}
            )
        except DeadlineExceeded as exc:
            self._send_error_json(504, str(exc) or "request deadline expired")
        except WorkerUnavailable as exc:
            self._send_error_json(503, str(exc) or "no serving worker available")
        except (LexerError, ParseError, AnalysisError) as exc:  # malformed source
            self._send_error_json(422, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # a broken request must not kill the thread
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")


class TimingHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`TimingService`."""

    daemon_threads = True

    def __init__(
        self,
        service: TimingService,
        host: str = "127.0.0.1",
        port: int = 8421,
        verbose: bool = False,
    ):
        super().__init__((host, port), TimingRequestHandler)
        self.service = service
        self.verbose = verbose
        #: Pre-elaborated records addressable by name in request payloads
        #: (lets benchmarks and tests skip per-request elaboration).
        self.registered_records: Dict[str, Any] = {}

    def register_record(self, record) -> None:
        """Make a pre-built DesignRecord addressable as ``{"name": ...}``."""
        self.registered_records[record.name] = record


def start_server(
    service: TimingService,
    host: str = "127.0.0.1",
    port: int = 8421,
    verbose: bool = False,
):
    """Start a :class:`TimingHTTPServer` on a daemon thread; returns it.

    Use ``server.server_address`` for the bound ``(host, port)`` (pass
    ``port=0`` for an OS-assigned free port) and ``server.shutdown()`` to
    stop it.
    """
    server = TimingHTTPServer(service, host=host, port=port, verbose=verbose)
    thread = threading.Thread(target=server.serve_forever, name="timing-http", daemon=True)
    thread.start()
    return server
