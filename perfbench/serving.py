"""The server under test and the load generator that drives it over HTTP.

Untraced runs start ``python -m repro serve`` as a child process, exactly as
a user would; traced runs host the same :class:`TimingService` behind the
same HTTP front end inside the benchmark process, so the layer wrappers see
the server's calls.  All load comes from this one process on at most two
connections.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Seconds a server may take to come up before the run fails.
START_TIMEOUT_S = 60.0
#: Seconds one request may take before the client gives up on it.
REQUEST_TIMEOUT_S = 120.0

_LISTENING = re.compile(r"on http://([0-9.]+):([0-9]+)")


class Client:
    """One persistent keep-alive HTTP connection."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, payload: Optional[dict] = None) -> Tuple[int, bytes]:
        """Send one request; returns ``(status, raw body)``, status 0 on a transport error.

        The body is returned unparsed so latency stops when the bytes are in.
        """
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        for attempt in (0, 1):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                return response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                self.close()
                if attempt == 0 and isinstance(exc, (http.client.RemoteDisconnected, BrokenPipeError)):
                    continue  # a keep-alive connection the server had closed
                return 0, json.dumps({"error": f"{type(exc).__name__}: {exc}"}).encode()
        return 0, b"{}"

    def get_json(self, path: str) -> Tuple[int, dict]:
        status, raw = self.request("GET", path)
        try:
            return status, json.loads(raw)
        except json.JSONDecodeError:
            return status, {}

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class SubprocessServer:
    """``python -m repro serve`` in a child process, stopped like a user would."""

    def __init__(self, root: Path, registry: Path, model: str, env: Dict[str, str], log_path: Path):
        self._log = open(log_path, "w")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--model", model,
                 "--registry", str(registry), "--port", "0"],
                cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self._log,
            )
        except BaseException:
            self._log.close()
            raise
        try:
            self.host, self.port = self._wait_listening(log_path)
            _wait_healthy(self.host, self.port, self.proc)
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self, log_path: Path) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _LISTENING.search(log_path.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}: {log_path.read_text()[-2000:]}")
            time.sleep(0.01)
        raise RuntimeError("server did not start listening in time")

    def peak_rss_mb(self) -> float:
        """RSS high-water mark of the server process (Linux ``VmHWM``)."""
        return _vm_hwm_mb(f"/proc/{self.proc.pid}/status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self._log.close()


class InProcessServer:
    """The same service and HTTP front end, hosted in this process."""

    def __init__(self, registry: Path, model: str):
        from repro.serve.http import start_server
        from repro.serve.registry import ModelRegistry
        from repro.serve.service import ServeConfig, TimingService

        timer, manifest = ModelRegistry(registry).load_with_manifest(model)
        self.service = TimingService(timer, ServeConfig(), manifest=manifest)
        self.server = start_server(self.service, port=0)
        self.host, self.port = self.server.server_address[:2]
        _wait_healthy(self.host, self.port, None)

    def peak_rss_mb(self) -> float:
        return _vm_hwm_mb("/proc/self/status")

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.close()


def _wait_healthy(host: str, port: int, proc: Optional[subprocess.Popen]) -> None:
    client = Client(host, port)
    deadline = time.monotonic() + START_TIMEOUT_S
    try:
        while time.monotonic() < deadline:
            status, _ = client.get_json("/health")
            if status == 200:
                return
            if proc is not None and proc.poll() is not None:
                raise RuntimeError(f"server exited with {proc.returncode}")
            time.sleep(0.01)
    finally:
        client.close()
    raise RuntimeError("server did not become healthy in time")


def _vm_hwm_mb(status_path: str) -> float:
    for line in Path(status_path).read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status_path}")


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------


@dataclass
class Result:
    """One request as the client saw it (the body is kept as bytes until read)."""

    route: str
    tag: object
    status: int
    raw: bytes
    latency_s: float
    late_s: float = 0.0

    @property
    def body(self) -> dict:
        try:
            return json.loads(self.raw)
        except json.JSONDecodeError:
            return {"error": "response is not JSON"}


#: A request factory returns ``(route, payload, tag)`` or None when done.
NextRequest = Callable[[], Optional[Tuple[str, dict, object]]]


def closed_loop(host: str, port: int, connections: int, next_request: NextRequest,
                seconds: float, min_count: int, multiple: int = 1) -> Tuple[List[Result], float]:
    """Each connection sends its next request once the previous one answered.

    Runs until ``seconds`` have passed, at least ``min_count`` requests were
    sent and the number sent is a multiple of ``multiple``.  Returns the
    results and the loop's wall time.
    """
    results: List[Result] = []
    sent = [0]
    lock = threading.Lock()
    started = time.perf_counter()

    def more() -> bool:
        with lock:
            if time.perf_counter() - started < seconds or sent[0] < min_count or sent[0] % multiple:
                sent[0] += 1
                return True
            return False

    def worker() -> None:
        client = Client(host, port)
        try:
            while more():
                with lock:
                    item = next_request()
                if item is None:
                    return
                route, payload, tag = item
                sent = time.perf_counter()
                status, raw = client.request("POST", "/" + route, payload)
                latency = time.perf_counter() - sent
                with lock:
                    results.append(Result(route, tag, status, raw, latency))
        finally:
            client.close()

    _run_threads(worker, connections)
    return results, time.perf_counter() - started


def open_loop(host: str, port: int, senders: int,
              schedule: List[Tuple[float, str, dict, object]]) -> Tuple[List[Result], float]:
    """Send each ``(offset_s, route, payload, tag)`` at its offset, on up to ``senders`` connections.

    Latency counts from the due time, so a stall also charges the requests
    queued behind it; ``late_s`` is how far behind schedule the send was.
    """
    results: List[Result] = []
    lock = threading.Lock()
    cursor = iter(schedule)
    started = time.perf_counter()

    def worker() -> None:
        client = Client(host, port)
        try:
            while True:
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                offset, route, payload, tag = item
                due = started + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, raw = client.request("POST", "/" + route, payload)
                done = time.perf_counter()
                with lock:
                    results.append(Result(route, tag, status, raw, done - due, max(sent - due, 0.0)))
        finally:
            client.close()

    _run_threads(worker, senders)
    return results, time.perf_counter() - started


def _run_threads(target: Callable[[], None], count: int) -> None:
    errors: List[BaseException] = []

    def guarded() -> None:
        try:
            target()
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=900)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")
    if errors:
        raise errors[0]


def metrics_snapshot(host: str, port: int) -> dict:
    """The server's ``/metrics`` document."""
    client = Client(host, port)
    try:
        status, body = client.get_json("/metrics")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}: {body}")
    return body


def child_env(root: Path, cache_dir: Path, model_dir: Path, tmp_dir: Path) -> Dict[str, str]:
    """Environment of a server child: the checkout's sources, isolated stores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_MODEL_DIR"] = str(model_dir)
    env["TMPDIR"] = str(tmp_dir)
    return env
