"""Resilience primitives for the serving runtime.

Everything the fault-tolerant serving stack shares lives here:

* :class:`Deadline` — absolute wall-clock request deadlines, propagated
  from the HTTP edge through the batching queue into pool workers so a
  request never outlives its client timeout;
* :class:`CircuitBreaker` — per-dependency failure gate (the disk artifact
  cache) with closed → open → half-open transitions and counters;
* :class:`AdmissionController` — bounded admission with per-route
  concurrency limits; rejections carry a ``Retry-After`` hint and surface
  as HTTP 429 load shedding, never as queue growth;
* the **degradation ladder** — named, counted fallbacks that trade latency
  for availability without ever changing results: a corrupt disk cache
  entry degrades to in-memory recompute, a failing micro-batch degrades to
  serial per-request predicts.

Every degradation is logged (``repro.serve`` logger) and counted
(``serve_degraded_*`` counters), so a chaos campaign can assert that each
ladder step actually fired — and that the answers stayed bit-identical.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.runtime import report as report_mod

log = logging.getLogger("repro.serve")

#: Admission queue bound (pending + in-flight requests) before load shedding.
QUEUE_MAX_ENV_VAR = "REPRO_SERVE_QUEUE_MAX"

#: Default per-request deadline (seconds) when the client sends none.
DEADLINE_ENV_VAR = "REPRO_SERVE_DEADLINE_S"

#: ``Retry-After`` hint (seconds) attached to shed requests.
RETRY_AFTER_ENV_VAR = "REPRO_SERVE_RETRY_AFTER_S"

#: Maximum concurrent what-if sweeps (they are much heavier than predicts).
WHATIF_CONCURRENCY_ENV_VAR = "REPRO_SERVE_WHATIF_CONCURRENCY"

#: Consecutive failures before a circuit breaker opens.
BREAKER_THRESHOLD_ENV_VAR = "REPRO_SERVE_BREAKER_THRESHOLD"

#: Seconds an open breaker waits before letting one half-open probe through.
BREAKER_RESET_ENV_VAR = "REPRO_SERVE_BREAKER_RESET_S"


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, "") or default)
    except ValueError:
        return default


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, "") or default)
    except ValueError:
        return default


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class RejectedError(RuntimeError):
    """The admission controller shed this request (HTTP 429)."""

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DeadlineExceeded(TimeoutError):
    """The request's deadline passed before a result was produced (HTTP 504)."""


class WorkerUnavailable(RuntimeError):
    """No pool worker could answer within the retry budget (HTTP 503)."""


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Deadline:
    """An absolute wall-clock deadline, safe to ship across processes.

    Wall clock (``time.time``) rather than the monotonic clock because pool
    workers are separate processes: the deadline must mean the same instant
    on both sides of the pipe (one host, one clock).
    """

    expires_at: float

    @classmethod
    def after(cls, seconds: Optional[float]) -> Optional["Deadline"]:
        """A deadline ``seconds`` from now; None stays None (no deadline)."""
        if seconds is None:
            return None
        return cls(expires_at=time.time() + max(float(seconds), 0.0))

    def remaining(self) -> float:
        """Seconds left (<= 0 means expired)."""
        return self.expires_at - time.time()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0


def remaining_or_none(deadline: Optional[Deadline]) -> Optional[float]:
    """Wait-timeout for ``deadline``: its remaining seconds, or None."""
    if deadline is None:
        return None
    return max(deadline.remaining(), 0.0)


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class CircuitBreaker:
    """Per-dependency failure gate with closed / open / half-open states.

    * **closed** — calls flow; consecutive failures are counted.
    * **open** — after ``failure_threshold`` consecutive failures the
      breaker trips: :meth:`allows` answers False until ``reset_after_s``
      elapsed, so a dead dependency is not hammered on every request.
    * **half-open** — after the reset window one probe is allowed through;
      success closes the breaker, failure re-opens it (with a fresh window).

    Thread-safe; also duck-type compatible with
    :attr:`repro.runtime.cache.ArtifactCache.breaker` (``allows`` /
    ``record_failure`` / ``record_success``), which is how the disk-cache
    dependency gets its gate without :mod:`repro.runtime` importing this
    module.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: Optional[int] = None,
        reset_after_s: Optional[float] = None,
        report: Optional[report_mod.RuntimeReport] = None,
    ):
        self.name = name
        self.failure_threshold = max(
            failure_threshold
            if failure_threshold is not None
            else _env_int(BREAKER_THRESHOLD_ENV_VAR, 3),
            1,
        )
        self.reset_after_s = (
            reset_after_s
            if reset_after_s is not None
            else _env_float(BREAKER_RESET_ENV_VAR, 5.0)
        )
        self.report = report
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        self.trips = 0
        self.failures = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if time.monotonic() - self._opened_at >= self.reset_after_s:
            return "half_open"
        return "open"

    def allows(self) -> bool:
        """Whether a call may proceed (consumes the half-open probe slot)."""
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "half_open" and not self._probing:
                self._probing = True
                return True
            return False

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self._consecutive_failures += 1
            self._probing = False
            tripped = (
                self._opened_at is None
                and self._consecutive_failures >= self.failure_threshold
            )
            if tripped or self._opened_at is not None:
                # Trip, or re-open after a failed half-open probe.
                if self._opened_at is None:
                    self.trips += 1
                    self._incr(f"breaker_{self.name}_trips")
                self._opened_at = time.monotonic()
        self._incr(f"breaker_{self.name}_failures")
        if self.state != "closed":
            log.warning("circuit breaker %r is %s", self.name, self.state)

    def record_success(self) -> None:
        with self._lock:
            reopened = self._opened_at is not None
            self._consecutive_failures = 0
            self._opened_at = None
            self._probing = False
        if reopened:
            self._incr(f"breaker_{self.name}_recoveries")
            log.info("circuit breaker %r closed again", self.name)

    def _incr(self, counter: str) -> None:
        if self.report is not None:
            self.report.incr(counter)
        else:
            report_mod.incr(counter)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class AdmissionController:
    """Bounded admission with per-route concurrency limits.

    One global bound (``queue_max``) covers everything in flight or queued;
    per-route limits keep a heavy route (``whatif``) from starving a cheap
    one (``predict``).  Rejections raise :class:`RejectedError` immediately
    — the queue never grows past its bound, which is what keeps latency
    bounded under overload (shed early, answer fast).
    """

    def __init__(
        self,
        queue_max: Optional[int] = None,
        route_limits: Optional[Dict[str, int]] = None,
        retry_after_s: Optional[float] = None,
        report: Optional[report_mod.RuntimeReport] = None,
    ):
        self.queue_max = max(
            queue_max if queue_max is not None else _env_int(QUEUE_MAX_ENV_VAR, 128), 1
        )
        self.route_limits = dict(route_limits or {})
        self.retry_after_s = (
            retry_after_s
            if retry_after_s is not None
            else _env_float(RETRY_AFTER_ENV_VAR, 1.0)
        )
        self.report = report
        self._lock = threading.Lock()
        self._total = 0
        self._per_route: Dict[str, int] = {}

    def depth(self) -> int:
        with self._lock:
            return self._total

    def route_depth(self, route: str) -> int:
        with self._lock:
            return self._per_route.get(route, 0)

    def admit(self, route: str) -> "_Admission":
        """Admit one request on ``route`` or raise :class:`RejectedError`."""
        with self._lock:
            limit = self.route_limits.get(route)
            if self._total >= self.queue_max:
                reason = f"queue full ({self._total}/{self.queue_max})"
            elif limit is not None and self._per_route.get(route, 0) >= limit:
                reason = f"route {route!r} at concurrency limit ({limit})"
            else:
                self._total += 1
                self._per_route[route] = self._per_route.get(route, 0) + 1
                self._incr("serve_admitted")
                return _Admission(self, route)
        self._incr("serve_shed")
        self._incr(f"serve_shed_{route}")
        raise RejectedError(
            f"request shed: {reason}; retry after {self.retry_after_s:g}s",
            retry_after_s=self.retry_after_s,
        )

    def _release(self, route: str) -> None:
        with self._lock:
            self._total = max(self._total - 1, 0)
            self._per_route[route] = max(self._per_route.get(route, 0) - 1, 0)

    def _incr(self, counter: str) -> None:
        if self.report is not None:
            self.report.incr(counter)
        else:
            report_mod.incr(counter)


class _Admission:
    """Context manager releasing one admitted slot."""

    def __init__(self, controller: AdmissionController, route: str):
        self._controller = controller
        self._route = route

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, *exc_info) -> None:
        self._controller._release(self._route)


# ---------------------------------------------------------------------------
# Degradation ladder
# ---------------------------------------------------------------------------

#: Ladder steps, most-preferred path first.  Every step preserves results
#: bit-for-bit; only latency degrades.
DEGRADATION_LADDER: Dict[str, str] = {
    "cache_recompute": "disk artifact/feature cache -> in-memory recompute",
    "serial_predict": "batched predict -> serial per-request predicts",
    "registry_payload": "registry bundle load -> cached in-memory payload",
}


def degrade(step: str, report: Optional[report_mod.RuntimeReport] = None) -> None:
    """Count + log one degradation-ladder step."""
    counter = f"serve_degraded_{step}"
    if report is not None:
        report.incr(counter)
    else:
        report_mod.incr(counter)
    log.warning("degraded: %s", DEGRADATION_LADDER.get(step, step))
