"""Load-once, thread-safe serving facade over :class:`RTLTimer`.

A :class:`TimingService` owns one fitted timer and answers prediction
requests from many threads.  Batching is **work-conserving**: a free
batcher takes everything queued (up to ``max_batch``) at once and never
waits for companions, so requests that arrive during a model pass ride the
next one.  Each group runs through one
:meth:`RTLTimer.predict_batch` call — amortizing per-stage model dispatch
and sharing the warm path-feature cache — and every caller gets exactly the
prediction it would have gotten from a serial in-process ``predict``
(predict_batch is element-wise identical by construction, covered by
``tests/test_runtime_engine.py`` and re-asserted for the service in
``tests/test_serve.py``).

Every request is timed into the service's
:class:`~repro.runtime.report.RuntimeReport` (``serve.*`` stages,
``serve_requests`` / ``serve_batches`` counters); :meth:`TimingService.metrics`
derives latency percentiles and the realized mean batch size, which the
serve benchmark appends to ``BENCH_runtime.json``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.core.dataset import DesignRecord
from repro.core.pipeline import RTLTimer, RTLTimerPrediction
from repro.faults import fault_fires
from repro.runtime.cache import ArtifactCache, load_or_build_record, record_key
from repro.runtime.report import RuntimeReport, activate
from repro.serve.resilience import (
    DEADLINE_ENV_VAR,
    WHATIF_CONCURRENCY_ENV_VAR,
    AdmissionController,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    WorkerUnavailable,
    _env_int,
    degrade,
    remaining_or_none,
)
from repro.serve.supervisor import PoolConfig, WorkerPool

#: Stage names emitted by the service (kept as constants so the serve
#: benchmark and the docs cannot drift from the implementation).
PREDICT_BATCH_STAGE = "serve.predict_batch"
PREDICT_P50_STAGE = "serve.predict_p50"
WHATIF_STAGE = "serve.whatif"

#: Seconds between promotion polls of a serving process following a
#: ``name@promoted`` model reference (0 disables following).
REFRESH_ENV_VAR = "REPRO_SERVE_REFRESH_S"


@dataclass(frozen=True)
class ServeConfig:
    """Batching and record-cache knobs of one :class:`TimingService`."""

    #: Maximum number of requests fused into one ``predict_batch`` call.
    max_batch: int = 16
    #: Build-on-demand records for ``/predict`` source payloads go through
    #: the content-addressed artifact cache when enabled.
    cache_records: bool = True
    #: Default candidate count for ``what_if`` when none are supplied.
    whatif_k: int = 8
    #: Latency samples kept for the percentile metrics (newest win; bounds
    #: memory on long-lived services).
    latency_window: int = 4096
    #: In-process DesignRecords kept hot for repeated source payloads (LRU);
    #: evicted entries fall back to the on-disk artifact cache.
    record_cache_entries: int = 64
    #: Admission bound on queued + in-flight requests before load shedding
    #: (None: ``$REPRO_SERVE_QUEUE_MAX``, default 128).
    queue_max: Optional[int] = None
    #: Default per-request deadline in seconds (None: ``$REPRO_SERVE_DEADLINE_S``,
    #: default no deadline).
    deadline_s: Optional[float] = None
    #: ``Retry-After`` hint attached to shed requests (None:
    #: ``$REPRO_SERVE_RETRY_AFTER_S``, default 1s).
    retry_after_s: Optional[float] = None
    #: Concurrent what-if sweeps admitted (None:
    #: ``$REPRO_SERVE_WHATIF_CONCURRENCY``, default 4).
    whatif_concurrency: Optional[int] = None


@dataclass
class _Request:
    """One queued prediction request and its completion plumbing."""

    record: DesignRecord
    enqueued_at: float
    deadline: Optional[Deadline] = None
    done: threading.Event = field(default_factory=threading.Event)
    prediction: Optional[RTLTimerPrediction] = None
    error: Optional[BaseException] = None
    batch_size: int = 0
    queue_seconds: float = 0.0


class TimingService:
    """Thread-safe, micro-batching inference service over one fitted timer."""

    def __init__(
        self,
        timer: RTLTimer,
        config: Optional[ServeConfig] = None,
        report: Optional[RuntimeReport] = None,
        manifest: Optional[Dict[str, Any]] = None,
    ):
        self.timer = timer
        self.config = config or ServeConfig()
        self.report = report if report is not None else RuntimeReport()
        #: Manifest of the bundle this service was loaded from (None when the
        #: timer was fitted in-process); surfaced by ``/health``.
        self.manifest = manifest
        self.started_at = time.time()

        self._queue: List[_Request] = []
        self._mutex = threading.Lock()
        self._wakeup = threading.Condition(self._mutex)
        self._closed = False
        self._abort = False
        self._latencies: Deque[float] = deque(maxlen=max(self.config.latency_window, 1))
        self._whatif_mutex = threading.Lock()
        self._record_cache: "OrderedDict[str, DesignRecord]" = OrderedDict()
        self._record_mutex = threading.Lock()
        whatif_limit = (
            self.config.whatif_concurrency
            if self.config.whatif_concurrency is not None
            else _env_int(WHATIF_CONCURRENCY_ENV_VAR, 4)
        )
        self.admission = AdmissionController(
            queue_max=self.config.queue_max,
            route_limits={"whatif": max(whatif_limit, 1)},
            retry_after_s=self.config.retry_after_s,
            report=self.report,
        )
        #: Disk-cache circuit breaker feeding the degradation ladder.
        self.cache_breaker = CircuitBreaker("cache_disk", report=self.report)
        self._artifacts = ArtifactCache() if self.config.cache_records else None
        if self._artifacts is not None:
            self._artifacts.breaker = self.cache_breaker
        self._worker = threading.Thread(
            target=self._serve_loop, name="timing-service-batcher", daemon=True
        )
        self._worker.start()

    # -- lifecycle ---------------------------------------------------------------

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the service deterministically.

        With ``drain`` (the default) requests already queued are completed
        before the batching worker exits; new requests are rejected from the
        moment close() is called.  With ``drain=False`` queued requests are
        rejected immediately with ``RuntimeError``.  Either way no client
        thread is left hanging: anything still unresolved when the worker is
        gone (including a worker that outlived ``timeout``) is failed
        explicitly.
        """
        with self._wakeup:
            already_closed = self._closed
            self._closed = True
            if not drain:
                self._abort = True
            self._wakeup.notify_all()
        self._worker.join(timeout=timeout)
        if already_closed:
            return
        # Deterministic sweep: fail whatever survived (abort path, or a
        # worker that did not finish draining within the timeout).
        with self._wakeup:
            pending, self._queue = self._queue, []
        for request in pending:
            if not request.done.is_set():
                request.error = RuntimeError("TimingService closed while request was queued")
                request.done.set()

    def __enter__(self) -> "TimingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- hot swap ----------------------------------------------------------------

    @property
    def active_bundle_id(self) -> Optional[str]:
        """Bundle id currently serving predictions (None for in-process fits)."""
        manifest = self.manifest
        return manifest.get("bundle_id") if manifest else None

    @property
    def eval_digest(self) -> Optional[str]:
        """Digest of the eval report that promoted the active bundle, if any."""
        manifest = self.manifest
        return manifest.get("eval_digest") if manifest else None

    def reload(self, timer: RTLTimer, manifest: Optional[Dict[str, Any]] = None) -> None:
        """Swap the served model in place without dropping queued requests.

        The batching worker reads ``self.timer`` once per batch, so a plain
        attribute rebind is atomic under the GIL: every request resolves
        against exactly one bundle — the old one or the new one, never a
        mixture.  Requests already queued keep their answers; nothing is
        rejected or restarted.
        """
        self.timer = timer
        self.manifest = manifest
        self.report.incr("serve_model_reloads")

    # -- inference ---------------------------------------------------------------

    def _default_deadline_s(self) -> Optional[float]:
        if self.config.deadline_s is not None:
            return self.config.deadline_s
        raw = os.environ.get(DEADLINE_ENV_VAR)
        try:
            return float(raw) if raw else None
        except ValueError:
            return None

    def predict(
        self, record: DesignRecord, deadline_s: Optional[float] = None
    ) -> RTLTimerPrediction:
        """Predict one design; bit-identical to in-process ``timer.predict``.

        Thread-safe: callers that queue while a model pass runs are fused
        into the next batched pass.
        """
        prediction, _ = self.predict_with_stats(record, deadline_s=deadline_s)
        return prediction

    def predict_with_stats(self, record: DesignRecord, deadline_s: Optional[float] = None):
        """Like :meth:`predict`, plus per-request serving stats.

        Returns ``(prediction, stats)`` where ``stats`` reports the realized
        batch size, time spent queued and total service latency for *this*
        request — the per-request view of the service-wide report (the HTTP
        front end adds the time it spent resolving the record).

        The request is admission-controlled (:class:`RejectedError` when the
        service is saturated) and deadline-bounded
        (:class:`DeadlineExceeded` rather than an unbounded wait; the
        deadline propagates into pool workers).
        """
        deadline = Deadline.after(
            deadline_s if deadline_s is not None else self._default_deadline_s()
        )
        with self.admission.admit("predict"):
            request = _Request(
                record=record, enqueued_at=time.perf_counter(), deadline=deadline
            )
            with self._wakeup:
                if self._closed:
                    raise RuntimeError("TimingService is closed")
                self._queue.append(request)
                self._wakeup.notify_all()
            if not request.done.wait(remaining_or_none(deadline)):
                # The batch worker will still resolve the request object
                # eventually; nobody is listening by then.
                self.report.incr("serve_deadline_timeouts")
                raise DeadlineExceeded("predict deadline expired")
            if request.error is not None:
                raise request.error
            latency = time.perf_counter() - request.enqueued_at
            with self._mutex:
                self._latencies.append(latency)
            stats = {
                "batch_size": request.batch_size,
                "queue_seconds": round(request.queue_seconds, 6),
                "latency_seconds": round(latency, 6),
            }
            return request.prediction, stats

    def what_if(
        self,
        record: DesignRecord,
        candidates: Optional[Sequence[Any]] = None,
        k: Optional[int] = None,
    ):
        """Project candidate synthesis option sets with the incremental engine.

        The prediction feeding candidate generation goes through the batched
        :meth:`predict` path; the incremental what-if sweep itself mutates
        patch state on the record's baseline netlist, so sweeps are
        serialized per service.
        """
        with self.admission.admit("whatif"):
            prediction = None
            if candidates is None:
                prediction = self.predict(record)
            with self._whatif_mutex, activate(self.report), self.report.stage(WHATIF_STAGE):
                estimates = self.timer.what_if(
                    record,
                    candidates=candidates,
                    prediction=prediction,
                    k=self.config.whatif_k if k is None else k,
                )
            self.report.incr("serve_whatif_requests")
            return estimates

    def record_for_source(self, source: str, name: Optional[str] = None) -> DesignRecord:
        """Elaborate (or fetch) the DesignRecord for raw Verilog source.

        Records are cached twice: an in-process dict for the lifetime of the
        service and — when enabled — the shared content-addressed artifact
        cache, so repeated requests for the same source skip elaboration.
        """
        key = record_key(source, None, name)
        with self._record_mutex:
            cached = self._record_cache.get(key)
            if cached is not None:
                self._record_cache.move_to_end(key)
        if cached is not None:
            self.report.incr("serve_record_hits")
            return cached
        with activate(self.report), self.report.stage("serve.build_record"):
            # A corrupt disk-cache entry degrades to recompute inside
            # ArtifactCache.get (gated by cache_breaker).  The record comes
            # back stamped with its build key, so the path-feature cache
            # addresses it without fingerprinting it.
            record = load_or_build_record(source, name, self._artifacts)
        with self._record_mutex:
            self._record_cache[key] = record
            self._record_cache.move_to_end(key)
            while len(self._record_cache) > max(self.config.record_cache_entries, 1):
                self._record_cache.popitem(last=False)
        return record

    # -- metrics -----------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """Service-level snapshot: report + latency percentiles + batch size."""
        with self._mutex:
            latencies = sorted(self._latencies)
        snapshot = self.report.to_dict()
        requests = self.report.counters.get("serve_requests", 0)
        batches = self.report.counters.get("serve_batches", 0)
        serving: Dict[str, Any] = {
            "requests": requests,
            "batches": batches,
            "batch_size": round(requests / batches, 3) if batches else 0.0,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "active_bundle_id": self.active_bundle_id,
            "eval_digest": self.eval_digest,
            "admission_depth": self.admission.depth(),
            "breakers": {"cache_disk": self.cache_breaker.state},
        }
        if latencies:
            serving["predict_p50"] = round(percentile(latencies, 0.50), 6)
            serving["predict_p95"] = round(percentile(latencies, 0.95), 6)
            serving["predict_p99"] = round(percentile(latencies, 0.99), 6)
        snapshot["serving"] = serving
        return snapshot

    def runtime_report(self) -> RuntimeReport:
        """A copy of the service report with derived ``serve.*`` stages added.

        ``serve.predict_p50`` is recorded as a stage (it is a wall-time
        quantity) so the CI benchmark-trend artifact tracks it next to the
        other stages; the mean batch size lands in the ``derived`` section
        via the ``serve_requests`` / ``serve_batches`` counters.
        """
        merged = RuntimeReport().merge(self.report)
        with self._mutex:
            latencies = sorted(self._latencies)
        if latencies:
            merged.stages[PREDICT_P50_STAGE] = round(percentile(latencies, 0.50), 6)
            merged.stage_calls[PREDICT_P50_STAGE] = len(latencies)
        return merged

    # -- batching worker -----------------------------------------------------------

    def _take_batch(self) -> Optional[List[_Request]]:
        """Block until work is queued, then take all of it (up to ``max_batch``).

        Work-conserving: a free batcher never waits for companions; requests
        that arrive during a model pass are fused into the next one.
        """
        # Clamp like the other ServeConfig knobs: max_batch <= 0 would make
        # the slice below never take anything while the queue stays
        # non-empty — a busy-spinning worker and callers blocked forever.
        max_batch = max(self.config.max_batch, 1)
        with self._wakeup:
            while not self._queue and not self._closed:
                self._wakeup.wait()
            if not self._queue or self._abort:
                return None  # closed with an empty queue, or close(drain=False)
            batch = self._queue[:max_batch]
            del self._queue[:max_batch]
            return batch

    def _execute_batch(self, batch: List[_Request]) -> None:
        """Fill ``prediction`` for every request in ``batch`` (one model pass)."""
        if fault_fires("serve.batch_fail") and len(batch) > 1:
            raise RuntimeError("injected fault: serve.batch_fail")
        predictions = self.timer.predict_batch(
            [request.record for request in batch], report=self.report
        )
        for request, prediction in zip(batch, predictions):
            request.prediction = prediction

    def _serve_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                break
            taken_at = time.perf_counter()
            ready: List[_Request] = []
            for request in batch:
                request.queue_seconds = taken_at - request.enqueued_at
                if request.deadline is not None and request.deadline.expired:
                    # Nobody is waiting anymore; don't spend a model pass.
                    request.error = DeadlineExceeded("deadline expired in queue")
                    continue
                ready.append(request)
            for request in ready:
                request.batch_size = len(ready)
            if ready:
                try:
                    with activate(self.report), self.report.stage(PREDICT_BATCH_STAGE):
                        self._execute_batch(ready)
                except BaseException:  # degrade: the batch failed as a unit
                    if len(ready) > 1:
                        degrade("serial_predict", self.report)
                    for request in ready:
                        try:
                            with activate(self.report), self.report.stage(
                                PREDICT_BATCH_STAGE
                            ):
                                request.prediction = self.timer.predict(request.record)
                        except BaseException as exc:
                            request.error = exc
            self.report.incr("serve_requests", len(batch))
            self.report.incr("serve_batches")
            if len(ready) > 1:
                self.report.incr("serve_batched_requests", len(ready))
            for request in batch:
                request.done.set()
        # Fail whatever was still queued when close(drain=False) ran.
        with self._wakeup:
            pending, self._queue = self._queue, []
        for request in pending:
            request.error = RuntimeError("TimingService closed while request was queued")
            request.done.set()


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    index = min(len(sorted_values) - 1, max(0, int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[index]


class PooledTimingService(TimingService):
    """A :class:`TimingService` whose predicts run on a supervised worker pool.

    The parent keeps everything the single-process service has — admission,
    micro-batch queueing, deadlines, breakers, the degradation ladder — and
    fans each taken batch out over :class:`~repro.serve.supervisor.WorkerPool`
    workers (pinned by record name so repeated designs hit warm worker
    caches).  A worker crash/hang mid-request is retried on a sibling by the
    pool; if the whole pool is momentarily down the parent answers from its
    own timer — the same bundle state, so every path is bit-identical.

    ``payload_provider`` supplies verified bundle payload bytes for worker
    (re)loads — typically ``lambda: registry.payload(ref)[0]``; by default
    the parent timer's own state is pickled once and reused.
    """

    def __init__(
        self,
        timer: RTLTimer,
        config: Optional[ServeConfig] = None,
        report: Optional[RuntimeReport] = None,
        manifest: Optional[Dict[str, Any]] = None,
        pool_config: Optional[PoolConfig] = None,
        payload_provider: Optional[Callable[[], bytes]] = None,
    ):
        report = report if report is not None else RuntimeReport()
        if payload_provider is None:
            from repro.serve.registry import state_payload

            payload = state_payload(timer.to_state())
            payload_provider = lambda: payload  # noqa: E731 - closure over bytes
        # Pool first: a bad bundle must fail construction before the
        # batching thread starts accepting requests.
        self.pool = WorkerPool(
            payload_provider,
            config=pool_config or PoolConfig.from_env(),
            report=report,
        )
        try:
            super().__init__(timer, config=config, report=report, manifest=manifest)
        except BaseException:
            self.pool.close()
            raise

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        super().close(drain=drain, timeout=timeout)
        self.pool.close()

    def _execute_batch(self, batch: List[_Request]) -> None:
        if fault_fires("serve.batch_fail") and len(batch) > 1:
            raise RuntimeError("injected fault: serve.batch_fail")
        handles = [
            (
                request,
                self.pool.submit(
                    "predict",
                    request.record,
                    deadline=request.deadline,
                    content_key=getattr(request.record, "name", None),
                ),
            )
            for request in batch
        ]
        for request, handle in handles:
            try:
                request.prediction = handle.result()
            except WorkerUnavailable:
                # Ladder floor: the parent's own timer, bit-identical.
                self.report.incr("serve_pool_local_fallbacks")
                try:
                    request.prediction = self.timer.predict(request.record)
                except BaseException as exc:
                    request.error = exc
            except BaseException as exc:
                request.error = exc

    def metrics(self) -> Dict[str, Any]:
        snapshot = super().metrics()
        snapshot["serving"]["workers"] = self.pool.status()
        return snapshot

    def reload(
        self,
        timer: RTLTimer,
        manifest: Optional[Dict[str, Any]] = None,
        payload: Optional[bytes] = None,
    ) -> None:
        """Hot-swap the bundle on the parent *and* roll it across the pool.

        The parent swap is the atomic rebind of :meth:`TimingService.reload`;
        the pool swap is a rolling generation bump — the supervisor restarts
        one stale worker at a time on the new payload while siblings keep
        serving, and any request in flight on a restarting worker is retried
        on a sibling by the pool's existing failover path.  No request is
        dropped at any point of the roll.
        """
        super().reload(timer, manifest=manifest)
        provider: Optional[Callable[[], bytes]] = None
        if payload is not None:
            provider = lambda: payload  # noqa: E731 - closure over bytes
        self.pool.request_refresh(provider)
