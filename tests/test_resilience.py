"""Resilience primitives: faults registry, breakers, admission, deadlines."""

from __future__ import annotations

import time

import pytest

from repro.faults import (
    FAULT_ENV_VAR,
    FAULT_REGISTRY,
    fault_active,
    fault_fires,
    format_faults,
    parse_faults,
    reset_draws,
)
from repro.runtime.report import RuntimeReport
from repro.serve.resilience import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    RejectedError,
    remaining_or_none,
)


# ---------------------------------------------------------------------------
# Fault-injection registry
# ---------------------------------------------------------------------------


def test_fault_parse_format_roundtrip():
    specs = {"worker.crash": 0.25, "cache.corrupt_entry": 1.0}
    encoded = format_faults(specs, seed=7)
    parsed = parse_faults(encoded)
    assert parsed["worker.crash"].probability == 0.25
    assert parsed["worker.crash"].seed == 7
    assert parsed["cache.corrupt_entry"].probability == 1.0


def test_unknown_fault_name_rejected():
    with pytest.raises(ValueError, match="unknown fault"):
        parse_faults("no.such.fault:p=0.5")


def test_fault_fires_deterministic_per_seed_and_token(monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "worker.crash:p=0.5:seed=3")
    draws = [fault_fires("worker.crash", token=str(i)) for i in range(64)]
    again = [fault_fires("worker.crash", token=str(i)) for i in range(64)]
    assert draws == again  # token-keyed draws are pure functions of the seed
    assert any(draws) and not all(draws)

    monkeypatch.setenv(FAULT_ENV_VAR, "worker.crash:p=0.5:seed=4")
    other_seed = [fault_fires("worker.crash", token=str(i)) for i in range(64)]
    assert other_seed != draws


def test_fault_inactive_without_env(monkeypatch):
    monkeypatch.delenv(FAULT_ENV_VAR, raising=False)
    reset_draws()
    assert not fault_active("worker.crash")
    assert not fault_fires("worker.crash", token="anything")


def test_every_registered_fault_parses():
    encoded = format_faults({name: 0.5 for name in FAULT_REGISTRY}, seed=1)
    assert set(parse_faults(encoded)) == set(FAULT_REGISTRY)


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


def test_breaker_trips_after_threshold_and_recovers():
    report = RuntimeReport()
    breaker = CircuitBreaker("dep", failure_threshold=2, reset_after_s=0.05, report=report)
    assert breaker.state == "closed"
    assert breaker.allows()
    breaker.record_failure()
    assert breaker.state == "closed"  # one failure is not a trip
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allows()
    assert report.counters["breaker_dep_trips"] == 1

    time.sleep(0.06)
    assert breaker.allows()  # half-open probe
    assert breaker.state == "half_open"
    assert not breaker.allows()  # only one probe at a time
    breaker.record_success()
    assert breaker.state == "closed"
    assert report.counters["breaker_dep_recoveries"] == 1


def test_breaker_failed_probe_reopens():
    breaker = CircuitBreaker("dep", failure_threshold=1, reset_after_s=0.01)
    breaker.record_failure()
    time.sleep(0.02)
    assert breaker.allows()
    breaker.record_failure()  # probe failed
    assert breaker.state == "open"
    assert not breaker.allows()


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


def test_admission_sheds_above_queue_bound():
    report = RuntimeReport()
    admission = AdmissionController(queue_max=2, retry_after_s=0.5, report=report)
    first = admission.admit("predict")
    second = admission.admit("predict")
    with pytest.raises(RejectedError) as excinfo:
        admission.admit("predict")
    assert excinfo.value.retry_after_s == 0.5
    assert report.counters["serve_shed"] == 1
    first.__exit__(None, None, None)
    with admission.admit("predict"):
        pass  # slot freed -> admitted again
    second.__exit__(None, None, None)
    assert report.counters["serve_admitted"] == 3
    assert admission.depth() == 0


def test_admission_per_route_limit_is_independent():
    report = RuntimeReport()
    admission = AdmissionController(queue_max=16, route_limits={"whatif": 1}, report=report)
    with admission.admit("whatif"):
        with pytest.raises(RejectedError):
            admission.admit("whatif")
        with admission.admit("predict"):
            pass  # other routes unaffected
    assert report.counters["serve_shed_whatif"] == 1


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


def test_deadline_remaining_and_expiry():
    deadline = Deadline.after(0.05)
    assert 0.0 < deadline.remaining() <= 0.05
    assert not deadline.expired
    assert remaining_or_none(deadline) == pytest.approx(deadline.remaining(), abs=0.01)
    time.sleep(0.06)
    assert deadline.expired
    assert deadline.remaining() <= 0.0
    assert remaining_or_none(deadline) == 0.0  # clamped for wait() timeouts
    assert remaining_or_none(None) is None
    assert Deadline.after(None) is None
