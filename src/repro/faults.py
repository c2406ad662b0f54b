"""Fault injection: the ``REPRO_FAULT_INJECT`` registry.

Two subsystems prove themselves against injected faults:

* the **differential-fuzz oracles** (:mod:`repro.fuzz.oracles`) are only
  trustworthy if a real divergence between two implementations of the same
  contract is actually *caught*.  Deterministic faults (probability 1.0)
  flip a tiny, targeted perturbation inside exactly one of the redundant
  implementations, which the corresponding oracle must then detect and
  shrink;
* the **resilient serving runtime** (:mod:`repro.serve.supervisor` /
  :mod:`repro.serve.resilience`) claims availability under component loss.
  Probabilistic faults (worker crash/hang, slow IO, cache corruption,
  batch failures) let the chaos harness (``python -m repro chaos``)
  drive real traffic through a service whose components keep failing, and
  assert the recovery invariants.

Syntax
------

``REPRO_FAULT_INJECT`` holds comma-separated fault entries::

    REPRO_FAULT_INJECT="interpret.add"                       # always fires
    REPRO_FAULT_INJECT="worker.crash:p=0.05"                 # fires ~5% of draws
    REPRO_FAULT_INJECT="worker.crash:p=0.05:seed=3,cache.corrupt_entry:p=0.1"

A bare name is equivalent to ``p=1`` (the pre-existing behaviour: the fault
is simply *on*).  ``seed`` makes the per-draw decisions deterministic for a
given draw sequence, so chaos campaigns are seed-replayable the same way
fuzz campaigns are.

Known fault points
------------------

Differential (silent wrong answers, each caught by a fuzz oracle):

* ``incremental.extra_load`` — :meth:`IncrementalSTA._recompute_load` drops
  the ``extra_load`` term from the dirty-vertex load sum, so the incremental
  engine disagrees with a full :func:`repro.sta.engine.analyze` re-run
  whenever a patch touches a loaded vertex.
* ``interpret.add`` — the word-level interpreter computes ``a + b + 1``,
  diverging from the bit-blasted ripple-carry adder.
* ``gbm.hist_threshold`` — the histogram splitter nudges every chosen cut
  threshold upward, diverging from the exact reference fit's partitions.
* ``sta.array_delay`` — the array STA kernel perturbs every gate's candidate
  arrival by 1e-6, diverging from the per-vertex reference kernel (caught by
  ``array_vs_reference_sta``).
* ``simulate.packed_and`` — the bit-packed simulator evaluates AND nodes as
  OR, diverging from the scalar evaluator (caught by
  ``packed_vs_scalar_sim``).
* ``optimize.dominance`` — :meth:`repro.optimize.pareto.ParetoFront.insert`
  stops filtering dominated points, so the search returns fronts containing
  points beaten by the default-options baseline or by each other (caught by
  ``optimize_search``).

Availability (crashes and slowdowns, each survived by the serving runtime):

* ``worker.crash`` — a pool worker calls ``os._exit`` mid-request; the
  supervisor restarts it and the request is retried on a sibling.
* ``worker.hang`` — a pool worker sleeps forever inside a request; the
  supervisor detects the stuck request via the heartbeat's busy timestamp,
  kills and restarts the worker, and the request is retried on a sibling.
* ``worker.slow_io`` — a pool worker sleeps briefly before answering,
  inflating tail latency without failing anything.
* ``cache.corrupt_entry`` — an :class:`~repro.runtime.cache.ArtifactCache`
  read returns bit-flipped bytes; the cache treats the entry as corrupt
  (counted, deleted, rebuilt) and the caller recomputes.
* ``serve.batch_fail`` — a multi-request micro-batch raises before the
  model pass; the service degrades to serial per-request predicts
  (bit-identical, only slower).
* ``parallel.worker_crash`` — a dataset-build pool worker exits hard; the
  engine retries the unfinished specs on the serial path.

The hooks read the environment on every call so tests can flip them with
``monkeypatch.setenv`` without import-order concerns.  Production code never
sets the variable, so every fault defaults to off.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
from dataclasses import dataclass
from typing import Dict, Optional

#: Comma-separated list of active fault entries (debug/chaos only).
FAULT_ENV_VAR = "REPRO_FAULT_INJECT"

#: Every known fault point -> one-line description.  Unknown names still
#: parse (a hook may live in an experiment branch), but the chaos CLI
#: validates its ``--faults`` argument against this registry.
FAULT_REGISTRY: Dict[str, str] = {
    "incremental.extra_load": "incremental STA drops extra_load from dirty-vertex loads",
    "interpret.add": "word-level interpreter computes a + b + 1",
    "gbm.hist_threshold": "histogram splitter nudges chosen cut thresholds upward",
    "sta.array_delay": "array STA kernel perturbs gate arrivals by 1e-6",
    "simulate.packed_and": "bit-packed simulator evaluates AND as OR",
    "optimize.dominance": "Pareto front keeps dominated points (filter disabled)",
    "worker.crash": "serve pool worker os._exit()s mid-request",
    "worker.hang": "serve pool worker sleeps forever inside a request",
    "worker.slow_io": "serve pool worker sleeps briefly before answering",
    "cache.corrupt_entry": "ArtifactCache read returns bit-flipped bytes",
    "serve.batch_fail": "multi-request micro-batch raises before the model pass",
    "parallel.worker_crash": "dataset-build pool worker exits hard",
}


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``REPRO_FAULT_INJECT`` entry."""

    name: str
    probability: float = 1.0
    seed: int = 0


def _parse_entry(entry: str) -> Optional[FaultSpec]:
    parts = [part.strip() for part in entry.split(":") if part.strip()]
    if not parts:
        return None
    name = parts[0]
    if name not in FAULT_REGISTRY:
        # A typo'd fault name silently never firing would make a chaos
        # campaign vacuously green — reject it loudly instead.
        raise ValueError(
            f"unknown fault {name!r}; registered: {', '.join(sorted(FAULT_REGISTRY))}"
        )
    probability = 1.0
    seed = 0
    for part in parts[1:]:
        key, _, value = part.partition("=")
        try:
            if key == "p":
                probability = float(value)
            elif key == "seed":
                seed = int(value)
        except ValueError:
            continue  # a malformed knob falls back to its default
    return FaultSpec(name=name, probability=probability, seed=seed)


def parse_faults(raw: Optional[str] = None) -> Dict[str, FaultSpec]:
    """Parse a ``REPRO_FAULT_INJECT`` value (default: the environment)."""
    if raw is None:
        raw = os.environ.get(FAULT_ENV_VAR, "")
    specs: Dict[str, FaultSpec] = {}
    for entry in raw.split(","):
        spec = _parse_entry(entry)
        if spec is not None:
            specs[spec.name] = spec
    return specs


def format_faults(specs: Dict[str, float], seed: int = 0) -> str:
    """Render name -> probability into a ``REPRO_FAULT_INJECT`` value."""
    return ",".join(
        name if probability >= 1.0 else f"{name}:p={probability}:seed={seed}"
        for name, probability in specs.items()
    )


def active_faults() -> frozenset:
    """The set of fault names currently enabled via the environment."""
    return frozenset(parse_faults())


def fault_active(name: str) -> bool:
    """Whether the named fault is enabled (always False outside debugging).

    Presence is activation: a probabilistic entry is *active* even though
    individual draws (:func:`fault_fires`) may not fire.  The deterministic
    differential faults use this predicate directly, exactly as before.
    """
    raw = os.environ.get(FAULT_ENV_VAR, "")
    if not raw:
        return False
    return name in parse_faults(raw)


# Per-process draw counters: each (fault, process) pair walks its own
# deterministic sequence, so a retry of a crashed request on a sibling
# worker does not deterministically re-crash.
_DRAW_COUNTERS: Dict[str, "itertools.count"] = {}
_DRAW_LOCK = threading.Lock()


def _next_draw(name: str) -> int:
    with _DRAW_LOCK:
        counter = _DRAW_COUNTERS.get(name)
        if counter is None:
            counter = _DRAW_COUNTERS[name] = itertools.count()
        return next(counter)


def fault_fires(name: str, token: Optional[str] = None) -> bool:
    """One probabilistic draw of the named fault.

    Returns False when the fault is not in ``REPRO_FAULT_INJECT``.  For an
    entry with ``p >= 1`` every draw fires (bare names behave like the old
    always-on switches).  Otherwise the decision hashes ``(seed, name,
    token)`` — with ``token`` defaulting to a per-process draw counter — so
    a fixed seed replays the same fault pattern for the same draw sequence.
    """
    raw = os.environ.get(FAULT_ENV_VAR, "")
    if not raw or name not in raw:  # cheap rejection before parsing
        return False
    spec = parse_faults(raw).get(name)
    if spec is None:
        return False
    if spec.probability >= 1.0:
        return True
    if spec.probability <= 0.0:
        return False
    if token is None:
        token = str(_next_draw(name))
    digest = hashlib.sha256(f"{spec.seed}/{name}/{token}".encode()).digest()
    draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return draw < spec.probability


def reset_draws() -> None:
    """Reset the per-process draw counters (test/chaos replay hygiene)."""
    with _DRAW_LOCK:
        _DRAW_COUNTERS.clear()
