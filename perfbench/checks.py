"""The correctness gate and the paper's quality numbers.

Every served answer is compared with the same computation done in this
process on the same record with the same registered bundle; the serving
contract says the two are bit-identical, so any difference counts as a
wrong answer.  The expected answers extract their own path features: the
feature cache is off while they are computed.  Labels are computed here by
the benchmark's own ground-truth synthesis, outside every timed region, so
a predict path that stops synthesizing keeps its reference.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.dataset import DatasetConfig, build_design_record
from repro.core.metrics import pearson_r, ranking_coverage
from repro.runtime.cache import ArtifactCache, record_key
from repro.serve.http import prediction_to_json
from repro.sta.constraints import ClockConstraint
from repro.synth.flow import synthesize_bog
from repro.synth.optimizer import SynthesisOptions

#: Response fields that are measurements, not answers.
_VOLATILE = ("runtime_seconds", "serve")

#: The timer the forked workers of :func:`expected_answers` compute with.
_TIMER = None


def design_size(record) -> dict:
    """Register bits and SOG nodes of one design."""
    sog = record.bogs["sog"]
    return {
        "name": record.name,
        "register_bits": sum(1 for e in sog.endpoints if e.kind == "register"),
        "sog_nodes": len(sog.nodes),
    }


def served_record(cache_dir: Path, name: str, source: str):
    """The record the server built for ``source``, read back from its cache.

    Falls back to building it here (the build is deterministic) when the
    server did not store it.
    """
    cache = ArtifactCache(cache_dir)
    record = cache.get(record_key(source, None, name))
    return record if record is not None else build_design_record(source, name=name)


def answer(payload: dict) -> dict:
    """A response without its per-request measurements, JSON-normalized."""
    return json.loads(json.dumps({k: v for k, v in payload.items() if k not in _VOLATILE}))


def expected_predict(timer, record) -> Tuple[dict, object]:
    """In-process ``RTLTimer.predict`` in the ``/predict`` response shape."""
    prediction = timer.predict(record)
    return answer(prediction_to_json(prediction)), prediction


def expected_whatif(timer, record, k: int) -> dict:
    """In-process ``RTLTimer.what_if`` in the ``/whatif`` response shape."""
    estimates = timer.what_if(record, k=k)
    return answer(
        {
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
    )


def _expect(task):
    cache_dir, name, source, whatif_k, with_quality = task
    record = served_record(cache_dir, name, source)
    predicted, prediction = expected_predict(_TIMER, record)
    whatif = expected_whatif(_TIMER, record, whatif_k) if whatif_k else None
    score = quality(prediction, endpoint_labels(record)) if with_quality else None
    return predicted, whatif, design_size(record), score


def expected_answers(timer, tasks: List[tuple], jobs: int) -> List[tuple]:
    """``(predict answer, whatif answer or None, size, quality or None)`` per task.

    A task is ``(cache dir, name, source, whatif k or 0, with quality)``.
    The records come from the server's artifact cache, but the path-feature
    cache is turned off first, so no features the server extracted, on disk
    or in this process's memory, reach both sides of the gate.  ``jobs``
    forked workers share the tasks.
    """
    global _TIMER
    from repro.core.feature_cache import FEATURE_CACHE_ENV_VAR, reset_feature_cache

    os.environ[FEATURE_CACHE_ENV_VAR] = "0"
    reset_feature_cache()
    _TIMER = timer
    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        answers = pool.map(_expect, tasks, chunksize=1)
        pool.close()
        pool.join()
    return answers


def endpoint_labels(record) -> Dict[str, float]:
    """Ground-truth register arrival times: default-options synthesis of the SOG."""
    clock = ClockConstraint(period=DatasetConfig().pseudo_clock_period)
    report = synthesize_bog(record.bogs["sog"], clock, SynthesisOptions()).report
    rtl = {e.name for e in record.bogs["sog"].endpoints if e.kind == "register"}
    return {e.name: e.arrival for e in report.endpoints if e.kind == "register" and e.name in rtl}


def quality(prediction, labels: Dict[str, float]) -> Tuple[float, float]:
    """(endpoint Pearson R, signal-wise ranking coverage in %) of one design."""
    names = sorted(n for n in labels if n in prediction.bitwise_arrival)
    r = pearson_r([labels[n] for n in names], [prediction.bitwise_arrival[n] for n in names])
    signal_labels: Dict[str, float] = {}
    for name, arrival in labels.items():
        signal = name.split("[")[0]
        signal_labels[signal] = max(arrival, signal_labels.get(signal, arrival))
    signals = sorted(s for s in signal_labels if s in prediction.signal_ranking)
    covr = ranking_coverage([signal_labels[s] for s in signals], [prediction.signal_ranking[s] for s in signals])
    return r, covr


def replay_divergences(artifact_dir: Path, results: List[object], records: List[object]) -> List[str]:
    """Replay every distinct campaign through ``replay_artifact``.

    Repeats of a campaign (same design, strategy, budget and seed) must
    reproduce the first run's canonical payload exactly; the first run is
    replayed from its written artifact.  Returns the divergence messages.
    """
    from repro.optimize import DriftError, canonical_payload, replay_artifact, write_artifact

    messages: List[str] = []
    first: Dict[Tuple, dict] = {}
    for result, record in zip(results, records):
        identity = (result.design, result.config.strategy, result.config.budget, result.config.seed)
        payload = canonical_payload(result)
        if identity in first:
            if payload != first[identity]:
                messages.append(f"campaign {identity} did not repeat its first run")
            continue
        first[identity] = payload
        path = write_artifact(artifact_dir, result, record)
        try:
            messages.extend(replay_artifact(path))
        except DriftError as exc:
            messages.append(f"replay of {path.name} raised DriftError: {exc}")
    return messages


def table6_gains(result, record) -> Tuple[float, float]:
    """WNS and TNS gain (%) of the campaign's best front point, fully synthesized.

    Table 6's protocol: default options against the chosen options, both
    synthesized in full under the design clock with the campaign's seed.
    Positive is better (|WNS| and |TNS| shrank).
    """
    seed = result.config.seed
    sog = record.bogs["sog"]
    default = synthesize_bog(sog, record.clock, SynthesisOptions(seed=seed), seed=seed)
    best = _best_options(result)
    chosen = default if best is None else synthesize_bog(sog, record.clock, best, seed=seed)
    return _gain(default.wns, chosen.wns), _gain(default.tns, chosen.tns)


def _best_options(result) -> Optional[SynthesisOptions]:
    from repro.optimize import CandidateSpec

    key = result.best.key
    for entry in result.trajectory:
        if entry.kind == "eval" and entry.key == key and entry.spec is not None:
            return CandidateSpec.from_dict(entry.spec).realize(list(result.ranking), seed=result.config.seed)
    return None


def _gain(default: float, chosen: float) -> float:
    base = abs(default)
    return 0.0 if base < 1e-9 else 100.0 * (base - abs(chosen)) / base
