#!/usr/bin/env python3
"""The repository benchmark: one command, three phases, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Every run sets the system up several times (fit on the training designs,
register the bundle, start the server), then drives the ``cold``, ``warm``
and ``opt`` phases described in ``perfbench/workloads.py``, then checks
every answer outside the timed regions.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` hosts the server in
this process, wraps each layer's entry points (``perfbench/tracing.py``)
and prints the per-layer metrics and a span tree per phase.  The last line
of standard output is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Complete set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Registry name of the bundle each set-up fits.
MODEL = "bench"
#: Share of ``--seconds`` each time-bound loop runs for.
SHARE = {"warm_closed": 0.12, "warm_open": 0.35, "opt": 0.15}
#: Cold requests per run (three cycles of the size slots).  A count, not a
#: time: the server's memory grows with every design it serves, so a
#: time-bound pass would tie ``peak_rss_mb`` and the size mix to host speed.
COLD_REQUESTS = 24
#: Floors that keep every quantile well defined when the program is slow.
MIN_CLOSED = 20
MIN_OPEN = 60
MIN_OPT_CYCLES = 2
#: Cold designs the quality metrics are taken over (the first ones served,
#: so the set does not depend on how fast the program is).
QUALITY_DESIGNS = 12
#: Forked workers that compute the gate's expected answers, one per CPU of a 2-CPU host.
CHECK_JOBS = 2
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
#: Metrics every untraced run prints by name even when BENCHMARK.json leaves
#: them out, because ten seeded runs spread them past the largest allowed bound.
DIAGNOSTICS = {
    "cold_p50_s": "s",
    "cold_tail_s": "s",
    "warm_predict_tail_ms": "ms",
    "whatif_p50_ms": "ms",
    "whatif_tail_ms": "ms",
    "opt_evals_per_s": "1/s",
}


def tail(values: List[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise RuntimeError(f"{n} samples cannot give a tail with {TAIL_BEYOND} beyond it")
    index = n - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * (index + 1) / n, n


@dataclass
class Pass:
    """One timed loop: its results, what it served and where."""

    results: list
    wall_s: float
    cache_dir: Path
    counters: Dict[str, float] = field(default_factory=dict)
    sources: list = field(default_factory=list)


class BenchRun:
    """One run of one workload: set-ups, the three phases, then the checks."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int, seconds: float, trace: bool):
        import workloads
        from tracing import Tracer

        self.root, self.work, self.seed, self.seconds = root, work, seed, seconds
        self.workload = workloads.WORKLOADS[workload]
        self.w = workloads
        self.tracer = Tracer() if trace else None
        self.windows: Dict[str, list] = defaultdict(list)
        self.overhead: Dict[str, float] = {}
        self.failed = 0
        self.wrong = 0
        self.attempted = 0
        self.meta: Dict[str, object] = {}

    # -- helpers ---------------------------------------------------------------

    @contextlib.contextmanager
    def window(self, phase: str):
        """Trace the enclosed block as one window of ``phase`` (no-op untraced)."""
        if self.tracer is None:
            yield
            return
        self.tracer.reset()
        self.tracer.enabled = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.tracer.enabled = False
            self.windows[phase].append((list(self.tracer.spans), dict(self.tracer.counts), start, end))

    def start_server(self, registry: Path, cache: Path):
        from serving import InProcessServer, SubprocessServer, child_env

        if self.tracer is not None:
            return InProcessServer(registry, MODEL)
        env = child_env(self.root, cache, registry, self.work / "tmp")
        return SubprocessServer(self.root, registry, MODEL, env, self.work / f"serve-{registry.parent.name}.log")

    def use_cache(self, cache: Path) -> None:
        """Point this process's artifact and feature caches at ``cache``."""
        from repro.core.feature_cache import reset_feature_cache

        os.environ["REPRO_CACHE_DIR"] = str(cache)
        reset_feature_cache()

    # -- set-up ------------------------------------------------------------------

    def setup(self):
        """Fit, register, load and start, ``SETUP_REPEATS`` times; keeps the last server."""
        from repro.core import RTLTimer, build_dataset
        from repro.lifecycle.retrain import training_config
        from repro.runtime.report import RuntimeReport, activate
        from repro.serve.registry import ModelRegistry

        times = []
        server = None
        try:
            for repeat in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                    server = None
                base = self.work / f"setup{repeat}"
                cache, registry = base / "cache", base / "models"
                self.use_cache(cache)
                report = RuntimeReport()
                gc.collect()
                with self.window("setup"):
                    started = time.perf_counter()
                    with activate(report):
                        records = build_dataset(self.w.training_specs(), report=report)
                        timer = RTLTimer(training_config(fast=True)).fit(records)
                        ModelRegistry(registry).save(timer, MODEL)
                        server = self.start_server(registry, cache)
                    times.append(time.perf_counter() - started)
                self.setup_counters = dict(report.counters)
        except BaseException:
            if server is not None:
                server.stop()
            raise
        self.setup_records = records
        self.registry, self.cache = registry, cache
        self.timer = ModelRegistry(registry).load(MODEL)
        self.meta["setup_s_each"] = times
        return server, statistics.median(times)

    # -- cold ------------------------------------------------------------------------

    def cold_pass(self, server, seconds: float, min_count: int, sources=None, traced: bool = False) -> Pass:
        """Closed loop, one client, ``/predict`` of never-served sources.

        With ``traced`` the loop, and only the loop, is a traced window.
        """
        from serving import closed_loop, metrics_snapshot

        stream = iter(sources) if sources is not None else self.w.cold_stream(self.workload.name, self.seed)
        served: list = []

        def next_request():
            source = next(stream, None)
            if source is None:
                return None
            served.append(source)
            return "predict", {"source": source.source, "name": source.name}, len(served) - 1

        before = metrics_snapshot(server.host, server.port)
        with self.window("cold") if traced else contextlib.nullcontext():
            # Whole cycles of the stream's size slots only, so every run serves the same size mix.
            results, wall = closed_loop(
                server.host, server.port, 1, next_request, seconds, min_count, self.w.cold_cycle(self.workload.name)
            )
        after = metrics_snapshot(server.host, server.port)
        return Pass(results, wall, Path(os.environ["REPRO_CACHE_DIR"]), _delta(before, after), served[: len(results)])

    def cold_phase(self, server):
        if self.tracer is None:
            return server, [self.cold_pass(server, 0.0, COLD_REQUESTS)]
        # Same sources twice, each time with empty caches: untraced, then traced.
        untraced = self.cold_pass(server, 0.0, COLD_REQUESTS // 2)
        server.stop()
        self.cache = self.work / "cold-traced" / "cache"
        self.use_cache(self.cache)
        server = self.start_server(self.registry, self.cache)
        traced = self.cold_pass(server, 0.0, len(untraced.results), untraced.sources, traced=True)
        ratios = [
            b.latency_s / a.latency_s
            for a, b in zip(untraced.results, traced.results)
            if a.latency_s > 0
        ]
        self.overhead["cold"] = statistics.median(ratios) - 1.0
        return server, [untraced, traced]

    # -- warm --------------------------------------------------------------------------

    def warm_phase(self, server):
        """Prime the working set, then the closed and the open loop.

        Returns the working set, the answers that are checked but not
        measured (priming; in traced runs also the untraced closed loop),
        and the measured closed and open loops.
        """
        from serving import Client, Result, closed_loop, metrics_snapshot, open_loop

        working_set = self.w.warm_set(self.workload.name)
        payloads = {
            route: [
                {"source": s.source, "name": s.name, **({"k": self.w.WHATIF_K} if route == "whatif" else {})}
                for s in working_set
            ]
            for route in ("predict", "whatif")
        }
        primed = []
        client = Client(server.host, server.port)
        started = time.perf_counter()
        try:
            for index, payload in enumerate(payloads["predict"]):
                status, raw = client.request("POST", "/predict", payload)
                primed.append(Result("predict", index, status, raw, 0.0))
        finally:
            client.close()
        self.meta["warm_prime_s"] = time.perf_counter() - started

        def requests(stream: str, count: int):
            return [(route, payloads[route][i], i) for route, i in self.w.warm_requests(self.seed, stream, count)]

        def schedule(count: int):
            offsets = self.w.arrivals(self.seed, count, self.w.OPEN_RATE)
            return [(offset, *request) for offset, request in zip(offsets, requests("open", count))]

        closed_s = SHARE["warm_closed"] * self.seconds
        open_n = max(int(self.w.OPEN_RATE * SHARE["warm_open"] * self.seconds), MIN_OPEN)
        closed_requests = requests("closed", 100_000)

        def closed(count_or_seconds, min_count):
            cursor = iter(closed_requests)
            return closed_loop(server.host, server.port, 2, lambda: next(cursor, None), count_or_seconds, min_count)

        if self.tracer is None:
            before = metrics_snapshot(server.host, server.port)
            closed_results, closed_wall = closed(closed_s, MIN_CLOSED)
            open_results, open_wall = open_loop(server.host, server.port, 2, schedule(open_n))
        else:
            untraced, untraced_wall = closed(closed_s / 2, MIN_CLOSED)
            primed += untraced
            before = metrics_snapshot(server.host, server.port)
            with self.window("warm"):
                closed_results, closed_wall = closed(0.0, len(untraced))
                open_results, open_wall = open_loop(server.host, server.port, 2, schedule(open_n // 2))
            self.overhead["warm"] = (closed_wall / len(closed_results)) / (untraced_wall / len(untraced)) - 1.0
        after = metrics_snapshot(server.host, server.port)
        self.meta["warm_open_rate_per_s"] = self.w.OPEN_RATE
        self.meta["warm_open_wall_s"] = open_wall
        return working_set, primed, Pass(closed_results, closed_wall, self.cache, _delta(before, after)), Pass(
            open_results, open_wall, self.cache
        )

    # -- opt -------------------------------------------------------------------------------

    def opt_prep(self):
        from repro.core import build_dataset

        started = time.perf_counter()
        records = build_dataset(self.w.opt_specs())
        rankings = [self.timer.predict(record).ranked_signals() for record in records]
        self.meta["opt_prep_s"] = time.perf_counter() - started
        return records, rankings

    def opt_cycle(self, records, rankings, cache) -> Tuple[list, List[float]]:
        """One pass over the fixed campaign list; returns results and durations."""
        import repro.optimize.search as search
        from repro.optimize import SearchConfig

        results, durations = [], []
        for design, strategy in self.w.opt_campaigns():
            config = SearchConfig(strategy=strategy, budget=self.w.OPT_BUDGET, seed=self.w.OPT_SEED)
            started = time.perf_counter()
            result = search.run_search(records[design], rankings[design], config, cache=cache)
            durations.append(time.perf_counter() - started)
            results.append((result, records[design]))
        return results, durations

    def opt_phase(self):
        from repro.runtime.cache import ArtifactCache
        from repro.runtime.report import RuntimeReport, activate

        records, rankings = self.opt_prep()
        seconds = SHARE["opt"] * self.seconds
        if self.tracer is None:
            started = time.perf_counter()
            runs: list = []
            cycles: List[List[float]] = []
            while len(cycles) < MIN_OPT_CYCLES or time.perf_counter() - started < seconds:
                # The first cycle anchors into the run's cache, so replays
                # reuse its syntheses; later cycles start from empty caches.
                cache = ArtifactCache() if not cycles else ArtifactCache(self.work / f"opt-cycle{len(cycles)}")
                cycle_runs, durations = self.opt_cycle(records, rankings, cache)
                runs += cycle_runs
                cycles.append(durations)
            # Every cycle repeats the same computation: each campaign's
            # median over the cycles filters the machine's slow and fast spells.
            typical = [statistics.median(column) for column in zip(*cycles)]
            rate = sum(r.accounting["evals"] for r, _ in cycle_runs) / sum(typical)
            self.meta["opt_cycle_s"] = [sum(durations) for durations in cycles]
        else:
            _, untraced = self.opt_cycle(records, rankings, ArtifactCache(self.work / "opt-untraced"))
            report = RuntimeReport()
            with activate(report), self.window("opt"):
                runs, durations = self.opt_cycle(records, rankings, ArtifactCache())
            self.overhead["opt"] = sum(durations) / sum(untraced) - 1.0
            rate = sum(r.accounting["evals"] for r, _ in runs) / sum(durations)
            self.opt_counters = dict(report.counters)
        self.opt_records = records
        return runs, rate

    # -- checks ----------------------------------------------------------------------------------

    def check(self, results, expected) -> None:
        """Count every failed, refused or wrong answer."""
        from checks import answer

        for result in results:
            self.attempted += 1
            if result.status != 200:
                self.failed += 1
            elif answer(result.body) != expected(result):
                self.wrong += 1
                self.failed += 1

    def check_served(self, cold_passes: List[Pass], working_set, unmeasured, closed: Pass, opened: Pass):
        """Gate every served answer; quality over the first cold designs."""
        from checks import expected_answers

        tasks = [
            (cold.cache_dir, source.name, source.source, 0, index == 0 and position < QUALITY_DESIGNS)
            for index, cold in enumerate(cold_passes)
            for position, source in enumerate(cold.sources)
        ]
        tasks += [(self.cache, source.name, source.source, self.w.WHATIF_K, False) for source in working_set]
        answers = iter(expected_answers(self.timer, tasks, CHECK_JOBS))
        scores, cold_sizes = [], []
        for index, cold in enumerate(cold_passes):
            expected = {}
            for position in range(len(cold.sources)):
                expected[position], _, size, score = next(answers)
                if index == 0:
                    cold_sizes.append(size)
                if score is not None:
                    scores.append(score)
            self.check(cold.results, lambda result: expected[result.tag])
        expected, warm_sizes = {}, []
        for index in range(len(working_set)):
            expected[("predict", index)], expected[("whatif", index)], size, _ = next(answers)
            warm_sizes.append(size)
        for results in (unmeasured, closed.results, opened.results):
            self.check(results, lambda result: expected[(result.route, result.tag)])
        r_values, covr_values = zip(*scores)
        return statistics.fmean(r_values), statistics.fmean(covr_values), cold_sizes, warm_sizes

    def check_opt(self, runs):
        from checks import design_size, replay_divergences, table6_gains

        results = [result for result, _ in runs]
        records = [record for _, record in runs]
        self.attempted += len(runs)
        divergences = replay_divergences(self.work / "opt-artifacts", results, records)
        self.failed += len(divergences)
        self.wrong += len(divergences)
        self.meta["opt_divergences"] = divergences[:5]
        distinct = {}
        for result, record in runs:
            distinct.setdefault((result.design, result.config.strategy, result.config.seed), (result, record))
        gains = [table6_gains(result, record) for result, record in distinct.values()]
        return (
            statistics.fmean(g[0] for g in gains),
            statistics.fmean(g[1] for g in gains),
            [design_size(r) for r in self.opt_records],
        )

    # -- the run ---------------------------------------------------------------------------------

    def execute(self) -> Dict[str, float]:
        if self.tracer is not None:
            self.tracer.install()
        clock = _PhaseClock(self.meta)
        try:
            server, setup_s = self.setup()
            try:
                clock.lap("setup")
                gc.collect()
                server, cold_passes = self.cold_phase(server)
                clock.lap("cold")
                gc.collect()
                working_set, unmeasured, closed, opened = self.warm_phase(server)
                server_rss = server.peak_rss_mb()
            finally:
                server.stop()
            clock.lap("warm")
            gc.collect()
            runs, opt_rate = self.opt_phase()
            bench_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            clock.lap("opt")
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()

        endpoint_r, signal_covr, cold_sizes, warm_sizes = self.check_served(
            cold_passes, working_set, unmeasured, closed, opened
        )
        clock.lap("check_served")
        wns_gain, tns_gain, opt_sizes = self.check_opt(runs)
        clock.lap("check_opt")
        self.meta["input_sizes"] = {"cold": cold_sizes, "warm": warm_sizes, "opt": opt_sizes}
        self.meta["peak_rss_mb"] = {"server": server_rss, "benchmark": bench_rss}

        cold = cold_passes[0]
        evals = sum(result.accounting["evals"] for result, _ in runs)
        self.meta["open_loop_late_ms"] = {
            "p50": 1000.0 * statistics.median(r.late_s for r in opened.results),
            "max": 1000.0 * max(r.late_s for r in opened.results),
        }
        self.meta["cache_state"] = {
            "cold": {"state": "cold", **_hit_rates(cold.counters)},
            "warm": {"state": "warm", **_hit_rates(closed.counters)},
        }
        self.meta["opt"] = {"campaigns": len(runs), "evals": evals}
        self.meta["error_rate"] = self.failed / self.attempted
        self.meta["wrong_answers"] = self.wrong
        if self.tracer is not None:
            return self.layer_report(cold_passes[-1], closed, opened, runs, cold_sizes, warm_sizes, opt_sizes)

        cold_latency = [r.latency_s for r in cold.results]
        predict_ms = [1000.0 * r.latency_s for r in opened.results if r.route == "predict"]
        whatif_ms = [1000.0 * r.latency_s for r in opened.results if r.route == "whatif"]
        cold_tail, cold_pct, cold_n = tail(cold_latency)
        predict_tail, predict_pct, predict_n = tail(predict_ms)
        whatif_tail, whatif_pct, whatif_n = tail(whatif_ms)
        self.meta["tails"] = {
            "cold_tail_s": {"percentile": cold_pct, "samples": cold_n},
            "warm_predict_tail_ms": {"percentile": predict_pct, "samples": predict_n},
            "whatif_tail_ms": {"percentile": whatif_pct, "samples": whatif_n},
        }
        return {
            "setup_s": setup_s,
            "peak_rss_mb": max(server_rss, bench_rss),
            "ok_rate": 1.0 - self.failed / self.attempted,
            "cold_p50_s": statistics.median(cold_latency),
            # The pass serves whole slot cycles, so every run averages the same size mix.
            "cold_mean_s": statistics.fmean(cold_latency),
            "cold_tail_s": cold_tail,
            "endpoint_r": endpoint_r,
            "signal_covr": signal_covr,
            "warm_predict_p50_ms": statistics.median(predict_ms),
            "warm_predict_tail_ms": predict_tail,
            "whatif_p50_ms": statistics.median(whatif_ms),
            "whatif_tail_ms": whatif_tail,
            "warm_sat_rps": len(closed.results) / closed.wall_s,
            "opt_evals_per_s": opt_rate,
            "opt_wns_gain_pct": wns_gain,
            "opt_tns_gain_pct": tns_gain,
        }

    # -- per-layer report (traced runs) -----------------------------------------------------------

    def layer_report(self, cold: Pass, closed: Pass, opened: Pass, runs, cold_sizes, warm_sizes, opt_sizes):
        from checks import design_size
        from tracing import attributed_fraction, layer_metrics, render_tree

        counters = {
            "setup": self.setup_counters,
            "cold": cold.counters,
            "warm": closed.counters,
            "opt": self.opt_counters,
        }
        sizes = {
            "setup": [design_size(r) for r in self.setup_records],
            "cold": cold_sizes,
            "warm": warm_sizes,
            "opt": opt_sizes,
        }
        served = {"cold": cold.results, "warm": closed.results + opened.results}
        metrics: Dict[str, float] = {}
        for phase in ("setup", "cold", "warm", "opt"):
            windows = self.windows[phase]
            spans = [span for window in windows for span in window[0]]
            counts: Dict[str, float] = defaultdict(float)
            for window in windows:
                for name, value in window[1].items():
                    counts[name] += value
            wall = sum(end - start for _, _, start, end in windows)
            generic = {
                name: value / len(windows) for name, value in layer_metrics(spans, counts).items()
            }
            generic.update(_counter_metrics(counters[phase]))
            generic.update(_request_metrics(served.get(phase, [])))
            generic.update(_campaign_metrics([result for result, _ in runs] if phase == "opt" else []))
            generic["bog.sog_nodes"] = statistics.fmean(size["sog_nodes"] for size in sizes[phase])
            generic["trace.attributed_fraction"] = statistics.fmean(
                attributed_fraction(window[0], window[2], window[3]) for window in windows
            )
            generic["trace.overhead_frac"] = self.overhead.get(phase, 0.0)
            generic["trace.wall_s"] = wall / len(windows)
            for name, value in generic.items():
                metrics[f"{phase}.{name}"] = value
            print(f"\n== span tree: {self.workload.name} / {phase} "
                  f"(wall {wall:.3f}s over {len(windows)} window(s), "
                  f"attributed {generic['trace.attributed_fraction']:.3f}) ==")
            for line in render_tree(spans, wall):
                print(line)
        return metrics


# ---------------------------------------------------------------------------
# Small pure helpers
# ---------------------------------------------------------------------------


class _PhaseClock:
    """Wall seconds of each part of the run, recorded into the meta line."""

    def __init__(self, meta: dict):
        self.laps = meta.setdefault("phase_wall_s", {})
        self.last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.laps[name] = now - self.last
        self.last = now


def _delta(before: dict, after: dict) -> Dict[str, float]:
    """Counter and stage-call increments between two ``/metrics`` snapshots."""
    out: Dict[str, float] = {}
    for section in ("counters", "stage_calls"):
        old = before.get(section, {})
        for name, value in after.get(section, {}).items():
            out[name if section == "counters" else f"calls:{name}"] = value - old.get(name, 0)
    return out


def _ratio(hits: float, misses: float) -> Tuple[float, float]:
    base = hits + misses
    return (hits / base if base else 0.0), base


def _hit_rates(counters: Dict[str, float]) -> Dict[str, float]:
    record, record_base = _ratio(counters.get("serve_record_hits", 0), counters.get("calls:serve.build_record", 0))
    artifact, artifact_base = _ratio(counters.get("cache_hits", 0), counters.get("cache_misses", 0))
    feature, feature_base = _ratio(counters.get("feature_cache_hits", 0), counters.get("feature_cache_misses", 0))
    return {
        "record_hit_ratio": record, "record_lookups": record_base,
        "artifact_hit_ratio": artifact, "artifact_lookups": artifact_base,
        "feature_hit_ratio": feature, "feature_lookups": feature_base,
    }


def _counter_metrics(counters: Dict[str, float]) -> Dict[str, float]:
    rates = _hit_rates(counters)
    return {
        "features.hit_ratio": rates["feature_hit_ratio"],
        "features.lookups": rates["feature_lookups"],
        "runtime.artifact_hit_ratio": rates["artifact_hit_ratio"],
        "runtime.artifact_lookups": rates["artifact_lookups"],
        "serve.record_hit_ratio": rates["record_hit_ratio"],
        "serve.record_lookups": rates["record_lookups"],
        "serve.rejects": counters.get("serve_shed", 0),
    }


def _request_metrics(results) -> Dict[str, float]:
    """Per-request serving stats that ``/predict`` responses carry."""
    bodies = [r.body for r in results if r.route == "predict" and r.status == 200]
    stats = [body["serve"] for body in bodies if "serve" in body]
    return {
        "serve.queue_wait_p50_ms": 1000.0 * statistics.median(s["queue_seconds"] for s in stats) if stats else 0.0,
        "serve.batch_size_mean": statistics.fmean(s["batch_size"] for s in stats) if stats else 0.0,
        "serve.requests": len(results),
    }


def _campaign_metrics(results) -> Dict[str, float]:
    """Ratios from ``SearchResult.accounting``, each with its base."""
    total = defaultdict(float)
    for result in results:
        for key in ("evals", "memo_hits", "accepted", "anchors"):
            total[key] += result.accounting[key]
    if not results:
        return {}
    proposals = total["evals"] + total["memo_hits"]
    return {
        "incremental.recomputed_vertices": sum(
            e.stats.n_recomputed for result in results for e in result.estimates if e.stats is not None
        ),
        "optimize.memo_hit_ratio": total["memo_hits"] / proposals if proposals else 0.0,
        "optimize.proposals": proposals,
        "optimize.accept_ratio": total["accepted"] / total["evals"] if total["evals"] else 0.0,
        "optimize.evals": total["evals"],
        "optimize.anchors": total["anchors"],
    }


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    contract_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not contract_path.is_file():
        print("perfbench: run from the repository root (needs src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    contract = json.loads(contract_path.read_text())
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    work = root / ".perfbench" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["REPRO_MODEL_DIR"] = str(work / "models")
    os.environ["REPRO_JOBS"] = "1"
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]
    try:
        run = BenchRun(root, work, args.workload, args.seed, args.seconds, bool(args.trace))
        metrics = run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".perfbench").rmdir()

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    from repro.sta.engine import STA_KERNEL_ENV_VAR

    run.meta.update(
        workload=args.workload,
        why=run.workload.why,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=os.cpu_count(),
        REPRO_JOBS=os.environ["REPRO_JOBS"],
        REPRO_STA_KERNEL=os.environ.get(STA_KERNEL_ENV_VAR) or "array (default)",
        attempted=run.attempted,
        failed=run.failed,
    )
    print(f"\n== {args.workload} seed {args.seed}: {'per-layer' if args.trace else 'end-to-end'} metrics ==")
    for m in wanted:
        better = f"  ({m['better']} is better)" if "better" in m else ""
        print(f"{m['name']:<40}{metrics[m['name']]:>16.6g} {m['unit']}{better}")
    print(f"{'error_rate':<40}{run.failed / run.attempted:>16.6g} ratio  ({run.failed} of {run.attempted} attempted)")
    if not args.trace:
        # Measured every run but too unsteady across seeds for a contract bound.
        contract = {m["name"] for m in wanted}
        for name, unit in DIAGNOSTICS.items():
            if name not in contract:
                tail_of = run.meta["tails"].get(name)
                note = f"  (p{tail_of['percentile']:.0f} of {tail_of['samples']})" if tail_of else ""
                print(f"{name:<40}{metrics[name]:>16.6g} {unit}  (diagnostic){note}")
    print(json.dumps({"meta": run.meta}, default=str))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
