"""The closed loop, its end-to-end metrics and the traced replay.

Imported by `run.py` after the library, so `workloads` can import it.
"""

from __future__ import annotations

import gc
import resource
import statistics
from pathlib import Path
from time import perf_counter

from tracing import Tracer, direct
from workloads import WORKLOADS, digest

OUT = Path(__file__).resolve().parent.parent / ".bench_out"

SETUP_BUILDS = 5  # timed builds of the pool per run, spread over the run
MIN_SAMPLES = 100  # so that at least ten samples lie beyond p90
# The machine gauge: `reference_kernel` is timed every `GAUGE_EVERY`
# seconds between queries, and every reported time is scaled by
# GAUGE_NOMINAL_S / (the run's mean gauge time).  On a shared host the
# same work drifts by 10-40% from one phase to the next; the gauge drifts
# with it, so the scaled times are those of a machine on which the kernel
# takes GAUGE_NOMINAL_S, whatever phase a run meets.  The mean, not the
# median: the host alternates between a fast and a slow state within
# milliseconds, a query takes the mean of the two, and the median jumps
# between them.
GAUGE_EVERY = 0.05
GAUGE_NOMINAL_S = 1e-3

END_TO_END = {
    "query_p50_ms": "ms", "query_p90_ms": "ms", "throughput_qps": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
# every library call a workload makes, reported as <name>.calls and .busy_s
LAYER_CALLS = (
    "frames.random_frame", "frames.SortedFrame", "frames.stable_sets",
    "frames.costable_sets", "frames.is_section_stable",
    "semantics.ModalModel", "semantics.lattice_extent", "semantics.truth_set",
    "semantics.sat_modal", "semantics.frame_valid_modal", "semantics.eval_fol",
    "semantics.sort_reduce",
    "transform.translate", "transform.std_translate",
    "transform.is_stable_modal", "transform.is_stable_fol",
    "syntax.parse_modal", "syntax.parse_lattice", "syntax.parse_fol",
    "syntax.modal_vars", "syntax.print_modal", "syntax.print_lattice",
    "syntax.print_fol",
    "fileio.load_frame", "fileio.load_modal_model", "fileio.load_assignment",
    "fileio.dump_frame", "fileio.dump_modal_model",
    "bisim.largest_bisimulation", "bisim.modal_equiv",
    "bisim.equivalence_depth_bound",
    "gen.random_lattice_model", "gen.random_modal_model",
    "gen.random_lattice_formula", "gen.random_modal_formula",
    "gen.random_fol_sentence", "gen.random_modal_corpus",
    "catalog.default_model_family",
)
LAYER_COUNTS = (
    "frames.concepts", "semantics.valuations", "syntax.chars", "fileio.bytes",
    "bisim.depth", "bisim.formula_nodes", "bisim.pairs_kept",
    "bisim.pairs_candidate",
)
TRACE_RATIOS = ("trace.overhead", "trace.busy_share")


_POINTS_A = [f"a{i}" for i in range(16)]
_POINTS_B = [f"b{i}" for i in range(16)]
_INCIDENCE = frozenset((a, b) for i, a in enumerate(_POINTS_A)
                       for j, b in enumerate(_POINTS_B) if (i * 7 + j * 3) % 10 < 3)


def reference_kernel():
    """Fixed pure-Python work in the library's style, which calls nothing
    in the library: the attribute extents of a 16+16 point polarity and
    their pairwise meets, ten times over (about 1 ms)."""
    total = 0
    for _ in range(10):
        extents = {frozenset(a for a in _POINTS_A if (a, b) not in _INCIDENCE)
                   for b in _POINTS_B}
        meets = {x & y for x in extents for y in extents}
        total += len(meets)
    return total


def layer_names():
    """Every per-layer metric, in report order."""
    return [f"{n}.{part}" for n in LAYER_CALLS for part in ("calls", "busy_s")] \
        + list(LAYER_COUNTS) + list(TRACE_RATIOS)


class Loop:
    """One client issuing queries from a pool, checking every result.

    The first result for each pool slot is checked against its
    expectation; a repeat must reproduce the first result's digest.
    `build()` makes the pool from the seed.  It runs again, outside the
    timed spans, whenever the loop wraps around, so that no query is
    timed on objects an earlier query has used (and may have cached
    something on).  Every build is timed, and so is the machine gauge,
    between queries.
    """

    def __init__(self, workload, build, digests=None):
        self.workload, self.build = workload, build
        self.build_times: list[float] = []
        self.latencies: list[float] = []
        self.failed = 0
        self.digests: dict[int, str] = {} if digests is None else digests
        self.problems: list[str] = []
        self.gauge_times: list[float] = []
        self._gauged = -GAUGE_EVERY
        self.pool = None
        self.rebuild()

    def rebuild(self):
        self.pool = None  # so that only one pool is alive at a time
        start = perf_counter()
        self.pool = self.build()
        self.build_times.append(perf_counter() - start)

    def gauge(self):
        """Time `reference_kernel` if `GAUGE_EVERY` has passed since the
        last time; the collector is off so that it times no one's garbage."""
        if perf_counter() - self._gauged < GAUGE_EVERY:
            return
        gc.disable()
        start = perf_counter()
        reference_kernel()
        self._gauged = perf_counter()
        gc.enable()
        self.gauge_times.append(self._gauged - start)

    def scale(self):
        """The factor that brings this loop's times to the nominal machine."""
        return GAUGE_NOMINAL_S / statistics.fmean(self.gauge_times)

    def _fail(self, index, message):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"query {index}: {message}")

    def one(self, index, run):
        slot = index % len(self.pool)
        if slot == 0 and index:
            self.rebuild()
        self.gauge()
        start = perf_counter()
        try:
            result = run(self.pool[slot])
        except Exception as exc:  # a failed query is counted, not fatal
            self.latencies.append(perf_counter() - start)
            self._fail(index, f"raised {exc!r}")
            return None
        self.latencies.append(perf_counter() - start)
        d = digest(result)
        if slot not in self.digests:
            self.digests[slot] = d
            problem = self.workload.check(self.pool[slot], result)
            if problem:
                self._fail(index, problem)
        elif self.digests[slot] != d:
            self._fail(index, "result digest differs from the first pass")
        return result

    def for_seconds(self, seconds, run, min_count, builds):
        """Query until `seconds` have passed and `min_count` are done.

        The pool is also rebuilt at `builds - 1` evenly spaced times, so
        that the timed builds meet the same phases of a shared machine as
        the queries do.
        """
        start = perf_counter()
        index, due = 0, 1
        while index < min_count or perf_counter() < start + seconds:
            if due < builds and perf_counter() >= start + seconds * due / builds:
                self.rebuild()
                due += 1
            self.one(index, run)
            index += 1
        return index


def end_to_end(latencies, setup_s, scale):
    """The end-to-end metrics, every time in it scaled by `scale`."""
    return {
        "query_p50_ms": statistics.median(latencies) * 1e3 * scale,
        "query_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3 * scale,
        "throughput_qps": len(latencies) / sum(latencies) / scale,
        "setup_s": setup_s * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, loop, setup_tracer, build):
    """Replay the workload's first `TRACED` queries under spans.

    The replay runs on a fresh pool from `build`, traced by
    `setup_tracer`.  The replayed queries are the same at every commit,
    so calls and counts repeat exactly and busy times compare directly;
    they are scaled by the replay's gauge, as end-to-end times are.
    Returns the per-layer metrics, including the tracing overhead against
    the untraced latencies of the same queries, and the replay loop.
    """
    count = workload.TRACED
    tracer = Tracer()
    replay = Loop(workload, build, loop.digests)
    counts = dict.fromkeys(LAYER_COUNTS, 0)
    for index in range(count):
        result = replay.one(index, lambda item: tracer.run_query(
            index, workload.query, item, tracer.call))
        if result is not None:
            item = replay.pool[index % len(replay.pool)]
            for key, value in workload.counts(item, result).items():
                counts[key] += value
    calls, busy = tracer.layer_totals()
    setup_calls, setup_busy = setup_tracer.layer_totals()
    scale = replay.scale()
    metrics = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = calls[name] + setup_calls[name]
        metrics[f"{name}.busy_s"] = (busy[name] + setup_busy[name]) * scale
    metrics.update(counts)
    layer_busy = sum(v for k, v in busy.items() if k != Tracer.QUERY)
    metrics["trace.overhead"] = sum(replay.latencies) * scale / (
        sum(loop.latencies[:count]) * loop.scale()) - 1
    metrics["trace.busy_share"] = layer_busy / tracer.query_seconds()
    return metrics, replay, tracer


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(".busy_s"):
        return "s"
    return "ratio" if name in TRACE_RATIOS else "count"


def run(name, seed, seconds, trace=False, tiny=False, import_s=0.0):
    """One benchmark run; returns a report dict (see `run.py`)."""
    workload = WORKLOADS[name]()
    loop = Loop(workload, lambda: workload.setup(seed, direct, tiny))
    inputs_digest = digest([digest(item) for item in loop.pool])
    pool_size = len(loop.pool)
    loop.for_seconds(seconds / 2 if trace else seconds,
                     lambda item: workload.query(item, direct),
                     max(MIN_SAMPLES, workload.TRACED if trace else 0),
                     SETUP_BUILDS)
    scale = loop.scale()
    setup_s = import_s + statistics.median(loop.build_times)
    metrics = end_to_end(loop.latencies, setup_s, scale)
    attempted, failed = len(loop.latencies), loop.failed
    problems = list(loop.problems)
    # the slots that every run covers, whatever its speed
    covered = range(min(MIN_SAMPLES, pool_size))
    results_digest = digest([loop.digests.get(slot, "raised")
                             for slot in covered])
    tracers = {}
    if trace:
        tracers["setup"] = Tracer()
        loop.pool = None
        layer, replay, tracers["queries"] = per_layer(
            workload, loop, tracers["setup"],
            lambda: workload.setup(seed, tracers["setup"].call, tiny))
        metrics.update(layer)
        attempted += len(replay.latencies)
        failed += replay.failed
        problems += replay.problems
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "problems": problems, "samples": len(loop.latencies),
        "scale": scale,
        "inputs_digest": inputs_digest, "results_digest": results_digest,
        "digested": len(covered), "pool": pool_size,
        "tracers": tracers,
    }
