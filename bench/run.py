"""Layered benchmark for tamekit: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload plane_roundtrip --seed 1 --seconds 20 --trace 0

The run imports tamekit from ``src/`` and builds the workload's inputs
from the seed (several times over, to time set-up), then runs every
item once with full output checks.  It then runs whole passes over the
items, one item at a time on one thread, until ``--seconds`` have
passed, comparing each output with the checked one.  With ``--trace 1``
it then repeats the same number of passes with every public function of
the timed layers wrapped (see ``layers.py``) and reports per-layer
numbers and the tracing overhead instead of the end-to-end ones.

Times are reported in reference seconds (see ``SpeedGauge``): each
measured time is scaled by how fast the machine ran a fixed calibration
chunk next to it, so that a shared host running this process at
different speeds from one phase to the next does not move the figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's details (input sizes, the five largest inputs,
latency percentile and sample count, failed share, output digest).  The
exit code is 0 only when every output was correct.  See README.md for
the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# set-up takes a few seconds at most, so one timing of it is at the mercy of
# other processes; setup_s is the median of several
SETUP_REPS = 3
PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)

# the calibration chunk runs between items once this much item time has
# passed since the last one; each item's speed is the median over the
# chunks CAL_WINDOW before and CAL_WINDOW after it
CAL_EVERY_S = 0.01
CAL_WINDOW = 3
# a call counts when its chunks ran at least 1 / CAL_FAST_RATIO as fast
# as the run's fastest tenth of calls did (see measured_passes)
CAL_FAST_RATIO = 1.2
# a reference second is the time in which the calibration chunk runs
# 1 / CAL_REFERENCE_S times
CAL_REFERENCE_S = 1e-3
# the chunk squares this polynomial: small integer coefficients on a
# 6 x 6 box of exponents, with some left out
CAL_POLY = {
    (i, j): (5 * i + 3 * j) % 11 - 5
    for i in range(6)
    for j in range(6)
    if (5 * i + 3 * j) % 11 != 5
}

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class NoSource(Exception):
    """The checkout has no tamekit sources to benchmark."""


def import_tamekit():
    """Import tamekit afresh from this checkout's src/ directory."""
    if not (SRC / "tamekit" / "__init__.py").is_file():
        raise NoSource(f"no tamekit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "tamekit" or n.startswith("tamekit.")]:
        del sys.modules[name]
    tk = importlib.import_module("tamekit")
    if Path(tk.__file__).resolve().parent != SRC / "tamekit":
        raise NoSource(f"tamekit was imported from {tk.__file__}, not from {SRC}")
    return tk


def calibration_chunk():
    """Fixed work independent of tamekit: a sparse polynomial square on
    plain ints, then a sum of Fractions, the two kinds of arithmetic the
    library spends its time in."""
    acc = {}
    for (i1, j1), c1 in CAL_POLY.items():
        for (i2, j2), c2 in CAL_POLY.items():
            key = (i1 + i2, j1 + j2)
            acc[key] = acc.get(key, 0) + c1 * c2
    total = Fraction(0)
    for (i, j), c in acc.items():
        total += Fraction(c, 1 + i + j)
    return total


class SpeedGauge:
    """How fast the machine runs the calibration chunk, sampled over time.

    On a shared host this process runs at speeds that differ by up to
    half, in phases of one to fifty seconds, as neighbours come and go.  A time
    measured next to a run of chunks is converted to reference seconds
    by multiplying it with ``factor``: CAL_REFERENCE_S over the chunks'
    median time.  The chunk never calls tamekit, so a change to the
    library moves reference times as it moves wall times.
    """

    def __init__(self):
        self.chunks = []

    def sample(self, count=1):
        for _ in range(count):
            t0 = perf_counter()
            calibration_chunk()
            self.chunks.append(perf_counter() - t0)
        return len(self.chunks) - 1

    def factor(self, first, last):
        """Conversion factor from the median of chunks first..last."""
        return CAL_REFERENCE_S / statistics.median(self.chunks[max(0, first) : last + 1])


def set_up(workload, seed, scale=1.0):
    """Import and build inputs SETUP_REPS times; keep the last build.

    Set-up cannot stop between items for the calibration chunk, so an
    interval timer interrupts it every CAL_EVERY_S to run one.  Each
    stretch of set-up work between two chunks is converted to reference
    seconds with the chunks around it.  Returns each set-up's wall time,
    chunks excluded, and its time in reference seconds.
    """
    gauge = SpeedGauge()
    wall, ref = [], []
    for _ in range(SETUP_REPS):
        stretches = []  # (wall time of set-up work, index of the chunk after it)
        gauge.sample(CAL_WINDOW)
        resumed = perf_counter()

        def on_alarm(signum, frame):
            nonlocal resumed
            stretches.append((perf_counter() - resumed, gauge.sample()))
            resumed = perf_counter()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        try:
            tk = import_tamekit()
            items = workloads.build(tk, workload, seed, scale)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        stretches.append((perf_counter() - resumed, gauge.sample()))
        gauge.sample(CAL_WINDOW)
        wall.append(sum(w for w, _ in stretches))
        ref.append(sum(w * gauge.factor(k - CAL_WINDOW, k + CAL_WINDOW - 1) for w, k in stretches))
    return tk, items, wall, ref


def check_pass(items):
    """Run every item once and check its output from scratch.

    Returns the reference outputs (None for a failed item), the failure
    reasons by label, and the digest of the rendered outputs.
    """
    refs = []
    failures = {}
    digest = hashlib.sha256()
    for item in items:
        try:
            out = item.call()
            reason = item.check(out)
        except Exception as exc:  # an unexpected exception is a failed item
            out, reason = None, f"{type(exc).__name__}: {exc}"
        if reason is None:
            refs.append(out)
            digest.update(f"{item.label}\t{item.render(out)}\n".encode())
            if item.output_size is not None:
                item.terms, item.degree = item.output_size(out)
        else:
            refs.append(None)
            failures[item.label] = reason
            digest.update(f"{item.label}\tFAILED\n".encode())
    return refs, failures, digest.hexdigest()


def measured_passes(items, refs, seconds=None, passes=None):
    """Whole passes over the items until ``seconds`` of wall time have
    passed, or exactly ``passes`` of them.

    A calibration chunk runs between items whenever CAL_EVERY_S of item
    time has gone by, and each call's wall time is converted to
    reference seconds with the chunks around it.  The conversion is not
    exact: a busy neighbour slows the library's kernels and the chunk by
    somewhat different amounts.  So only the calls made while the
    machine ran near its fastest of this run are kept, as judged by the
    chunks alone, never by the call's own time.  An item with no such
    call keeps all of its calls.

    Returns each item's kept call times in reference seconds, a dict of
    run details, and the number of failed calls (an exception, or an
    output other than the checked reference).
    """
    gauge = SpeedGauge()
    gauge.sample()
    samples = []  # (item index, call wall time, index of the chunk before it)
    failed = 0
    done = 0
    since_chunk = 0.0
    start = perf_counter()
    while True:
        for i, item in enumerate(items):
            if since_chunk >= CAL_EVERY_S:
                gauge.sample()
                since_chunk = 0.0
            t0 = perf_counter()
            try:
                out = item.call()
            except Exception:
                out = None
            dt = perf_counter() - t0
            since_chunk += dt
            samples.append((i, dt, len(gauge.chunks) - 1))
            if refs[i] is None or out != refs[i]:
                failed += 1
        done += 1
        if passes is not None and done >= passes:
            break
        if passes is None and perf_counter() - start >= seconds:
            break
    wall = perf_counter() - start
    gauge.sample(CAL_WINDOW)
    factors = [gauge.factor(k - CAL_WINDOW + 1, k + CAL_WINDOW) for _, _, k in samples]
    fastest = statistics.quantiles(factors, n=10)[-1] if len(factors) > 1 else factors[0]
    kept = [[] for _ in items]
    every = [[] for _ in items]
    for (i, dt, _), factor in zip(samples, factors):
        every[i].append(dt * factor)
        if factor * CAL_FAST_RATIO >= fastest:
            kept[i].append(dt * factor)
    times = [k or e for k, e in zip(kept, every)]
    details = {
        "passes": done,
        "wall_s": wall,
        "ref_s_per_wall_s": {
            "median": statistics.median(factors),
            "fastest_tenth": fastest,
        },
        "kept_calls_share": sum(map(len, times)) / len(samples),
    }
    return times, details, failed


def percentile(sorted_values, pct):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail_percentile(sorted_values):
    """The highest of PERCENTILES with at least ten samples beyond it."""
    best = None
    for pct in PERCENTILES:
        value, beyond = percentile(sorted_values, pct)
        if beyond >= 10:
            best = (pct, value, beyond)
    return best


def pass_ref_s(times):
    """A typical pass in reference seconds: each item's median call, summed."""
    return sum(statistics.median(t) for t in times)


def end_to_end(times, setup_ref):
    """End-to-end metrics from reference-second times.

    Throughput is the closed loop's over a pass in which every item takes
    the mean of its kept calls, collector pauses included.  Each item's latency is the median of its calls,
    so the latency samples are the items; their number is fixed by the
    workload, and the tail percentile is the same in every run.
    """
    per_item = sorted(statistics.median(t) for t in times)
    tail = tail_percentile(per_item)
    metrics = {
        "items_per_s": len(times) / sum(statistics.fmean(t) for t in times),
        "latency_p50_ms": statistics.median(per_item) * 1e3,
        "latency_tail_ms": (tail[1] if tail else per_item[-1]) * 1e3,
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail_info = {
        "percentile": tail[0] if tail else 100,
        "samples": len(per_item),
        "samples_beyond": tail[2] if tail else 0,
    }
    return metrics, tail_info


def input_stats(items):
    sized = [it for it in items if it.terms is not None]
    largest = sorted(sized, key=lambda it: (it.terms, it.degree), reverse=True)[:5]
    counts = {}
    for it in items:
        counts[it.stratum] = counts.get(it.stratum, 0) + 1
    return {
        "items": len(items),
        "total_terms": sum(it.terms for it in sized),
        "max_degree": max((it.degree for it in sized), default=0),
        "strata": counts,
        "largest": [
            {"label": it.label, "stratum": it.stratum, "terms": it.terms, "degree": it.degree}
            for it in largest
        ],
    }


def run(workload, seed, seconds, trace, scale=1.0):
    """One benchmark run; returns (result line dict, details dict)."""
    tk, items, setup_wall, setup_ref = set_up(workload, seed, scale)
    refs, failures, digest = check_pass(items)
    attempted = len(items)
    failed = len(failures)
    times, measured, pass_failed = measured_passes(items, refs, seconds=seconds)
    passes = measured["passes"]
    attempted += passes * len(items)
    failed += pass_failed
    metrics, tail_info = end_to_end(times, setup_ref)
    details = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "setup_wall_s": setup_wall,
        "setup_ref_s": setup_ref,
        "inputs": input_stats(items),
        "measured": measured,
        "latency_tail": tail_info,
        "failures": failures,
        "output_digest": digest,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }
    units = END_TO_END_UNITS
    if trace:
        tracer = layers.LayerTracer()
        tracer.install(tk)
        try:
            traced, traced_measured, traced_failed = measured_passes(items, refs, passes=passes)
        finally:
            tracer.uninstall()
        attempted += passes * len(items)
        failed += traced_failed
        # per pass: the sum over the items of their median call
        untraced_ref = pass_ref_s(times)
        traced_ref = pass_ref_s(traced)
        metrics = tracer.metrics(passes)
        metrics["trace.overhead_s"] = traced_ref - untraced_ref
        metrics["trace.overhead_share"] = (traced_ref - untraced_ref) / untraced_ref
        details["traced"] = traced_measured
        # a listed layer that records nothing fails the run
        details["layers_without_calls"] = tracer.missing(workload)
        failed += len(details["layers_without_calls"])
        units = layers.metric_units()
    details["failed_share"] = {"value": failed / attempted, "unit": "share"}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = run(args.workload, args.seed, args.seconds, args.trace)
    except NoSource as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
