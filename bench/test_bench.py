"""Smoke tests for the benchmark: every workload at a small size.

Run from the root of a checkout with ``python -m pytest bench -q``.
"""

import collections
import signal

import pytest

import layers
import run
import workloads

SMALL = 0.05


@pytest.fixture(scope="module")
def tk():
    return run.import_tamekit()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_run_is_correct_and_traced(tk, name):
    items = workloads.build(tk, name, seed=3, scale=SMALL)
    refs, failures, digest = run.check_pass(items)
    assert failures == {}
    times, measured, failed = run.measured_passes(items, refs, passes=1)
    assert (measured["passes"], failed) == (1, 0)
    assert all(len(t) == 1 for t in times)
    metrics, tail = run.end_to_end(times, [0.5])
    assert all(value > 0 for value in metrics.values())
    assert tail["samples"] == len(items)

    originals = (tk.maps.compose, tk.jung.compose, tk.Polynomial.__mul__)
    tracer = layers.LayerTracer()
    tracer.install(tk)
    try:
        _, _, failed = run.measured_passes(items, refs, passes=1)
    finally:
        tracer.uninstall()
    assert failed == 0
    assert tracer.missing(name) == []
    assert set(tracer.metrics(1)) | set(layers.OVERHEAD) == set(layers.metric_units())
    assert (tk.maps.compose, tk.jung.compose, tk.Polynomial.__mul__) == originals


def test_digest_repeats_for_a_seed(tk):
    first = run.check_pass(workloads.build(tk, "graded", seed=5, scale=SMALL))[2]
    again = run.check_pass(workloads.build(tk, "graded", seed=5, scale=SMALL))[2]
    assert first == again


@pytest.mark.parametrize("name", ["plane_roundtrip", "plane_reject", "graded"])
def test_second_seed_fills_the_same_strata(tk, name):
    counts = [
        collections.Counter(it.stratum for it in workloads.build(tk, name, seed, scale=SMALL))
        for seed in (1, 2)
    ]
    assert counts[0] == counts[1]


def test_full_size_witness_strata_repeat_across_seeds(tk):
    # witness inputs are cheap to build, so compare the full table there
    counts = [
        collections.Counter(it.stratum for it in workloads.build(tk, "witness", seed))
        for seed in (8, 9)
    ]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) >= 100


def test_plane_items_lie_in_their_bands(tk):
    bands = {b.name: b for b in workloads.PLANE_ROUNDTRIP_BANDS}
    for item in workloads.build(tk, "plane_roundtrip", seed=4, scale=SMALL):
        band = bands[item.stratum]
        assert band.min_terms <= item.terms <= band.max_terms


def test_chain_bounds_cover_the_composed_map(tk):
    import random

    rng = random.Random(9)
    for _ in range(200):
        chain = workloads.tame_chain(rng)
        degree_bound, term_bound = workloads.chain_bounds(chain)
        m = workloads.plane_chain_map(tk, chain)
        assert m.degree() <= degree_bound
        assert workloads.map_terms(m) <= term_bound


def test_threshold_exponents_match_the_library(tk):
    for (a, b, c), (qh, lh) in workloads.wild_triples()[::50]:
        cls = tk.classify_grading((a, b, -c))
        assert (cls.q_hat, cls.l_hat) == (qh, lh)
    assert len(workloads.wild_triples()) == 1527


def test_missing_source_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "graded", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_gauge_converts_with_the_median_chunk():
    gauge = run.SpeedGauge()
    gauge.chunks = [2e-3, 1e-3, 4e-3, 8e-3]
    assert gauge.factor(-1, 2) == run.CAL_REFERENCE_S / 2e-3
    assert gauge.factor(3, 9) == run.CAL_REFERENCE_S / 8e-3


def test_whole_small_run_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    result, details = run.run("graded", seed=2, seconds=0.1, trace=0, scale=SMALL)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(details["setup_ref_s"]) == run.SETUP_REPS
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
