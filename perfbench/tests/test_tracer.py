"""Tracer arithmetic, attribute restoration, and counter repeatability.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import importlib
import threading

import numpy as np
import pytest

from rigidreg import PipelineConfig, RansacConfig, SyntheticPairSpec, generate_pair, register
from run import tail
from tracer import (
    Span,
    Tracer,
    calls_under,
    exact_count_mean,
    rigidreg_probes,
    self_times,
    summarize,
)
from workloads import OUTLIER_RECIPE, ZeroWeighter


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, "root", 0.0, 10.0, 1),
        Span(1, 0, "a", 1.0, 3.0, 1),
        Span(2, 0, "b", 2.0, 5.0, 2),  # another thread, overlaps a
        Span(3, 0, "c", 7.0, 8.0, 1),
        Span(4, 1, "d", 1.5, 2.0, 1),
        Span(5, 3, "e", 7.5, 9.0, 1),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0 - 0.5)
    assert own[4] == pytest.approx(0.5)
    summary = summarize(spans)
    assert summary["root"].calls == 1
    assert summary["root"].total_s == pytest.approx(10.0)
    assert summary["a"].self_s == pytest.approx(1.5)


def test_count_mean_ignores_span_order_and_repeated_passes():
    values = [0.1, 0.2, 0.7, 0.3, 0.45, 0.123456789]

    def spans(order):
        return [Span(i, None, "ransac", 0.0, 1.0, 1, {"consensus": v})
                for i, v in enumerate(order)]

    permuted = values[::-1] + values  # two passes, the first in another order
    one_pass, two_passes = spans(values), spans(permuted)
    # a plain float mean gives different last bits for these two runs
    assert sum(values) / len(values) != sum(permuted) / len(permuted)
    expected = exact_count_mean(one_pass, "ransac", "consensus")
    assert exact_count_mean(two_passes, "ransac", "consensus") == expected
    assert expected == pytest.approx(sum(values) / len(values))
    # spans without the count (the call raised) and other names are skipped
    extra = [Span(90, None, "ransac", 0.0, 1.0, 1),
             Span(91, None, "other", 0.0, 1.0, 1, {"consensus": 5.0})]
    assert exact_count_mean(one_pass + extra, "ransac", "consensus") == expected
    assert exact_count_mean(extra, "ransac", "consensus") == 0.0


def test_spans_nest_per_thread_and_pool_threads_attach_to_the_root():
    tracer = Tracer()
    with tracer.span("suite", root=True) as suite:
        with tracer.span("inner") as inner:
            pass

        def worker():
            with tracer.span("pair"):
                with tracer.span("step"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    assert inner.parent == suite.id
    assert [s.parent for s in by_name["pair"]] == [suite.id, suite.id]
    pair_ids = {s.id for s in by_name["pair"]}
    assert {s.parent for s in by_name["step"]} == pair_ids
    with tracer.span("after") as after:
        pass
    assert after.parent is None


def test_install_wraps_and_restore_puts_back_every_attribute():
    probes = rigidreg_probes(0.4)
    modules = [importlib.import_module(p.module) for p in probes]
    originals = [getattr(m, p.attr) for m, p in zip(modules, probes)]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(probes):
            for m, p, original in zip(modules, probes, originals):
                assert getattr(m, p.attr) is not original
            raise RuntimeError("body fails")
    for m, p, original in zip(modules, probes, originals):
        assert getattr(m, p.attr) is original
    # the package's re-exported names were never touched
    import rigidreg

    assert rigidreg.refine is importlib.import_module("rigidreg.refine").refine


def _traced_counts(pair, cfg, weighter):
    tracer = Tracer()
    with tracer.installed(rigidreg_probes(cfg.prefilter_tau)):
        with tracer.span("pipeline.register"):
            result = register(pair.source, pair.target, cfg, weighter=weighter)
    summary = summarize(tracer.spans)
    calls = {name: entry.calls for name, entry in summary.items()}
    counts = {name: entry.counts for name, entry in summary.items()}
    fits = calls_under(tracer.spans, "procrustes.solve", "ransac.ransac_register")
    return result, calls, counts, fits


def test_counters_repeat_exactly_on_a_tiny_input():
    pair = generate_pair(SyntheticPairSpec(**{**OUTLIER_RECIPE, "n_points": 200}, seed=5))
    cfg = PipelineConfig()
    first = _traced_counts(pair, cfg, None)
    second = _traced_counts(pair, cfg, None)
    assert first[1:] == second[1:]
    result, calls, counts, _ = first
    assert calls["procrustes.solve"] == 1
    assert calls["refine.energy_gradient"] == result.trace.iterations
    assert counts["refine.refine"]["iterations"] == result.trace.iterations
    assert counts["geometry.voxel_downsample"]["points_in"] == 400


def test_safeguard_fits_are_counted_under_ransac():
    pair = generate_pair(SyntheticPairSpec(**{**OUTLIER_RECIPE, "n_points": 200}, seed=5))
    cfg = PipelineConfig(ransac=RansacConfig(max_iterations=200, inlier_threshold=0.05))
    first = _traced_counts(pair, cfg, ZeroWeighter())
    second = _traced_counts(pair, cfg, ZeroWeighter())
    assert first[1:] == second[1:]
    _, calls, counts, fits = first
    # every solve ran inside the safeguard: hypotheses, degenerate draws
    # that the solver rejected, and the final refit
    assert fits == calls["procrustes.solve"] >= 2
    assert counts["pipeline.register"] == {}  # counts are set by the caller
    assert "refine.refine" not in calls


@pytest.mark.parametrize(
    "n, value, percentile",
    [(5, 3.0, 50.0), (20, 10.5, 50.0), (21, 11.0, 50.0), (101, 91.0, 90.0)],
)
def test_tail_leaves_ten_calls_beyond(n, value, percentile):
    latencies = list(np.arange(1.0, n + 1.0))
    got, pct, beyond = tail(latencies[::-1])
    assert got == value
    assert pct == pytest.approx(percentile)
    assert beyond == (10 if percentile > 50 else n // 2)
