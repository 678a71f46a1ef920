"""Span tracer for the benchmark's traced run.

The tracer replaces module-level names that the pipeline looks up at call
time with wrappers that record one span per call: name, start, end, the
span that caused it, and counts taken from the call's arguments and
result. Parents come from a per-thread stack, so spans opened inside
``run_benchmark``'s worker threads nest under their own pair instead of
being summed across threads. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

from rigidreg.results import MAIN_BRANCH


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    counts: dict[str, float] | None = None


CountFn = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Probe:
    """One module attribute to wrap, the span name its calls get, and an
    optional function of (args, kwargs, result) giving the span's counts."""

    module: str
    attr: str
    span: str
    count: CountFn | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: bool = False) -> Iterator[Span]:
        """Open a span in the calling thread. With ``root``, spans that
        other threads open on an empty stack become its children, which
        ties a worker pool's calls to the call that started the pool."""
        stack = self._stack()
        record = Span(next(self._ids), stack[-1] if stack else self._root,
                      name, 0.0, 0.0, threading.get_ident())
        stack.append(record.id)
        previous_root = self._root
        if root:
            self._root = record.id
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if root:
                self._root = previous_root
            self.spans.append(record)

    def _wrap(self, fn: Callable, name: str, count: CountFn | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else tracer._root
            stack.append(span_id)
            returned = False
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = count(args, kwargs, result) if returned and count else None
                tracer.spans.append(
                    Span(span_id, parent, name, start, end, threading.get_ident(), counts)
                )

        return traced

    def install(self, probes: Iterable[Probe]) -> None:
        for probe in probes:
            # importlib, not attribute access: rigidreg.refine is the
            # re-exported function, the module lives in sys.modules
            module = importlib.import_module(probe.module)
            original = getattr(module, probe.attr)
            self._saved.append((module, probe.attr, original))
            setattr(module, probe.attr, self._wrap(original, probe.span, probe.count))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self, probes: Iterable[Probe]) -> Iterator["Tracer"]:
        try:
            self.install(probes)
            yield self
        finally:
            self.restore()


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the union of its children's
    intervals covers; children on other threads may overlap each other."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    run_start = run_end = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {
        s.id: (s.end - s.start) - _covered(s, children.get(s.id, []))
        for s in spans
    }


@dataclass
class NameSummary:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] | None = None


def summarize(spans: list[Span]) -> dict[str, NameSummary]:
    """Per span name: call count, inclusive and self seconds, summed counts."""
    own = self_times(spans)
    out: dict[str, NameSummary] = {}
    for s in spans:
        entry = out.setdefault(s.name, NameSummary(counts={}))
        entry.calls += 1
        entry.total_s += s.end - s.start
        entry.self_s += own[s.id]
        for key, value in (s.counts or {}).items():
            entry.counts[key] = entry.counts.get(key, 0.0) + value
    return out


def exact_count_mean(spans: list[Span], name: str, key: str) -> float:
    """Mean of count ``key`` over the ``name`` spans that have it, summed
    exactly. The result depends neither on the order in which the spans
    ended (pool threads finish in any order) nor on how many times the same
    set of values repeats (one pass over the inputs or two), so it can be
    compared bit for bit between runs."""
    values = [Fraction(s.counts[key]) for s in spans
              if s.name == name and s.counts and key in s.counts]
    return float(sum(values) / len(values)) if values else 0.0


def calls_under(spans: list[Span], name: str, ancestor: str) -> int:
    """Number of ``name`` spans whose direct parent is an ``ancestor`` span."""
    names = {s.id: s.name for s in spans}
    return sum(1 for s in spans if s.name == name and names.get(s.parent) == ancestor)


def registration_counts(result) -> dict:
    """Counts for one registration span: its branch and fallback reason."""
    counts = {"main": 1.0 if result.branch == MAIN_BRANCH else 0.0}
    if result.fallback_reason is not None:
        counts["fallback." + result.fallback_reason] = 1.0
    return counts


def rigidreg_probes(prefilter_tau: float) -> list[Probe]:
    """The module-level names the pipeline, the safeguard, refinement and
    the suite runner call, with the counts taken at each boundary."""
    return [
        Probe("rigidreg.pipeline", "voxel_downsample", "geometry.voxel_downsample",
              lambda a, k, r: {"points_in": len(a[0]), "points_out": len(r)}),
        Probe("rigidreg.pipeline", "compute_features", "correspondence.compute_features",
              lambda a, k, r: {"points": len(r)}),
        Probe("rigidreg.pipeline", "match_nearest", "correspondence.match_nearest",
              lambda a, k, r: {"matches": len(r)}),
        Probe("rigidreg.pipeline", "weigh", "correspondence.weigh",
              lambda a, k, r: {"weights": len(r),
                               "active": int((r.values > prefilter_tau).sum())}),
        Probe("rigidreg.pipeline", "solve", "procrustes.solve"),
        Probe("rigidreg.pipeline", "refine", "refine.refine",
              lambda a, k, r: {"iterations": r[1].iterations}),
        Probe("rigidreg.pipeline", "ransac_register", "ransac.ransac_register",
              lambda a, k, r: {"consensus": r.inlier_fraction}),
        Probe("rigidreg.ransac", "solve", "procrustes.solve"),
        Probe("rigidreg.refine", "energy", "refine.energy"),
        Probe("rigidreg.refine", "energy_gradient", "refine.energy_gradient"),
        Probe("rigidreg.evaluation", "register", "evaluation.register",
              lambda a, k, r: registration_counts(r)),
        Probe("rigidreg.io", "read_ply", "io.read_ply"),
        Probe("rigidreg.io", "read_pose_json", "io.read_pose_json"),
    ]
