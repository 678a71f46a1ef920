"""End-to-end registration: downsample, describe, match, weigh, then either
the weighted closed-form solve plus robust refinement, or the RANSAC
safeguard when the weight mass is too thin to trust.

The branch decision is the strict test

    inlier_fraction(w, prefilter_tau) < safeguard_tau_s  ->  safeguard.

On the main branch the prefiltered weights phi(w) = I[w > prefilter_tau]*w
feed both the weighted solve and the refinement. A solver degeneracy
(fewer than 3 surviving pairs, collinear weighted geometry) also diverts
to the safeguard with the reason recorded on the result. The main branch
never sees all weights filtered: the weight mass it then has is 0, below
``safeguard_tau_s``.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

from .correspondence import (
    CorrespondenceSet,
    FeatureConfig,
    OracleWeighter,
    UniformWeighter,
    WeightProvider,
    WeightVector,
    _HandOff,
    _describe_pair,
    compute_features,
    match_nearest,
    weigh,
)
from .errors import (
    CoordinateOverflow,
    DegenerateConfiguration,
    EmptyCloud,
    LengthMismatch,
    MissingFeatures,
    NoConsensus,
    RegistrationFailed,
    TooFewCorrespondences,
    _check_count,
    _check_length,
)
from .geometry import PointCloud, voxel_downsample
from .procrustes import normalize_weights, prefilter, solve
from .ransac import RansacConfig, inlier_fraction, ransac_register
from .refine import RefineConfig, refine
from .results import MAIN_BRANCH, RegistrationResult


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the full pipeline, checked when the config is built: an
    invalid value raises ValueError here, not at the first registration.

    ``weighter`` is a provider name: "uniform", "oracle" or "oracle:TAU"
    (the oracle needs a ground-truth transform and is only resolvable
    where one exists, e.g. the synthetic benchmark). Weights
    computed elsewhere enter through :func:`register_with_correspondences`
    instead. ``prefilter_tau`` is the one prefilter threshold: it governs
    weight normalization, the safeguard statistic and, as refinement gets
    the prefiltered weights, which pairs refinement sees. ``seed``, a
    non-negative integer, drives the voxel subsampling draw. The default
    ``ransac`` leaves ``inlier_threshold`` unset: the safeguard then reads
    ``voxel_size`` when it runs, so ``dataclasses.replace(cfg,
    voxel_size=...)`` moves the threshold too.
    """

    feature: FeatureConfig = FeatureConfig()
    weighter: str = "uniform"
    voxel_size: float = 0.05
    safeguard_tau_s: float = 0.05
    prefilter_tau: float = 0.4
    refine: RefineConfig = RefineConfig()
    ransac: RansacConfig = RansacConfig(inlier_threshold=None)
    seed: int = 0

    def __post_init__(self) -> None:
        parse_weighter_spec(self.weighter)
        _check_length("voxel_size", self.voxel_size)
        if not 0.0 < self.safeguard_tau_s < 1.0:
            raise ValueError("safeguard_tau_s must lie in (0, 1)")
        if not 0.0 <= self.prefilter_tau < 1.0:
            raise ValueError("prefilter_tau must lie in [0, 1)")
        _check_count("seed", self.seed)
        for name, kind in (("feature", FeatureConfig), ("refine", RefineConfig),
                           ("ransac", RansacConfig)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")


def parse_weighter_spec(spec: str) -> tuple[str, float | None]:
    """Split a provider name into its kind and argument: ("uniform", None)
    or ("oracle", TAU or None).

    Raises ValueError naming an unknown weighter or an oracle tau that is
    not a finite positive number.
    """
    if not isinstance(spec, str):
        raise ValueError(f"weighter must be a string, got {spec!r}")
    if spec in ("uniform", "oracle"):
        return spec, None
    if spec.startswith("oracle:"):
        try:
            tau = float(spec[len("oracle:"):])
            _check_length("oracle tau", tau)
        except ValueError:
            raise ValueError(
                f"bad oracle tau in {spec!r}: expected a finite positive number"
            ) from None
        return "oracle", tau
    raise ValueError(f"unknown weighter {spec!r} (expected uniform, oracle or oracle:TAU)")


def resolve_weighter(spec: str, ground_truth=None) -> WeightProvider:
    """Instantiate the provider named by a config string."""
    kind, argument = parse_weighter_spec(spec)
    if kind == "uniform":
        return UniformWeighter()
    if ground_truth is None:
        raise ValueError(
            "oracle weighter requires a ground-truth transform; it is only "
            "available where one is known (synthetic benchmarks)"
        )
    if argument is None:
        return OracleWeighter(ground_truth)
    return OracleWeighter(ground_truth, argument)


def worker_count() -> int:
    """Parallelism cap from the DGR_THREADS environment variable; 0 or
    unset means the CPUs this process may run on (its affinity mask, not
    the host's CPU count). It caps :func:`run_benchmark`'s pool, and it
    decides when :func:`register`'s helper thread takes part: only while
    fewer registrations run in the process than this count. At 1,
    :func:`register` describes and matches both clouds on the calling
    thread."""
    raw = os.environ.get("DGR_THREADS", "").strip()
    if raw and not raw.isdecimal():
        raise ValueError(f"DGR_THREADS must be a non-negative integer, got {raw!r}")
    pinned = int(raw or 0)
    if pinned:
        return pinned
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_describer() -> None:
    """Make the helper that takes part in description and matching (one
    long-lived thread, started at its first task) and the count of
    registrations in flight, with its lock. A forked child makes its own:
    it inherits the executor without its thread, and the count and the
    lock as threads that the child does not have left them."""
    global _describer, _running, _running_lock
    _describer = ThreadPoolExecutor(max_workers=1, thread_name_prefix="rigidreg-describe")
    _running = 0
    _running_lock = threading.Lock()


_start_describer()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_describer)


# the fewest points a cloud of the pair needs for the helper to take only
# the work that allocates little (correspondence._describe_pair) rather
# than the whole target, and half of the match scan. A whole cloud on the
# helper leaves its arrays in the helper's malloc arena: on 3.8k-point
# pairs that cost 15 MB (+13 %) of peak RSS for 1-8 % of speed, on
# 700-point pairs about 3 MB (+2.6 %), and there the whole-cloud split
# described the pair faster. There the hand-off of half the match scan
# also cost more than it saved: on 60 such pairs match_nearest took a
# median of 0.35 ms split across the two threads, 0.32 ms in one scan
_CONCURRENT_POINTS = 2000


# coordinates must lie below this in magnitude. The highest power of them
# any stage forms is the safeguard's collinearity test, the squared norm of
# a cross product of two sample edges, below 144 * 2**960 here; so it, and
# every sum of squared distances over a cloud, stays far from overflow
_COORDINATE_LIMIT = 2.0**240


def _check_coordinates(*clouds: PointCloud) -> None:
    """Raise CoordinateOverflow when a coordinate reaches ``_COORDINATE_LIMIT``."""
    for cloud in clouds:
        points = cloud.points
        largest = max(points.max(initial=0.0), -points.min(initial=0.0))
        if largest >= _COORDINATE_LIMIT:
            raise CoordinateOverflow(
                f"a coordinate of magnitude {largest:.3g} reaches 2**240 (about "
                f"{_COORDINATE_LIMIT:.2g}), past which the pipeline's products of "
                "coordinates can overflow float64")


@contextmanager
def _in_flight():
    """Count the calling registration as running until the block ends."""
    global _running
    with _running_lock:
        _running += 1
    try:
        yield
    finally:
        with _running_lock:
            _running -= 1


def _helper_for() -> Executor | None:
    """The helper thread, when it takes part in this registration: while
    fewer registrations run in the process, this one included, than
    :func:`worker_count`. Otherwise None, and the pair is described and
    matched on the calling thread alone: the other registrations already
    keep the cores busy, and there the helper's hand-offs slowed suites of
    1k-point pairs by 3-12 %."""
    # one read of an int: a registration starting or ending meanwhile
    # only moves the decision one way or the other
    if _running >= worker_count():
        return None
    return _describer


def _describe(source: PointCloud, target: PointCloud, feature: FeatureConfig,
              helper: Executor | None, large: bool):
    """Both clouds with features attached. Clouds that carry features keep
    them, renormalized, on the calling thread; a pair where only one does
    raises MissingFeatures naming the other, before either is described.
    Otherwise, with a ``helper`` both clouds are described at once. For a
    ``large`` pair the helper takes only the work that allocates little
    (see ``correspondence._describe_pair``); otherwise it describes the
    whole target while the calling thread describes the source. A task the
    helper has not started is taken back (``correspondence._HandOff``).
    Without a helper each cloud is described in turn on the calling
    thread, the source first."""
    if (source.features is None) != (target.features is None):
        lacking = "source" if source.features is None else "target"
        raise MissingFeatures(f"the {lacking} cloud carries no features but the other does")
    if helper is None or source.features is not None:
        return compute_features(source, feature), compute_features(target, feature)
    if not large:
        with _HandOff(helper) as tasks:
            described_target = tasks.start(compute_features, target, feature)
            return compute_features(source, feature), tasks.finish(described_target)
    source_f, target_f = _describe_pair(source.points, target.points, feature.radius,
                                        feature.bins, helper)
    return source.with_features(source_f), target.with_features(target_f)


def _core(
    matches: CorrespondenceSet,
    weights: WeightVector,
    source: PointCloud,
    target: PointCloud,
    cfg: PipelineConfig,
    stage_seconds: dict,
) -> RegistrationResult:
    fraction = inlier_fraction(weights, cfg.prefilter_tau)
    fallback_reason = None
    if fraction < cfg.safeguard_tau_s:
        fallback_reason = "low_inlier_fraction"
    else:
        try:
            begin = time.perf_counter()
            normalized = normalize_weights(weights, cfg.prefilter_tau)
            matched_x = source.points[matches.pairs[:, 0]]
            matched_y = target.points[matches.pairs[:, 1]]
            solution = solve(matched_x, matched_y, normalized)
            stage_seconds["solve"] = time.perf_counter() - begin

            begin = time.perf_counter()
            transform, trace = refine(
                solution.transform, matches, source, target,
                prefilter(weights, cfg.prefilter_tau), cfg.refine,
            )
            stage_seconds["refine"] = time.perf_counter() - begin
            return RegistrationResult(
                transform=transform,
                branch=MAIN_BRANCH,
                inlier_fraction=fraction,
                trace=trace,
                correspondence_count=len(matches),
                stage_seconds=dict(stage_seconds),
            )
        except (TooFewCorrespondences, DegenerateConfiguration) as exc:
            fallback_reason = type(exc).__name__

    ransac = cfg.ransac
    if ransac.inlier_threshold is None:
        ransac = replace(ransac, inlier_threshold=cfg.voxel_size)
    begin = time.perf_counter()
    try:
        result = ransac_register(matches, source, target, ransac)
    except (TooFewCorrespondences, NoConsensus) as exc:
        raise RegistrationFailed(
            f"safeguard failed after {fallback_reason}: {exc}"
        ) from exc
    stage_seconds["safeguard"] = time.perf_counter() - begin
    return replace(
        result,
        inlier_fraction=fraction,
        fallback_reason=fallback_reason,
        stage_seconds=dict(stage_seconds),
    )


def register(
    source: PointCloud,
    target: PointCloud,
    cfg: PipelineConfig,
    weighter: WeightProvider | None = None,
) -> RegistrationResult:
    """Full pipeline on raw clouds, matched on the features they carry,
    such as learned descriptors, or else on ``local_histogram``.

    ``weighter`` overrides the provider named in the config; callers that
    know a ground truth use it to pass an oracle. A coordinate of magnitude
    2**240 or more, or a voxel cell index outside the int64 range, raises
    CoordinateOverflow.
    """
    _check_coordinates(source, target)
    with _in_flight():
        stage_seconds: dict = {}

        begin = time.perf_counter()
        # the same seed on both clouds makes identical inputs pick identical
        # voxel representatives, so self-registration is exact
        source_d = voxel_downsample(source, cfg.voxel_size, cfg.seed)
        target_d = voxel_downsample(target, cfg.voxel_size, cfg.seed)
        stage_seconds["downsample"] = time.perf_counter() - begin
        if len(source_d) < 3 or len(target_d) < 3:
            raise EmptyCloud("fewer than 3 points survive voxel downsampling")

        helper = _helper_for()
        # only a pair with a cloud of _CONCURRENT_POINTS or more is split
        # to describe and to match; a smaller one is matched here in one scan
        large = max(len(source_d), len(target_d)) >= _CONCURRENT_POINTS
        begin = time.perf_counter()
        source_d, target_d = _describe(source_d, target_d, cfg.feature, helper, large)
        stage_seconds["features"] = time.perf_counter() - begin

        begin = time.perf_counter()
        matches = match_nearest(source_d, target_d, helper if large else None)
        stage_seconds["match"] = time.perf_counter() - begin

        begin = time.perf_counter()
        provider = weighter if weighter is not None else resolve_weighter(cfg.weighter)
        weights = weigh(matches, source_d, target_d, provider)
        stage_seconds["weigh"] = time.perf_counter() - begin

        return _core(matches, weights, source_d, target_d, cfg, stage_seconds)


def register_with_correspondences(
    matches: CorrespondenceSet,
    weights: WeightVector,
    source: PointCloud,
    target: PointCloud,
    cfg: PipelineConfig,
) -> RegistrationResult:
    """Pipeline entry for externally computed matches and weights: skips
    downsampling, description, and matching, then behaves exactly like
    :func:`register` from the safeguard test onward. A coordinate of
    magnitude 2**240 or more raises CoordinateOverflow."""
    if matches.source_size != len(source) or matches.target_size != len(target):
        raise LengthMismatch(
            f"correspondences sized {matches.source_size}x{matches.target_size} "
            f"against clouds {len(source)}x{len(target)}"
        )
    if len(weights) != len(matches):
        raise LengthMismatch(
            f"{len(weights)} weights for {len(matches)} correspondences"
        )
    _check_coordinates(source, target)
    return _core(matches, weights, source, target, cfg, {})
