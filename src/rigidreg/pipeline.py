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
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, replace

from .correspondence import (
    CorrespondenceSet,
    FeatureConfig,
    OracleWeighter,
    UniformWeighter,
    WeightProvider,
    WeightVector,
    compute_features,
    match_nearest,
    weigh,
)
from .errors import (
    DegenerateConfiguration,
    EmptyCloud,
    LengthMismatch,
    MissingFeatures,
    NoConsensus,
    RegistrationFailed,
    TooFewCorrespondences,
    _check_count,
    _check_length,
    _check_ratio,
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
        _check_ratio("safeguard_tau_s", self.safeguard_tau_s, "(0, 1)")
        _check_ratio("prefilter_tau", self.prefilter_tau, "[0, 1)")
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
    """Make the helper that takes part in description (one long-lived
    thread, started at its first task) and the count of registrations in
    flight, with its lock. A forked child makes its own: it inherits the
    executor without its thread, and the count and the lock as threads
    that the child does not have left them."""
    global _describer, _running, _running_lock
    _describer = ThreadPoolExecutor(max_workers=1, thread_name_prefix="rigidreg-describe")
    _running = 0
    _running_lock = threading.Lock()


_start_describer()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_describer)


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
    keep the cores busy. Taking the helper whenever :func:`worker_count`
    is above 1 instead ran ``safeguard_suite`` slower in 6 of 8 alternating
    10 s pairs of runs on a 2-vCPU VM (median 71.0 -> 68.9 pairs/s)."""
    # one read of an int: a registration starting or ending meanwhile
    # only moves the decision one way or the other
    if _running >= worker_count():
        return None
    return _describer


def _describe(source: PointCloud, target: PointCloud, feature: FeatureConfig,
              helper: Executor | None):
    """Both clouds with features attached. Clouds that carry features keep
    them, renormalized, on the calling thread; a pair where only one does
    raises MissingFeatures naming the other, before either is described.
    Otherwise, with a ``helper`` both clouds are described at once: the
    helper describes the whole target while the calling thread describes
    the source. A target the helper has not started, as another
    registration keeps it busy, is taken back and described here; either
    way this returns, or raises, only once the helper is done with it.
    Without a helper each cloud is described in turn on the calling
    thread, the source first. The features are the same on every schedule."""
    if (source.features is None) != (target.features is None):
        lacking = "source" if source.features is None else "target"
        raise MissingFeatures(f"the {lacking} cloud carries no features but the other does")
    if helper is None or source.features is not None:
        return compute_features(source, feature), compute_features(target, feature)
    target_task = helper.submit(compute_features, target, feature)
    try:
        described_source = compute_features(source, feature)
    finally:
        if not target_task.cancel():
            wait([target_task])
    if target_task.cancelled():
        return described_source, compute_features(target, feature)
    return described_source, target_task.result()


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
            solution = solve(*matches.matched(source, target), normalized)
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
    know a ground truth use it to pass an oracle. A voxel cell index
    outside the int64 range raises CoordinateOverflow, as a cloud with a
    coordinate of magnitude 2**240 or more did when it was built.
    """
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

        begin = time.perf_counter()
        source_d, target_d = _describe(source_d, target_d, cfg.feature, _helper_for())
        stage_seconds["features"] = time.perf_counter() - begin

        begin = time.perf_counter()
        matches = match_nearest(source_d, target_d)
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
    :func:`register` from the safeguard test onward. Clouds of other sizes
    than ``matches`` was built for raise LengthMismatch on either branch; a
    coordinate of 2**240 or more raised CoordinateOverflow when its cloud was built."""
    if len(weights) != len(matches):
        raise LengthMismatch(
            f"{len(weights)} weights for {len(matches)} correspondences"
        )
    return _core(matches, weights, source, target, cfg, {})
