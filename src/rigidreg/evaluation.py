"""Pose-error metrics, synthetic scan-pair generation, suite files, and a
benchmark harness with recall reporting.

Rotation error is the geodesic angle arccos((Tr(R̂ᵀR*) - 1)/2); translation
error is the Euclidean distance ||t̂ - t*||. A pair counts as a success when
both errors are strictly below their thresholds; mean errors aggregate over
the successes only, so recall alone reflects the failures.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from . import io  # readers looked up at call time, so wrappers of them see every read
from .correspondence import CorrespondenceSet, FeatureConfig
from .errors import FileFormatError, RegistrationError, _check_count, _check_length
from .geometry import F64, PointCloud, RigidTransform
from .pipeline import PipelineConfig, register, resolve_weighter, worker_count
from .refine import RefineConfig
from .results import RegistrationResult

# default sweep grids for the recall-vs-threshold curves
_RE_GRID_DEG = tuple(float(x) for x in np.linspace(0.0, 30.0, 61))
_TE_GRID_M = tuple(float(x) for x in np.linspace(0.0, 0.6, 61))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def rotation_error(r_hat: np.ndarray, r_star: np.ndarray) -> float:
    """Geodesic angle between two rotations, in radians within [0, pi].

    The trace argument is clamped to [-1, 1]; floating-point products can
    exceed the bound by a few ulps.
    """
    r_hat = np.asarray(r_hat, dtype=np.float64)
    r_star = np.asarray(r_star, dtype=np.float64)
    c = (np.trace(r_hat.T @ r_star) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def translation_error(t_hat: np.ndarray, t_star: np.ndarray) -> float:
    """Euclidean distance between translations, in meters."""
    return float(np.linalg.norm(np.asarray(t_hat, float) - np.asarray(t_star, float)))


@dataclass(frozen=True)
class PairMetrics:
    re: float  # radians
    te: float  # meters
    success: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.re <= math.pi + 1e-12:
            raise ValueError("re must lie in [0, pi]")
        if self.te < 0.0:
            raise ValueError("te must be non-negative")


def pair_metrics(
    estimate: RigidTransform,
    truth: RigidTransform,
    re_threshold: float,
    te_threshold: float,
) -> PairMetrics:
    """Errors of an estimated pose against the truth, with the strict
    two-threshold success test."""
    re = rotation_error(estimate.rotation, truth.rotation)
    te = translation_error(estimate.translation, truth.translation)
    return PairMetrics(re, te, re < re_threshold and te < te_threshold)


# ---------------------------------------------------------------------------
# synthetic pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticPairSpec:
    """Recipe for one synthetic scan pair.

    ``transform_magnitude`` bounds the true motion as (max rotation angle in
    radians, max translation in meters). ``outlier_ratio`` is the fraction
    of target points replaced by uniform noise in the target bounding box.
    """

    n_points: int = 500
    overlap_ratio: float = 0.8
    noise_sigma: float = 0.0
    outlier_ratio: float = 0.0
    transform_magnitude: tuple[float, float] = (math.pi, 1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        _check_count("n_points", self.n_points, 10)
        if not 0.0 <= self.overlap_ratio <= 1.0:
            raise ValueError("overlap_ratio must lie in [0, 1]")
        if not 0.0 <= self.outlier_ratio <= 1.0:
            raise ValueError("outlier_ratio must lie in [0, 1]")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and non-negative")
        try:
            rotation, translation = self.transform_magnitude
        except (TypeError, ValueError):
            rotation = translation = math.nan
        if not (0.0 <= rotation < math.inf and 0.0 <= translation < math.inf):
            raise ValueError(
                "transform_magnitude must be two finite, non-negative numbers, "
                f"got {self.transform_magnitude!r}"
            )
        _check_count("seed", self.seed)


@dataclass(frozen=True)
class SyntheticPair:
    """Generated pair with full provenance.

    ``correspondences`` pairs every target point that originated from a
    source point with that source point, including the ones later replaced
    by outliers; ``inlier_mask`` flags which of those pairs survived intact.
    """

    source: PointCloud
    target: PointCloud
    transform: RigidTransform
    correspondences: CorrespondenceSet
    inlier_mask: NDArray[np.bool_]


@dataclass(frozen=True)
class FilePairSpec:
    """A pair loaded from disk: two clouds plus a ground-truth pose file."""

    source_path: str
    target_path: str
    pose_path: str


def _random_rotation(rng: np.random.Generator, max_angle: float) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle) if max_angle > 0 else 0.0
    K = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def _patch_cloud(rng: np.random.Generator, count: int) -> np.ndarray:
    """Union of random planar patches: surface-like, with enough distinct
    orientations that the covariance has full rank."""
    n_patches = 6
    per = np.full(n_patches, count // n_patches)
    per[: count % n_patches] += 1
    pieces = []
    for k in range(n_patches):
        center = rng.uniform(-1.0, 1.0, 3)
        basis = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :2]
        extent = rng.uniform(0.3, 1.0, 2)
        uv = rng.uniform(-0.5, 0.5, (per[k], 2)) * extent
        pieces.append(center + uv @ basis.T)
    return np.concatenate(pieces, axis=0)


# draws an outlier may take to land clear of its true position
_OUTLIER_DRAWS = 100


def _clear_of(candidates: np.ndarray, targets: np.ndarray, clearance: float) -> NDArray[np.bool_]:
    """Whether each candidate row lies farther than ``clearance`` from its
    target row (or from one target vector), decided for every row exactly
    as ``np.linalg.norm(candidate - target) > clearance`` decides it.

    The row norms over ``axis=1`` sum the squares in another order than
    the 1-D norm, so the two can differ in the last bit; each lies within
    two units of roundoff of the true distance, relative. Rows within 8
    machine epsilons of the clearance, relative, are decided again by the
    1-D norm.
    """
    d = candidates - targets
    distance = np.linalg.norm(d, axis=1)
    clear = distance > clearance
    close = np.abs(distance - clearance) <= 8 * np.finfo(np.float64).eps * clearance
    for row in np.flatnonzero(close):
        clear[row] = np.linalg.norm(d[row]) > clearance
    return clear


def _place_outliers(rng: np.random.Generator, targets: np.ndarray, low: np.ndarray,
                    high: np.ndarray, clearance: float) -> np.ndarray:
    """A uniform point of the box [low, high) for each target row, clear of
    it by :func:`_clear_of`: each row takes the first of up to 100 draws
    that is clear, or the 100th draw if none is.

    The rows take their draws from ``rng`` one triple at a time in row
    order, so the points equal those of a loop that calls
    ``rng.uniform(low, high)`` for each draw, bit for bit. The triples are
    drawn in blocks and tested together; after a row refuses one, that row
    tests the next 99 at once, and the rows after it go on from the first
    triple it left. Triples drawn past the last one used are lost, so no
    draw from ``rng`` may follow this call.
    """
    placed = np.empty_like(targets)
    # drawn but not yet used, in the order rng gave them
    ahead = np.empty((0, 3))
    row = 0
    while row < len(targets):
        # a triple for each row left, and the retries of the first to refuse one
        left = len(targets) - row
        if len(ahead) < left + _OUTLIER_DRAWS:
            fresh = rng.uniform(low, high, size=(left + _OUTLIER_DRAWS - len(ahead), 3))
            ahead = np.concatenate([ahead, fresh])
        clear = _clear_of(ahead[:left], targets[row:], clearance)
        taken = left if clear.all() else int(clear.argmin())
        placed[row:row + taken] = ahead[:taken]
        ahead = ahead[taken:]
        row += taken
        if row < len(targets):
            # the row refused ahead[0]; its retries are the triples after it
            retries = _clear_of(ahead[1:_OUTLIER_DRAWS], targets[row], clearance)
            used = 2 + int(retries.argmax()) if retries.any() else _OUTLIER_DRAWS
            placed[row] = ahead[used - 1]
            ahead = ahead[used:]
            row += 1
    return placed


def generate_pair(spec: SyntheticPairSpec) -> SyntheticPair:
    """Deterministic synthetic pair: a patchwork surface, a rigid motion, a
    partial-overlap target with optional Gaussian noise, and outliers with
    a clearance from their true position so construction labels stay exact.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_points
    shared_count = int(round(spec.overlap_ratio * n))
    extra = n - shared_count

    base = _patch_cloud(rng, n + extra)
    source_points = base[:n]
    shared_idx = rng.choice(n, size=shared_count, replace=False)

    R = _random_rotation(rng, spec.transform_magnitude[0])
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    t = direction * rng.uniform(0.0, spec.transform_magnitude[1])
    transform = RigidTransform(R, t)

    target_pre = np.concatenate([source_points[shared_idx], base[n:]], axis=0)
    origin = np.concatenate([shared_idx, np.full(extra, -1, dtype=np.int64)])
    perm = rng.permutation(n)
    target_pre = target_pre[perm]
    origin = origin[perm]

    target_points = transform.apply(target_pre)
    if spec.noise_sigma > 0:
        target_points = target_points + rng.normal(
            scale=spec.noise_sigma, size=target_points.shape
        )

    outlier_count = int(round(spec.outlier_ratio * n))
    replaced = np.zeros(n, dtype=bool)
    if outlier_count > 0:
        chosen = rng.choice(n, size=outlier_count, replace=False)
        low = target_points.min(axis=0)
        high = target_points.max(axis=0)
        # keep outliers clear of the position they would have to hit to be
        # mistaken for inliers, so labels derived from the construction and
        # labels derived from residuals agree
        clearance = max(0.2, 10.0 * spec.noise_sigma)
        # the last read of rng: _place_outliers may draw triples it never
        # uses, so a draw added after it would read other values than the
        # one-draw-at-a-time loop it replaces, and the tests that compare
        # pairs with that loop (tests/_oracles.py) would fail
        target_points[chosen] = _place_outliers(
            rng, target_points[chosen], low, high, clearance)
        replaced[chosen] = True

    paired = origin >= 0
    pairs = np.column_stack([origin[paired], np.flatnonzero(paired)])
    correspondences = CorrespondenceSet(pairs, n, n)
    inlier_mask = ~replaced[pairs[:, 1]]
    inlier_mask.flags.writeable = False

    return SyntheticPair(
        source=PointCloud(source_points),
        target=PointCloud(target_points),
        transform=transform,
        correspondences=correspondences,
        inlier_mask=inlier_mask,
    )


# ---------------------------------------------------------------------------
# suite files
# ---------------------------------------------------------------------------

# suite-file key -> (SyntheticPairSpec field, or a side of its
# transform_magnitude; parser of the value)
_SYNTHETIC_KEYS = {
    "n_points": ("n_points", int),
    "overlap": ("overlap_ratio", float),
    "noise": ("noise_sigma", float),
    "outliers": ("outlier_ratio", float),
    "max_rotation": ("max_rotation", float),
    "max_translation": ("max_translation", float),
    "seed": ("seed", int),
}


def parse_suite_file(path):
    """Parse a benchmark suite: one pair per line.

    ``synthetic key=value ...`` describes a generated pair (keys: n_points,
    overlap, noise, outliers, max_rotation, max_translation, seed; seed
    defaults to the pair's position in the suite). ``files source=A
    target=B pose=GT.json`` references clouds on disk, resolved relative to
    the suite file; referenced files must exist at parse time.
    """
    path = os.fspath(path)
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")

    entries = []
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{path}:{index + 1}"
        tokens = stripped.split()
        kind, args = tokens[0], tokens[1:]
        fields = {}
        for token in args:
            if "=" not in token:
                raise FileFormatError(f"{where}: expected key=value, got {token!r}")
            key, _, value = token.partition("=")
            if key in fields:
                raise FileFormatError(f"{where}: duplicate key {key!r}")
            fields[key] = value

        if kind == "synthetic":
            kwargs = {"seed": len(entries)}
            for key, value in fields.items():
                if key not in _SYNTHETIC_KEYS:
                    raise FileFormatError(f"{where}: unknown key {key!r}")
                name, parse = _SYNTHETIC_KEYS[key]
                try:
                    kwargs[name] = parse(value)
                except ValueError:
                    raise FileFormatError(
                        f"{where}: cannot parse {value!r} for {key!r}"
                    ) from None
            # a side left out keeps the spec's default
            rotation, translation = SyntheticPairSpec.transform_magnitude
            kwargs["transform_magnitude"] = (
                kwargs.pop("max_rotation", rotation), kwargs.pop("max_translation", translation)
            )
            try:
                entries.append(SyntheticPairSpec(**kwargs))
            except ValueError as exc:
                raise FileFormatError(f"{where}: {exc}") from None
        elif kind == "files":
            missing = {"source", "target", "pose"} - set(fields)
            if missing:
                raise FileFormatError(
                    f"{where}: missing {', '.join(sorted(missing))}"
                )
            extra = set(fields) - {"source", "target", "pose"}
            if extra:
                raise FileFormatError(f"{where}: unknown key {sorted(extra)[0]!r}")
            resolved = {
                key: os.path.join(base, value) for key, value in fields.items()
            }
            for key in ("source", "target", "pose"):
                if not os.path.isfile(resolved[key]):
                    raise FileFormatError(
                        f"{where}: {key} file not found: {resolved[key]}"
                    )
            entries.append(
                FilePairSpec(resolved["source"], resolved["target"], resolved["pose"])
            )
        else:
            raise FileFormatError(f"{where}: unknown pair kind {kind!r}")

    if not entries:
        raise FileFormatError(f"{path}: suite contains no pairs")
    return entries


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairRecord:
    """One benchmark row; ``re``/``te`` are None when registration raised
    instead of returning a pose."""

    pair_id: int
    branch: str | None
    re: float | None
    te: float | None
    success: bool
    error: str | None


@dataclass(frozen=True)
class BenchmarkReport:
    records: tuple[PairRecord, ...]
    recall: float
    mean_re: float | None
    mean_te: float | None
    branch_counts: Mapping[str, int]
    re_curve: tuple[tuple[float, float], ...]  # (threshold radians, recall)
    te_curve: tuple[tuple[float, float], ...]  # (threshold meters, recall)
    re_threshold: float
    te_threshold: float
    stage_seconds: Mapping[str, float]
    total_seconds: float


@dataclass(frozen=True)
class Preset:
    """A pipeline configuration bundled with its success thresholds."""

    name: str
    pipeline: PipelineConfig
    re_threshold: float  # radians
    te_threshold: float  # meters


def indoor_preset() -> Preset:
    """Room-scale scans: 5 cm voxels, success within 15 degrees / 30 cm."""
    return Preset(
        name="indoor",
        pipeline=PipelineConfig(voxel_size=0.05),
        re_threshold=math.radians(15.0),
        te_threshold=0.30,
    )


def outdoor_preset() -> Preset:
    """Street-scale scans: every length of :func:`indoor_preset` times 6
    (30 cm voxels, 1.5 m descriptor radius, 30 cm Huber width), success
    within 5 degrees / 60 cm."""
    return Preset(
        name="outdoor",
        pipeline=PipelineConfig(
            feature=FeatureConfig(radius=1.5),
            voxel_size=0.30,
            refine=RefineConfig(huber_delta=0.30),
        ),
        re_threshold=math.radians(5.0),
        te_threshold=0.60,
    )


PRESETS = {"indoor": indoor_preset, "outdoor": outdoor_preset}


def _materialize(entry):
    """Turn a suite entry into (source, target, ground_truth)."""
    if isinstance(entry, SyntheticPairSpec):
        pair = generate_pair(entry)
        return pair.source, pair.target, pair.transform
    if isinstance(entry, FilePairSpec):
        return (
            io.read_ply(entry.source_path),
            io.read_ply(entry.target_path),
            io.read_pose_json(entry.pose_path),
        )
    raise TypeError(f"unsupported suite entry {type(entry).__name__}")


def _failed(pair_id: int, exc: Exception):
    # numpy raises a private subclass of MemoryError; the row names the builtin
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    return PairRecord(pair_id, None, None, None, False, name), {}


def _run_one(pair_id: int, entry, cfg: PipelineConfig, re_t: float, te_t: float,
             weighter=None):
    # a pair whose files are missing or malformed, or a synthetic pair too
    # large to allocate, is a failed row, not the end of the suite;
    # programming errors still propagate
    try:
        source, target, truth = _materialize(entry)
    except (RegistrationError, OSError) as exc:
        return _failed(pair_id, exc)
    except (MemoryError, ValueError) as exc:
        # numpy refusing to allocate: a MemoryError, or the ValueError it
        # raises for a size past its index range
        too_large = isinstance(exc, MemoryError) or str(exc).startswith("array is too big")
        if not (isinstance(entry, SyntheticPairSpec) and too_large):
            raise
        return _failed(pair_id, exc)
    try:
        if weighter is None:
            weighter = resolve_weighter(cfg.weighter, ground_truth=truth)
        result: RegistrationResult = register(source, target, cfg, weighter=weighter)
    except (RegistrationError, OSError) as exc:
        return _failed(pair_id, exc)
    metrics = pair_metrics(result.transform, truth, re_t, te_t)
    record = PairRecord(
        pair_id, result.branch, metrics.re, metrics.te, metrics.success, None
    )
    return record, dict(result.stage_seconds or {})


def _recall_curve(records, grid, key) -> tuple[tuple[float, float], ...]:
    n = len(records)
    points = []
    for threshold in grid:
        hits = sum(
            1
            for rec in records
            if getattr(rec, key) is not None and getattr(rec, key) < threshold
        )
        points.append((float(threshold), hits / n))
    return tuple(points)


def run_benchmark(
    suite: Sequence[SyntheticPairSpec | FilePairSpec],
    cfg: PipelineConfig,
    re_threshold: float,
    te_threshold: float,
    weighter=None,
) -> BenchmarkReport:
    """Register every pair in the suite and aggregate recall and errors.

    Per-pair failures (a registration error, or a pair file that is
    missing or malformed) are recorded as unsuccessful rows whose
    ``error`` is the exception's class name; the suite always runs to
    completion. Pairs are evaluated in parallel up to
    :func:`worker_count` threads, with aggregation independent of schedule.
    An explicit ``weighter`` overrides ``cfg.weighter`` for every pair, same
    as in :func:`register`. A success threshold that is not finite and
    positive is refused before any pair is read.
    """
    if len(suite) == 0:
        raise ValueError("benchmark suite is empty")
    _check_length("re_threshold", re_threshold)
    _check_length("te_threshold", te_threshold)
    begin = time.perf_counter()

    with ThreadPoolExecutor(max_workers=min(worker_count(), len(suite))) as pool:
        outcomes = list(
            pool.map(
                lambda item: _run_one(
                    item[0], item[1], cfg, re_threshold, te_threshold, weighter
                ),
                enumerate(suite),
            )
        )

    records = tuple(rec for rec, _ in outcomes)
    stage_totals: dict[str, float] = {}
    for _, stages in outcomes:
        for name, seconds in stages.items():
            stage_totals[name] = stage_totals.get(name, 0.0) + seconds

    successes = [rec for rec in records if rec.success]
    recall = len(successes) / len(records)
    mean_re = float(np.mean([rec.re for rec in successes])) if successes else None
    mean_te = float(np.mean([rec.te for rec in successes])) if successes else None

    branch_counts: dict[str, int] = {}
    for rec in records:
        name = rec.branch if rec.branch is not None else "failed"
        branch_counts[name] = branch_counts.get(name, 0) + 1

    re_curve = _recall_curve(records, [math.radians(x) for x in _RE_GRID_DEG], "re")
    te_curve = _recall_curve(records, _TE_GRID_M, "te")

    return BenchmarkReport(
        records=records,
        recall=recall,
        mean_re=mean_re,
        mean_te=mean_te,
        branch_counts=branch_counts,
        re_curve=re_curve,
        te_curve=te_curve,
        re_threshold=re_threshold,
        te_threshold=te_threshold,
        stage_seconds=stage_totals,
        total_seconds=time.perf_counter() - begin,
    )
