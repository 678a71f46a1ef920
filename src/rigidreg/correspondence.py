"""Putative correspondence generation and confidence weighting.

Matching is exact nearest neighbor in feature space, one match per source
point. Weights come from pluggable providers so externally computed
likelihoods (e.g. a learned matcher's output) can drive the same pipeline
as the built-in heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np
from numpy.typing import NDArray
from scipy.sparse import coo_array
from scipy.spatial import cKDTree

from .errors import (
    DimensionMismatch,
    EmptyCloud,
    MissingFeatures,
    WeightLengthMismatch,
    _check_count,
    _check_length,
)
from .geometry import F64, PointCloud, RigidTransform, SpatialIndex

_DESCRIPTORS = ("local_histogram", "precomputed")


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrespondenceSet:
    """Index pairs (i, j) linking a source cloud of ``source_size`` points
    to a target cloud of ``target_size`` points; each source index appears
    at most once."""

    pairs: NDArray[np.int64]
    source_size: int
    target_size: int

    def __post_init__(self) -> None:
        p = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        if self.source_size < 0 or self.target_size < 0:
            raise ValueError("cloud sizes must be non-negative")
        if p.shape[0] > 0:
            if p[:, 0].min() < 0 or p[:, 0].max() >= self.source_size:
                raise ValueError("source index out of range")
            if p[:, 1].min() < 0 or p[:, 1].max() >= self.target_size:
                raise ValueError("target index out of range")
            if np.unique(p[:, 0]).size != p.shape[0]:
                raise ValueError("duplicate source index in correspondence set")
        p.flags.writeable = False
        object.__setattr__(self, "pairs", p)

    def __len__(self) -> int:
        return self.pairs.shape[0]


@dataclass(frozen=True)
class WeightVector:
    """Per-correspondence confidence values in [0, 1]."""

    values: NDArray[F64]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError("weights must be finite")
        if v.size and (v.min() < 0.0 or v.max() > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class FeatureConfig:
    """Descriptor choice and its parameters.

    ``local_histogram`` is invariant to translation and rotation: a
    ``bins``-bin histogram of neighbor distances plus the three normalized
    eigenvalues of the neighborhood covariance (``bins + 3`` dims). The
    neighbors of a point are the points within ``radius`` of it, inclusive.
    A neighbor at distance d goes to bin ``floor(d / radius * bins)``,
    clamped to ``bins - 1``, so a distance equal to ``radius`` goes to the
    last bin; the point itself counts once in bin 0. ``radius`` must be
    finite and positive, ``bins`` an integer of at least 2.
    ``precomputed`` renormalizes features already attached to the cloud,
    such as learned descriptors. Only a Python caller can attach them:
    config files and benchmark suites refuse it, since clouds read from
    files or generated for a suite carry no features.
    """

    descriptor: str = "local_histogram"
    radius: float = 0.25
    bins: int = 8

    def __post_init__(self) -> None:
        if self.descriptor not in _DESCRIPTORS:
            raise ValueError(f"unknown descriptor {self.descriptor!r}")
        _check_length("radius", self.radius)
        _check_count("bins", self.bins, 2)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def _normalize_rows(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    # zero rows stay zero rather than dividing by zero
    return np.where(norms > 0.0, a / np.where(norms > 0.0, norms, 1.0), 0.0)


def _local_histogram(points: np.ndarray, radius: float, bins: int) -> np.ndarray:
    n = points.shape[0]
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    e = pairs.shape[0]
    a, b = pairs[:, 0], pairs[:, 1]
    planes = np.ascontiguousarray(points.T)

    # distance histogram and neighbor count, taken from the pair list: the
    # squared pair distances are summed x, y, then z, and the bins are
    # integer sums, exact in any order. The query point itself occupies
    # bin 0, so the histogram never comes back empty and the normalization
    # below is well defined. Spent pair-sized arrays are freed or
    # overwritten, which keeps peak memory low on dense clouds.
    d = np.zeros(e)
    for plane in planes:
        diff = plane[a]
        diff -= plane[b]
        d += np.square(diff, out=diff)
    del diff
    slot = np.minimum((np.sqrt(d, out=d) / radius * bins).astype(np.int64), bins - 1)
    del d
    key = a * bins + slot
    hist = np.bincount(key, minlength=n * bins)
    np.multiply(b, bins, out=key)
    key += slot
    hist += np.bincount(key, minlength=n * bins)
    del key, slot
    hist = hist.reshape(n, bins)
    hist[:, 0] += 1
    count = hist.sum(axis=1)

    # neighborhood first and second moments for the covariance eigenvalues,
    # all nine sums (x, y, z, xx, xy, xz, yy, yz, zz) in one product of the
    # adjacency with the per-point columns. These float sums depend on the
    # order of their terms. scipy's COO product starts each output row from
    # 0.0 and adds its entries in stored order, so storing each point with
    # itself, then each pair as (a, b), then as (b, a) keeps every sum
    # bit-identical to starting from the point's value and adding the pairs
    # one by one; reorder the entries and the descriptor changes in its
    # last bits. The pair list is freed before the entries' data is made.
    own = np.arange(n)
    row = np.concatenate([own, a, b], dtype=np.int32)
    col = np.concatenate([own, b, a], dtype=np.int32)
    del pairs, a, b
    adjacency = coo_array((np.ones(n + 2 * e), (row, col)), shape=(n, n))
    del row, col
    x, y, z = planes
    sums = adjacency @ np.column_stack([x, y, z, x * x, x * y, x * z, y * y, y * z, z * z])
    del adjacency
    first = sums[:, :3]
    second = sums[:, [3, 4, 5, 4, 6, 7, 5, 7, 8]].reshape(n, 3, 3)

    hist = hist / count[:, None]
    mean = first / count[:, None]
    cov = second / count[:, None, None] - np.einsum("ni,nj->nij", mean, mean)
    eig = np.linalg.eigvalsh(cov)[:, ::-1]
    eig = np.clip(eig, 0.0, None)  # clip tiny negative rounding artifacts
    total = eig.sum(axis=1, keepdims=True)
    eig = np.where(total > 0.0, eig / np.where(total > 0.0, total, 1.0), 0.0)

    return _normalize_rows(np.concatenate([hist, eig], axis=1))


def compute_features(cloud: PointCloud, cfg: FeatureConfig) -> PointCloud:
    """Attach a unit-norm descriptor to every point; deterministic given
    inputs, down to the last bit.

    ``local_histogram`` finds each point's neighbors with one k-d tree
    pair query and sums their moments with one sparse product whose terms
    are added in a fixed order. ``precomputed`` raises ``MissingFeatures``
    when the cloud has no features attached.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot compute features on an empty cloud")
    if cfg.descriptor == "local_histogram":
        feats = _local_histogram(cloud.points, cfg.radius, cfg.bins)
    else:  # precomputed
        if cloud.features is None:
            raise MissingFeatures("precomputed descriptor requires attached features")
        feats = _normalize_rows(cloud.features)
    return cloud.with_features(feats)


# ---------------------------------------------------------------------------
# matching and labeling
# ---------------------------------------------------------------------------

def match_nearest(source: PointCloud, target: PointCloud) -> CorrespondenceSet:
    """One correspondence per source point: its exact nearest neighbor in
    feature space (ties to the lowest target index).

    The search is one :class:`SpatialIndex` scan, O(n * m * D) for n source
    and m target descriptors of dimension D, in blocks of at most ``2**16``
    distances.
    """
    if source.features is None or target.features is None:
        raise MissingFeatures("both clouds need features before matching")
    if source.features.shape[1] != target.features.shape[1]:
        raise DimensionMismatch(
            f"feature dimensions differ: {source.features.shape[1]} vs "
            f"{target.features.shape[1]}"
        )
    index = SpatialIndex(target.features)
    nearest, _ = index.query(source.features)
    pairs = np.column_stack([np.arange(len(source), dtype=np.int64), nearest])
    return CorrespondenceSet(pairs, len(source), len(target))


def label_inliers(
    matches: CorrespondenceSet,
    source: PointCloud,
    target: PointCloud,
    true_transform: RigidTransform,
    tau: float,
) -> NDArray[np.bool_]:
    """Flag each pair whose residual under the true transform is < tau, as
    a read-only boolean mask."""
    _check_length("tau", tau)
    mapped = true_transform.apply(source.points[matches.pairs[:, 0]])
    residual = np.linalg.norm(mapped - target.points[matches.pairs[:, 1]], axis=1)
    labels = residual < tau
    labels.flags.writeable = False
    return labels


# ---------------------------------------------------------------------------
# weight providers
# ---------------------------------------------------------------------------

@runtime_checkable
class WeightProvider(Protocol):
    """Maps a correspondence set to per-pair confidences in [0, 1]."""

    def __call__(
        self, matches: CorrespondenceSet, source: PointCloud, target: PointCloud
    ) -> NDArray[F64]: ...


class UniformWeighter:
    """Every correspondence gets weight 1."""

    def __call__(self, matches, source, target):
        return np.ones(len(matches), dtype=np.float64)


class OracleWeighter:
    """Weight 1 for pairs that are inliers under a known true transform,
    0 otherwise. Useful for synthetic evaluation where the truth is known."""

    def __init__(self, true_transform: RigidTransform, tau: float = 0.1):
        _check_length("tau", tau)
        self.true_transform = true_transform
        self.tau = float(tau)

    def __call__(self, matches, source, target):
        labels = label_inliers(matches, source, target, self.true_transform, self.tau)
        return labels.astype(np.float64)


class HeuristicWeighter:
    """Reciprocity times a ratio-test score.

    The reciprocity indicator is 1 when the matched target point's nearest
    source feature is the pair's own source point. The ratio score is
    1 - d1/d2 clamped to [0, 1], where d1 is the pair's feature distance and
    d2 the source feature's second-nearest distance in the target cloud; an
    exact feature match scores 1 regardless of competitors.
    """

    def __call__(self, matches, source, target):
        if source.features is None or target.features is None:
            raise MissingFeatures("heuristic weighting needs features on both clouds")
        if len(matches) == 0:
            return np.zeros(0, dtype=np.float64)
        si = matches.pairs[:, 0]
        ti = matches.pairs[:, 1]
        fs = source.features[si]
        ft = target.features[ti]
        d1 = np.linalg.norm(fs - ft, axis=1)

        forward = SpatialIndex(target.features)
        _, d2 = forward.query_two(fs)

        reverse = SpatialIndex(source.features)
        back, _ = reverse.query(target.features[ti])
        reciprocal = (back == si).astype(np.float64)

        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(d2 > 0.0, d1 / d2, np.where(d1 == 0.0, 0.0, np.inf))
        ratio = np.where(d1 == 0.0, 0.0, ratio)
        score = np.clip(1.0 - ratio, 0.0, 1.0)
        return reciprocal * score


def weigh(
    matches: CorrespondenceSet,
    source: PointCloud,
    target: PointCloud,
    provider: WeightProvider,
) -> WeightVector:
    """Run a weight provider and validate its output length and range."""
    values = np.asarray(provider(matches, source, target), dtype=np.float64)
    if values.shape != (len(matches),):
        raise WeightLengthMismatch(
            f"provider produced {values.shape[0] if values.ndim == 1 else 'non-1d'} "
            f"weights for {len(matches)} correspondences"
        )
    return WeightVector(values)

