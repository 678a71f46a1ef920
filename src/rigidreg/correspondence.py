"""Putative correspondence generation and confidence weighting.

Matching is exact nearest neighbor in feature space, one match per source
point. Weights come from pluggable providers so externally computed
likelihoods (e.g. a learned matcher's output) can drive the same pipeline
as the built-in uniform and oracle weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionMismatch,
    EmptyCloud,
    LengthMismatch,
    MissingFeatures,
    WeightLengthMismatch,
    _check_count,
    _check_length,
)
from .geometry import F64, PointCloud, Points, RigidTransform, SpatialIndex, _Deferred, _readonly

# only description needs scipy
cKDTree = _Deferred("scipy.spatial", "cKDTree")
coo_array = _Deferred("scipy.sparse", "coo_array")

# neighbor pairs per chunk of the distance histogram: its temporaries then
# take about 1 MB; 2**13 to 2**16 ran within 20 % of each other, and this
# size was the fastest on the benchmark's dense clouds
_HISTOGRAM_CHUNK = 2**14


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrespondenceSet:
    """Index pairs (i, j), kept as a read-only int64 copy, that link a source cloud of
    ``source_size`` points to a target cloud of ``target_size`` points; each source index
    appears at most once. An index that is not a whole number raises ValueError."""

    pairs: NDArray[np.int64]
    source_size: int
    target_size: int

    def __post_init__(self) -> None:
        p = np.asarray(self.pairs)
        if p.dtype.kind not in "biu":
            p = np.asarray(p, dtype=np.float64)
            # nan fails this test; inf passes it and fails the range test
            if not np.all(np.floor(p) == p):
                raise ValueError("correspondence indices must be whole numbers")
        p = p.reshape(-1, 2)
        if self.source_size < 0 or self.target_size < 0:
            raise ValueError("cloud sizes must be non-negative")
        if p.shape[0] > 0:
            if p[:, 0].min() < 0 or p[:, 0].max() >= self.source_size:
                raise ValueError("source index out of range")
            if p[:, 1].min() < 0 or p[:, 1].max() >= self.target_size:
                raise ValueError("target index out of range")
            # a strictly increasing column, as matching makes it, has no
            # duplicate; any other is sorted to find them
            increasing = bool(np.all(p[1:, 0] > p[:-1, 0]))
            if not increasing and np.unique(p[:, 0]).size != p.shape[0]:
                raise ValueError("duplicate source index in correspondence set")
        object.__setattr__(self, "pairs", _readonly(p, np.int64))

    def __len__(self) -> int:
        return self.pairs.shape[0]

    def matched(self, source: PointCloud, target: PointCloud) -> tuple[Points, Points]:
        """The matched points ``(source.points[i], target.points[j])`` of
        every pair (i, j), in pair order. Clouds of other sizes than the set
        was built for raise LengthMismatch."""
        if len(source) != self.source_size or len(target) != self.target_size:
            raise LengthMismatch(f"correspondences sized {self.source_size}x{self.target_size} "
                                 f"against clouds {len(source)}x{len(target)}")
        return source.points[self.pairs[:, 0]], target.points[self.pairs[:, 1]]


@dataclass(frozen=True)
class WeightVector:
    """Per-correspondence confidence values in [0, 1], kept as a read-only copy."""

    values: NDArray[F64]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError("weights must be finite")
        if v.size and (v.min() < 0.0 or v.max() > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        object.__setattr__(self, "values", _readonly(v))

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class FeatureConfig:
    """Parameters of the ``local_histogram`` descriptor, which
    :func:`compute_features` gives a cloud that carries no features.

    ``local_histogram`` is invariant to translation and rotation: a
    ``bins``-bin histogram of neighbor distances plus the three normalized
    eigenvalues of the neighborhood covariance (``bins + 3`` dims). The
    neighbors of a point are the points within ``radius`` of it, inclusive.
    A neighbor at distance d goes to bin ``floor(d / radius * bins)``,
    clamped to ``bins - 1``, so a distance equal to ``radius`` goes to the
    last bin; the point itself counts once in bin 0. ``radius`` must be
    finite and positive, ``bins`` an integer of at least 2.
    """

    radius: float = 0.25
    bins: int = 8

    def __post_init__(self) -> None:
        _check_length("radius", self.radius)
        _check_count("bins", self.bins, 2)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def _normalize_rows(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    # zero rows stay zero rather than dividing by zero
    return np.where(norms > 0.0, a / np.where(norms > 0.0, norms, 1.0), 0.0)


def _neighbor_rows(points: np.ndarray, radius: float) -> np.ndarray:
    """Row indices of the neighborhood adjacency, int32: every point once,
    then the first point of each pair within ``radius``, then the second.
    The halves are the pair list (a, b), at 4 bytes per index; the k-d
    tree's (e, 2) int64 list is freed on return."""
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    return np.concatenate([np.arange(points.shape[0]), pairs[:, 0], pairs[:, 1]],
                          dtype=np.int32)


def _distance_histogram(points: np.ndarray, row: np.ndarray, radius: float,
                        bins: int) -> np.ndarray:
    """Per-point counts of neighbor distances in ``bins`` bins, ``(n, bins)``
    int64, from the rows of :func:`_neighbor_rows`. The point itself counts
    once in bin 0, so no histogram is empty.

    The pairs are taken ``_HISTOGRAM_CHUNK`` at a time, so the pass holds
    a few chunk-sized arrays and never one as long as the pair list. The
    squared pair distances are summed x, y, then z, as for the whole list
    at once, and the bins are integer sums, exact in any order.
    """
    n = points.shape[0]
    e = (row.shape[0] - n) // 2
    planes = np.ascontiguousarray(points.T)
    hist = np.zeros(n * bins, dtype=np.int64)
    hist[::bins] = 1
    for start in range(n, n + e, _HISTOGRAM_CHUNK):
        stop = min(start + _HISTOGRAM_CHUNK, n + e)
        a = row[start:stop].astype(np.intp)
        b = row[start + e:stop + e].astype(np.intp)
        d = np.zeros(a.shape[0])
        for plane in planes:
            diff = np.take(plane, a)
            diff -= np.take(plane, b)
            d += np.square(diff, out=diff)
        del diff
        np.sqrt(d, out=d)
        d /= radius
        d *= bins
        slot = d.astype(np.int64)
        del d
        np.minimum(slot, bins - 1, out=slot)
        a *= bins
        a += slot
        hist += np.bincount(a, minlength=n * bins)
        b *= bins
        b += slot
        hist += np.bincount(b, minlength=n * bins)
    return hist.reshape(n, bins)


def _moment_sums(points: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Neighborhood first and second moments, ``(n, 9)``: the sums of x, y,
    z, xx, xy, xz, yy, yz and zz over each point and its neighbors, in one
    product of the adjacency with the per-point columns.

    These float sums depend on the order of their terms. scipy's COO
    product starts each output row from 0.0 and adds its entries in stored
    order, so storing each point with itself, then each pair as (a, b),
    then as (b, a) keeps every sum bit-identical to starting from the
    point's value and adding the pairs one by one; reorder the entries and
    the descriptor changes in its last bits. The columns reuse the halves
    of ``row``.
    """
    n = points.shape[0]
    e = (row.shape[0] - n) // 2
    x, y, z = points.T
    columns = np.column_stack([x, y, z, x * x, x * y, x * z, y * y, y * z, z * z])
    col = np.concatenate([row[:n], row[n + e:], row[n:n + e]])
    adjacency = coo_array((np.ones(n + 2 * e), (row, col)), shape=(n, n))
    del col
    return adjacency @ columns


def _descriptor(hist: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Unit-norm rows of the normalized histogram and the three normalized
    covariance eigenvalues, largest first."""
    n = hist.shape[0]
    count = hist.sum(axis=1)
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


def _centered(points: np.ndarray, radius: float) -> np.ndarray:
    """``points`` less a reference that is exact in float64: the bounding-box
    midpoint rounded to a multiple of q, the least power of two of at least
    4 * max(extent, radius). A cloud whose midpoint lies within q / 2 of the
    origin keeps its coordinates, and a cloud shifted by multiples of q is
    described from the same centered coordinates, so the moment sums do not
    grow with the distance from the origin."""
    low, high = points.min(axis=0), points.max(axis=0)
    mantissa, exponent = math.frexp(4.0 * max(float((high - low).max()), radius))
    q = math.ldexp(1.0, exponent - (mantissa == 0.5))
    reference = np.round((low + high) / 2.0 / q) * q
    return points - reference if reference.any() else points


def _local_histogram(points: np.ndarray, radius: float, bins: int) -> np.ndarray:
    points = _centered(points, radius)
    row = _neighbor_rows(points, radius)
    hist = _distance_histogram(points, row, radius, bins)
    return _descriptor(hist, _moment_sums(points, row))


def compute_features(cloud: PointCloud, cfg: FeatureConfig) -> PointCloud:
    """Attach a unit-norm descriptor to every point; deterministic given
    inputs, down to the last bit.

    Features the cloud already carries, such as learned descriptors, are
    kept and renormalized; a zero row stays zero. Any other cloud gets
    ``local_histogram``: each point's neighbors come from one k-d tree
    pair query and their moments from one sparse product whose terms are
    added in a fixed order.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot compute features on an empty cloud")
    if cloud.features is not None:
        return cloud.with_features(_normalize_rows(cloud.features))
    return cloud.with_features(_local_histogram(cloud.points, cfg.radius, cfg.bins))


# ---------------------------------------------------------------------------
# matching and labeling
# ---------------------------------------------------------------------------

def match_nearest(source: PointCloud, target: PointCloud) -> CorrespondenceSet:
    """One correspondence per source point: its exact nearest neighbor in
    feature space (ties to the lowest target index).

    The search is one :class:`SpatialIndex` scan, O(n * m * D) for n
    source and m target descriptors of dimension D, in blocks of at most
    ``2**16`` distances.
    """
    if source.features is None or target.features is None:
        raise MissingFeatures("both clouds need features before matching")
    if source.features.shape[1] != target.features.shape[1]:
        raise DimensionMismatch(
            f"feature dimensions differ: {source.features.shape[1]} vs "
            f"{target.features.shape[1]}"
        )
    nearest = SpatialIndex(target.features).nearest(source.features)
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
    matched_x, matched_y = matches.matched(source, target)
    residual = np.linalg.norm(true_transform.apply(matched_x) - matched_y, axis=1)
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

