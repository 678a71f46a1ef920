"""Point-cloud containers, rigid-transform algebra, voxel downsampling, and
an exact nearest-neighbor index.

Conventions used throughout the package:

- point clouds are ``(N, 3)`` float64 arrays, one point per row, in meters;
- features are ``(N, D)`` float64 arrays aligned row-for-row with the points;
- rotations are ``(3, 3)`` matrices acting on column vectors, so a point
  ``p`` maps to ``R @ p + t``.

All containers are frozen dataclasses whose arrays are made read-only at
construction, so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TypeAlias

import numpy as np
from numpy.typing import NDArray

from .errors import EmptyCloud, NotARotation, _check_length

F64: TypeAlias = np.float64
Points: TypeAlias = NDArray[F64]  # (N, 3)
Mat3: TypeAlias = NDArray[F64]    # (3, 3)
Vec3: TypeAlias = NDArray[F64]    # (3,)

ORTHONORMALITY_TOL = 1e-9
_EYE = np.eye(3)
# blocked scans hold at most this many float64 values (0.5 MB) at a time
_BLOCK_ELEMENTS = 2**16


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of 3D points with optional per-point feature vectors."""

    points: Points
    features: NDArray[F64] | None = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite coordinates")
        object.__setattr__(self, "points", _readonly(pts))
        if self.features is not None:
            feats = np.asarray(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != pts.shape[0]:
                raise ValueError(
                    f"features must have shape ({pts.shape[0]}, D), got {feats.shape}"
                )
            if feats.shape[1] < 1:
                raise ValueError("feature dimension must be >= 1")
            if not np.all(np.isfinite(feats)):
                raise ValueError("features contain non-finite values")
            object.__setattr__(self, "features", _readonly(feats))

    def __len__(self) -> int:
        return self.points.shape[0]

    def with_features(self, features: np.ndarray) -> "PointCloud":
        return PointCloud(self.points, features)


def is_rotation(R: np.ndarray) -> NDArray[np.bool_]:
    """Whether each matrix of a ``(..., 3, 3)`` stack is a proper rotation:
    finite, ``max |R^T R - I| <= 1e-9`` and ``|det R - 1| <= 1e-9``.

    Non-finite matrices are tested as the identity and then rejected, so
    the determinant never sees a NaN (it warns on one).
    """
    R = np.asarray(R, dtype=np.float64)
    finite = np.isfinite(R).all(axis=(-2, -1))
    if not finite.all():
        R = np.where(finite[..., None, None], R, _EYE)
    deviation = np.abs(np.swapaxes(R, -1, -2) @ R - _EYE).max(axis=(-2, -1))
    return (finite & (deviation <= ORTHONORMALITY_TOL)
            & (np.abs(np.linalg.det(R) - 1.0) <= ORTHONORMALITY_TOL))


@dataclass(frozen=True)
class RigidTransform:
    """A proper rigid motion: rotation ``R`` in SO(3) plus translation ``t``.

    Construction validates the rotation with :func:`is_rotation` and raises
    NotARotation on a matrix that fails it.
    """

    rotation: Mat3
    translation: Vec3

    def __post_init__(self) -> None:
        R = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {R.shape}")
        if not is_rotation(R):
            raise NotARotation("rotation is not a proper rotation matrix")
        if not np.all(np.isfinite(t)):
            raise NotARotation("translation contains non-finite entries")
        object.__setattr__(self, "rotation", _readonly(R))
        object.__setattr__(self, "translation", _readonly(t))

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points: Points) -> Points:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        Rt = self.rotation.T
        return RigidTransform(Rt, -(Rt @ self.translation))


def voxel_downsample(cloud: PointCloud, voxel_size: float, seed: int) -> PointCloud:
    """Keep one uniformly chosen original point per occupied voxel cell.

    Cells are ``floor(coordinate / voxel_size)`` per axis with the grid
    origin at (0, 0, 0). Output points are ordered by cell key, so the
    result is deterministic given the seed and idempotent at fixed grid.
    """
    _check_length("voxel_size", voxel_size)
    if len(cloud) == 0:
        raise EmptyCloud("cannot downsample an empty cloud")

    keys = np.floor(cloud.points / voxel_size).astype(np.int64)
    # lexicographic order over (kx, ky, kz); stable sort keeps original
    # order within a cell so the uniform draw below is well defined
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    boundaries = np.ones(len(order), dtype=bool)
    boundaries[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
    starts = np.flatnonzero(boundaries)
    ends = np.append(starts[1:], len(order))

    rng = np.random.default_rng(seed)
    picks = starts + (rng.random(len(starts)) * (ends - starts)).astype(np.int64)
    chosen = order[picks]

    feats = cloud.features[chosen] if cloud.features is not None else None
    return PointCloud(cloud.points[chosen], feats)


class SpatialIndex:
    """Exact Euclidean 1-nearest-neighbor index over a fixed set of vectors,
    built for descriptor vectors.

    A query is one exact linear scan, O(n * m * D) for n query rows
    against m stored D-vectors, taken in blocks of query rows that hold at
    most ``2**16`` distances (0.5 MB) at a time. Distances are the row
    norms ``np.linalg.norm(data - q, axis=1)``, and ties go to the lowest
    stored index, as a linear scan would.
    """

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise EmptyCloud("index requires at least one vector")
        self._data = arr
        squares = np.einsum("ij,ij->i", arr, arr)
        # columns (b, |b|^2): their product with the row (-2q, 1) is
        # |b|^2 - 2 q.b, the squared distance to q less the |q|^2 every b shares
        self._columns = np.ascontiguousarray(np.column_stack([arr, squares]).T)
        self._largest_square = float(squares.max())

    def nearest(self, queries: np.ndarray) -> NDArray[np.int64]:
        """Nearest stored index of each query row."""
        return self._scan(queries, 1)[1][0]

    def query_two(self, queries: np.ndarray) -> tuple[NDArray[F64], NDArray[F64]]:
        """Distances to the first and second nearest stored vectors.

        With a single stored vector the second distance is ``inf``.
        """
        q, (first, second) = self._scan(queries, 2)
        if len(self._data) == 1:
            return self._distances(q, first), np.full(len(q), np.inf)
        return self._distances(q, first), self._distances(q, second)

    def _distances(self, q: np.ndarray, picks: np.ndarray) -> NDArray[F64]:
        return np.linalg.norm(self._data[picks] - q, axis=1)

    def _scan(
        self, queries: np.ndarray, ranks: int
    ) -> tuple[NDArray[F64], list[NDArray[np.int64]]]:
        """The query rows as a 2-D array, and the nearest ``ranks`` (1 or 2)
        stored indices of each, nearest first, by the distances and tie
        rule of the class docstring.

        Each block of rows takes one matrix product for its scores
        ``s_j = |b_j|^2 - 2 q.b_j`` and keeps their ``ranks + 1`` smallest.
        A row whose kept scores are more than ``margin`` apart is decided
        by the scores. Any other row is decided by the exact distances of
        the vectors scored within ``margin`` of its ``ranks``-th smallest.

        The margin covers float64 rounding. Let u be the unit roundoff, D
        the dimension and ``Q = |q|^2 + max_j |b_j|^2``. A score is a dot
        product of length D + 1 over a rounded |b|^2, so it is off from
        its exact value by at most ``4 (D + 1) u Q``. A computed squared
        distance is off by at most ``2 (D + 2) u Q``, and two distances
        round to one value only if their squares, both below 2Q, lie
        within ``8 u Q``. So a vector scored more than ``12 (D + 2) u Q``
        above another is strictly farther by the exact distances, in
        whatever order BLAS sums. The margin is a third above that bound,
        and it grows with the squared norms, so unnormalized vectors are
        matched exactly too.
        """
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n, (m, dim) = len(q), self._data.shape
        if q.ndim != 2 or q.shape[1] != dim:
            raise ValueError(f"queries must be vectors of length {dim}, got shape {q.shape}")
        rows = max(1, min(n, _BLOCK_ELEMENTS // m))
        scores = np.empty((rows, m))
        lifted = np.ones((rows, dim + 1))
        at = np.arange(rows)
        unit_roundoff = np.finfo(np.float64).eps / 2
        margins = 16 * (dim + 2) * unit_roundoff * (
            np.einsum("ij,ij->i", q, q) + self._largest_square)
        found = [np.empty(n, dtype=np.int64) for _ in range(ranks)]
        # with one stored vector the scores after the first are all inf;
        # their difference is nan, which leaves the row decided
        with np.errstate(invalid="ignore"):
            for start in range(0, n, rows):
                block = q[start:start + rows]
                k = len(block)
                np.multiply(block, -2.0, out=lifted[:k, :dim])
                s = np.matmul(lifted[:k], self._columns, out=scores[:k])
                picks, values = [], []
                for _ in range(ranks):
                    picks.append(s.argmin(axis=1))
                    values.append(s[at[:k], picks[-1]])
                    s[at[:k], picks[-1]] = np.inf
                values.append(s.min(axis=1))
                margin = margins[start:start + k]
                close = values[1] - values[0] <= margin
                for lower, upper in zip(values[1:], values[2:]):
                    close |= upper - lower <= margin
                for row in close.nonzero()[0]:
                    for pick, value in zip(picks, values):
                        s[row, pick[row]] = value[row]
                    candidates = np.flatnonzero(s[row] <= values[ranks - 1][row] + margin[row])
                    exact = np.linalg.norm(self._data[candidates] - block[row], axis=1)
                    # a stable sort keeps the lower index first among equal distances
                    nearest = candidates[np.argsort(exact, kind="stable")[:ranks]]
                    for pick, index in zip(picks, nearest):
                        pick[row] = index
                for out, pick in zip(found, picks):
                    out[start:start + k] = pick
        return q, found
