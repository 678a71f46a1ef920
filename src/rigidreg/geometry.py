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
from scipy.spatial import cKDTree

from .errors import EmptyCloud, NotARotation, _check_length

F64: TypeAlias = np.float64
Points: TypeAlias = NDArray[F64]  # (N, 3)
Mat3: TypeAlias = NDArray[F64]    # (3, 3)
Vec3: TypeAlias = NDArray[F64]    # (3,)

ORTHONORMALITY_TOL = 1e-9
_EYE = np.eye(3)


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
    """Exact Euclidean 1-nearest-neighbor index over a fixed set of vectors.

    Ties are broken toward the lowest stored index, as a linear scan would.
    """

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise EmptyCloud("index requires at least one vector")
        self._data = arr
        self._tree = cKDTree(arr)

    def query(self, queries: np.ndarray) -> tuple[NDArray[np.int64], NDArray[F64]]:
        """Nearest stored index and distance for each query row."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        # with one stored vector the second neighbor is at inf, never a tie
        dist, idx = self._tree.query(q, k=2)
        d1 = dist[:, 0].copy()
        best = idx[:, 0].astype(np.int64)
        # A second neighbor at the same distance signals a tie; re-resolve
        # those queries against every candidate inside the tie radius.
        tied = np.flatnonzero(dist[:, 1] <= d1)
        for row in tied:
            candidates = self._tree.query_ball_point(q[row], r=d1[row] * (1 + 1e-12) + 1e-300)
            candidates = np.asarray(sorted(candidates), dtype=np.int64)
            cd = np.linalg.norm(self._data[candidates] - q[row], axis=1)
            pick = int(np.argmin(cd))  # argmin takes the first (lowest) index
            best[row] = candidates[pick]
            d1[row] = cd[pick]
        return best, d1

    def query_two(self, queries: np.ndarray) -> tuple[NDArray[F64], NDArray[F64]]:
        """Distances to the first and second nearest stored vectors.

        With a single stored vector the second distance is ``inf``.
        """
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        dist, _ = self._tree.query(q, k=2)
        return dist[:, 0].copy(), dist[:, 1].copy()
