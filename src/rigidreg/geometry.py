"""Point-cloud containers, rigid-transform algebra, voxel downsampling, an
exact nearest-neighbor index, and the deferred import of scipy's names.

Conventions used throughout the package:

- point clouds are ``(N, 3)`` float64 arrays, one point per row, in meters;
- features are ``(N, D)`` float64 arrays aligned row-for-row with the points;
- rotations are ``(3, 3)`` matrices acting on column vectors, so a point
  ``p`` maps to ``R @ p + t``.

All containers are frozen dataclasses that keep a read-only copy of each
array they are given, so a later write to the caller's array cannot reach
a validated container and instances can be shared freely across threads.
"""

from __future__ import annotations

import importlib
import os
import threading
from dataclasses import dataclass, field
from typing import TypeAlias

import numpy as np
from numpy.typing import NDArray

from .errors import CoordinateOverflow, EmptyCloud, NotARotation, _check_length

F64: TypeAlias = np.float64
Points: TypeAlias = NDArray[F64]  # (N, 3)
Mat3: TypeAlias = NDArray[F64]    # (3, 3)
Vec3: TypeAlias = NDArray[F64]    # (3,)

ORTHONORMALITY_TOL = 1e-9
_EYE = np.eye(3)
# blocked scans hold at most this many float64 values (0.5 MB) at a time
_BLOCK_ELEMENTS = 2**16
# SpatialIndex refuses vectors whose squared norm reaches this: below it,
# every score and distance of its scan is under 2**1023, so none overflows
_SQUARED_NORM_LIMIT = 2.0**1020


# one lock for every deferred name: two threads importing parts of scipy at
# once could each wait on a module that the other is importing
_IMPORT_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    # a fork waits for an import in progress, so no child inherits the lock
    # held by a thread it does not have, or a module half imported
    os.register_at_fork(before=_IMPORT_LOCK.acquire,
                        after_in_parent=_IMPORT_LOCK.release,
                        after_in_child=_IMPORT_LOCK.release)


class _Deferred:
    """A callable of scipy's, imported at its first call, not with the
    package: ``import rigidreg`` and every path that never calls one
    (external correspondences on the main branch, the gradient API, io)
    run on numpy alone.

    The first calls may come on several threads at once: the first takes
    the lock and imports, the others wait for it, so none sees a module
    half imported. A fork waits for a first import in progress to end. A
    child forked before the first call imports at its own first call; one
    forked after it keeps the name its parent loaded.
    """

    def __init__(self, module: str, name: str):
        self._module = module
        self._name = name
        self._target = None

    def __call__(self, *args, **kwargs):
        if self._target is None:
            with _IMPORT_LOCK:
                if self._target is None:
                    self._target = getattr(importlib.import_module(self._module), self._name)
        return self._target(*args, **kwargs)


def _readonly(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PointCloud:
    """Ordered 3D points and optional per-point features, both kept as read-only copies."""

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
    NotARotation on a matrix that fails it; both arrays are kept as read-only copies.
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
    A cell index outside the int64 range raises CoordinateOverflow.
    """
    _check_length("voxel_size", voxel_size)
    if len(cloud) == 0:
        raise EmptyCloud("cannot downsample an empty cloud")

    with np.errstate(over="ignore"):  # an overflowing quotient is inf, refused below
        cells = np.floor(cloud.points / voxel_size)
    if not np.all(np.abs(cells) < 2.0**63):
        raise CoordinateOverflow(
            f"voxel_size {voxel_size!r} puts cell indices outside the int64 range")
    keys = cells.astype(np.int64)
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


def _squared_norms(a: np.ndarray, what: str) -> NDArray[F64]:
    """Squared norms of the rows of ``a``; ValueError when one reaches
    ``_SQUARED_NORM_LIMIT``, an overflow to inf included."""
    with np.errstate(over="ignore"):
        squares = np.einsum("ij,ij->i", a, a)
    if not np.all(squares < _SQUARED_NORM_LIMIT):
        raise ValueError(f"{what} must have squared norms below 2**1020")
    return squares


class SpatialIndex:
    """Exact Euclidean nearest-neighbor index over a fixed set of finite
    vectors, built for descriptor vectors. It answers one question: which
    stored vector is nearest to each query row?

    A query is one exact linear scan, O(n * m * D) for n query rows
    against m stored D-vectors, taken in blocks of query rows that hold at
    most ``2**16`` distances (0.5 MB) at a time. Distances are the row
    norms ``np.linalg.norm(data - q, axis=1)``, and ties go to the lowest
    stored index, as a linear scan would. Stored vectors and queries must
    be finite, with squared norms below ``2**1020`` (about 1.1e307), so a
    squared norm that overflows float64 raises ValueError, and no warning.
    """

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise EmptyCloud("index requires at least one vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("index vectors contain non-finite values")
        squares = _squared_norms(arr, "index vectors")
        self._data = arr
        # columns (b, |b|^2): their product with the row (-2q, 1) is
        # |b|^2 - 2 q.b, the squared distance to q less the |q|^2 every b shares
        self._columns = np.ascontiguousarray(np.column_stack([arr, squares]).T)
        self._largest_square = float(squares.max())

    def nearest(self, queries: np.ndarray) -> NDArray[np.int64]:
        """Nearest stored index of each query row, by the distances and tie
        rule of the class docstring. Non-finite queries raise ValueError.

        Each block of rows takes one matrix product for its scores
        ``s_j = |b_j|^2 - 2 q.b_j`` and keeps their two smallest. A row
        whose two are more than ``margin`` apart is decided by the scores.
        Any other row is decided by the exact distances of the vectors
        scored within ``margin`` of its smallest.

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
        if not np.all(np.isfinite(q)):
            raise ValueError("queries contain non-finite values")
        rows = max(1, min(n, _BLOCK_ELEMENTS // m))
        scores = np.empty((rows, m))
        lifted = np.ones((rows, dim + 1))
        at = np.arange(rows)
        unit_roundoff = np.finfo(np.float64).eps / 2
        margins = 16 * (dim + 2) * unit_roundoff * (
            _squared_norms(q, "queries") + self._largest_square)
        found = np.empty(n, dtype=np.int64)
        for start in range(0, n, rows):
            block = q[start:start + rows]
            k = len(block)
            np.multiply(block, -2.0, out=lifted[:k, :dim])
            s = np.matmul(lifted[:k], self._columns, out=scores[:k])
            pick = s.argmin(axis=1)
            first = s[at[:k], pick]
            # with one stored vector the runner-up is inf, so no row is close
            s[at[:k], pick] = np.inf
            margin = margins[start:start + k]
            for row in (s.min(axis=1) - first <= margin).nonzero()[0]:
                s[row, pick[row]] = first[row]
                candidates = np.flatnonzero(s[row] <= first[row] + margin[row])
                exact = np.linalg.norm(self._data[candidates] - block[row], axis=1)
                # argmin keeps the lower index first among equal distances
                pick[row] = candidates[exact.argmin()]
            found[start:start + k] = pick
        return found
