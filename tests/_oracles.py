"""Independent reference implementations the tests check the package against.

Everything here is deliberately written from scratch (no imports from
rigidreg beyond plain numpy) so a bug in the package cannot hide inside its
own oracle.
"""

from __future__ import annotations

import math

import numpy as np


def kabsch(source: np.ndarray, target: np.ndarray):
    """Classical unweighted Procrustes: centroid subtraction plus SVD.

    Returns (R, t) minimizing sum ||target_i - (R source_i + t)||^2.
    """
    X = np.asarray(source, dtype=np.float64)
    Y = np.asarray(target, dtype=np.float64)
    cx = X.mean(axis=0)
    cy = Y.mean(axis=0)
    H = (Y - cy).T @ (X - cx)
    U, _, Vt = np.linalg.svd(H)
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(U) * np.linalg.det(Vt))])
    R = U @ D @ Vt
    return R, cy - R @ cx


def quaternion_angle(r_a: np.ndarray, r_b: np.ndarray) -> float:
    """Angle of the relative rotation r_a^T r_b via a quaternion extraction
    (Shepperd's method), not via the trace formula under test."""
    M = np.asarray(r_a, dtype=np.float64).T @ np.asarray(r_b, dtype=np.float64)
    # branch on the largest diagonal-ish quantity for numerical stability
    tr = M[0, 0] + M[1, 1] + M[2, 2]
    if tr > max(M[0, 0], M[1, 1], M[2, 2]):
        w = math.sqrt(1.0 + tr) / 2.0
        x = (M[2, 1] - M[1, 2]) / (4.0 * w)
        y = (M[0, 2] - M[2, 0]) / (4.0 * w)
        z = (M[1, 0] - M[0, 1]) / (4.0 * w)
    else:
        i = int(np.argmax([M[0, 0], M[1, 1], M[2, 2]]))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(1.0 + M[i, i] - M[j, j] - M[k, k], 0.0)) * 2.0
        q = [0.0, 0.0, 0.0, 0.0]  # (w, x, y, z)
        q[0] = (M[k, j] - M[j, k]) / s
        q[1 + i] = s / 4.0
        q[1 + j] = (M[j, i] + M[i, j]) / s
        q[1 + k] = (M[k, i] + M[i, k]) / s
        w, x, y, z = q
    vec = math.sqrt(x * x + y * y + z * z)
    return 2.0 * math.atan2(vec, abs(w))


def nearest_linear(data: np.ndarray, query: np.ndarray):
    """Plain linear scan; ties resolved to the lowest index by scanning in
    order with a strict improvement test. Distances are row norms over
    ``axis=1``, the same float sums as :func:`nearest_bruteforce`."""
    dist = np.linalg.norm(data - query, axis=1)
    best = 0
    for idx in range(1, data.shape[0]):
        if dist[idx] < dist[best]:
            best = idx
    return best, float(dist[best])


def nearest_bruteforce(data: np.ndarray, queries: np.ndarray):
    """Linear-scan nearest neighbor of each query row (ties to the lowest
    index); returns the index and distance arrays."""
    data = np.asarray(data, dtype=np.float64)
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    idx = np.empty(q.shape[0], dtype=np.int64)
    dist = np.empty(q.shape[0], dtype=np.float64)
    for row in range(q.shape[0]):
        d = np.linalg.norm(data - q[row], axis=1)
        idx[row] = int(np.argmin(d))
        dist[row] = d[idx[row]]
    return idx, dist


def occupied_voxel_count(points: np.ndarray, voxel_size: float) -> int:
    """Number of distinct voxel cells covering ``points`` (floor of the
    coordinates over the cell size, the hash voxel downsampling uses)."""
    keys = np.floor(np.asarray(points, dtype=np.float64) / voxel_size).astype(np.int64)
    return int(np.unique(keys, axis=0).shape[0])


def central_difference(f, x: np.ndarray, h: float) -> np.ndarray:
    """Central finite differences of a scalar function over a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for k in range(x.size):
        bump = np.zeros_like(x)
        bump[k] = h
        g[k] = (f(x + bump) - f(x - bump)) / (2.0 * h)
    return g


def rodrigues(axis: np.ndarray, angle: float) -> np.ndarray:
    """Axis-angle rotation matrix, written out longhand."""
    a = np.asarray(axis, dtype=np.float64)
    a = a / np.linalg.norm(a)
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def rot_z(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation from a random axis and angle."""
    axis = rng.normal(size=3)
    angle = rng.uniform(0.0, math.pi)
    return rodrigues(axis, angle)


def huber(r: float, delta: float) -> float:
    return 0.5 * r * r if r <= delta else delta * (r - 0.5 * delta)
