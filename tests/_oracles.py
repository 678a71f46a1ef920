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


def _patch_cloud(rng: np.random.Generator, count: int) -> np.ndarray:
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


def _synthetic_rotation(rng: np.random.Generator, max_angle: float) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle) if max_angle > 0 else 0.0
    K = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def synthetic_pair_loop(spec):
    """The synthetic pair generator as it was when it placed one outlier at
    a time, redrawing each with its own ``rng.uniform`` call until it lay
    farther than the clearance from its true position (at most 100 draws).

    ``spec`` is read for its fields only. Returns a dict of the source and
    target points, rotation, translation, correspondence pairs and inlier
    mask, and ``draws``: how many triples each outlier took, in the order
    they were placed.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_points
    shared_count = int(round(spec.overlap_ratio * n))
    extra = n - shared_count

    base = _patch_cloud(rng, n + extra)
    source_points = base[:n]
    shared_idx = rng.choice(n, size=shared_count, replace=False)

    R = _synthetic_rotation(rng, spec.transform_magnitude[0])
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    t = direction * rng.uniform(0.0, spec.transform_magnitude[1])

    target_pre = np.concatenate([source_points[shared_idx], base[n:]], axis=0)
    origin = np.concatenate([shared_idx, np.full(extra, -1, dtype=np.int64)])
    perm = rng.permutation(n)
    target_pre = target_pre[perm]
    origin = origin[perm]

    target_points = target_pre @ R.T + t
    if spec.noise_sigma > 0:
        target_points = target_points + rng.normal(
            scale=spec.noise_sigma, size=target_points.shape
        )

    outlier_count = int(round(spec.outlier_ratio * n))
    replaced = np.zeros(n, dtype=bool)
    draws = []
    if outlier_count > 0:
        chosen = rng.choice(n, size=outlier_count, replace=False)
        low = target_points.min(axis=0)
        high = target_points.max(axis=0)
        clearance = max(0.2, 10.0 * spec.noise_sigma)
        for j in chosen:
            for attempt in range(100):
                candidate = rng.uniform(low, high)
                if np.linalg.norm(candidate - target_points[j]) > clearance:
                    break
            draws.append(attempt + 1)
            target_points[j] = candidate
        replaced[chosen] = True

    paired = origin >= 0
    pairs = np.column_stack([origin[paired], np.flatnonzero(paired)])
    return {
        "source": source_points,
        "target": target_points,
        "rotation": R,
        "translation": t,
        "pairs": pairs,
        "inlier_mask": ~replaced[pairs[:, 1]],
        "draws": draws,
    }
