"""Transforms, voxel downsampling, and the exact nearest-neighbor index."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidreg import (
    EmptyCloud,
    NotARotation,
    PointCloud,
    RigidTransform,
    SpatialIndex,
    voxel_downsample,
)
from rigidreg.geometry import is_rotation

from _oracles import nearest_bruteforce, nearest_linear, occupied_voxel_count, rodrigues, rot_z


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, 0.0, np.nan]]))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), features=np.zeros((2, 5)))
    cloud = PointCloud(np.zeros((3, 3)), features=np.ones((3, 5)))
    assert len(cloud) == 3 and cloud.features is not None
    assert not cloud.points.flags.writeable


def test_rigid_transform_rejects_non_rotations():
    with pytest.raises(NotARotation):
        RigidTransform(np.eye(3) * 1.001, np.zeros(3))
    mirror = np.diag([1.0, 1.0, -1.0])  # orthonormal but det = -1
    with pytest.raises(NotARotation):
        RigidTransform(mirror, np.zeros(3))
    with pytest.raises(NotARotation):
        RigidTransform(np.full((3, 3), np.nan), np.zeros(3))


def test_is_rotation_tests_a_stack_without_warnings(rng):
    good = rodrigues(rng.normal(size=3), 0.7)
    stack = np.stack([
        good,
        good * (1.0 + 1e-8),
        np.diag([1.0, 1.0, -1.0]),
        np.full((3, 3), np.nan),
        np.where(np.eye(3) > 0, np.inf, 0.0),
        good,
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # det warns on NaN input
        proper = is_rotation(stack)
    assert proper.tolist() == [True, False, False, False, False, True]
    assert is_rotation(good) and not is_rotation(stack[3])
    for R, ok in zip(stack, proper):
        if not ok:
            with pytest.raises(NotARotation, match="rotation"):
                RigidTransform(R, np.zeros(3))


def test_rigid_transform_inverse_round_trips(rng):
    T = RigidTransform(rodrigues(rng.normal(size=3), 1.2), np.array([0.3, -1.0, 2.0]))
    p = rng.normal(size=(20, 3))
    back = T.inverse().apply(T.apply(p))
    assert np.abs(back - p).max() < 1e-12


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_half_turn_about_z():
    T = RigidTransform(rot_z(math.pi), np.zeros(3))
    out = T.apply(np.array([[1.0, 0.0, 0.0]]))
    assert np.abs(out - [-1.0, 0.0, 0.0]).max() < 1e-12


def test_apply_pure_translation():
    T = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]))
    out = T.apply(np.zeros((1, 3)))
    np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0]])


def test_transforms_preserve_pairwise_distances(rng):
    for _ in range(20):
        T = RigidTransform(rodrigues(rng.normal(size=3), rng.uniform(0, 3)), rng.normal(size=3) * 5)
        p, q = rng.normal(size=3) * 10, rng.normal(size=3) * 10
        before = np.linalg.norm(p - q)
        after = np.linalg.norm(T.apply(p[None]) - T.apply(q[None]))
        assert abs(after - before) <= 1e-9 * (1.0 + before)


# ---------------------------------------------------------------------------
# voxel downsampling
# ---------------------------------------------------------------------------

def test_voxel_single_cell_keeps_one_point():
    pts = np.array([[0.01, 0.01, 0.01], [0.02, 0.02, 0.02], [0.03, 0.01, 0.02]])
    out = voxel_downsample(PointCloud(pts), 0.05, seed=0)
    assert len(out) == 1
    assert any(np.array_equal(out.points[0], p) for p in pts)


def test_voxel_distant_points_both_survive():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    out = voxel_downsample(PointCloud(pts), 0.05, seed=3)
    assert len(out) == 2


def test_voxel_counts_match_occupied_cells(rng):
    pts = rng.uniform(0.0, 1.0, size=(100_000, 3))
    out = voxel_downsample(PointCloud(pts), 0.05, seed=1)
    occupied = occupied_voxel_count(pts, 0.05)
    assert len(out) <= 20**3
    assert len(out) >= 0.99 * occupied  # exactly one survivor per cell
    assert len(out) == occupied


def test_voxel_output_is_subset_of_input(rng):
    pts = rng.normal(size=(500, 3))
    out = voxel_downsample(PointCloud(pts), 0.2, seed=9)
    rows = {tuple(p) for p in pts}
    assert all(tuple(p) in rows for p in out.points)


def test_voxel_deterministic_and_seed_sensitive(rng):
    cloud = PointCloud(rng.uniform(0.0, 0.2, size=(2000, 3)))
    a = voxel_downsample(cloud, 0.05, seed=5)
    b = voxel_downsample(cloud, 0.05, seed=5)
    np.testing.assert_array_equal(a.points, b.points)
    c = voxel_downsample(cloud, 0.05, seed=6)
    assert not np.array_equal(a.points, c.points)


def test_voxel_idempotent(rng):
    cloud = PointCloud(rng.normal(size=(3000, 3)))
    once = voxel_downsample(cloud, 0.1, seed=2)
    twice = voxel_downsample(once, 0.1, seed=77)  # one point per cell already
    np.testing.assert_array_equal(once.points, twice.points)


def test_voxel_features_travel_with_points(rng):
    pts = rng.normal(size=(200, 3))
    feats = rng.normal(size=(200, 4))
    out = voxel_downsample(PointCloud(pts, feats), 0.3, seed=0)
    for p, f in zip(out.points, out.features):
        k = int(np.flatnonzero(np.all(pts == p, axis=1))[0])
        np.testing.assert_array_equal(f, feats[k])


def test_voxel_rejects_bad_input():
    with pytest.raises(ValueError):
        voxel_downsample(PointCloud(np.zeros((1, 3))), 0.0, seed=0)
    with pytest.raises(EmptyCloud):
        voxel_downsample(PointCloud(np.zeros((0, 3))), 0.1, seed=0)


@pytest.mark.parametrize("voxel_size", [math.nan, math.inf])
def test_voxel_rejects_a_non_finite_size(voxel_size):
    # nan and inf would put every point in one cell
    with pytest.raises(ValueError, match="voxel_size must be finite"):
        voxel_downsample(PointCloud(np.eye(3)), voxel_size, seed=0)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_voxel_one_point_per_cell_property(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(rng.integers(1, 400), 3))
    out = voxel_downsample(PointCloud(pts), 0.25, seed=seed)
    keys = np.floor(out.points / 0.25).astype(np.int64)
    assert np.unique(keys, axis=0).shape[0] == len(out)


# ---------------------------------------------------------------------------
# nearest-neighbor index
# ---------------------------------------------------------------------------

def test_index_self_query(rng):
    pts = rng.normal(size=(50, 3))
    index = SpatialIndex(pts)
    idx, dist = index.query(pts[17])
    assert idx[0] == 17 and dist[0] == 0.0


def test_index_collinear_example():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    idx, _ = SpatialIndex(pts).query(np.array([1.9, 0.0, 0.0]))
    assert idx[0] == 1
    # one stored vector: the missing second neighbor is no tie
    idx, dist = SpatialIndex(pts[2:]).query(np.array([1.9, 0.0, 0.0]))
    assert idx.tolist() == [0] and abs(dist[0] - 1.1) < 1e-12


def test_index_matches_linear_scan(rng):
    data = rng.normal(size=(1000, 3))
    queries = rng.normal(size=(100, 3))
    index = SpatialIndex(data)
    got_idx, got_dist = index.query(queries)
    bf_idx, bf_dist = nearest_bruteforce(data, queries)
    for row in range(100):
        oracle_idx, oracle_dist = nearest_linear(data, queries[row])
        assert got_idx[row] == oracle_idx == bf_idx[row]
        assert abs(got_dist[row] - oracle_dist) < 1e-12
        assert abs(bf_dist[row] - oracle_dist) < 1e-12


def test_index_breaks_ties_toward_lowest_index():
    # two identical points: every query must resolve to index 0
    data = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [5.0, 5.0, 5.0]])
    index = SpatialIndex(data)
    idx, _ = index.query(np.array([[1.0, 1.0, 1.0], [1.1, 1.0, 1.0]]))
    assert idx.tolist() == [0, 0]
    # symmetric placement: query equidistant from rows 0 and 1
    data = np.array([[0.0, 0, 0], [2.0, 0, 0]])
    idx, _ = SpatialIndex(data).query(np.array([1.0, 0.0, 0.0]))
    assert idx[0] == 0
    bf_idx, _ = nearest_bruteforce(data, np.array([[1.0, 0.0, 0.0]]))
    assert bf_idx[0] == 0


def test_index_query_two_reports_inf_for_singleton():
    index = SpatialIndex(np.array([[0.0, 0.0, 0.0]]))
    d1, d2 = index.query_two(np.array([1.0, 0.0, 0.0]))
    assert d1[0] == 1.0 and math.isinf(d2[0])


def test_index_feature_space_requires_features():
    with pytest.raises(EmptyCloud):
        SpatialIndex(np.zeros((0, 3)))


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000))
def test_index_agrees_with_scan_under_duplicates(seed):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 4, size=(60, 3)).astype(np.float64)  # many ties
    queries = rng.integers(0, 4, size=(20, 3)).astype(np.float64)
    index = SpatialIndex(base)
    got, _ = index.query(queries)
    for row in range(20):
        want, _ = nearest_linear(base, queries[row])
        assert got[row] == want
