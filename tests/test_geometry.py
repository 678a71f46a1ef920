"""Transforms, voxel downsampling, and the exact nearest-neighbor index."""

import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidreg import (
    CorrespondenceSet,
    EmptyCloud,
    NormalizedWeights,
    NotARotation,
    PointCloud,
    RigidTransform,
    Rot6D,
    SpatialIndex,
    WeightVector,
    matrix_to_rot6d,
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
    with pytest.raises(ValueError, match="feature dimension"):
        PointCloud(np.zeros((3, 3)), features=np.zeros((3, 0)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="features contain non-finite"):
            PointCloud(np.zeros((2, 3)), features=np.array([[0.0, 1.0], [bad, 0.0]]))
    cloud = PointCloud(np.zeros((3, 3)), features=np.ones((3, 5)))
    assert len(cloud) == 3 and cloud.features is not None
    assert not cloud.points.flags.writeable


_QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
_X, _Y = np.eye(3)[:2]
# per array a container takes: the container made from the caller's array,
# a valid such array, and the array the container keeps; matrix_to_rot6d
# hands the columns of a rotation on to Rot6D
_TAKEN = {
    "PointCloud.points": (PointCloud, np.ones((2, 3)), lambda c: c.points),
    "PointCloud.features": (lambda a: PointCloud(np.zeros((2, 3)), a), np.ones((2, 4)),
                            lambda c: c.features),
    "RigidTransform.rotation": (lambda a: RigidTransform(a, np.zeros(3)), _QUARTER_TURN,
                                lambda c: c.rotation),
    "RigidTransform.translation": (lambda a: RigidTransform(np.eye(3), a), np.ones(3),
                                   lambda c: c.translation),
    "CorrespondenceSet": (lambda a: CorrespondenceSet(a, 2, 2), np.array([[0, 1], [1, 0]]),
                          lambda c: c.pairs),
    "WeightVector": (WeightVector, np.array([0.25, 1.0]), lambda c: c.values),
    "NormalizedWeights": (lambda a: NormalizedWeights(a, 1.0), np.array([0.25, 0.75]),
                          lambda c: c.w_tilde),
    "Rot6D.a1": (lambda a: Rot6D(a, _Y), _X, lambda c: c.a1),
    "Rot6D.a2": (lambda a: Rot6D(_X, a), _Y, lambda c: c.a2),
    "matrix_to_rot6d": (matrix_to_rot6d, _QUARTER_TURN, lambda c: c.a1),
}


@pytest.mark.parametrize("name", list(_TAKEN))
def test_containers_keep_a_read_only_copy_of_the_callers_array(name):
    build, valid, kept = _TAKEN[name]
    given = valid.copy()
    container = build(given)
    before = kept(container).copy()
    assert not np.shares_memory(kept(container), given)
    assert not kept(container).flags.writeable
    # out of range as an index or a weight, and no rotation
    given[...] = 7
    assert kept(container).tobytes() == before.tobytes()


def test_rigid_transform_rejects_non_rotations():
    with pytest.raises(NotARotation):
        RigidTransform(np.eye(3) * 1.001, np.zeros(3))
    mirror = np.diag([1.0, 1.0, -1.0])  # orthonormal but det = -1
    with pytest.raises(NotARotation):
        RigidTransform(mirror, np.zeros(3))
    with pytest.raises(NotARotation):
        RigidTransform(np.full((3, 3), np.nan), np.zeros(3))
    with pytest.raises(ValueError, match="rotation must be 3x3"):
        RigidTransform(np.eye(4), np.zeros(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(NotARotation, match="translation contains non-finite"):
            RigidTransform(np.eye(3), np.array([0.0, bad, 0.0]))


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


@pytest.mark.parametrize("scale, voxel_size", [(1.0, 1e-20), (1e300, 1e-20), (-1e10, 1e-9)],
                         ids=["tiny-voxel", "quotient-overflows", "negative-far"])
def test_voxel_refuses_cell_indices_outside_int64(rng, scale, voxel_size):
    # the cast to int64 used to wrap silently, merging distinct cells
    cloud = PointCloud(scale * rng.uniform(0.5, 1.0, size=(100, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="outside the int64 range"):
            voxel_downsample(cloud, voxel_size, seed=0)


def test_voxel_keeps_every_cell_just_inside_int64(rng):
    # coordinates near 1e18 cells from the origin still index exactly
    pts = rng.uniform(-1.0, 1.0, size=(100, 3))
    assert len(voxel_downsample(PointCloud(pts), 1e-18, seed=0)) == 100


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
    assert index.nearest(pts[17]).tolist() == [17]


def test_index_collinear_example():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    assert SpatialIndex(pts).nearest(np.array([1.9, 0.0, 0.0])).tolist() == [1]
    # one stored vector: the missing second neighbor is no tie
    single = SpatialIndex(pts[2:])
    assert single.nearest(np.array([1.9, 0.0, 0.0])).tolist() == [0]


def test_index_matches_linear_scan(rng):
    data = rng.normal(size=(1000, 3))
    queries = rng.normal(size=(100, 3))
    index = SpatialIndex(data)
    got_idx = index.nearest(queries)
    bf_idx, bf_dist = nearest_bruteforce(data, queries)
    for row in range(100):
        oracle_idx, oracle_dist = nearest_linear(data, queries[row])
        assert got_idx[row] == oracle_idx == bf_idx[row]
        assert abs(np.linalg.norm(data[got_idx[row]] - queries[row]) - oracle_dist) < 1e-12
        assert abs(bf_dist[row] - oracle_dist) < 1e-12


def test_index_breaks_ties_toward_lowest_index():
    # two identical points: every query must resolve to index 0
    data = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [5.0, 5.0, 5.0]])
    index = SpatialIndex(data)
    idx = index.nearest(np.array([[1.0, 1.0, 1.0], [1.1, 1.0, 1.0]]))
    assert idx.tolist() == [0, 0]
    # symmetric placement: query equidistant from rows 0 and 1
    data = np.array([[0.0, 0, 0], [2.0, 0, 0]])
    assert SpatialIndex(data).nearest(np.array([1.0, 0.0, 0.0])).tolist() == [0]
    bf_idx, _ = nearest_bruteforce(data, np.array([[1.0, 0.0, 0.0]]))
    assert bf_idx[0] == 0


def test_index_feature_space_requires_features():
    with pytest.raises(EmptyCloud):
        SpatialIndex(np.zeros((0, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_index_refuses_non_finite_vectors(bad):
    # a nan row would otherwise score below every other and be "nearest"
    with pytest.raises(ValueError, match="non-finite"):
        SpatialIndex(np.array([[bad, 0.0, 0.0], [1.0, 0.0, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_index_refuses_non_finite_queries(bad):
    index = SpatialIndex(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        index.nearest(np.array([bad, 0.0, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        index.nearest(np.array([[1.0, 0.0, 0.0], [0.0, bad, 0.0]]))


def test_index_refuses_squared_norms_that_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="index vectors must have squared norms below"):
            SpatialIndex(np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]]))
        index = SpatialIndex(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        for queries in ([[1e200, 0.0, 0.0], [9e199, 0.0, 0.0]],
                        [[1.0, 0.0, 0.0], [0.0, 1e155, 0.0]]):
            with pytest.raises(ValueError, match="queries must have squared norms below"):
                index.nearest(np.array(queries))


def test_index_matches_exactly_just_below_the_norm_limit():
    # squared norms a little under 2**1020: the scores of opposite vectors,
    # and their distances, come near 2**1022 without overflowing
    big = math.sqrt(2.0**1020) * (1.0 - 1e-15)
    data = np.array([[big, 0.0, 0.0], [-big, 0.0, 0.0], [0.0, big, 0.0], [0.0, 0.0, 0.0]])
    queries = np.array([[-big, 0.0, 0.0], [big, 0.0, 0.0], [0.0, -big, 0.0],
                        [big / 2, big / 2, 0.0], [1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_against_scan(data, queries)
        assert SpatialIndex(data).nearest(queries).tolist() == [1, 0, 3, 0, 3]


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000))
def test_index_agrees_with_scan_under_duplicates(seed):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 4, size=(60, 3)).astype(np.float64)  # many ties
    queries = rng.integers(0, 4, size=(20, 3)).astype(np.float64)
    index = SpatialIndex(base)
    got = index.nearest(queries)
    for row in range(20):
        want, _ = nearest_linear(base, queries[row])
        assert got[row] == want


def _check_against_scan(data, queries):
    idx = SpatialIndex(data).nearest(queries)
    bf_idx, bf_dist = nearest_bruteforce(data, queries)
    assert idx.tolist() == bf_idx.tolist()
    for row, q in enumerate(np.atleast_2d(queries)):
        assert (idx[row], bf_dist[row]) == nearest_linear(data, q)


def test_scan_breaks_exact_ties_and_duplicates_toward_lowest_index(rng):
    base = rng.normal(size=(6, 11))
    # rows 2 and 7 coincide, as do 4, 5 and 9; the queries sit on them
    data = np.concatenate([base[:2], base[2:3], base[3:], base[2:3], base[4:5], base[4:5]])
    _check_against_scan(data, data)
    # equidistant from two stored vectors, with a third further out
    data = np.array([[2.0, 0.0], [0.0, 0.0], [-2.0, 0.0], [0.0, 5.0]])
    _check_against_scan(data, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    assert SpatialIndex(data).nearest(np.array([1.0, 0.0])).tolist() == [0]


def test_scan_separates_distances_one_ulp_apart():
    near = 0.7
    far = np.nextafter(near, 1.0)
    for data in (np.array([[far, 0.0, 0.0], [near, 0.0, 0.0], [3.0, 0.0, 0.0]]),
                 np.array([[near, 0.0, 0.0], [far, 0.0, 0.0], [-far, 0.0, 0.0]])):
        _check_against_scan(data, np.zeros(3))
    # seen from (1, 0, 0), the first two rows round to one |b|^2 and so
    # to one score; only their distances, 1e-3 and 1 ulp more, differ
    near = 1e-3
    far = np.nextafter(near, 1.0)
    data = np.array([[1.0, 0.0, far], [1.0, near, 0.0], [1.0, 0.0, 2e-3]])
    _check_against_scan(data, np.array([1.0, 0.0, 0.0]))
    assert SpatialIndex(data).nearest(np.array([1.0, 0.0, 0.0])).tolist() == [1]
    # the same pair competing for second place behind an exact match
    data = np.concatenate([data[:2], [[1.0, 0.0, 0.0]]])
    _check_against_scan(data, np.array([1.0, 0.0, 0.0]))


def test_scan_handles_zero_rows():
    data = np.zeros((5, 11))
    data[3, 0] = 1.0
    _check_against_scan(data, np.zeros((2, 11)))
    _check_against_scan(data, np.eye(11)[:3])


def test_scan_is_exact_on_unnormalized_rows(rng):
    data = rng.normal(size=(300, 11)) * 1e6
    # near-duplicates a few ulps of the row norm apart, and exact copies
    data[150:160] = data[:10] * (1.0 + 4.0 * np.finfo(np.float64).eps)
    data[160:170] = data[:10]
    _check_against_scan(data, np.concatenate([data[:20], rng.normal(size=(20, 11)) * 1e6]))
    # 1e-2 apart at 1e6 from the origin: the rounding of the scores, about
    # 1e-4, exceeds most gaps between squared distances, about 1e-5
    offset = np.zeros(11)
    offset[0] = 1e6
    data = offset + rng.normal(size=(300, 11)) * 1e-2
    _check_against_scan(data, offset + rng.normal(size=(40, 11)) * 1e-2)


def test_scan_with_one_stored_vector():
    data = np.array([[1.0, 2.0, 2.0]])
    _check_against_scan(data, np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]]))


def test_scan_takes_a_one_dimensional_query(rng):
    data = rng.normal(size=(40, 11))
    idx = SpatialIndex(data).nearest(data[7] + 1e-3)
    assert idx.shape == (1,)
    _check_against_scan(data, data[7] + 1e-3)


def test_scan_refuses_a_query_of_another_dimension():
    with pytest.raises(ValueError, match="length 11"):
        SpatialIndex(np.zeros((5, 11))).nearest(np.zeros((2, 3)))


def test_scan_results_do_not_depend_on_the_block_size(monkeypatch, rng):
    geometry = importlib.import_module("rigidreg.geometry")
    grid = rng.integers(0, 3, size=(200, 5)).astype(np.float64)  # many ties
    cases = [(grid, rng.integers(0, 3, size=(90, 5)).astype(np.float64)),
             (rng.normal(size=(500, 11)), rng.normal(size=(300, 11)))]
    default = [SpatialIndex(d).nearest(q) for d, q in cases]
    monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", 1)  # one query row per block
    for (d, q), idx in zip(cases, default):
        assert np.array_equal(SpatialIndex(d).nearest(q), idx)


def _hard_nearest_cases(rng):
    """(stored, queries) pairs whose nearest rows take the exact distances."""
    near = 1e-3
    far = np.nextafter(near, 1.0)
    ulp = np.array([[1.0, 0.0, far], [1.0, near, 0.0], [1.0, 0.0, 2e-3]])
    grid = rng.integers(0, 3, size=(40, 3)).astype(np.float64)
    return [
        # equidistant from rows 0 and 1, with a third further out
        (np.array([[2.0, 0.0], [0.0, 0.0], [-2.0, 0.0], [0.0, 5.0]]),
         np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])),
        # duplicates on a small grid: many exact ties
        (grid, rng.integers(0, 3, size=(25, 3)).astype(np.float64)),
        # rows 1 ulp apart in distance that share a score, alone and behind
        # an exact match
        (ulp, np.tile([1.0, 0.0, 0.0], (5, 1))),
        (np.concatenate([ulp[:2], [[1.0, 0.0, 0.0]]]), np.tile([1.0, 0.0, 0.0], (5, 1))),
        # one stored vector
        (np.array([[1.0, 2.0, 2.0]]), np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [3.0, 0.0, 1.0]])),
    ]


@pytest.mark.parametrize("rows_per_block", [None, 2], ids=["default-blocks", "2-row-blocks"])
def test_nearest_agrees_with_the_oracle_on_hard_rows(monkeypatch, rng, rows_per_block):
    geometry = importlib.import_module("rigidreg.geometry")
    for data, queries in _hard_nearest_cases(rng):
        if rows_per_block is not None:
            # hard rows fall on both sides of each split between blocks
            monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", rows_per_block * len(data))
        index = SpatialIndex(data)
        want_idx, _ = nearest_bruteforce(data, queries)
        assert index.nearest(queries).tolist() == want_idx.tolist()


def test_scan_memory_stays_bounded(rng):
    # a whole 4000 x 4000 distance matrix would take 128 MB
    index = SpatialIndex(rng.normal(size=(4000, 11)))
    queries = rng.normal(size=(4000, 11))
    tracemalloc.start()
    try:
        index.nearest(queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
