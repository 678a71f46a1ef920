"""Descriptors, matching, inlier labels, and weight providers."""

import importlib
import math
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
from scipy.sparse import coo_array
from scipy.spatial import cKDTree

from rigidreg import (
    CorrespondenceSet,
    DimensionMismatch,
    FeatureConfig,
    HeuristicWeighter,
    MissingFeatures,
    OracleWeighter,
    PointCloud,
    RigidTransform,
    SyntheticPairSpec,
    UniformWeighter,
    WeightLengthMismatch,
    WeightVector,
    compute_features,
    generate_pair,
    label_inliers,
    match_nearest,
    voxel_downsample,
    weigh,
)

from _oracles import rodrigues


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_correspondence_set_validation():
    CorrespondenceSet(np.array([[0, 1], [1, 0]]), 2, 2)
    with pytest.raises(ValueError):
        CorrespondenceSet(np.array([[0, 0], [0, 1]]), 2, 2)  # duplicate source
    with pytest.raises(ValueError):
        CorrespondenceSet(np.array([[0, 2]]), 1, 2)  # target out of range
    with pytest.raises(ValueError):
        CorrespondenceSet(np.array([[-1, 0]]), 1, 1)
    assert len(CorrespondenceSet(np.zeros((0, 2), dtype=np.int64), 5, 5)) == 0


def test_weight_vector_validation():
    WeightVector(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        WeightVector(np.array([1.0001]))
    with pytest.raises(ValueError):
        WeightVector(np.array([-0.1]))
    with pytest.raises(ValueError):
        WeightVector(np.array([np.nan]))


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_feature_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig("no_such_descriptor")
    # coordinates as features are not rotation invariant
    with pytest.raises(ValueError):
        FeatureConfig("raw_xyz")
    with pytest.raises(ValueError):
        FeatureConfig("local_histogram", radius=0.0)
    with pytest.raises(ValueError):
        FeatureConfig("local_histogram", bins=1)
    # an infinite radius would make every pair of points neighbors
    for radius in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            FeatureConfig("local_histogram", radius=radius)
    # a fractional bin count used to fail later, inside compute_features
    for bins in (2.5, 8.0):
        with pytest.raises(ValueError):
            FeatureConfig("local_histogram", bins=bins)
    assert FeatureConfig("local_histogram", bins=np.int64(4)).bins == 4


def test_isolated_point_descriptor_is_unit_bin_zero():
    # no neighbors within the radius: histogram holds only the self count
    # and the covariance is zero, so the descriptor is exactly e_0
    pts = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    out = compute_features(PointCloud(pts), FeatureConfig("local_histogram", radius=0.25, bins=8))
    expected = np.zeros(11)
    expected[0] = 1.0
    np.testing.assert_array_equal(out.features[0], expected)
    np.testing.assert_array_equal(out.features[1], expected)  # identical by symmetry


def test_two_point_descriptor_hand_value():
    # one neighbor at distance 0.1 with radius 0.25 and 8 bins:
    # slot = floor(0.1 / 0.25 * 8) = 3, histogram (1, 0, 0, 1, 0, ...)/2,
    # covariance has a single nonzero eigenvalue, eigen fractions (1, 0, 0),
    # then the row is L2-normalized: norm^2 = 0.25 + 0.25 + 1 = 1.5
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
    out = compute_features(PointCloud(pts), FeatureConfig("local_histogram", radius=0.25, bins=8))
    s = 1.0 / math.sqrt(1.5)
    expected = np.array([0.5 * s, 0, 0, 0.5 * s, 0, 0, 0, 0, s, 0, 0])
    np.testing.assert_allclose(out.features[0], expected, atol=1e-12)
    np.testing.assert_allclose(out.features[1], expected, atol=1e-12)


def test_neighbor_at_exactly_radius_lands_in_last_bin():
    # query_pairs is inclusive, so a neighbor at distance == radius counts;
    # slot = floor(0.25 / 0.25 * 8) = 8 is clamped to bins - 1 = 7, giving
    # histogram (1, 0, ..., 0, 1)/2 and the same eigen fractions as above
    pts = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0]])
    out = compute_features(PointCloud(pts), FeatureConfig("local_histogram", radius=0.25, bins=8))
    s = 1.0 / math.sqrt(1.5)
    expected = np.array([0.5 * s, 0, 0, 0, 0, 0, 0, 0.5 * s, s, 0, 0])
    np.testing.assert_allclose(out.features[0], expected, atol=1e-12)
    np.testing.assert_allclose(out.features[1], expected, atol=1e-12)


def test_duplicate_point_lands_in_bin_zero():
    # a duplicate is a neighbor at d = 0: slot 0, histogram (2, 0, ...)/2,
    # and the covariance of two equal points is exactly zero, so the
    # descriptor is exactly e_0
    pts = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]])
    out = compute_features(PointCloud(pts), FeatureConfig("local_histogram", radius=0.25, bins=8))
    expected = np.zeros(11)
    expected[0] = 1.0
    np.testing.assert_array_equal(out.features, [expected, expected])


def test_descriptor_rigid_invariance(patch_cloud, rng):
    cfg = FeatureConfig("local_histogram", radius=0.25, bins=8)
    base = compute_features(patch_cloud, cfg)
    T = RigidTransform(rodrigues(rng.normal(size=3), 1.3), np.array([0.4, -2.0, 1.1]))
    moved = compute_features(PointCloud(T.apply(patch_cloud.points)), cfg)
    assert np.abs(moved.features - base.features).max() < 1e-9


def test_descriptor_deterministic(patch_cloud):
    cfg = FeatureConfig("local_histogram")
    a = compute_features(patch_cloud, cfg)
    b = compute_features(patch_cloud, cfg)
    np.testing.assert_array_equal(a.features, b.features)


def test_descriptor_separates_shapes():
    # a point inside a dense ball and an isolated point must not collide
    rng = np.random.default_rng(0)
    ball = rng.normal(scale=0.05, size=(40, 3))
    pts = np.vstack([ball, [[5.0, 5.0, 5.0]]])
    out = compute_features(PointCloud(pts), FeatureConfig("local_histogram"))
    assert np.linalg.norm(out.features[0] - out.features[-1]) > 0.1


def test_precomputed_descriptor_renormalizes():
    cloud = PointCloud(np.zeros((2, 3)), features=np.array([[3.0, 4.0], [0.0, 0.0]]))
    out = compute_features(cloud, FeatureConfig("precomputed"))
    np.testing.assert_allclose(out.features[0], [0.6, 0.8], atol=1e-15)
    np.testing.assert_array_equal(out.features[1], [0.0, 0.0])
    with pytest.raises(MissingFeatures):
        compute_features(PointCloud(np.zeros((2, 3))), FeatureConfig("precomputed"))


def _add_at_local_histogram(points, radius, bins):
    """The local histogram as scattered pair by pair with ``np.add.at``: a
    frozen copy of the descriptor the bincount sums replaced, kept only as
    a reference that the package's descriptor must equal bit for bit."""
    n = points.shape[0]
    pair_idx = cKDTree(points).query_pairs(radius, output_type="ndarray")
    hist = np.zeros((n, bins), dtype=np.float64)
    hist[:, 0] = 1.0
    count = np.ones(n, dtype=np.float64)
    first = points.copy()
    second = np.einsum("ni,nj->nij", points, points)
    if pair_idx.shape[0] > 0:
        a = pair_idx[:, 0]
        b = pair_idx[:, 1]
        d = np.linalg.norm(points[a] - points[b], axis=1)
        slot = np.minimum((d / radius * bins).astype(np.int64), bins - 1)
        np.add.at(hist, (a, slot), 1.0)
        np.add.at(hist, (b, slot), 1.0)
        np.add.at(count, a, 1.0)
        np.add.at(count, b, 1.0)
        np.add.at(first, a, points[b])
        np.add.at(first, b, points[a])
        np.add.at(second, a, np.einsum("ni,nj->nij", points[b], points[b]))
        np.add.at(second, b, np.einsum("ni,nj->nij", points[a], points[a]))
    hist /= count[:, None]
    mean = first / count[:, None]
    cov = second / count[:, None, None] - np.einsum("ni,nj->nij", mean, mean)
    eig = np.clip(np.linalg.eigvalsh(cov)[:, ::-1], 0.0, None)
    total = eig.sum(axis=1, keepdims=True)
    eig = np.where(total > 0.0, eig / np.where(total > 0.0, total, 1.0), 0.0)
    feats = np.concatenate([hist, eig], axis=1)
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    return np.where(norms > 0.0, feats / np.where(norms > 0.0, norms, 1.0), 0.0)


# the dense main-branch pairs (registered at 2 cm voxels) and the
# default-pipeline outlier pairs (5 cm voxels) of the benchmark
_DENSE_RECIPE = dict(n_points=6000, overlap_ratio=1.0, noise_sigma=0.002, outlier_ratio=0.0)
_OUTLIER_RECIPE = dict(n_points=1000, overlap_ratio=0.8, noise_sigma=0.005, outlier_ratio=0.3)


def _recipe_clouds(recipe, voxel_size, seed):
    pair = generate_pair(SyntheticPairSpec(**recipe, seed=seed))
    return [voxel_downsample(c, voxel_size, 0) for c in (pair.source, pair.target)]


def _fixed_clouds(*points):
    return [PointCloud(np.asarray(p, dtype=np.float64)) for p in points]


def _unit_cube_clouds(n):
    return [PointCloud(np.random.default_rng(n).uniform(0.0, 1.0, size=(n, 3)))]


@pytest.mark.parametrize(
    "make_clouds, radius, bins",
    [
        pytest.param(partial(_recipe_clouds, _DENSE_RECIPE, 0.02, 11), 0.25, 8, id="dense"),
        *[
            pytest.param(partial(_recipe_clouds, _OUTLIER_RECIPE, 0.05, seed), radius, bins,
                         id=f"outliers-{seed}-r{radius}-b{bins}")
            for seed in (3, 4)
            for radius, bins in [(0.25, 8), (0.1, 3), (0.5, 16), (1e-6, 2)]
        ],
        pytest.param(partial(_fixed_clouds, [[0.3, -0.2, 0.7]]), 0.25, 8, id="single-point"),
        pytest.param(partial(_fixed_clouds, [[0.1, -0.4, 2.0]] * 4), 0.25, 8, id="duplicates"),
        pytest.param(partial(_fixed_clouds, [[0.25 * k, 0.0, 0.0] for k in range(6)]),
                     0.25, 8, id="chain-at-radius"),
        # a radius longer than the cube's diagonal: every point pairs with
        # every other, e = n(n - 1)/2
        pytest.param(partial(_unit_cube_clouds, 300), 2.0, 8, id="all-neighbours"),
        pytest.param(partial(_recipe_clouds, _OUTLIER_RECIPE, 0.05, 5), 0.5, 3,
                     id="outliers-5-r0.5-b3"),
    ],
)
def test_descriptor_matches_add_at_reference(make_clouds, radius, bins):
    cfg = FeatureConfig("local_histogram", radius=radius, bins=bins)
    for cloud in make_clouds():
        expected = _add_at_local_histogram(cloud.points, radius, bins)
        assert np.array_equal(compute_features(cloud, cfg).features, expected)


@pytest.mark.parametrize(
    "order, expected",
    [((0, 1, 2), 0.0), ((0, 2, 1), 1.0), ((1, 0, 2), 0.0)],
)
def test_coo_product_adds_entries_in_stored_order(order, expected):
    # the descriptor's neighborhood sums and the safeguard's power steps
    # (``upper @ v + upper.T @ v``) are bit-identical only if scipy's COO
    # product starts each row from 0.0 and adds the entries in stored
    # order, for a block of columns and for one vector, through the matrix
    # and through its transpose. 1e16 + 1.0 rounds back to 1e16, so the
    # order of 1e16, 1.0 and -1e16 decides whether the row sums to 0.0 or
    # to 1.0
    values = np.array([1e16, 1.0, -1e16])
    total = 0.0
    for k in order:
        total += 1.0 * values[k]
    assert total == expected
    row = np.zeros(3, dtype=np.int32)
    col = np.array(order, dtype=np.int32)
    product = coo_array((np.ones(3), (row, col)), shape=(1, 3))
    columns = np.repeat(values[:, None], 9, axis=1)
    assert np.array_equal(product @ columns, np.full((1, 9), expected))
    # a one-row product of a vector comes back as a scalar
    assert product @ values == expected
    transposed = coo_array((np.ones(3), (col, row)), shape=(3, 1))
    assert transposed.T @ values == expected


def test_descriptor_memory_stays_bounded():
    # a dense cloud: about 3.7k points and 0.5M neighbor pairs. The peak is
    # the neighborhood product's entries, 16 bytes each for n + 2e of them,
    # about 16 MB here; one more float array over all the entries, such as
    # the stream the bincount sums gathered into, would not fit under the
    # bound
    cloud = _recipe_clouds(_DENSE_RECIPE, 0.02, 11)[0]
    cfg = FeatureConfig("local_histogram", radius=0.25, bins=8)
    tracemalloc.start()
    try:
        compute_features(cloud, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20


def test_distance_histogram_holds_no_pair_sized_array():
    # the dense cloud above has about 0.5M neighbor pairs. The histogram
    # pass takes them in chunks of 2**14, a few chunk-sized arrays at once
    # (about 1 MB); a float64 per pair alone takes about 4 MB here, and a
    # whole-list pass peaks at about 11 MB
    cloud = _recipe_clouds(_DENSE_RECIPE, 0.02, 11)[0]
    module = importlib.import_module("rigidreg.correspondence")
    row = module._neighbor_rows(cloud.points, 0.25)
    pairs = (row.shape[0] - len(cloud)) // 2
    tracemalloc.start()
    try:
        module._distance_histogram(cloud.points, row, 0.25, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pairs > 400_000
    assert peak < 8 * pairs


def test_descriptor_frees_the_pair_list_before_the_product(monkeypatch):
    # tracemalloc does not see the (e, 2) array that query_pairs returns
    # (7.6 MB on the dense cloud above), so that bound cannot tell whether
    # it is still alive next to the product's entries; a weak reference can
    module = importlib.import_module("rigidreg.correspondence")
    pair_lists = []

    class Tree(cKDTree):
        def query_pairs(self, *args, **kwargs):
            pairs = super().query_pairs(*args, **kwargs)
            pair_lists.append(weakref.ref(pairs))
            return pairs

    built = []

    def adjacency(*args, **kwargs):
        assert pair_lists[-1]() is None, "the query_pairs list is alive at the product"
        built.append(True)
        return coo_array(*args, **kwargs)

    monkeypatch.setattr(module, "cKDTree", Tree)
    monkeypatch.setattr(module, "coo_array", adjacency)
    cloud = _recipe_clouds(_OUTLIER_RECIPE, 0.05, 5)[0]
    compute_features(cloud, FeatureConfig("local_histogram", radius=0.25, bins=8))
    assert len(pair_lists) == 1 and built == [True]


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def test_match_identity_on_distinct_descriptors(patch_cloud):
    cfg = FeatureConfig("local_histogram", radius=0.25, bins=8)
    src = compute_features(patch_cloud, cfg)
    # the fixture is built so every neighborhood differs; check that first
    f = src.features
    gram = f @ f.T
    np.fill_diagonal(gram, -1.0)
    assert gram.max() < 1.0 - 1e-12
    matches = match_nearest(src, src)
    np.testing.assert_array_equal(matches.pairs[:, 0], np.arange(len(src)))
    np.testing.assert_array_equal(matches.pairs[:, 1], np.arange(len(src)))


def test_match_picks_nearer_feature():
    src = PointCloud(np.zeros((1, 3)), features=np.array([[1.0, 0.0]]))
    tgt = PointCloud(np.zeros((2, 3)), features=np.array([[0.0, 1.0], [0.9, 0.1]]))
    assert match_nearest(src, tgt).pairs.tolist() == [[0, 1]]


def test_match_ties_resolve_to_lowest_target():
    feats = np.array([[1.0, 0.0]])
    src = PointCloud(np.zeros((1, 3)), features=feats)
    tgt = PointCloud(np.zeros((3, 3)), features=np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]))
    matches = match_nearest(src, tgt)
    assert matches.pairs.tolist() == [[0, 1]]


def test_match_agrees_with_bruteforce_argmin(rng):
    src = PointCloud(rng.normal(size=(500, 3)), features=rng.normal(size=(500, 4)))
    tgt = PointCloud(rng.normal(size=(500, 3)), features=rng.normal(size=(500, 4)))
    matches = match_nearest(src, tgt)
    diff = src.features[:, None, :] - tgt.features[None, :, :]
    expected = np.argmin(np.einsum("ijk,ijk->ij", diff, diff), axis=1)
    np.testing.assert_array_equal(matches.pairs[:, 1], expected)


def test_match_requires_compatible_features(patch_cloud):
    with pytest.raises(MissingFeatures):
        match_nearest(patch_cloud, patch_cloud)
    a = PointCloud(np.zeros((2, 3)), features=np.zeros((2, 4)))
    b = PointCloud(np.zeros((2, 3)), features=np.zeros((2, 5)))
    with pytest.raises(DimensionMismatch):
        match_nearest(a, b)


def test_label_inliers_strict_threshold():
    tau = 0.05
    src = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    tgt = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, tau, 0.0]]))
    matches = CorrespondenceSet(np.array([[0, 0], [1, 1]]), 2, 2)
    labels = label_inliers(matches, src, tgt, RigidTransform.identity(), tau)
    assert labels.dtype == bool and not labels.flags.writeable
    assert labels.tolist() == [True, False]  # residual == tau is out
    with pytest.raises(ValueError):
        label_inliers(matches, src, tgt, RigidTransform.identity(), 0.0)


def test_oracle_tau_must_be_finite():
    # an infinite tau labels every match an inlier
    src = PointCloud(np.eye(3))
    matches = CorrespondenceSet(np.array([[0, 1], [1, 2], [2, 0]]), 3, 3)
    with pytest.raises(ValueError, match="tau must be finite"):
        label_inliers(matches, src, src, RigidTransform.identity(), math.inf)
    with pytest.raises(ValueError, match="tau must be finite"):
        OracleWeighter(RigidTransform.identity(), math.inf)


def test_feature_config_checks_radius_and_bins_for_every_descriptor():
    with pytest.raises(ValueError, match="radius"):
        FeatureConfig("precomputed", radius=-1.0)
    with pytest.raises(ValueError, match="bins"):
        FeatureConfig("precomputed", bins=0)


def test_label_inliers_matches_construction(rng):
    tau = 0.05
    X = rng.uniform(-1.0, 1.0, size=(100, 3))
    truth = RigidTransform(rodrigues(np.array([0.1, 0.5, -0.3]), 0.8), np.array([0.2, 0.0, -0.4]))
    Y = truth.apply(X)
    corrupt = rng.choice(100, size=30, replace=False)
    bumps = rng.normal(size=(30, 3))
    bumps /= np.linalg.norm(bumps, axis=1, keepdims=True)
    Y[corrupt] += bumps * (2.5 * tau)  # residual > 2 tau, clearly outside
    matches = CorrespondenceSet(np.column_stack([np.arange(100), np.arange(100)]), 100, 100)
    labels = label_inliers(matches, PointCloud(X), PointCloud(Y), truth, tau)
    expected = np.ones(100, dtype=bool)
    expected[corrupt] = False
    np.testing.assert_array_equal(labels, expected)


# ---------------------------------------------------------------------------
# weight providers
# ---------------------------------------------------------------------------

def _tiny_pair():
    src = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    tgt = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    matches = CorrespondenceSet(np.array([[0, 0], [1, 1]]), 2, 2)
    return matches, src, tgt


def test_uniform_weighter_is_all_ones():
    matches, src, tgt = _tiny_pair()
    w = weigh(matches, src, tgt, UniformWeighter())
    np.testing.assert_array_equal(w.values, [1.0, 1.0])


def test_oracle_weighter_thresholds_true_residual():
    tau = 0.1
    src = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    tgt = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.099, 0.0], [2.0, tau, 0.0]]))
    matches = CorrespondenceSet(np.array([[0, 0], [1, 1], [2, 2]]), 3, 3)
    w = weigh(matches, src, tgt, OracleWeighter(RigidTransform.identity(), tau=tau))
    assert w.values.tolist() == [1.0, 1.0, 0.0]  # residual == tau scores 0
    w = weigh(matches, src, src, OracleWeighter(RigidTransform.identity(), tau=tau))
    assert w.values.tolist() == [1.0, 1.0, 1.0]  # every pair an inlier


def test_oracle_weighter_default_tau():
    src = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    tgt_in = PointCloud(np.array([[0.09, 0.0, 0.0]]))
    tgt_out = PointCloud(np.array([[0.11, 0.0, 0.0]]))
    matches = CorrespondenceSet(np.array([[0, 0]]), 1, 1)
    assert OracleWeighter(RigidTransform.identity())(matches, src, tgt_in)[0] == 1.0
    assert OracleWeighter(RigidTransform.identity())(matches, src, tgt_out)[0] == 0.0


def test_heuristic_weighter_hand_values():
    # 1-d features; pair 0: d1 = 1, second-nearest 9 -> 1 - 1/9 = 8/9
    #               pair 1: d1 = 3, second-nearest 5 -> 1 - 3/5 = 2/5
    # both matches are mutual nearest, so reciprocity keeps them
    src = PointCloud(np.zeros((2, 3)), features=np.array([[0.0], [6.0]]))
    tgt = PointCloud(np.zeros((2, 3)), features=np.array([[1.0], [9.0]]))
    matches = CorrespondenceSet(np.array([[0, 0], [1, 1]]), 2, 2)
    w = HeuristicWeighter()(matches, src, tgt)
    np.testing.assert_allclose(w, [8.0 / 9.0, 0.4], atol=1e-15)


def test_heuristic_weighter_zeroes_non_reciprocal():
    # source 2 at feature 0.5 steals target 0's back-match from source 0
    src = PointCloud(np.zeros((3, 3)), features=np.array([[0.0], [6.0], [0.5]]))
    tgt = PointCloud(np.zeros((2, 3)), features=np.array([[1.0], [9.0]]))
    matches = CorrespondenceSet(np.array([[0, 0], [1, 1]]), 3, 2)
    w = HeuristicWeighter()(matches, src, tgt)
    assert w[0] == 0.0
    assert abs(w[1] - 0.4) < 1e-15


def test_heuristic_weighter_exact_match_scores_one():
    src = PointCloud(np.zeros((1, 3)), features=np.array([[1.0]]))
    tgt = PointCloud(np.zeros((2, 3)), features=np.array([[1.0], [9.0]]))
    matches = CorrespondenceSet(np.array([[0, 0]]), 1, 2)
    w = HeuristicWeighter()(matches, src, tgt)
    assert w[0] == 1.0


def test_heuristic_weighter_needs_features(patch_cloud):
    matches = CorrespondenceSet(np.array([[0, 0]]), len(patch_cloud), len(patch_cloud))
    with pytest.raises(MissingFeatures):
        HeuristicWeighter()(matches, patch_cloud, patch_cloud)


def test_weigh_validates_provider_output():
    matches, src, tgt = _tiny_pair()
    with pytest.raises(WeightLengthMismatch):
        weigh(matches, src, tgt, lambda m, s, t: np.array([1.0]))
    with pytest.raises(ValueError):
        weigh(matches, src, tgt, lambda m, s, t: np.array([0.5, 1.5]))

