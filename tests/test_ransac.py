"""Minimal-sample consensus registration (the safeguard branch)."""

import math

import numpy as np
import pytest

from rigidreg import (
    CorrespondenceSet,
    EmptyCorrespondences,
    NoConsensus,
    PointCloud,
    RansacConfig,
    SAFEGUARD_BRANCH,
    TooFewCorrespondences,
    WeightVector,
    inlier_fraction,
    ransac_register,
)

from _oracles import quaternion_angle, random_rotation


def _identity_matches(n):
    return CorrespondenceSet(np.column_stack([np.arange(n), np.arange(n)]), n, n)


def _corrupted_pair(seed, n=200, outlier_ratio=0.8):
    """Exact transform on the inliers; outliers displaced by at least 0.2,
    well clear of a 2 cm consensus threshold."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, 3))
    R = random_rotation(rng)
    t = rng.normal(size=3)
    Y = X @ R.T + t
    k = int(n * outlier_ratio)
    bad = rng.choice(n, size=k, replace=False)
    offs = rng.normal(size=(k, 3))
    offs /= np.linalg.norm(offs, axis=1, keepdims=True)
    Y[bad] += offs * rng.uniform(0.2, 1.0, size=(k, 1))
    return _identity_matches(n), PointCloud(X), PointCloud(Y), R, t


# ---------------------------------------------------------------------------
# config and the weight statistic
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        RansacConfig(max_iterations=0)
    with pytest.raises(ValueError):
        RansacConfig(inlier_threshold=0.0)
    with pytest.raises(ValueError):
        RansacConfig(confidence=1.0)


def test_inlier_fraction_hand_value():
    w = WeightVector(np.array([0.8, 0.2, 0.9, 0.5]))
    assert abs(inlier_fraction(w, 0.4) - 0.55) < 1e-15  # (0.8+0.9+0.5)/4
    w = WeightVector(np.array([0.8, 0.2, 0.6]))
    assert abs(inlier_fraction(w, 0.4) - (0.8 + 0.6) / 3.0) < 1e-15
    assert inlier_fraction(WeightVector(np.ones(6)), 0.99) == 1.0
    assert inlier_fraction(WeightVector(np.array([0.1, 0.4, 0.0])), 0.4) == 0.0


def test_inlier_fraction_strict_threshold():
    w = WeightVector(np.array([0.4, 0.8]))
    assert abs(inlier_fraction(w, 0.4) - 0.4) < 1e-15  # 0.4 itself filtered


def test_inlier_fraction_empty_raises():
    with pytest.raises(EmptyCorrespondences):
        inlier_fraction(WeightVector(np.zeros(0)), 0.4)


# ---------------------------------------------------------------------------
# consensus registration
# ---------------------------------------------------------------------------

def test_recovers_exact_transform_without_outliers():
    matches, src, tgt, R, t = _corrupted_pair(seed=7, outlier_ratio=0.0)
    # every sample is all-inlier, so a 10-iteration budget is plenty
    cfg = RansacConfig(max_iterations=10, inlier_threshold=0.02, seed=1)
    res = ransac_register(matches, src, tgt, cfg)
    assert quaternion_angle(res.transform.rotation, R) < 1e-12
    assert np.abs(res.transform.translation - t).max() < 1e-12
    assert res.inlier_fraction == 1.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_unrelated_clouds_yield_no_usable_model(seed):
    # no rigid relation: either no consensus at all or a tiny accidental one
    rng = np.random.default_rng(seed)
    n = 50
    src = PointCloud(rng.uniform(-1.0, 1.0, size=(n, 3)))
    tgt = PointCloud(rng.uniform(-1.0, 1.0, size=(n, 3)))
    cfg = RansacConfig(max_iterations=300, inlier_threshold=0.05, seed=seed)
    try:
        res = ransac_register(_identity_matches(n), src, tgt, cfg)
    except NoConsensus:
        return
    assert res.inlier_fraction * n <= 5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_survives_eighty_percent_outliers(seed):
    # 200 pairs, 160 corrupted, 2 cm threshold, default 10k iteration budget
    matches, src, tgt, R, t = _corrupted_pair(seed=seed)
    cfg = RansacConfig(max_iterations=10_000, inlier_threshold=0.02, seed=seed)
    res = ransac_register(matches, src, tgt, cfg)
    assert math.degrees(quaternion_angle(res.transform.rotation, R)) < 1e-9
    assert np.linalg.norm(res.transform.translation - t) < 1e-12
    assert abs(res.inlier_fraction - 0.2) < 1e-15  # exactly the clean 40/200
    assert res.branch == SAFEGUARD_BRANCH
    assert res.trace is None
    assert res.correspondence_count == 200


def test_tolerates_noisy_inliers():
    rng = np.random.default_rng(42)
    n = 150
    X = rng.uniform(-1.0, 1.0, size=(n, 3))
    R = random_rotation(rng)
    t = rng.normal(size=3)
    Y = X @ R.T + t + rng.normal(size=(n, 3)) * 0.005
    bad = rng.choice(n, size=105, replace=False)
    offs = rng.normal(size=(105, 3))
    offs /= np.linalg.norm(offs, axis=1, keepdims=True)
    Y[bad] += offs * rng.uniform(0.2, 1.0, size=(105, 1))
    res = ransac_register(
        _identity_matches(n), PointCloud(X), PointCloud(Y),
        RansacConfig(inlier_threshold=0.02, seed=5),
    )
    assert math.degrees(quaternion_angle(res.transform.rotation, R)) <= 0.5
    assert np.linalg.norm(res.transform.translation - t) <= 5e-3


def test_deterministic_for_fixed_seed():
    matches, src, tgt, _, _ = _corrupted_pair(seed=3)
    cfg = RansacConfig(inlier_threshold=0.02, seed=11)
    a = ransac_register(matches, src, tgt, cfg)
    b = ransac_register(matches, src, tgt, cfg)
    np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)
    np.testing.assert_array_equal(a.transform.translation, b.transform.translation)
    assert a.inlier_fraction == b.inlier_fraction


def test_adaptive_exit_makes_huge_budgets_cheap():
    # all-inlier data collapses the required hypothesis count to 1, so an
    # absurd iteration budget must return immediately rather than run out
    matches, src, tgt, R, _ = _corrupted_pair(seed=7, outlier_ratio=0.0)
    cfg = RansacConfig(max_iterations=10_000_000, inlier_threshold=0.02, seed=1)
    res = ransac_register(matches, src, tgt, cfg)
    assert quaternion_angle(res.transform.rotation, R) < 1e-12


def test_no_consensus_when_nothing_agrees():
    # random targets: a 3-pair rigid fit cannot interpolate them, so a
    # vanishing threshold leaves every hypothesis without support
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10, 3))
    Y = rng.normal(size=(10, 3))
    cfg = RansacConfig(max_iterations=50, inlier_threshold=1e-12)
    with pytest.raises(NoConsensus):
        ransac_register(_identity_matches(10), PointCloud(X), PointCloud(Y), cfg)


def test_collinear_sources_cannot_form_hypotheses():
    line = np.linspace(0.0, 1.0, 20)[:, None] * np.array([1.0, 1.0, 0.0])
    src = PointCloud(line)
    tgt = PointCloud(line + 0.1)
    with pytest.raises(NoConsensus):
        ransac_register(_identity_matches(20), src, tgt, RansacConfig(max_iterations=20))


def test_too_few_pairs():
    pts = PointCloud(np.eye(3)[:2])
    with pytest.raises(TooFewCorrespondences):
        ransac_register(_identity_matches(2), pts, pts, RansacConfig())
