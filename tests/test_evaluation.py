"""Error metrics, synthetic pair generation, and the benchmark harness."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

import rigidreg.evaluation
import rigidreg.io
from rigidreg import (
    FilePairSpec,
    PairMetrics,
    PipelineConfig,
    PointCloud,
    Preset,
    PRESETS,
    RigidTransform,
    SyntheticPairSpec,
    generate_pair,
    indoor_preset,
    outdoor_preset,
    pair_metrics,
    register,
    rotation_error,
    run_benchmark,
    translation_error,
    worker_count,
    write_ply,
)

from rigidreg.evaluation import _clear_of

from _oracles import quaternion_angle, random_rotation, rot_z, synthetic_pair_loop


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_rotation_error_hand_values():
    assert rotation_error(np.eye(3), np.eye(3)) == 0.0
    assert abs(rotation_error(rot_z(0.3), np.eye(3)) - 0.3) < 1e-12
    assert abs(rotation_error(rot_z(math.pi), np.eye(3)) - math.pi) < 1e-12


def test_rotation_error_matches_quaternion_oracle(rng):
    for _ in range(20):
        a = random_rotation(rng)
        b = random_rotation(rng)
        assert abs(rotation_error(a, b) - quaternion_angle(a, b)) < 1e-9


def test_rotation_error_clamps_rounding(rng):
    R = random_rotation(rng)
    assert rotation_error(R, R) == 0.0  # trace may exceed 3 by ulps


def test_translation_errors_hand_values():
    assert translation_error(np.array([1.0, 2.0, 2.0]), np.zeros(3)) == 3.0
    t = np.array([0.4, -0.2, 0.15])
    assert translation_error(t, t) == 0.0
    # 0.30 m is exactly the indoor success threshold
    assert translation_error(np.zeros(3), np.array([0.3, 0.0, 0.0])) == 0.30


def test_translation_error_forms_consistent(rng):
    for _ in range(10):
        a, b = rng.normal(size=3), rng.normal(size=3)
        te = translation_error(a, b)
        direct = math.sqrt(float(((a - b) ** 2).sum()))
        assert abs(te - direct) < 1e-15


def test_pair_metrics_strict_success():
    truth = RigidTransform.identity()
    re_t, te_t = 0.3, 0.1
    at_rot = RigidTransform(rot_z(re_t), np.zeros(3))
    assert not pair_metrics(at_rot, truth, re_t, te_t).success  # re == threshold
    at_trans = RigidTransform(np.eye(3), np.array([te_t, 0.0, 0.0]))
    assert not pair_metrics(at_trans, truth, re_t, te_t).success  # te == threshold
    near = RigidTransform(rot_z(re_t * 0.9), np.array([te_t * 0.9, 0.0, 0.0]))
    m = pair_metrics(near, truth, re_t, te_t)
    assert m.success and abs(m.re - re_t * 0.9) < 1e-12


def test_pair_metrics_validation():
    with pytest.raises(ValueError):
        PairMetrics(re=-0.1, te=0.0, success=False)
    with pytest.raises(ValueError):
        PairMetrics(re=4.0, te=0.0, success=False)
    with pytest.raises(ValueError):
        PairMetrics(re=0.0, te=-1.0, success=False)


# ---------------------------------------------------------------------------
# synthetic pairs
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticPairSpec(n_points=9)
    with pytest.raises(ValueError):
        SyntheticPairSpec(overlap_ratio=1.5)
    with pytest.raises(ValueError):
        SyntheticPairSpec(outlier_ratio=-0.1)
    with pytest.raises(ValueError):
        SyntheticPairSpec(noise_sigma=-1.0)
    with pytest.raises(ValueError):
        SyntheticPairSpec(transform_magnitude=(-1.0, 0.0))


def test_spec_refuses_a_fractional_point_count():
    # generate_pair would fail on it with a TypeError, outside any row
    with pytest.raises(ValueError, match="n_points"):
        SyntheticPairSpec(n_points=10.5)


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(dict(noise_sigma=math.nan), id="noise-nan"),
        pytest.param(dict(noise_sigma=math.inf), id="noise-inf"),
        pytest.param(dict(noise_sigma=-math.inf), id="noise-minus-inf"),
        pytest.param(dict(transform_magnitude=(math.nan, 1.0)), id="rotation-nan"),
        pytest.param(dict(transform_magnitude=(math.inf, 1.0)), id="rotation-inf"),
        pytest.param(dict(transform_magnitude=(math.pi, math.nan)), id="translation-nan"),
        pytest.param(dict(transform_magnitude=(math.pi, math.inf)), id="translation-inf"),
    ],
)
def test_spec_rejects_non_finite_recipes(spec):
    # NaN would pass a "< 0" test and then act as 0; infinity would reach
    # generate_pair and fail there, outside any per-pair error handling
    with pytest.raises(ValueError, match="finite"):
        SyntheticPairSpec(**spec)


@pytest.mark.parametrize("magnitude", [(1.0,), (1.0, 0.5, 0.5), 1.0, ()])
def test_spec_requires_two_magnitudes(magnitude):
    # generate_pair reads both entries; one alone built and then raised
    # IndexError there
    with pytest.raises(ValueError, match="transform_magnitude must be two"):
        SyntheticPairSpec(n_points=50, transform_magnitude=magnitude)


def test_generate_pair_deterministic():
    spec = SyntheticPairSpec(n_points=120, overlap_ratio=0.7, noise_sigma=0.01,
                             outlier_ratio=0.2, seed=9)
    a = generate_pair(spec)
    b = generate_pair(spec)
    np.testing.assert_array_equal(a.source.points, b.source.points)
    np.testing.assert_array_equal(a.target.points, b.target.points)
    np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)
    np.testing.assert_array_equal(a.correspondences.pairs, b.correspondences.pairs)
    np.testing.assert_array_equal(a.inlier_mask, b.inlier_mask)


def test_generate_pair_counts_and_magnitudes():
    spec = SyntheticPairSpec(n_points=200, overlap_ratio=0.8, outlier_ratio=0.25,
                             transform_magnitude=(0.4, 0.7), seed=3)
    pair = generate_pair(spec)
    assert len(pair.source) == 200
    assert len(pair.target) == 200
    assert len(pair.correspondences) == 160  # round(0.8 * 200)
    assert len(pair.inlier_mask) == 160
    assert rotation_error(pair.transform.rotation, np.eye(3)) <= 0.4 + 1e-12
    assert np.linalg.norm(pair.transform.translation) <= 0.7 + 1e-12


def test_generate_pair_labels_match_residuals():
    # noise-free: true pairs are exact, replaced targets sit beyond the
    # outlier clearance, so the construction labels are unambiguous
    pair = generate_pair(SyntheticPairSpec(n_points=300, overlap_ratio=1.0,
                                           outlier_ratio=0.3, seed=4))
    mapped = pair.transform.apply(pair.source.points[pair.correspondences.pairs[:, 0]])
    residual = np.linalg.norm(mapped - pair.target.points[pair.correspondences.pairs[:, 1]], axis=1)
    assert residual[pair.inlier_mask].max() < 1e-12
    assert residual[~pair.inlier_mask].min() > 0.2
    assert int((~pair.inlier_mask).sum()) == 90  # round(0.3 * 300), full overlap


def test_generate_pair_full_overlap_identity_magnitude():
    pair = generate_pair(SyntheticPairSpec(n_points=50, overlap_ratio=1.0,
                                           transform_magnitude=(0.0, 0.0), seed=1))
    np.testing.assert_allclose(pair.transform.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(pair.transform.translation, np.zeros(3), atol=1e-12)


def test_generate_pair_clean_target_is_mapped_source():
    # noise 0, outliers 0, full overlap: pulling the target back through the
    # inverse transform reproduces the source point for point
    pair = generate_pair(SyntheticPairSpec(n_points=150, overlap_ratio=1.0,
                                           noise_sigma=0.0, outlier_ratio=0.0, seed=7))
    i = pair.correspondences.pairs[:, 0]
    j = pair.correspondences.pairs[:, 1]
    back = pair.transform.inverse().apply(pair.target.points[j])
    np.testing.assert_allclose(back, pair.source.points[i], atol=1e-12)
    assert bool(pair.inlier_mask.all())


def test_generate_pair_half_outliers_exact_count():
    pair = generate_pair(SyntheticPairSpec(n_points=1000, overlap_ratio=1.0,
                                           outlier_ratio=0.5, seed=11))
    assert int((~pair.inlier_mask).sum()) == 500


def test_generate_pair_overlap_fraction():
    for n, seed in ((1000, 0), (997, 1), (640, 2)):
        pair = generate_pair(SyntheticPairSpec(n_points=n, overlap_ratio=0.3, seed=seed))
        assert 0.29 <= len(pair.correspondences) / n <= 0.31


# the benchmark's recipes: the outlier one also makes the safeguard suite
_OUTLIER_RECIPE = dict(n_points=1000, overlap_ratio=0.8, noise_sigma=0.005, outlier_ratio=0.3)
_DENSE_RECIPE = dict(n_points=6000, overlap_ratio=1.0, noise_sigma=0.002, outlier_ratio=0.0)
# a clearance of 2 m in a box about that wide: most draws are refused
_CROWDED_RECIPE = dict(n_points=50, overlap_ratio=0.8, noise_sigma=0.2, outlier_ratio=1.0)


def _assert_generated_as_by_the_loop(spec):
    """Every field of the pair bit for bit as the one-outlier-at-a-time
    generator makes it; returns that generator's draws per outlier."""
    pair = generate_pair(spec)
    want = synthetic_pair_loop(spec)
    for key, got in (("source", pair.source.points), ("target", pair.target.points),
                     ("rotation", pair.transform.rotation),
                     ("translation", pair.transform.translation),
                     ("pairs", pair.correspondences.pairs), ("inlier_mask", pair.inlier_mask)):
        assert (got.dtype, got.shape) == (want[key].dtype, want[key].shape), key
        assert got.tobytes() == want[key].tobytes(), key
    return want["draws"]


@pytest.mark.parametrize("seed", [0, 1, 101, 1701, 2**32 - 1])
@pytest.mark.parametrize("recipe", [_OUTLIER_RECIPE, _DENSE_RECIPE], ids=["outlier", "dense"])
def test_generate_pair_matches_the_loop_on_benchmark_recipes(recipe, seed):
    _assert_generated_as_by_the_loop(SyntheticPairSpec(**recipe, seed=seed))


@pytest.mark.parametrize("spec", [
    # README's suite line
    SyntheticPairSpec(n_points=500, overlap_ratio=0.8, noise_sigma=0.005, outlier_ratio=0.3,
                      transform_magnitude=(3.14, 1.0), seed=7),
    SyntheticPairSpec(n_points=200, outlier_ratio=0.0, seed=3),
    SyntheticPairSpec(n_points=200, noise_sigma=0.01, outlier_ratio=1.0, seed=3),
    SyntheticPairSpec(n_points=200, overlap_ratio=0.0, outlier_ratio=0.3, seed=4),
    SyntheticPairSpec(n_points=200, overlap_ratio=1.0, outlier_ratio=0.3, seed=4),
    SyntheticPairSpec(n_points=10, overlap_ratio=0.5, outlier_ratio=0.5, seed=5),
    # a clearance of 0.5 m: a tenth of the draws or so are refused
    SyntheticPairSpec(n_points=300, noise_sigma=0.05, outlier_ratio=0.9, seed=6),
], ids=["readme", "outliers-0", "outliers-1", "overlap-0", "overlap-1", "10-points",
        "clearance-0.5"])
def test_generate_pair_matches_the_loop_at_the_edges(spec):
    _assert_generated_as_by_the_loop(spec)


def test_generate_pair_matches_the_loop_when_draws_run_out():
    draws = [_assert_generated_as_by_the_loop(SyntheticPairSpec(**_CROWDED_RECIPE, seed=seed))
             for seed in range(8)]
    # outliers refused many times, and ones that kept their 100th draw
    assert max(max(d) for d in draws) == 100
    assert sum(count > 1 for d in draws for count in d) > 100


def test_outlier_clearance_is_decided_as_by_the_one_row_norm(rng):
    clearance = 0.2
    below, above = np.nextafter(clearance, 0.0), np.nextafter(clearance, 1.0)
    candidates = np.array([[clearance, 0.0, 0.0], [below, 0.0, 0.0], [above, 0.0, 0.0],
                           [0.0, 0.0, -clearance], [0.0, -above, 0.0]])
    target = np.array([0.5, -1.0, 2.0])
    for shift in (np.zeros(3), target):
        assert _clear_of(candidates + shift, shift, clearance).tolist() == [
            bool(np.linalg.norm(c - shift) > clearance) for c in candidates + shift]
    assert _clear_of(candidates, np.zeros((5, 3)), clearance).tolist() == [
        False, False, True, False, True]
    # rows whose axis=1 norm and 1-D norm differ in the last bit, with the
    # clearance at either value and one ulp either side
    rows = rng.uniform(-1.0, 1.0, size=(20000, 3))
    one_row = np.array([np.linalg.norm(row) for row in rows])
    differ = np.flatnonzero(np.linalg.norm(rows, axis=1) != one_row)
    assert len(differ) > 100
    for row in differ[:100]:
        for value in (one_row[row], np.linalg.norm(rows[row:row + 1], axis=1)[0]):
            for limit in (np.nextafter(value, 0.0), value, np.nextafter(value, 2.0)):
                got = _clear_of(rows[row:row + 1], np.zeros(3), float(limit))
                assert got.tolist() == [bool(np.linalg.norm(rows[row]) > limit)]


# ---------------------------------------------------------------------------
# presets and parallelism
# ---------------------------------------------------------------------------

def test_indoor_preset_values():
    p = indoor_preset()
    assert p.name == "indoor"
    assert p.pipeline.voxel_size == 0.05
    assert abs(p.re_threshold - math.radians(15.0)) < 1e-15
    assert p.te_threshold == 0.30


def test_outdoor_preset_values():
    p = outdoor_preset()
    assert p.name == "outdoor"
    assert p.pipeline.voxel_size == 0.30
    assert p.pipeline.ransac.inlier_threshold is None  # the safeguard reads voxel_size
    assert abs(p.re_threshold - math.radians(5.0)) < 1e-15
    assert p.te_threshold == 0.60


def test_outdoor_preset_is_indoor_scaled_by_six():
    indoor = indoor_preset().pipeline
    outdoor = outdoor_preset().pipeline
    lengths = [
        ("voxel_size", indoor.voxel_size, outdoor.voxel_size),
        ("feature.radius", indoor.feature.radius, outdoor.feature.radius),
        ("refine.huber_delta", indoor.refine.huber_delta, outdoor.refine.huber_delta),
    ]
    for name, small, large in lengths:
        assert math.isclose(large, 6.0 * small, rel_tol=1e-12), name
    # both RANSAC thresholds are unset, so each reads its own voxel_size
    assert indoor.ransac.inlier_threshold is None and outdoor.ransac.inlier_threshold is None
    # every other setting is indoor's
    assert dataclasses.replace(outdoor.feature, radius=indoor.feature.radius) == indoor.feature
    assert dataclasses.replace(outdoor.refine, huber_delta=indoor.refine.huber_delta) == indoor.refine
    assert outdoor.ransac == indoor.ransac
    assert dataclasses.replace(outdoor, voxel_size=indoor.voxel_size, feature=indoor.feature,
                               refine=indoor.refine, ransac=indoor.ransac) == indoor


def test_outdoor_preset_registers_pairs_scaled_by_six():
    preset = outdoor_preset()
    for seed in range(6):
        pair = generate_pair(SyntheticPairSpec(n_points=1000, overlap_ratio=0.9,
                                               noise_sigma=0.005, seed=seed))
        truth = RigidTransform(pair.transform.rotation, 6.0 * pair.transform.translation)
        result = register(PointCloud(6.0 * pair.source.points),
                          PointCloud(6.0 * pair.target.points), preset.pipeline)
        metrics = pair_metrics(result.transform, truth, preset.re_threshold,
                               preset.te_threshold)
        assert metrics.success, (seed, math.degrees(metrics.re), metrics.te)


def test_presets_mapping():
    assert set(PRESETS) == {"indoor", "outdoor"}
    assert isinstance(PRESETS["indoor"](), Preset)


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("DGR_THREADS", raising=False)
    default = worker_count()
    assert default >= 1
    monkeypatch.setenv("DGR_THREADS", "0")
    assert worker_count() == default
    monkeypatch.setenv("DGR_THREADS", "00")
    assert worker_count() == default
    monkeypatch.setenv("DGR_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("DGR_THREADS", "-2")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("DGR_THREADS", "junk")
    with pytest.raises(ValueError):
        worker_count()


def test_worker_count_follows_cpu_affinity(monkeypatch):
    # a process pinned to one CPU of a many-CPU host gets one worker
    monkeypatch.delenv("DGR_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert worker_count() == 1
    monkeypatch.setenv("DGR_THREADS", "3")
    assert worker_count() == 3


def test_worker_count_falls_back_to_the_cpu_count(monkeypatch):
    # a platform without CPU affinity
    monkeypatch.delenv("DGR_THREADS", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert worker_count() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1


@pytest.mark.parametrize("raw", ["abc", "-2", "1.5"])
def test_worker_count_error_names_the_variable(monkeypatch, raw):
    monkeypatch.setenv("DGR_THREADS", raw)
    with pytest.raises(ValueError) as err:
        worker_count()
    assert str(err.value) == f"DGR_THREADS must be a non-negative integer, got {raw!r}"


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------

_CLEAN_SUITE = [
    SyntheticPairSpec(n_points=200, overlap_ratio=1.0, noise_sigma=0.0,
                      outlier_ratio=0.0, transform_magnitude=(0.5, 0.5), seed=s)
    for s in range(6)
]


def test_run_benchmark_clean_suite():
    rep = run_benchmark(_CLEAN_SUITE, PipelineConfig(), math.radians(15.0), 0.30)
    assert rep.recall == 1.0
    assert dict(rep.branch_counts) == {"weighted_procrustes_refined": 6}
    assert math.degrees(rep.mean_re) < 3.0
    assert rep.mean_te < 0.05
    assert [r.pair_id for r in rep.records] == list(range(6))
    assert all(r.error is None for r in rep.records)
    assert set(rep.stage_seconds) == {"downsample", "features", "match", "weigh", "solve", "refine"}
    assert rep.total_seconds > 0.0


def test_run_benchmark_curves_shape_and_monotonicity():
    rep = run_benchmark(_CLEAN_SUITE, PipelineConfig(), math.radians(15.0), 0.30)
    assert len(rep.re_curve) == 61 and len(rep.te_curve) == 61
    assert rep.re_curve[0] == (0.0, 0.0)  # strict <: nothing beats threshold 0
    assert rep.te_curve[0] == (0.0, 0.0)
    assert abs(rep.re_curve[-1][0] - math.radians(30.0)) < 1e-12
    assert rep.te_curve[-1][0] == 0.6
    for curve in (rep.re_curve, rep.te_curve):
        recalls = [r for _, r in curve]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))
        assert curve[-1][1] == 1.0  # clean suite converges well inside the grid


def test_run_benchmark_thread_count_does_not_change_results(monkeypatch):
    monkeypatch.setenv("DGR_THREADS", "1")
    serial = run_benchmark(_CLEAN_SUITE, PipelineConfig(), math.radians(15.0), 0.30)
    monkeypatch.setenv("DGR_THREADS", "4")
    parallel = run_benchmark(_CLEAN_SUITE, PipelineConfig(), math.radians(15.0), 0.30)
    assert serial.records == parallel.records
    assert serial.recall == parallel.recall
    assert serial.re_curve == parallel.re_curve
    assert serial.te_curve == parallel.te_curve


def test_run_benchmark_identical_clouds(tmp_path, patch_cloud):
    cloud = tmp_path / "cloud.ply"
    pose = tmp_path / "identity.json"
    write_ply(patch_cloud, cloud)
    pose.write_text(json.dumps({
        "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
        "translation": [0, 0, 0],
    }))
    suite = [FilePairSpec(str(cloud), str(cloud), str(pose))] * 4
    rep = run_benchmark(suite, PipelineConfig(), math.radians(15.0), 0.30)
    assert rep.recall == 1.0
    assert rep.mean_re < 1e-9
    assert rep.mean_te < 1e-9
    assert dict(rep.branch_counts) == {"weighted_procrustes_refined": 4}


def test_run_benchmark_zero_weighter_reports_all_safeguard():
    rep = run_benchmark(_CLEAN_SUITE, PipelineConfig(), math.radians(15.0), 0.30,
                        weighter=lambda m, s, t: np.zeros(len(m)))
    assert dict(rep.branch_counts) == {"safeguard": 6}
    assert all(rec.branch == "safeguard" for rec in rep.records)
    assert rep.recall == 1.0  # clean geometry still registers through RANSAC


def test_run_benchmark_oracle_weights_half_outliers():
    suite = [
        SyntheticPairSpec(n_points=500, overlap_ratio=1.0, noise_sigma=0.0,
                          outlier_ratio=0.5, transform_magnitude=(0.5, 0.5), seed=s)
        for s in range(50)
    ]
    cfg = PipelineConfig(voxel_size=0.05, weighter="oracle:0.3")
    rep = run_benchmark(suite, cfg, math.radians(15.0), 0.30)
    assert rep.recall == 1.0


def test_run_benchmark_empty_suite_rejected():
    with pytest.raises(ValueError):
        run_benchmark([], PipelineConfig(), 0.1, 0.1)


@pytest.mark.parametrize(
    "re_threshold, te_threshold, name",
    [(0.2, math.nan, "te_threshold"), (-1.0, 0.3, "re_threshold"),
     (math.inf, 0.3, "re_threshold"), (0.2, 0.0, "te_threshold")],
)
def test_run_benchmark_refuses_bad_thresholds(tmp_path, monkeypatch, re_threshold,
                                              te_threshold, name):
    # nothing would count as a success, and every pair would still run
    reads = []
    monkeypatch.setattr(rigidreg.io, "read_ply", lambda path: reads.append(path))
    suite = [FilePairSpec(str(tmp_path / "a.ply"), str(tmp_path / "b.ply"),
                          str(tmp_path / "pose.json"))]
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        run_benchmark(suite, PipelineConfig(), re_threshold, te_threshold)
    assert reads == []


def test_run_benchmark_file_pairs_and_failure_rows(tmp_path, patch_cloud):
    # one registrable file pair and one cloud too small to survive
    # downsampling: the failed row is recorded, the suite still completes
    good_src = tmp_path / "src.ply"
    good_tgt = tmp_path / "tgt.ply"
    pose = tmp_path / "pose.json"
    write_ply(patch_cloud, good_src)
    write_ply(patch_cloud, good_tgt)
    pose.write_text(json.dumps({
        "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
        "translation": [0, 0, 0],
    }))

    tiny = tmp_path / "tiny.ply"
    write_ply(PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])), tiny)

    suite = [
        FilePairSpec(str(good_src), str(good_tgt), str(pose)),
        FilePairSpec(str(tiny), str(good_tgt), str(pose)),
    ]
    rep = run_benchmark(suite, PipelineConfig(), math.radians(15.0), 0.30)
    assert rep.recall == 0.5
    assert dict(rep.branch_counts) == {"weighted_procrustes_refined": 1, "failed": 1}
    good, bad = rep.records
    assert good.success and good.error is None and good.re < 1e-9
    assert not bad.success and bad.error == "EmptyCloud"
    assert bad.re is None and bad.te is None and bad.branch is None
    assert rep.mean_re == good.re  # means are over successes only


def test_run_benchmark_reads_file_pairs_through_io(tmp_path, patch_cloud, monkeypatch):
    # the suite runner looks the readers up on rigidreg.io at call time, so
    # a wrapper installed there sees every read
    cloud = tmp_path / "cloud.ply"
    pose = tmp_path / "identity.json"
    write_ply(patch_cloud, cloud)
    pose.write_text(json.dumps({
        "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
        "translation": [0, 0, 0],
    }))
    reads = []
    original = rigidreg.io.read_ply

    def counted(path):
        reads.append(path)
        return original(path)

    monkeypatch.setattr(rigidreg.io, "read_ply", counted)
    suite = [FilePairSpec(str(cloud), str(cloud), str(pose))] * 3
    rep = run_benchmark(suite, PipelineConfig(), math.radians(15.0), 0.30)
    assert rep.recall == 1.0
    assert reads == [str(cloud)] * 6  # 2 reads per pair


@pytest.mark.parametrize("problem, error", [
    ("missing", "FileNotFoundError"),
    ("malformed", "FileFormatError"),
    ("overcounted", "FileFormatError"),
    ("overflowing-pose", "FileFormatError"),
])
def test_run_benchmark_bad_pair_file_is_a_failed_row(tmp_path, problem, error):
    cloud = tmp_path / "cloud.ply"
    if problem == "malformed":
        cloud.write_text("not a ply file\n")
    elif problem == "overcounted":
        # a vertex count no file holds, over one row
        cloud.write_text("ply\nformat ascii 1.0\nelement vertex 100000000000\n"
                         "property double x\nproperty double y\nproperty double z\n"
                         "end_header\n1 2 3\n")
    elif problem == "overflowing-pose":
        write_ply(PointCloud(np.eye(3)), cloud)
    pose = tmp_path / "pose.json"
    first = 10**400 if problem == "overflowing-pose" else 1
    pose.write_text(json.dumps({
        "rotation": [first, 0, 0, 0, 1, 0, 0, 0, 1],
        "translation": [0, 0, 0],
    }))
    suite = [_CLEAN_SUITE[0], FilePairSpec(str(cloud), str(cloud), str(pose))]
    rep = run_benchmark(suite, PipelineConfig(), math.radians(15.0), 0.30)
    assert len(rep.records) == 2
    good, bad = rep.records
    assert good.success and good.error is None
    assert not bad.success and bad.error == error and bad.branch is None
    assert rep.recall == 0.5


def test_run_benchmark_pair_with_huge_coordinates_is_a_failed_row(tmp_path):
    # its voxel cells leave the int64 range: the row fails, the suite runs on
    pair = generate_pair(_CLEAN_SUITE[0])
    source, target, pose = tmp_path / "s.ply", tmp_path / "t.ply", tmp_path / "pose.json"
    write_ply(PointCloud(pair.source.points * 1e30), source)
    write_ply(PointCloud(pair.target.points * 1e30), target)
    pose.write_text(json.dumps({"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                                "translation": [0, 0, 0]}))
    suite = [_CLEAN_SUITE[0], FilePairSpec(str(source), str(target), str(pose))]
    rep = run_benchmark(suite, PipelineConfig(), math.radians(15.0), 0.30)
    good, bad = rep.records
    assert good.success and good.error is None
    assert bad.error == "CoordinateOverflow" and bad.branch is None
    assert bad.fallback_reason is None and not bad.success


def test_run_benchmark_rows_say_why_a_pair_left_the_main_branch():
    zeros = run_benchmark(_CLEAN_SUITE, PipelineConfig(), math.radians(15.0), 0.30,
                          weighter=lambda m, s, t: np.zeros(len(m)))
    assert {(r.branch, r.fallback_reason) for r in zeros.records} == {
        ("safeguard", "low_inlier_fraction")}
    default = run_benchmark(_CLEAN_SUITE, PipelineConfig(), math.radians(15.0), 0.30)
    assert {(r.branch, r.fallback_reason) for r in default.records} == {
        ("weighted_procrustes_refined", None)}
    for report, reason in ((zeros, "low_inlier_fraction"), (default, None)):
        rows = rigidreg.io.report_to_dict(report)["pairs"]
        assert [row["fallback_reason"] for row in rows] == [reason] * len(_CLEAN_SUITE)


_TOO_LARGE = SyntheticPairSpec(n_points=3 * 10**18, seed=0)


def _raise(exc):
    def raising(*args, **kwargs):
        raise exc
    return raising


class _ArrayMemoryError(MemoryError):
    """Stands in for numpy's private MemoryError subclass."""


@pytest.mark.parametrize("refusal, error", [
    # numpy's own "array is too big": 3e18 x 3 x 8 bytes pass its index range
    (None, "ValueError"),
    # what numpy raises when malloc fails, without asking it for the memory
    (_ArrayMemoryError("Unable to allocate 67. EiB"), "MemoryError"),
], ids=["past-index-range", "out-of-memory"])
def test_run_benchmark_synthetic_pair_too_large_is_a_failed_row(monkeypatch, refusal, error):
    if refusal is not None:
        original = rigidreg.evaluation.generate_pair
        monkeypatch.setattr(rigidreg.evaluation, "generate_pair",
                            lambda spec: _raise(refusal)() if spec is _TOO_LARGE else original(spec))
    rep = run_benchmark([_TOO_LARGE, _CLEAN_SUITE[0]], PipelineConfig(),
                        math.radians(15.0), 0.30)
    bad, good = rep.records
    assert not bad.success and bad.error == error and bad.branch is None
    assert bad.re is None and bad.te is None
    assert good.success and good.error is None
    assert rep.recall == 0.5 and dict(rep.branch_counts) == {
        "failed": 1, "weighted_procrustes_refined": 1}


@pytest.mark.parametrize("name, exc", [
    ("generate_pair", ValueError("not a size")),
    ("register", MemoryError("out of memory inside register")),
    ("register", ValueError("array is too big; raised by register")),
], ids=["other-generation-error", "register-memory", "register-size"])
def test_run_benchmark_other_errors_still_propagate(monkeypatch, name, exc):
    monkeypatch.setattr(rigidreg.evaluation, name, _raise(exc))
    with pytest.raises(type(exc), match=str(exc)):
        run_benchmark(_CLEAN_SUITE[:1], PipelineConfig(), math.radians(15.0), 0.30)


def test_run_benchmark_refuses_an_entry_that_is_no_pair_spec():
    with pytest.raises(TypeError, match="unsupported suite entry str"):
        run_benchmark(["pair.ply"], PipelineConfig(), math.radians(15.0), 0.30)


_SAFEGUARD_SUITE = [
    SyntheticPairSpec(n_points=300, overlap_ratio=0.8, noise_sigma=0.005,
                      outlier_ratio=0.3, seed=s)
    for s in range(4)
]


def test_run_benchmark_thread_count_does_not_change_safeguard_results(monkeypatch):
    def zeros(matches, source, target):
        return np.zeros(len(matches))

    cfg = PipelineConfig(voxel_size=0.05)
    monkeypatch.setenv("DGR_THREADS", "1")
    serial = run_benchmark(_SAFEGUARD_SUITE, cfg, math.radians(15.0), 0.30, weighter=zeros)
    monkeypatch.setenv("DGR_THREADS", "2")
    parallel = run_benchmark(_SAFEGUARD_SUITE, cfg, math.radians(15.0), 0.30, weighter=zeros)
    assert dict(serial.branch_counts) == {"safeguard": 4}
    assert serial.records == parallel.records
    assert serial.recall == parallel.recall
    assert serial.re_curve == parallel.re_curve
    assert serial.te_curve == parallel.te_curve
