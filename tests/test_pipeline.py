"""End-to-end registration: branch selection, diversion reasons, timings."""

import ast
import importlib
import inspect
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import fields, replace
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rigidreg
from rigidreg import (
    CoordinateOverflow,
    CorrespondenceSet,
    EmptyCloud,
    FeatureConfig,
    LengthMismatch,
    MAIN_BRANCH,
    MissingFeatures,
    OracleWeighter,
    PipelineConfig,
    PointCloud,
    RansacConfig,
    RefineConfig,
    RegistrationFailed,
    RigidTransform,
    SAFEGUARD_BRANCH,
    SpatialIndex,
    SyntheticPairSpec,
    UniformWeighter,
    WeightVector,
    energy,
    energy_gradient,
    generate_pair,
    label_inliers,
    matrix_to_rot6d,
    ransac_register,
    read_weight_file,
    refine,
    register,
    register_with_correspondences,
    resolve_weighter,
    rotation_error,
    translation_error,
    weigh,
    write_weight_file,
)

from _oracles import nearest_bruteforce, quaternion_angle, rodrigues


_R = rodrigues(np.array([0.3, -0.2, 0.9]), 0.6)
_T = np.array([0.4, -0.2, 0.15])


def _pair(points):
    truth = RigidTransform(_R, _T)
    return PointCloud(points), PointCloud(truth.apply(points)), truth


def _identity_matches(n):
    return CorrespondenceSet(np.column_stack([np.arange(n), np.arange(n)]), n, n)


# ---------------------------------------------------------------------------
# package surface, config and weighter resolution
# ---------------------------------------------------------------------------

def test_all_lists_every_public_name():
    public = {
        name for name in dir(rigidreg)
        if not name.startswith("_") and not inspect.ismodule(getattr(rigidreg, name))
    }
    assert set(rigidreg.__all__) == public


def test_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats too doubles the import time and adds about 30 MB of RSS
    src = str(Path(rigidreg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, rigidreg; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"


def _package_imports(path: Path, modules: set[str]) -> set[str]:
    """Modules of the package that a module imports, at module or function
    level; imports under ``if TYPE_CHECKING:`` never run and are skipped.
    Importing a name that is not a module imports the package itself."""
    found = set()

    def visit(node):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] == "rigidreg":
                module = module.partition(".")[2]
            elif node.level != 1:
                return  # outside the package
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "rigidreg":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_package_imports_form_no_cycle():
    package = Path(rigidreg.__file__).resolve().parent
    paths = {path.stem: path for path in package.glob("*.py")}
    graph = {name: _package_imports(path, set(paths)) for name, path in paths.items()}
    assert graph["__init__"] >= set(paths) - {"__init__", "cli"}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(voxel_size=0.0)
    for voxel_size in (math.inf, math.nan):
        with pytest.raises(ValueError):
            PipelineConfig(voxel_size=voxel_size)
    with pytest.raises(ValueError):
        PipelineConfig(safeguard_tau_s=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(safeguard_tau_s=1.0)
    with pytest.raises(ValueError):
        PipelineConfig(prefilter_tau=-0.1)
    # a ratio must be a real number: not a string, None or a bool
    for bad in ("0.1", None, True):
        with pytest.raises(ValueError, match="safeguard_tau_s"):
            PipelineConfig(safeguard_tau_s=bad)
    for bad in ("0.4", None, False):
        with pytest.raises(ValueError, match="prefilter_tau"):
            PipelineConfig(prefilter_tau=bad)
    with pytest.raises(ValueError):
        PipelineConfig(seed=-1)
    with pytest.raises(ValueError):
        PipelineConfig(seed=1.5)


def _bad_knob_values():
    """(class, field, value) for every numeric knob of the config classes:
    an int knob must refuse a bool, a fraction and a negative number, a
    float knob (a length or a ratio) nan, inf and -1. The declared type
    sorts them, so a knob added later without its rule fails by name."""
    for cls in (PipelineConfig, FeatureConfig, RefineConfig, RansacConfig,
                SyntheticPairSpec):
        for f in fields(cls):
            if f.type == "int":
                bad = (True, getattr(cls(), f.name) + 0.5, -1)
            elif f.type.startswith("float"):
                bad = (math.nan, math.inf, -1.0)
            else:
                continue
            for value in bad:
                yield pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")


@pytest.mark.parametrize("cls, name, value", _bad_knob_values())
def test_every_numeric_knob_refuses_bad_values(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


def test_config_refuses_an_infinite_oracle_tau():
    with pytest.raises(ValueError, match="bad oracle tau"):
        PipelineConfig(weighter="oracle:inf")


@pytest.mark.parametrize("weighter", ["psychic", "file:weights.dgrw", "oracle:-1", 3])
def test_config_checks_the_weighter_when_built(weighter):
    with pytest.raises(ValueError):
        PipelineConfig(weighter=weighter)


def test_config_default_ransac_threshold_tracks_voxel_size(monkeypatch, patch_cloud):
    # the safeguard reads voxel_size when it runs, so replace() moves it too
    seen = []

    def spy(matches, source, target, cfg):
        seen.append(cfg.inlier_threshold)
        return ransac_register(matches, source, target, cfg)

    monkeypatch.setattr(rigidreg.pipeline, "ransac_register", spy)
    n = len(patch_cloud)
    zeros = WeightVector(np.zeros(n))
    custom = RansacConfig(inlier_threshold=0.5)
    for cfg in (PipelineConfig(voxel_size=0.07),
                replace(PipelineConfig(), voxel_size=0.07),
                PipelineConfig(voxel_size=0.07, ransac=custom)):
        register_with_correspondences(_identity_matches(n), zeros, patch_cloud,
                                      patch_cloud, cfg)
    assert seen == [0.07, 0.07, 0.5]
    assert replace(PipelineConfig(), voxel_size=0.3) == PipelineConfig(voxel_size=0.3)


def test_config_refuses_a_missing_ransac_block():
    with pytest.raises(ValueError, match="ransac must be a RansacConfig"):
        PipelineConfig(ransac=None)


def test_config_refuses_a_missing_feature_block():
    # it used to build, and register then died with an AttributeError
    with pytest.raises(ValueError, match="feature must be a FeatureConfig"):
        PipelineConfig(feature=None)


def test_config_refuses_a_missing_refine_block():
    with pytest.raises(ValueError, match="refine must be a RefineConfig"):
        PipelineConfig(refine=None)


def test_resolve_weighter_names():
    assert isinstance(resolve_weighter("uniform"), UniformWeighter)
    truth = RigidTransform.identity()
    ow = resolve_weighter("oracle", ground_truth=truth)
    assert isinstance(ow, OracleWeighter) and ow.tau == 0.1
    assert resolve_weighter("oracle:0.3", ground_truth=truth).tau == 0.3


def test_config_refuses_the_removed_heuristic_weighter():
    accepted = r"'heuristic' \(expected uniform, oracle or oracle:TAU\)"
    with pytest.raises(ValueError, match=accepted):
        PipelineConfig(weighter="heuristic")
    with pytest.raises(ValueError, match=accepted):
        resolve_weighter("heuristic")


def test_resolve_weighter_rejects_bad_names():
    with pytest.raises(ValueError):
        resolve_weighter("nonsense")
    with pytest.raises(ValueError):
        resolve_weighter("file:")
    with pytest.raises(ValueError):
        resolve_weighter("oracle")  # no ground truth available


def test_register_with_oracle_name_needs_ground_truth(patch_cloud):
    with pytest.raises(ValueError):
        register(patch_cloud, patch_cloud, PipelineConfig(weighter="oracle"))


# ---------------------------------------------------------------------------
# main branch
# ---------------------------------------------------------------------------

def test_self_registration_is_exact(patch_cloud):
    res = register(patch_cloud, patch_cloud, PipelineConfig())
    assert res.branch == MAIN_BRANCH
    assert np.abs(res.transform.rotation - np.eye(3)).max() < 1e-12
    assert np.abs(res.transform.translation).max() < 1e-12
    assert res.inlier_fraction == 1.0


def test_register_recovers_known_transform(patch_cloud):
    src, tgt, truth = _pair(patch_cloud.points)
    res = register(src, tgt, PipelineConfig())
    assert res.branch == MAIN_BRANCH
    assert math.degrees(quaternion_angle(res.transform.rotation, truth.rotation)) < 1e-9
    assert np.linalg.norm(res.transform.translation - truth.translation) < 1e-9
    assert set(res.stage_seconds) == {"downsample", "features", "match", "weigh", "solve", "refine"}
    assert all(v >= 0.0 for v in res.stage_seconds.values())
    assert res.correspondence_count == len(src)  # spaced-out cloud keeps every point
    assert res.trace is not None


def test_register_explicit_provider_overrides_config(patch_cloud):
    src, tgt, truth = _pair(patch_cloud.points)
    cfg = PipelineConfig(weighter="oracle")  # unresolvable without a ground truth
    res = register(src, tgt, cfg, weighter=OracleWeighter(truth, tau=0.01))
    assert res.branch == MAIN_BRANCH
    assert math.degrees(quaternion_angle(res.transform.rotation, truth.rotation)) < 1e-9


def test_register_deterministic(patch_cloud):
    src, tgt, _ = _pair(patch_cloud.points)
    a = register(src, tgt, PipelineConfig())
    b = register(src, tgt, PipelineConfig())
    np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)
    np.testing.assert_array_equal(a.transform.translation, b.transform.translation)
    assert a.inlier_fraction == b.inlier_fraction


def test_fraction_equal_to_threshold_stays_on_main_branch(patch_cloud):
    # branch test is strictly <, so fraction == tau_s keeps the main branch:
    # 3 unit weights out of 60 pairs is exactly the default tau_s = 0.05
    n = 60
    X = patch_cloud.points[:n]
    truth = RigidTransform(_R, _T)
    Y = truth.apply(X)
    w = np.zeros(n)
    w[[0, 25, 50]] = 1.0
    res = register_with_correspondences(
        _identity_matches(n), WeightVector(w), PointCloud(X), PointCloud(Y), PipelineConfig()
    )
    assert res.inlier_fraction == 0.05
    assert res.branch == MAIN_BRANCH
    assert set(res.stage_seconds) == {"solve", "refine"}


def test_prefilter_tau_decides_which_pairs_refinement_sees(patch_cloud):
    # 20 of 60 pairs weigh 0.45, at or below prefilter_tau = 0.5 (and
    # above RefineConfig's old 0.4 default): moving their targets by metres
    # must change neither the solve nor the refinement
    n = 60
    X = patch_cloud.points[:n]
    Y = RigidTransform(_R, _T).apply(X) + np.random.default_rng(3).normal(scale=0.01, size=(n, 3))
    w = np.full(n, 0.9)
    low = np.arange(0, n, 3)
    w[low] = 0.45
    moved = Y.copy()
    moved[low] += [3.0, -2.0, 4.0]

    def run(target, tau):
        return register_with_correspondences(
            _identity_matches(n), WeightVector(w), PointCloud(X), PointCloud(target),
            PipelineConfig(prefilter_tau=tau),
        )

    base, shifted = run(Y, 0.5), run(moved, 0.5)
    assert base.branch == shifted.branch == MAIN_BRANCH
    assert base.transform.rotation.tobytes() == shifted.transform.rotation.tobytes()
    assert base.transform.translation.tobytes() == shifted.transform.translation.tobytes()
    assert base.trace == shifted.trace
    # below 0.45 the moved pairs are active again
    assert run(moved, 0.4).trace.energies != base.trace.energies


# ---------------------------------------------------------------------------
# safeguard branch
# ---------------------------------------------------------------------------

def test_low_weight_mass_diverts_to_safeguard(patch_cloud):
    src, tgt, truth = _pair(patch_cloud.points)
    res = register(src, tgt, PipelineConfig(), weighter=lambda m, s, t: np.full(len(m), 0.2))
    assert res.branch == SAFEGUARD_BRANCH
    assert res.fallback_reason == "low_inlier_fraction"
    assert res.inlier_fraction == 0.0  # the weight statistic, not consensus
    assert res.trace is None
    assert set(res.stage_seconds) == {"downsample", "features", "match", "weigh", "safeguard"}
    # clean geometry still registers through the safeguard
    assert math.degrees(quaternion_angle(res.transform.rotation, truth.rotation)) < 1e-9


def test_too_few_survivors_divert_with_reason(patch_cloud):
    n = 60
    X = patch_cloud.points[:n]
    truth = RigidTransform(_R, _T)
    Y = truth.apply(X)
    w = np.zeros(n)
    w[[0, 25]] = 1.0  # fraction 1/30 clears tau_s = 0.01 but only 2 survive
    res = register_with_correspondences(
        _identity_matches(n), WeightVector(w), PointCloud(X), PointCloud(Y),
        PipelineConfig(safeguard_tau_s=0.01),
    )
    assert res.branch == SAFEGUARD_BRANCH
    assert res.fallback_reason == "TooFewCorrespondences"
    assert abs(res.inlier_fraction - 2.0 / 60.0) < 1e-15
    assert math.degrees(quaternion_angle(res.transform.rotation, truth.rotation)) < 1e-9
    assert set(res.stage_seconds) == {"safeguard"}


def test_collinear_active_set_diverts_with_reason(patch_cloud):
    n = 60
    X = patch_cloud.points[:n].copy()
    X[:5] = np.linspace(0.0, 0.4, 5)[:, None] * np.array([1.0, 0.5, 0.0]) + [0.3, 0.2, 0.1]
    truth = RigidTransform(_R, _T)
    Y = truth.apply(X)
    w = np.zeros(n)
    w[:5] = 1.0  # all active weight on an exactly collinear subset
    res = register_with_correspondences(
        _identity_matches(n), WeightVector(w), PointCloud(X), PointCloud(Y),
        PipelineConfig(safeguard_tau_s=0.01),
    )
    assert res.branch == SAFEGUARD_BRANCH
    assert res.fallback_reason == "DegenerateConfiguration"
    assert math.degrees(quaternion_angle(res.transform.rotation, truth.rotation)) < 1e-9


def test_registration_failed_when_safeguard_cannot_run():
    X = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(RegistrationFailed):
        register_with_correspondences(
            _identity_matches(2), WeightVector(np.ones(2)),
            PointCloud(X), PointCloud(X + 0.5), PipelineConfig(),
        )


def test_registration_failed_when_no_consensus():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 3))
    Y = rng.normal(size=(5, 3))  # unrelated target: no rigid explanation
    cfg = PipelineConfig(ransac=RansacConfig(max_iterations=50, inlier_threshold=1e-9))
    with pytest.raises(RegistrationFailed):
        register_with_correspondences(
            _identity_matches(5), WeightVector(np.zeros(5)), PointCloud(X), PointCloud(Y), cfg
        )


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

def test_register_needs_three_downsampled_points():
    with pytest.raises(EmptyCloud):
        register(PointCloud(np.array([[0.0, 0, 0], [1.0, 1, 1]])),
                 PointCloud(np.eye(3)), PipelineConfig())
    crowded = np.random.default_rng(2).uniform(0.0, 0.04, size=(50, 3))
    with pytest.raises(EmptyCloud):  # everything lands in one voxel cell
        register(PointCloud(crowded), PointCloud(crowded), PipelineConfig())


def test_register_with_correspondences_validates_sizes(patch_cloud):
    n = len(patch_cloud)
    matches = _identity_matches(n)
    with pytest.raises(LengthMismatch):
        register_with_correspondences(
            matches, WeightVector(np.ones(n)), patch_cloud,
            PointCloud(patch_cloud.points[:10]), PipelineConfig(),
        )
    with pytest.raises(LengthMismatch):
        register_with_correspondences(
            matches, WeightVector(np.ones(n - 1)), patch_cloud, patch_cloud, PipelineConfig()
        )


def _weights(m, value=1.0):
    return WeightVector(np.full(len(m), value))


_A = matrix_to_rot6d(np.eye(3))
# each public stage that takes clouds, called with a set and two clouds
_STAGES = {
    "ransac_register": lambda m, s, t: ransac_register(m, s, t, RansacConfig()),
    "refine": lambda m, s, t: refine(RigidTransform.identity(), m, s, t, _weights(m),
                                     RefineConfig()),
    "energy": lambda m, s, t: energy(_A, np.zeros(3), m, s, t, _weights(m), RefineConfig()),
    "energy_gradient": lambda m, s, t: energy_gradient(_A, np.zeros(3), m, s, t, _weights(m),
                                                       RefineConfig()),
    "label_inliers": lambda m, s, t: label_inliers(m, s, t, RigidTransform.identity(), 0.1),
    "register_with_correspondences-main": lambda m, s, t: register_with_correspondences(
        m, _weights(m), s, t, PipelineConfig()),
    "register_with_correspondences-safeguard": lambda m, s, t: register_with_correspondences(
        m, _weights(m, 0.0), s, t, PipelineConfig()),
}


@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize("size", ["larger", "smaller"])
@pytest.mark.parametrize("stage", list(_STAGES))
def test_every_stage_refuses_clouds_of_other_sizes(patch_cloud, stage, size, side):
    # unchecked, a larger cloud is read without error and a smaller one is
    # indexed past its end; CorrespondenceSet.matched refuses both
    n = len(patch_cloud)
    matches = _identity_matches(n - 10 if size == "larger" else n)
    other = patch_cloud if size == "larger" else PointCloud(patch_cloud.points[:n - 10])
    fitting = PointCloud(patch_cloud.points[:matches.source_size])
    source, target = (other, fitting) if side == "source" else (fitting, other)
    with pytest.raises(LengthMismatch, match=f"correspondences sized {len(matches)}x"):
        _STAGES[stage](matches, source, target)


@pytest.mark.parametrize("weight", [1.0, 0.0], ids=["main", "safeguard"])
def test_huge_coordinates_raise_coordinate_overflow(patch_cloud, weight):
    # products of such coordinates overflow float64: a package error, not
    # a numpy warning and then LinAlgError out of the SVD. The cloud refuses
    # them when it is built, so no stage ever sees them
    n = len(patch_cloud)
    for scale in (1e160, 2.0**240):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoordinateOverflow, match="2\\*\\*240"):
                PointCloud(patch_cloud.points / np.abs(patch_cloud.points).max() * scale)
    assert issubclass(CoordinateOverflow, ValueError)
    # just below the limit every stage still runs, and warns of nothing
    scale = 2.0**239
    large = PointCloud(patch_cloud.points * scale)
    cfg = PipelineConfig(voxel_size=scale / 20, feature=FeatureConfig(radius=scale / 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [
            register_with_correspondences(
                _identity_matches(n), WeightVector(np.full(n, weight)), large, large, cfg),
            register(large, large, cfg, weighter=lambda m, s, t: np.full(len(m), weight)),
        ]
    for result in results:
        assert result.branch == (MAIN_BRANCH if weight else SAFEGUARD_BRANCH)


# ---------------------------------------------------------------------------
# heavy contamination and file-sourced weights
# ---------------------------------------------------------------------------

def _oracle_weighted_instance(outlier_ratio, seed):
    pair = generate_pair(SyntheticPairSpec(
        n_points=400, overlap_ratio=1.0, noise_sigma=0.0,
        outlier_ratio=outlier_ratio, transform_magnitude=(0.5, 0.5), seed=seed,
    ))
    w = weigh(pair.correspondences, pair.source, pair.target,
              OracleWeighter(pair.transform, tau=0.05))
    return pair, w


def test_oracle_weights_noise_free_recover_ground_truth():
    for seed in range(5):
        pair, w = _oracle_weighted_instance(0.0, seed)
        res = register_with_correspondences(
            pair.correspondences, w, pair.source, pair.target, PipelineConfig())
        assert res.branch == MAIN_BRANCH
        assert rotation_error(res.transform.rotation, pair.transform.rotation) <= 1e-6
        assert translation_error(res.transform.translation, pair.transform.translation) <= 1e-9


def test_oracle_weights_survive_sixty_percent_outliers():
    # the oracle zeroes corrupted pairs, so the solve runs on the clean 40%
    for seed in range(5):
        pair, w = _oracle_weighted_instance(0.6, seed)
        res = register_with_correspondences(
            pair.correspondences, w, pair.source, pair.target, PipelineConfig())
        assert res.branch == MAIN_BRANCH
        re = rotation_error(res.transform.rotation, pair.transform.rotation)
        te = translation_error(res.transform.translation, pair.transform.translation)
        assert math.degrees(re) <= 0.1
        assert te <= 5e-3


def test_full_register_with_oracle_weighter_heavy_outliers():
    # descriptor matching has to find the partners itself here, so the bound
    # is much looser than on construction correspondences
    cfg = PipelineConfig(voxel_size=0.05)
    for seed in range(5):
        pair = generate_pair(SyntheticPairSpec(
            n_points=1000, overlap_ratio=1.0, noise_sigma=0.0,
            outlier_ratio=0.6, transform_magnitude=(0.5, 0.5), seed=seed,
        ))
        res = register(pair.source, pair.target, cfg,
                       weighter=OracleWeighter(pair.transform, tau=0.3))
        re = rotation_error(res.transform.rotation, pair.transform.rotation)
        te = translation_error(res.transform.translation, pair.transform.translation)
        assert math.degrees(re) < 3.0
        assert te < 0.04


def test_weights_from_file_give_bitwise_identical_result(tmp_path):
    pair, w = _oracle_weighted_instance(0.6, seed=3)
    cfg = PipelineConfig()
    in_memory = register_with_correspondences(
        pair.correspondences, w, pair.source, pair.target, cfg)

    path = tmp_path / "oracle.dgrw"
    write_weight_file(path, len(pair.source), len(pair.target),
                      pair.correspondences.pairs, w.values)
    ns, nt, pairs, weights = read_weight_file(path)
    from_file = register_with_correspondences(
        CorrespondenceSet(pairs, ns, nt), WeightVector(weights),
        pair.source, pair.target, cfg)

    np.testing.assert_array_equal(in_memory.transform.rotation, from_file.transform.rotation)
    np.testing.assert_array_equal(in_memory.transform.translation, from_file.transform.translation)
    assert in_memory.inlier_fraction == from_file.inlier_fraction


# ---------------------------------------------------------------------------
# describing the two clouds at once
# ---------------------------------------------------------------------------

_pipeline = importlib.import_module("rigidreg.pipeline")
_correspondence = importlib.import_module("rigidreg.correspondence")
_HELPER = "rigidreg-describe"


def _record_description(monkeypatch):
    """Wrap the descriptor's histogram and finishing steps, the scan and
    the pipeline's matcher; the returned lists get (step, thread name) of
    each histogram, descriptor and scan call, and (source features, target
    features, match pairs) per match."""
    steps, matched = [], []
    histogram = _correspondence._distance_histogram
    descriptor = _correspondence._descriptor
    nearest = SpatialIndex.nearest
    match = _pipeline.match_nearest

    def record(step, fn):
        def recorded(*args):
            steps.append((step, threading.current_thread().name))
            return fn(*args)
        return recorded

    def record_match(source, target):
        matches = match(source, target)
        matched.append((source.features, target.features, matches.pairs))
        return matches

    monkeypatch.setattr(_correspondence, "_distance_histogram", record("histogram", histogram))
    monkeypatch.setattr(_correspondence, "_descriptor", record("descriptor", descriptor))
    monkeypatch.setattr(SpatialIndex, "nearest", record("scan", nearest))
    monkeypatch.setattr(_pipeline, "match_nearest", record_match)
    return steps, matched


def _wait_for_the_helper(monkeypatch):
    """Stand in for the helper an executor whose ``submit`` returns only
    once the helper has started the task, or after 10 s, so the schedule a
    test names does not depend on how the operating system schedules the
    two threads. A forked child makes a helper of its own in place of it."""
    helper = _pipeline._describer

    def submit(fn, *args):
        future, deadline = helper.submit(fn, *args), time.monotonic() + 10.0
        while not (future.running() or future.done()) and time.monotonic() < deadline:
            time.sleep(1e-4)
        return future

    monkeypatch.setattr(_pipeline, "_describer", SimpleNamespace(submit=submit))


def _split_steps(steps):
    """The steps the helper ran and those the calling thread ran, each in
    order."""
    on_helper = [step for step, name in steps if name.startswith(_HELPER)]
    on_caller = [step for step, name in steps if not name.startswith(_HELPER)]
    return on_helper, on_caller


def _assert_same_registration(a, b):
    assert a.transform.rotation.tobytes() == b.transform.rotation.tobytes()
    assert a.transform.translation.tobytes() == b.transform.translation.tobytes()
    assert (a.branch, a.fallback_reason) == (b.branch, b.fallback_reason)
    assert a.inlier_fraction == b.inlier_fraction


def _assert_same_matching(a, b):
    for got, want in zip(a, b):
        assert got.tobytes() == want.tobytes()


def _dense_pair():
    # about 3.8k points per cloud survive 2 cm voxels
    pair = generate_pair(SyntheticPairSpec(n_points=6000, overlap_ratio=1.0,
                                           noise_sigma=0.002, outlier_ratio=0.0, seed=21))
    return pair, PipelineConfig(voxel_size=0.02), OracleWeighter(pair.transform, 0.1)


def _outlier_pair():
    # about 700 points per cloud survive 5 cm voxels
    pair = generate_pair(SyntheticPairSpec(n_points=1000, overlap_ratio=0.8,
                                           noise_sigma=0.005, outlier_ratio=0.3, seed=22))
    return pair, PipelineConfig(), None


# every step of a pair on the calling thread, none on the helper
_SERIAL = [], ["histogram", "descriptor", "histogram", "descriptor", "scan"]
# a pair with the helper: its whole target there, the rest here
_HELPED = ["histogram", "descriptor"], ["histogram", "descriptor", "scan"]


def _mixed_pair():
    # the dense pair with its target cut to the third of lowest x: about
    # 3.8k source and 1.3k target points survive 2 cm voxels, on either
    # side of the 2000 points that once chose between two splits
    pair, cfg, weighter = _dense_pair()
    points = pair.target.points
    cut = PointCloud(points[points[:, 0] < np.quantile(points[:, 0], 1 / 3)])
    return SimpleNamespace(source=pair.source, target=cut), cfg, weighter


@pytest.mark.parametrize("make", [_dense_pair, _outlier_pair, _mixed_pair],
                         ids=["dense", "outliers", "mixed"])
def test_concurrent_and_serial_description_agree(monkeypatch, make):
    pair, cfg, weighter = make()
    runs = {}
    for threads in (None, "2", "1"):
        # each run records its own steps only
        with monkeypatch.context() as patch:
            if threads is None:
                patch.delenv("DGR_THREADS", raising=False)
            else:
                patch.setenv("DGR_THREADS", threads)
            steps, matched = _record_description(patch)
            _wait_for_the_helper(patch)
            result = register(pair.source, pair.target, cfg, weighter=weighter)
            if threads is None:
                helped = _pipeline.worker_count() > 1
        runs[threads] = steps, matched[0], result
    for threads in (None, "2"):
        _assert_same_matching(runs[threads][1], runs["1"][1])
        _assert_same_registration(runs[threads][2], runs["1"][2])
    # the whole target on the helper, the whole source and the one scan
    # here, whatever the sizes of the clouds
    assert _split_steps(runs["2"][0]) == _HELPED
    assert _split_steps(runs[None][0]) == (_HELPED if helped else _SERIAL)
    assert _split_steps(runs["1"][0]) == _SERIAL


def _featured_clouds(source_has, target_has):
    # 2500 and 2600 points, kept whole by a 1 mm voxel
    rng = np.random.default_rng(5)
    clouds = []
    for n, has in ((2500, source_has), (2600, target_has)):
        points = rng.uniform(0.0, 1.0, size=(n, 3))
        clouds.append(PointCloud(points, rng.normal(size=(n, 4)) if has else None))
    return clouds


class _Described(Exception):
    """Raised in place of matching, carrying the two described clouds."""


@pytest.mark.parametrize("threads", ["2", "1"])
@pytest.mark.parametrize("source_has, target_has, first",
                         [(False, True, 2500), (True, False, 2600), (False, False, 2500)])
def test_precomputed_without_features_raises_the_source_error_first(
        monkeypatch, threads, source_has, target_has, first):
    # a pair where one cloud carries features fails naming the other cloud,
    # of `first` points, before either is described; a pair where neither
    # does gets the local histogram, the cloud of `first` points first on
    # the calling thread, the other there too or on the helper
    monkeypatch.setenv("DGR_THREADS", threads)
    _wait_for_the_helper(monkeypatch)
    described = []
    rows = _correspondence._neighbor_rows

    def recorded(points, radius):
        described.append((len(points), threading.current_thread().name.startswith(_HELPER)))
        return rows(points, radius)

    def stop(source, target):
        raise _Described(source, target)

    monkeypatch.setattr(_correspondence, "_neighbor_rows", recorded)
    monkeypatch.setattr(_pipeline, "match_nearest", stop)
    source, target = _featured_clouds(source_has, target_has)
    cfg = PipelineConfig(voxel_size=0.001)
    if source_has or target_has:
        lacking = "source" if first == len(source) else "target"
        with pytest.raises(MissingFeatures, match=f"^the {lacking} cloud carries no features"):
            register(source, target, cfg)
        assert described == []
        return
    with pytest.raises(_Described) as stopped:
        register(source, target, cfg)
    # (points, on the helper), the calling thread's in order first
    on_helper = threads != "1"
    assert sorted(described, key=lambda step: step[1]) == [(first, False),
                                                            (len(target), on_helper)]
    for cloud in stopped.value.args:
        bare = _correspondence.compute_features(PointCloud(cloud.points), cfg.feature)
        assert cloud.features.tobytes() == bare.features.tobytes()


@pytest.mark.parametrize("threads", ["2", "1"])
@pytest.mark.parametrize("size", ["large", "small"])
def test_clouds_that_carry_features_are_matched_on_them(monkeypatch, threads, size):
    # the features are renormalized on the calling thread, never replaced
    # by descriptors, and each source point is matched to its nearest
    # target feature
    monkeypatch.setenv("DGR_THREADS", threads)
    source, target = _featured_clouds(True, True)
    if size == "small":
        source, target = (PointCloud(c.points[:300], c.features[:300]) for c in (source, target))
    steps, matched = _record_description(monkeypatch)
    described = []
    compute = _pipeline.compute_features

    def recorded(cloud, cfg):
        described.append(threading.current_thread().name)
        return compute(cloud, cfg)

    monkeypatch.setattr(_pipeline, "compute_features", recorded)
    register(source, target, PipelineConfig(voxel_size=0.001))
    assert described == [threading.current_thread().name] * 2
    assert [step for step, _ in steps if step != "scan"] == []
    (source_f, target_f, pairs), = matched
    for got, cloud in ((source_f, source), (target_f, target)):
        # voxel order is cell order: match each described row to its point
        order = np.lexsort(np.floor(cloud.points / 0.001).T[::-1])
        unit = cloud.features / np.linalg.norm(cloud.features, axis=1, keepdims=True)
        assert got.tobytes() == unit[order].tobytes()
    nearest, _ = nearest_bruteforce(target_f, source_f)
    np.testing.assert_array_equal(pairs[:, 1], nearest)


@pytest.mark.parametrize("make", [_dense_pair, _outlier_pair], ids=["dense", "outliers"])
@pytest.mark.parametrize("caller_fails", [False, True])
def test_register_returns_after_the_helper_is_done(monkeypatch, caller_fails, make):
    # the helper's histogram is slowed, and the caller's moment sums wait
    # until the helper has begun it, then fail or go on
    monkeypatch.setenv("DGR_THREADS", "2")
    pair, cfg, weighter = make()
    histogram = _correspondence._distance_histogram
    moment_sums = _correspondence._moment_sums
    started = threading.Event()
    begun, ended = [], []

    def slow_on_helper(fn):
        def slowed(*args):
            if not threading.current_thread().name.startswith(_HELPER):
                return fn(*args)
            begun.append(True)
            started.set()
            time.sleep(0.3)
            out = fn(*args)
            ended.append(True)
            return out
        return slowed

    def failing_on_caller(fn):
        def failing(*args):
            if threading.current_thread().name.startswith(_HELPER):
                return fn(*args)
            # a helper task that has not started would be taken back instead
            assert started.wait(10.0)
            if caller_fails:
                raise RuntimeError("caller")
            return fn(*args)
        return failing

    monkeypatch.setattr(_correspondence, "_distance_histogram", slow_on_helper(histogram))
    monkeypatch.setattr(_correspondence, "_moment_sums", failing_on_caller(moment_sums))
    if caller_fails:
        with pytest.raises(RuntimeError, match="^caller$"):
            register(pair.source, pair.target, cfg, weighter=weighter)
    else:
        register(pair.source, pair.target, cfg, weighter=weighter)
    assert begun and len(ended) == len(begun)


@pytest.mark.parametrize("make", [_dense_pair, _outlier_pair], ids=["dense", "outliers"])
def test_a_busy_helper_gives_its_work_back(monkeypatch, make):
    # the whole target; the scan was never handed off
    steps = ("histogram", "descriptor", "histogram", "descriptor", "scan")
    monkeypatch.setenv("DGR_THREADS", "2")
    pair, cfg, weighter = make()
    release = threading.Event()
    blocker = _pipeline._describer.submit(release.wait, 60)
    try:
        names, matched = _record_description(monkeypatch)
        busy = register(pair.source, pair.target, cfg, weighter=weighter)
        # returned without waiting for the helper to reach the tasks it gave back
        assert not blocker.done()
    finally:
        release.set()
        blocker.result(timeout=60)
    # the task given back ran here
    assert names == [(step, threading.current_thread().name) for step in steps]
    monkeypatch.setenv("DGR_THREADS", "1")
    _, serial_matched = _record_description(monkeypatch)
    serial = register(pair.source, pair.target, cfg, weighter=weighter)
    _assert_same_matching(matched[0], serial_matched[0])
    _assert_same_registration(busy, serial)


def test_callers_on_many_threads_share_the_helper(monkeypatch):
    # more callers than cores, with the interpreter switching threads
    # often: every registration must equal the serial one, and the count
    # of registrations running, which a lost update would leave off,
    # must end at none
    monkeypatch.setenv("DGR_THREADS", "2")
    cases = [_dense_pair()] * 6 + [_outlier_pair()] * 30
    expected = [register(pair.source, pair.target, cfg, weighter=weighter)
                for pair, cfg, weighter in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            calls = [pool.submit(register, pair.source, pair.target, cfg, weighter=weighter)
                     for pair, cfg, weighter in cases]
            results = [call.result(timeout=120) for call in calls]
    finally:
        sys.setswitchinterval(interval)
    for result, want in zip(results, expected):
        _assert_same_registration(result, want)
    assert _pipeline._running == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_describes_with_its_own_helper(monkeypatch):
    # the child inherits the parent's executor without its thread; it
    # must start a helper of its own rather than describe and match
    # everything serially
    monkeypatch.setenv("DGR_THREADS", "2")
    pair, cfg, weighter = _dense_pair()
    names, _ = _record_description(monkeypatch)
    _wait_for_the_helper(monkeypatch)
    expected = register(pair.source, pair.target, cfg, weighter=weighter)
    helped = ["histogram", "descriptor"]
    assert _split_steps(names)[0] == helped
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through its exit status
        status = 1
        try:
            names.clear()
            _wait_for_the_helper(monkeypatch)
            got = register(pair.source, pair.target, cfg, weighter=weighter)
            same = got.transform.rotation.tobytes() == expected.transform.rotation.tobytes()
            status = 0 if same and _split_steps(names)[0] == helped else 1
        finally:
            os._exit(status)
    assert _exit_code_of_child(pid) == 0


def _exit_code_of_child(pid):
    """Wait up to 120 s for a forked child; kill it and fail after that."""
    deadline = time.monotonic() + 120.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its registration")
        time.sleep(0.05)


@contextmanager
def _registrations_held(count):
    """Run ``count`` registrations on threads of their own and hold each
    in its weighing step until the block ends. They have described and
    matched their pairs, so the helper is idle, but they are still
    inside ``register``."""
    pair, cfg, _ = _outlier_pair()
    entered = threading.Semaphore(0)
    release = threading.Event()

    def held(matches, source, target):
        entered.release()
        release.wait(60)
        return np.ones(len(matches))

    threads = [threading.Thread(target=register, args=(pair.source, pair.target, cfg),
                                kwargs={"weighter": held}) for _ in range(count)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(count):
            assert entered.acquire(timeout=60)
        yield
    finally:
        release.set()
        for thread in threads:
            thread.join(60)
    assert not any(thread.is_alive() for thread in threads)



@pytest.mark.parametrize("threads, held, schedule", [
    ("2", 2, _SERIAL),
    ("2", 1, _SERIAL),
    ("3", 1, _HELPED),
], ids=["as-many-as-cores", "one-core-left", "two-cores-left"])
def test_the_helper_takes_part_only_while_a_core_is_idle(monkeypatch, threads, held, schedule):
    # a registration counts itself: it takes the helper only while fewer
    # registrations than worker_count() run, itself included
    monkeypatch.setenv("DGR_THREADS", threads)
    pair, cfg, _ = _outlier_pair()
    with _registrations_held(held):
        with monkeypatch.context() as patch:
            steps, matched = _record_description(patch)
            _wait_for_the_helper(patch)
            result = register(pair.source, pair.target, cfg)
    assert _split_steps(steps) == schedule
    assert _pipeline._running == 0
    monkeypatch.setenv("DGR_THREADS", "1")
    _, serial_matched = _record_description(monkeypatch)
    serial = register(pair.source, pair.target, cfg)
    _assert_same_matching(matched[0], serial_matched[0])
    _assert_same_registration(result, serial)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_during_a_registration_uses_its_own_helper(monkeypatch):
    # the child inherits the count of registrations, and perhaps its lock
    # held, from threads it does not have; it must start from none
    monkeypatch.setenv("DGR_THREADS", "2")
    pair, cfg, _ = _outlier_pair()
    with _registrations_held(1):
        names, _ = _record_description(monkeypatch)
        _wait_for_the_helper(monkeypatch)
        # here the held registration and this one fill both cores
        register(pair.source, pair.target, cfg)
        assert _split_steps(names) == _SERIAL
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports through its exit status
            status = 1
            try:
                names.clear()
                _wait_for_the_helper(monkeypatch)
                register(pair.source, pair.target, cfg)
                status = 0 if _split_steps(names) == _HELPED else 1
            finally:
                os._exit(status)
        assert _exit_code_of_child(pid) == 0
