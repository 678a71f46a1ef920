"""6D rotation parameterization and robust pose refinement."""

import math
from dataclasses import replace

import numpy as np
import pytest

import rigidreg.pipeline
from rigidreg import (
    CorrespondenceSet,
    DegenerateConfiguration,
    DegenerateRepresentation,
    NoActiveCorrespondences,
    NormalizedWeights,
    NotARotation,
    PipelineConfig,
    PointCloud,
    RefineConfig,
    RigidTransform,
    Rot6D,
    SyntheticPairSpec,
    TooFewCorrespondences,
    WeightVector,
    energy,
    energy_gradient,
    generate_pair,
    matrix_to_rot6d,
    refine,
    register,
    rot6d_to_matrix,
    solve,
)
from rigidreg.refine import _huber_energy

from _oracles import central_difference, huber, quaternion_angle, random_rotation, rodrigues, rot_z


def _identity_matches(n):
    return CorrespondenceSet(np.column_stack([np.arange(n), np.arange(n)]), n, n)


# ---------------------------------------------------------------------------
# rotation representation
# ---------------------------------------------------------------------------

def test_rot6d_validation():
    with pytest.raises(DegenerateRepresentation):
        Rot6D(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DegenerateRepresentation):
        Rot6D(np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]))
    with pytest.raises(DegenerateRepresentation):
        Rot6D(np.array([np.nan, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))


def test_rot6d_canonical_basis_gives_identity():
    R = rot6d_to_matrix(Rot6D(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])))
    np.testing.assert_array_equal(R, np.eye(3))


def test_rot6d_gram_schmidt_hand_value():
    R = rot6d_to_matrix(Rot6D(np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, 5.0])))
    expected = np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])  # columns e1, e3, -e2
    np.testing.assert_array_equal(R, expected)


def test_matrix_to_rot6d_hand_values():
    a = matrix_to_rot6d(np.eye(3))
    np.testing.assert_array_equal(a.a1, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(a.a2, [0.0, 1.0, 0.0])
    a = matrix_to_rot6d(rot_z(np.pi / 2.0))
    np.testing.assert_allclose(a.a1, [0.0, 1.0, 0.0], atol=1e-16)
    np.testing.assert_allclose(a.a2, [-1.0, 0.0, 0.0], atol=1e-16)


def test_rot6d_round_trip(rng):
    for _ in range(20):
        R = random_rotation(rng)
        back = rot6d_to_matrix(matrix_to_rot6d(R))
        assert np.abs(back - R).max() < 1e-14


def test_rot6d_always_produces_rotation(rng):
    for _ in range(50):
        a = Rot6D(rng.normal(size=3) * 3.0, rng.normal(size=3) * 3.0)
        R = rot6d_to_matrix(a)
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_rot6d_representation_invariance(rng):
    a1 = rng.normal(size=3)
    a2 = rng.normal(size=3)
    base = rot6d_to_matrix(Rot6D(a1, a2))
    scaled = rot6d_to_matrix(Rot6D(2.0 * a1, a2))
    np.testing.assert_array_equal(scaled, base)  # power-of-two scale is exact
    sheared = rot6d_to_matrix(Rot6D(a1, a2 + 0.7 * a1))
    assert np.abs(sheared - base).max() < 1e-14


def test_matrix_to_rot6d_rejects_non_rotations():
    with pytest.raises(NotARotation):
        matrix_to_rot6d(np.eye(3) * 1.01)
    with pytest.raises(NotARotation):
        matrix_to_rot6d(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(NotARotation):
        matrix_to_rot6d(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def _single_pair(r, w0=0.8):
    src = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0, 0], [0, 1.0, 0]]))
    tgt = PointCloud(np.array([[r, 0.0, 0.0], [1.0, 0, 0], [0, 1.0, 0]]))
    matches = _identity_matches(3)
    w = WeightVector(np.array([w0, 0.0, 0.0]))  # only pair 0 is active
    return matches, src, tgt, w


def test_energy_quadratic_branch_hand_value():
    matches, src, tgt, w = _single_pair(0.03)
    cfg = RefineConfig(huber_delta=0.05)
    a = matrix_to_rot6d(np.eye(3))
    got = energy(a, np.zeros(3), matches, src, tgt, w, cfg)
    assert abs(got - 0.8 * 0.5 * 0.03**2) < 1e-18
    # unit weight at half the kink radius: delta^2 / 8
    matches, src, tgt, w = _single_pair(0.025, w0=1.0)
    got = energy(a, np.zeros(3), matches, src, tgt, w, cfg)
    assert abs(got - 0.05**2 / 8.0) < 1e-18


def test_energy_linear_branch_hand_value():
    matches, src, tgt, w = _single_pair(0.2)
    cfg = RefineConfig(huber_delta=0.05)
    a = matrix_to_rot6d(np.eye(3))
    got = energy(a, np.zeros(3), matches, src, tgt, w, cfg)
    assert abs(got - 0.8 * 0.05 * (0.2 - 0.025)) < 1e-18
    # unit weight at three kink radii: delta * (3 delta - delta / 2)
    matches, src, tgt, w = _single_pair(0.15, w0=1.0)
    got = energy(a, np.zeros(3), matches, src, tgt, w, cfg)
    assert abs(got - 2.5 * 0.05**2) < 1e-18


def test_energy_continuous_at_kink():
    cfg = RefineConfig(huber_delta=0.05)
    a = matrix_to_rot6d(np.eye(3))
    values = []
    for r in (0.05 - 1e-12, 0.05 + 1e-12):
        matches, src, tgt, w = _single_pair(r)
        values.append(energy(a, np.zeros(3), matches, src, tgt, w, cfg))
    assert abs(values[1] - values[0]) < 1e-10
    assert huber(0.05, 0.05) == 0.5 * 0.05**2  # both branches agree at the kink


def test_energy_ignores_prefiltered_pairs(rng):
    pts = rng.normal(size=(10, 3))
    src = PointCloud(pts)
    tgt = PointCloud(pts + rng.normal(size=(10, 3)) * 0.1)
    matches = _identity_matches(10)
    cfg = RefineConfig()
    a = matrix_to_rot6d(np.eye(3))
    w_mixed = np.concatenate([rng.uniform(0.5, 1.0, 6), np.zeros(4)])
    full = energy(a, np.zeros(3), matches, src, tgt, WeightVector(w_mixed), cfg)
    # recompute with the inactive targets wrecked: identical energy
    wrecked = tgt.points.copy()
    wrecked[6:] += 100.0
    moved = energy(a, np.zeros(3), matches, src, PointCloud(wrecked), WeightVector(w_mixed), cfg)
    assert moved == full


def test_energy_residuals_equal_the_row_norms(rng):
    # the residuals are summed by coordinate planes, bit for bit the
    # rounding of np.linalg.norm(..., axis=1)
    for count in [*range(1, 300), 511, 512, 513, 750, 1000, 2047, 2048, 4096, 10000]:
        for _ in range(20):
            X, Y = rng.normal(size=(2, count, 3)) * rng.uniform(0.01, 10.0)
            R, t = random_rotation(rng), rng.normal(size=3)
            _, r = _huber_energy(X, Y, np.ones(count), R, t, 0.1)
            assert r.tobytes() == np.linalg.norm(X @ R.T + t - Y, axis=1).tobytes(), count


def test_energy_zero_when_nothing_active(rng):
    pts = rng.normal(size=(4, 3))
    cloud = PointCloud(pts)
    cfg = RefineConfig()
    a = matrix_to_rot6d(np.eye(3))
    got = energy(a, np.zeros(3), _identity_matches(4), cloud, cloud, WeightVector(np.zeros(4)), cfg)
    assert got == 0.0
    with pytest.raises(NoActiveCorrespondences):
        energy_gradient(a, np.zeros(3), _identity_matches(4), cloud, cloud, WeightVector(np.zeros(4)), cfg)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def _gradient_instance(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(25, 3))
    src = PointCloud(pts)
    tgt = PointCloud(pts @ random_rotation(rng).T + rng.normal(size=3) * 0.2
                     + rng.normal(size=(25, 3)) * 0.03)
    matches = _identity_matches(25)
    w = rng.uniform(0.45, 1.0, size=25)
    w[rng.choice(25, size=5, replace=False)] = 0.1  # filtered entries
    a = Rot6D(rng.normal(size=3), rng.normal(size=3))
    t = rng.normal(size=3) * 0.1
    return matches, src, tgt, WeightVector(w), a, t


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_energy_gradient_matches_central_differences(seed):
    matches, src, tgt, w, a, t = _gradient_instance(seed)
    cfg = RefineConfig()
    ga1, ga2, gt = energy_gradient(a, t, matches, src, tgt, w, cfg)
    analytic = np.concatenate([ga1, ga2, gt])

    def f(p):
        return energy(Rot6D(p[0:3], p[3:6]), p[6:9], matches, src, tgt, w, cfg)

    numeric = central_difference(f, np.concatenate([a.a1, a.a2, t]), 1e-6)
    assert np.abs(analytic - numeric).max() < 1e-7


def test_energy_gradient_a1_scaling_is_exact():
    matches, src, tgt, w, a, t = _gradient_instance(9)
    cfg = RefineConfig()
    ga1, ga2, gt = energy_gradient(a, t, matches, src, tgt, w, cfg)
    sa = Rot6D(2.0 * a.a1, a.a2)
    np.testing.assert_array_equal(rot6d_to_matrix(sa), rot6d_to_matrix(a))
    sga1, sga2, sgt = energy_gradient(sa, t, matches, src, tgt, w, cfg)
    # only the a1 block rescales, and by exactly one bit of exponent
    np.testing.assert_array_equal(sga1, ga1 / 2.0)
    np.testing.assert_array_equal(sga2, ga2)
    np.testing.assert_array_equal(sgt, gt)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_refine_ground_truth_init_is_inert(patch_cloud):
    T = RigidTransform(rodrigues(np.array([0.2, -0.5, 0.8]), 0.7), np.array([0.2, -0.1, 0.3]))
    src = patch_cloud
    tgt = PointCloud(T.apply(src.points))
    n = len(src)
    final, trace = refine(T, _identity_matches(n), src, tgt, WeightVector(np.ones(n)), RefineConfig())
    assert trace.iterations == 1 and trace.termination == "converged"
    assert len(trace.energies) == 1 and trace.energies[0] < 1e-30
    assert np.abs(final.rotation - T.rotation).max() < 1e-14
    assert np.abs(final.translation - T.translation).max() < 1e-12


def test_refine_small_offset_example(patch_cloud):
    # 5 degrees / 5 cm off a clean alignment must land within 0.1 deg / 1 mm
    R = rodrigues(np.array([0.2, -0.5, 0.8]), 0.7)
    tv = np.array([0.2, -0.1, 0.3])
    src = patch_cloud
    tgt = PointCloud(src.points @ R.T + tv)
    n = len(src)
    axis = np.array([0.3, 0.7, -0.6])
    axis /= np.linalg.norm(axis)
    init = RigidTransform(rodrigues(axis, math.radians(5.0)) @ R, tv + [0.03, -0.03, 0.02])
    final, trace = refine(init, _identity_matches(n), src, tgt, WeightVector(np.ones(n)), RefineConfig())
    assert math.degrees(quaternion_angle(final.rotation, R)) <= 0.1
    assert np.linalg.norm(final.translation - tv) <= 1e-3
    assert trace.termination == "converged"


def test_refine_energies_strictly_decrease(rng):
    pts = rng.normal(size=(60, 3))
    R = random_rotation(rng)
    tgt = PointCloud(pts @ R.T + rng.normal(size=3) + rng.normal(size=(60, 3)) * 0.02)
    src = PointCloud(pts)
    init = RigidTransform(rodrigues(np.array([0.0, 0.0, 1.0]), 0.25) @ R, np.zeros(3))
    final, trace = refine(init, _identity_matches(60), src, tgt, WeightVector(np.ones(60)), RefineConfig())
    assert all(b < a for a, b in zip(trace.energies, trace.energies[1:]))
    assert trace.energies[-1] < trace.energies[0]
    assert trace.termination in ("converged", "max_iters")
    assert trace.iterations <= RefineConfig().max_iters


def test_refine_zero_weight_pairs_are_inert(patch_cloud, rng):
    # 40% garbage correspondences at weight 0 change nothing
    R = rodrigues(np.array([0.1, 0.9, -0.3]), 0.4)
    tv = np.array([0.05, 0.02, -0.07])
    src_pts = patch_cloud.points
    n = len(src_pts)
    k = 2 * n // 3  # k / (n + k) = 0.4
    tgt_pts = src_pts @ R.T + tv
    init = RigidTransform(rodrigues(np.array([0.0, 0.0, 1.0]), math.radians(5.0)) @ R, tv)
    w = np.ones(n)

    base_final, base_trace = refine(
        init, _identity_matches(n), PointCloud(src_pts), PointCloud(tgt_pts),
        WeightVector(w), RefineConfig(),
    )

    extra_src = np.vstack([src_pts, rng.normal(size=(k, 3)) * 10.0])
    extra_tgt = np.vstack([tgt_pts, rng.normal(size=(k, 3)) * 10.0])
    pairs = np.column_stack([np.arange(n + k), np.arange(n + k)])
    w2 = np.concatenate([w, np.zeros(k)])
    final, trace = refine(
        init,
        CorrespondenceSet(pairs, n + k, n + k),
        PointCloud(extra_src), PointCloud(extra_tgt),
        WeightVector(w2), RefineConfig(),
    )
    assert trace.energies == base_trace.energies
    np.testing.assert_array_equal(final.rotation, base_final.rotation)
    np.testing.assert_array_equal(final.translation, base_final.translation)


def test_refine_respects_max_iters(rng):
    pts = rng.normal(size=(40, 3))
    src = PointCloud(pts)
    tgt = PointCloud(pts @ rodrigues(np.array([0.0, 0.0, 1.0]), 0.8).T + np.array([1.0, 0.0, 0.0]))
    cfg = RefineConfig(max_iters=1, convergence_tol=1e-300)
    final, trace = refine(RigidTransform.identity(), _identity_matches(40), src, tgt,
                          WeightVector(np.ones(40)), cfg)
    assert trace.iterations == 1
    assert trace.termination == "max_iters"
    assert len(trace.energies) == 2  # initial energy plus one accepted step


def _gradient_norm(transform, matches, src, tgt, w, cfg):
    rot = matrix_to_rot6d(transform.rotation)
    return float(np.linalg.norm(np.concatenate(
        energy_gradient(rot, transform.translation, matches, src, tgt, w, cfg)
    )))


@pytest.mark.parametrize("seed", range(30))
def test_refine_ends_at_a_stationary_point(seed):
    # 200 pairs, 30% displaced by 0.2-1 m: the returned pose must be a
    # stationary point of the energy, not just a lower one
    rng = np.random.default_rng(seed)
    n = 200
    pts = rng.uniform(-1.0, 1.0, size=(n, 3))
    R = random_rotation(rng)
    tv = rng.normal(size=3) * 0.5
    tgt_pts = pts @ R.T + tv + rng.normal(size=(n, 3)) * 0.01
    bad = rng.choice(n, size=60, replace=False)
    offsets = rng.normal(size=(60, 3))
    offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
    tgt_pts[bad] += offsets * rng.uniform(0.2, 1.0, size=(60, 1))
    src, tgt = PointCloud(pts), PointCloud(tgt_pts)
    matches = _identity_matches(n)
    w = WeightVector(rng.uniform(0.5, 1.0, size=n))
    axis = rng.normal(size=3)
    init = RigidTransform(rodrigues(axis / np.linalg.norm(axis), math.radians(10.0)) @ R,
                          tv + rng.normal(size=3) * 0.05)
    cfg = RefineConfig()
    final, trace = refine(init, matches, src, tgt, w, cfg)
    assert trace.termination == "converged"
    before = _gradient_norm(init, matches, src, tgt, w, cfg)
    after = _gradient_norm(final, matches, src, tgt, w, cfg)
    assert after <= 1e-4 * before


def test_refine_rejects_an_underdetermined_active_set(rng):
    pts = rng.normal(size=(6, 3))
    init = RigidTransform.identity()
    # two active pairs: the pose is underdetermined
    w = WeightVector(np.array([0.9, 0.8, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(TooFewCorrespondences):
        refine(init, _identity_matches(6), PointCloud(pts), PointCloud(pts + 0.1), w, RefineConfig())
    # active points on one line: the rotation about it is underdetermined
    line = np.outer(np.arange(6.0), [0.3, -0.2, 0.5])
    with pytest.raises(DegenerateConfiguration):
        refine(init, _identity_matches(6), PointCloud(line), PointCloud(line + 0.1),
               WeightVector(np.ones(6)), RefineConfig())


def test_refine_config_validation():
    with pytest.raises(ValueError):
        RefineConfig(huber_delta=0.0)
    with pytest.raises(ValueError):
        RefineConfig(max_iters=0)
    with pytest.raises(ValueError):
        RefineConfig(convergence_tol=0.0)
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError):
            RefineConfig(convergence_tol=tol)
    # an infinite delta used to fail later, as weights that sum to infinity
    for delta in (math.inf, math.nan):
        with pytest.raises(ValueError):
            RefineConfig(huber_delta=delta)
    # a fractional iteration count used to fail later, inside range()
    for max_iters in (2.5, 8.0):
        with pytest.raises(ValueError):
            RefineConfig(max_iters=max_iters)
    assert RefineConfig(max_iters=np.int64(4)).max_iters == 4


# ---------------------------------------------------------------------------
# the loop against a frozen copy of the loop it replaced
# ---------------------------------------------------------------------------

def _frozen_rot6d_to_matrix(a):
    b1 = a.a1 / np.linalg.norm(a.a1)
    u = a.a2 - (b1 @ a.a2) * b1
    b2 = u / np.linalg.norm(u)
    return np.column_stack([b1, b2, np.cross(b1, b2)])


def _frozen_energy(a, t, matches, source, target, weights, cfg):
    w = weights.values
    active = w > 0.0
    if not active.any():
        return 0.0
    pairs = matches.pairs[active]
    R = _frozen_rot6d_to_matrix(a)
    d = source.points[pairs[:, 0]] @ R.T + np.asarray(t, dtype=np.float64) - (
        target.points[pairs[:, 1]]
    )
    r = np.linalg.norm(d, axis=1)
    delta = cfg.huber_delta
    return float(np.sum(w[active] * np.where(r <= delta, 0.5 * r * r, delta * (r - 0.5 * delta))))


def _frozen_refine(init, matches, source, target, weights, cfg):
    """Huber IRLS as it was first written: the public energy scores each
    step on arrays gathered again, and solve returns a RigidTransform.
    Returns (rotation, translation, energies, iterations, termination)."""
    active = weights.values > 0.0
    pairs = matches.pairs[active]
    Xa, Ya, wa = source.points[pairs[:, 0]], target.points[pairs[:, 1]], weights.values[active]

    def to_rot6d(R):
        return Rot6D(R[:, 0].copy(), R[:, 1].copy())

    rot = to_rot6d(init.rotation)
    R = _frozen_rot6d_to_matrix(rot)
    t = np.asarray(init.translation, dtype=np.float64)
    current = _frozen_energy(rot, t, matches, source, target, weights, cfg)
    energies = [current]
    iterations = 0
    termination = "max_iters"
    for _ in range(cfg.max_iters):
        iterations += 1
        r = np.linalg.norm(Xa @ R.T + t - Ya, axis=1)
        v = wa * (cfg.huber_delta / np.maximum(r, cfg.huber_delta))
        total = float(v.sum())
        step = solve(Xa, Ya, NormalizedWeights(v / total, total)).transform
        candidate_rot = to_rot6d(step.rotation)
        candidate = _frozen_energy(candidate_rot, step.translation, matches, source, target, weights, cfg)
        decrease = current - candidate
        if not decrease > 0.0:
            termination = "converged"
            break
        R, t = _frozen_rot6d_to_matrix(candidate_rot), step.translation
        current = candidate
        energies.append(current)
        if decrease <= cfg.convergence_tol * max(abs(current), 1.0):
            termination = "converged"
            break
    return R, t, tuple(energies), iterations, termination


_OUTLIER_SEEDS = range(8)


@pytest.fixture(scope="module")
def outlier_refine_calls():
    """The arguments ``register`` hands to ``refine`` on pairs of the
    benchmark's outlier recipe (1k points, 30 % outliers, defaults)."""
    calls = []

    def capture(*args):
        calls.append(args)
        return refine(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigidreg.pipeline, "refine", capture)
        for seed in _OUTLIER_SEEDS:
            pair = generate_pair(SyntheticPairSpec(
                n_points=1000, overlap_ratio=0.8, noise_sigma=0.005, outlier_ratio=0.3, seed=seed,
            ))
            register(pair.source, pair.target, PipelineConfig())
    assert len(calls) == len(_OUTLIER_SEEDS)
    return calls


# each case: (pair, config changes, how the run must end); "tol" is a stop
# on convergence_tol after an accepted step, "rejected" a stop on a step
# that did not lower the energy
_FROZEN_CASES = {
    **{f"outlier-{seed}": (seed, {}, None) for seed in _OUTLIER_SEEDS},
    "max_iters_1": (0, {"max_iters": 1}, "max_iters"),
    "rejected_step": (1, {"convergence_tol": 1e-300, "max_iters": 1000}, "rejected"),
    "convergence_tol": (2, {}, "tol"),
}


@pytest.mark.parametrize("case", list(_FROZEN_CASES))
def test_refine_matches_frozen_loop(outlier_refine_calls, case):
    index, changes, ending = _FROZEN_CASES[case]
    init, matches, source, target, weights, cfg = outlier_refine_calls[index]
    cfg = replace(cfg, **changes)
    final, trace = refine(init, matches, source, target, weights, cfg)
    R, t, energies, iterations, termination = _frozen_refine(init, matches, source, target, weights, cfg)
    assert np.array_equal(final.rotation, R)
    assert np.array_equal(final.translation, t)
    assert trace.energies == energies
    assert trace.iterations == iterations
    assert trace.termination == termination
    if ending == "max_iters":
        assert trace.termination == "max_iters" and len(trace.energies) == trace.iterations + 1
    elif ending == "tol":
        assert trace.termination == "converged" and len(trace.energies) == trace.iterations + 1
    elif ending == "rejected":
        assert trace.termination == "converged" and len(trace.energies) == trace.iterations


@pytest.mark.parametrize("index", range(len(_OUTLIER_SEEDS)))
def test_refine_trace_agrees_with_public_energy(outlier_refine_calls, index):
    init, matches, source, target, weights, cfg = outlier_refine_calls[index]
    final, trace = refine(init, matches, source, target, weights, cfg)
    start = energy(matrix_to_rot6d(init.rotation), init.translation,
                   matches, source, target, weights, cfg)
    assert trace.energies[0] == start
    # the returned rotation goes through Gram-Schmidt once more, which can
    # move it by an ulp
    end = energy(matrix_to_rot6d(final.rotation), final.translation,
                 matches, source, target, weights, cfg)
    assert abs(trace.energies[-1] - end) <= 1e-12 * abs(end)
