"""Closed-form weighted alignment: normalization, solver, weight gradient."""

import numpy as np
import pytest

from rigidreg import (
    AllWeightsFiltered,
    DegenerateConfiguration,
    LengthMismatch,
    NormalizedWeights,
    NumericallyUnstableGradient,
    RigidTransform,
    TooFewCorrespondences,
    WeightLengthMismatch,
    WeightVector,
    grad_weights,
    normalize_weights,
    solve,
)
from rigidreg.procrustes import solve_stacked

from _oracles import central_difference, kabsch, quaternion_angle, random_rotation


# ---------------------------------------------------------------------------
# weight normalization
# ---------------------------------------------------------------------------

def test_normalize_hand_example():
    # survivors of w > 0.4 are 0.8, 0.9, 0.5; their sum is 2.2
    out = normalize_weights(WeightVector(np.array([0.8, 0.2, 0.9, 0.5])), 0.4)
    np.testing.assert_allclose(
        out.w_tilde, [8.0 / 22.0, 0.0, 9.0 / 22.0, 5.0 / 22.0], atol=1e-15
    )
    assert out.w_tilde[1] == 0.0
    assert abs(out.scale - 2.2) < 1e-15


def test_normalize_more_hand_examples():
    out = normalize_weights(WeightVector(np.ones(4)), 0.5)
    np.testing.assert_array_equal(out.w_tilde, [0.25, 0.25, 0.25, 0.25])
    out = normalize_weights(WeightVector(np.array([0.9, 0.3])), 0.5)
    np.testing.assert_array_equal(out.w_tilde, [1.0, 0.0])
    out = normalize_weights(WeightVector(np.array([0.6, 0.6, 0.2])), 0.4)
    np.testing.assert_array_equal(out.w_tilde, [0.5, 0.5, 0.0])


def test_normalize_boundary_weight_is_filtered():
    out = normalize_weights(WeightVector(np.array([0.4, 0.8, 0.9, 0.5])), 0.4)
    assert out.w_tilde[0] == 0.0  # w == tau does not survive


def test_normalize_all_filtered_raises():
    with pytest.raises(AllWeightsFiltered):
        normalize_weights(WeightVector(np.array([0.1, 0.4, 0.0])), 0.4)


def test_normalize_sums_to_one(rng):
    for _ in range(20):
        raw = rng.uniform(0.0, 1.0, size=rng.integers(1, 50))
        if not np.any(raw > 0.3):
            continue
        out = normalize_weights(WeightVector(raw), 0.3)
        assert abs(out.w_tilde.sum() - 1.0) < 1e-12
        assert np.all(out.w_tilde[raw <= 0.3] == 0.0)


def test_normalize_validates_tau():
    with pytest.raises(ValueError):
        normalize_weights(WeightVector(np.array([0.5])), 1.0)
    with pytest.raises(ValueError):
        normalize_weights(WeightVector(np.array([0.5])), -0.1)
    for tau in (None, "0.4", False):
        with pytest.raises(ValueError, match="tau"):
            normalize_weights(WeightVector(np.array([0.5])), tau)


def test_normalized_weights_container_validation():
    with pytest.raises(ValueError):
        NormalizedWeights(np.array([0.5, 0.4]), 1.0)  # sums to 0.9
    with pytest.raises(ValueError):
        NormalizedWeights(np.array([1.0]), 0.0)  # scale must be positive
    with pytest.raises(ValueError):
        NormalizedWeights(np.zeros(0), 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        NormalizedWeights(np.array([1.5, -0.5]), 1.0)  # sums to 1


@pytest.mark.parametrize("w_tilde, scale", [
    ([np.nan, 0.25, 0.25, 0.25, 0.25], 1.0),
    ([np.inf, 0.25, 0.25, 0.25, 0.25], 1.0),
    ([0.2] * 5, np.inf),
    ([0.2] * 5, np.nan),
], ids=["nan-weight", "inf-weight", "inf-scale", "nan-scale"])
def test_normalized_weights_refuse_non_finite_values(w_tilde, scale):
    # a nan weight used to reach the SVD, which raised LinAlgError
    with pytest.raises(ValueError, match="finite"):
        NormalizedWeights(np.array(w_tilde), scale)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _uniform(n):
    return normalize_weights(WeightVector(np.ones(n)), 0.0)


def test_solve_matches_classical_kabsch(rng):
    for _ in range(10):
        X = rng.normal(size=(30, 3))
        Y = rng.normal(size=(30, 3))
        sol = solve(X, Y, _uniform(30))
        R_ref, t_ref = kabsch(X, Y)
        assert np.abs(sol.transform.rotation - R_ref).max() < 1e-12
        assert np.abs(sol.transform.translation - t_ref).max() < 1e-12


def test_solve_recovers_exact_transform(rng):
    X = rng.normal(size=(25, 3)) * np.array([1.0, 0.6, 0.3])
    R_true = random_rotation(rng)
    t_true = rng.normal(size=3)
    Y = X @ R_true.T + t_true
    sol = solve(X, Y, _uniform(25))
    assert quaternion_angle(sol.transform.rotation, R_true) < 1e-12
    assert np.abs(sol.transform.translation - t_true).max() < 1e-12


def test_solve_ignores_zero_weight_outliers(rng):
    X = rng.normal(size=(40, 3))
    R_true = random_rotation(rng)
    t_true = rng.normal(size=3)
    Y = X @ R_true.T + t_true
    w = np.ones(40)
    bad = rng.choice(40, size=20, replace=False)  # half the pairs are garbage
    Y[bad] += rng.normal(size=(20, 3)) * 5.0
    w[bad] = 0.0
    sol = solve(X, Y, normalize_weights(WeightVector(w), 0.4))
    assert quaternion_angle(sol.transform.rotation, R_true) < 1e-12
    assert np.abs(sol.transform.translation - t_true).max() < 1e-12


def test_solve_translation_shift_moves_only_translation(rng):
    # shifting either cloud by a constant must not change the rotation,
    # even for non-uniform weights
    X = rng.normal(size=(20, 3))
    Y = rng.normal(size=(20, 3))
    w = normalize_weights(WeightVector(rng.uniform(0.45, 1.0, size=20)), 0.4)
    a = np.array([3.0, -1.0, 0.5])
    b = np.array([-2.0, 4.0, 1.0])
    base = solve(X, Y, w)
    shifted = solve(X + a, Y + b, w)
    R = base.transform.rotation
    assert np.abs(shifted.transform.rotation - R).max() < 1e-12
    expected_t = base.transform.translation + b - R @ a
    assert np.abs(shifted.transform.translation - expected_t).max() < 1e-12


def test_solve_equivariant_under_source_motion(rng):
    # pre-moving the source by G composes the estimate with G^-1
    X = rng.normal(size=(20, 3))
    Y = rng.normal(size=(20, 3))
    w = normalize_weights(WeightVector(rng.uniform(0.45, 1.0, size=20)), 0.4)
    Q = random_rotation(rng)
    c = rng.normal(size=3)
    G = RigidTransform(Q, c)
    base = solve(X, Y, w)
    moved = solve(G.apply(X), Y, w)
    expected = base.transform.rotation @ Q.T
    assert np.abs(moved.transform.rotation - expected).max() < 1e-12
    expected_t = base.transform.translation - expected @ c
    assert np.abs(moved.transform.translation - expected_t).max() < 1e-12


def test_solve_never_returns_reflection(rng):
    # a mirrored target tempts the unconstrained optimum into det = -1;
    # the sign flip must keep the result a proper rotation
    X = rng.normal(size=(15, 3))
    Y = X @ np.diag([1.0, 1.0, -1.0])
    sol = solve(X, Y, _uniform(15))
    flip = np.linalg.det(sol.svd_u) * np.linalg.det(sol.svd_vt)
    assert flip < 0  # the branch actually fired
    assert sol.signs.tolist() == [1.0, 1.0, -1.0]  # the diagonal of S
    np.testing.assert_array_equal(sol.rotation, (sol.svd_u * sol.signs) @ sol.svd_vt)
    assert abs(np.linalg.det(sol.transform.rotation) - 1.0) < 1e-9


def test_solve_svd_factors_reconstruct_cross_covariance(rng):
    # the delegated SVD must reproduce its input to near machine precision
    for _ in range(50):
        n = int(rng.integers(4, 40))
        X = rng.normal(size=(n, 3))
        Y = rng.normal(size=(n, 3))
        sol = solve(X, Y, _uniform(n))
        rebuilt = sol.svd_u @ np.diag(sol.svd_s) @ sol.svd_vt
        norm = np.linalg.norm(sol.cross_covariance)
        assert np.linalg.norm(rebuilt - sol.cross_covariance) <= 1e-12 * max(norm, 1.0)


def test_solve_uniform_weights_match_centering_projector(rng):
    # with uniform w̃ the centered cross-covariance equals Y K W K Xᵀ,
    # where K = I - sqrt(w̃) sqrt(w̃)ᵀ projects out the common centroid
    n = 10
    X = rng.normal(size=(n, 3))
    Y = rng.normal(size=(n, 3))
    w = _uniform(n)
    sol = solve(X, Y, w)
    root = np.sqrt(w.w_tilde)
    K = np.eye(n) - np.outer(root, root)
    W = np.diag(w.w_tilde)
    reference = Y.T @ K @ W @ K @ X
    assert np.abs(sol.cross_covariance - reference).max() < 1e-12


def test_solve_input_validation(rng):
    X = rng.normal(size=(5, 3))
    with pytest.raises(LengthMismatch):
        solve(X, X[:4], _uniform(5))
    with pytest.raises(WeightLengthMismatch):
        solve(X, X, _uniform(4))
    w = normalize_weights(WeightVector(np.array([0.9, 0.9, 0.1, 0.1, 0.1])), 0.4)
    with pytest.raises(TooFewCorrespondences):
        solve(X, X, w)  # only two pairs survive the prefilter


def test_solve_degenerate_configurations():
    line = np.linspace(0.0, 1.0, 5)[:, None] * np.array([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateConfiguration):
        solve(line, line, _uniform(5))
    coincident = np.tile([1.0, 2.0, 3.0], (4, 1))
    with pytest.raises(DegenerateConfiguration):
        solve(coincident, coincident, _uniform(4))


# ---------------------------------------------------------------------------
# the stacked kernel behind solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(1, 3), (17, 3), (9, 40), (64, 3)])
def test_stacked_kernel_slices_equal_single_solves(shape, rng):
    B, K = shape
    X = rng.normal(size=(B, K, 3)) * rng.uniform(0.01, 10.0, size=(B, 1, 1))
    Y = X @ random_rotation(rng).T + rng.normal(size=(B, K, 3))
    raw = rng.uniform(0.1, 1.0, size=(B, K))
    w = raw / raw.sum(axis=1, keepdims=True)
    fit = solve_stacked(X, Y, w)
    assert not fit.rank_deficient.any()
    for k in range(B):
        sol = solve(X[k], Y[k], NormalizedWeights(w[k], 1.0))
        np.testing.assert_array_equal(fit.rotation[k], sol.transform.rotation)
        np.testing.assert_array_equal(fit.translation[k], sol.transform.translation)
        np.testing.assert_array_equal(fit.cross_covariance[k], sol.cross_covariance)
        np.testing.assert_array_equal(fit.svd_u[k], sol.svd_u)
        np.testing.assert_array_equal(fit.svd_s[k], sol.svd_s)
        np.testing.assert_array_equal(fit.svd_vt[k], sol.svd_vt)
        np.testing.assert_array_equal(fit.signs[k], sol.signs)
        np.testing.assert_array_equal(fit.centroid_source[k], sol.centroid_source)
        np.testing.assert_array_equal(fit.centroid_target[k], sol.centroid_target)


def test_stacked_kernel_flags_what_solve_rejects(rng):
    X = rng.normal(size=(3, 5, 3))
    X[1] = np.linspace(0.0, 1.0, 5)[:, None] * np.array([1.0, 2.0, 3.0])
    w = np.full((3, 5), 0.2)
    fit = solve_stacked(X, X, w)
    assert fit.rank_deficient.tolist() == [False, True, False]
    with pytest.raises(DegenerateConfiguration):
        solve(X[1], X[1], _uniform(5))


def test_ransac_takes_its_rank_test_from_the_kernel():
    import rigidreg.ransac as ransac_module

    assert ransac_module.solve_stacked is solve_stacked
    assert not [name for name in vars(ransac_module) if "RANK" in name]


# ---------------------------------------------------------------------------
# gradient with respect to the raw weights
# ---------------------------------------------------------------------------

def _fd_instance(seed):
    """Random solvable instance whose weights stay clear of the prefilter
    boundary and whose singular values are well separated."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(14, 3)) * np.array([1.0, 0.6, 0.3])
    R_true = random_rotation(rng)
    Y = X @ R_true.T + rng.normal(size=3) + 0.01 * rng.normal(size=(14, 3))
    raw = rng.uniform(0.55, 0.95, size=14)
    raw[rng.choice(14, size=3, replace=False)] = rng.uniform(0.05, 0.25, size=3)
    G_R = rng.normal(size=(3, 3))
    g_t = rng.normal(size=3)
    return X, Y, raw, G_R, g_t


def _loss(X, Y, raw, G_R, g_t):
    norm = normalize_weights(WeightVector(raw), 0.4)
    sol = solve(X, Y, norm)
    return float(np.sum(G_R * sol.transform.rotation) + g_t @ sol.transform.translation)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_grad_weights_matches_central_differences(seed):
    X, Y, raw, G_R, g_t = _fd_instance(seed)
    norm = normalize_weights(WeightVector(raw), 0.4)
    sol = solve(X, Y, norm)
    gaps = np.abs(sol.svd_s[:, None] - sol.svd_s[None, :])[np.triu_indices(3, k=1)]
    assert gaps.min() > 1e-3 * sol.svd_s[0]  # instance is well conditioned
    analytic = grad_weights(sol, X, Y, norm, G_R, g_t)
    numeric = central_difference(lambda w: _loss(X, Y, w, G_R, g_t), raw, 1e-6)
    assert np.abs(analytic - numeric).max() < 5e-7


def test_grad_weights_pose_error_loss_ten_pairs():
    # loss = angular rotation error + squared translation error vs ground truth
    rng = np.random.default_rng(31)
    X = rng.normal(size=(10, 3)) * np.array([1.0, 0.6, 0.3])
    R_star = random_rotation(rng)
    t_star = rng.normal(size=3)
    Y = X @ R_star.T + t_star + 0.01 * rng.normal(size=(10, 3))
    raw = rng.uniform(0.55, 0.95, size=10)
    raw[[2, 7]] = [0.1, 0.25]

    def pose_loss(w):
        sol = solve(X, Y, normalize_weights(WeightVector(w), 0.4))
        u = (np.trace(sol.transform.rotation.T @ R_star) - 1.0) / 2.0
        d_t = sol.transform.translation - t_star
        return float(np.arccos(np.clip(u, -1.0, 1.0)) + d_t @ d_t)

    norm = normalize_weights(WeightVector(raw), 0.4)
    sol = solve(X, Y, norm)
    angle = np.arccos(np.clip(
        (np.trace(sol.transform.rotation.T @ R_star) - 1.0) / 2.0, -1.0, 1.0
    ))
    assert angle > 1e-4  # the arccos chain is smooth here
    analytic = grad_weights(
        sol, X, Y, norm,
        -R_star / (2.0 * np.sin(angle)),
        2.0 * (sol.transform.translation - t_star),
    )
    numeric = central_difference(pose_loss, raw, 1e-5)
    rel = np.abs(analytic - numeric).max() / np.abs(numeric).max()
    assert rel <= 1e-4


def test_grad_weights_zero_on_filtered_entries():
    X, Y, raw, G_R, g_t = _fd_instance(11)
    norm = normalize_weights(WeightVector(raw), 0.4)
    sol = solve(X, Y, norm)
    g = grad_weights(sol, X, Y, norm, G_R, g_t)
    assert np.all(g[raw <= 0.4] == 0.0)
    assert np.any(g[raw > 0.4] != 0.0)


def test_grad_weights_duplicate_pair_shares_gradient():
    # splitting one pair's weight across two identical copies leaves the
    # solution unchanged and gives both copies the same derivative
    rng = np.random.default_rng(21)
    X = rng.normal(size=(10, 3)) * np.array([1.0, 0.5, 0.25])
    Y = X @ random_rotation(rng).T + rng.normal(size=3) + 0.01 * rng.normal(size=(10, 3))
    raw = rng.uniform(0.55, 0.95, size=10)
    G_R = rng.normal(size=(3, 3))
    g_t = rng.normal(size=3)

    base_sol = solve(X, Y, normalize_weights(WeightVector(raw), 0.4))

    X2 = np.vstack([X, X[-1:]])
    Y2 = np.vstack([Y, Y[-1:]])
    raw2 = np.concatenate([raw, raw[-1:]])
    raw2[-2] = raw2[-1] = raw[-1] / 2.0  # halves still clear tau = 0.2
    norm2 = normalize_weights(WeightVector(raw2), 0.2)
    sol2 = solve(X2, Y2, norm2)
    assert np.abs(sol2.transform.rotation - base_sol.transform.rotation).max() < 1e-12
    g = grad_weights(sol2, X2, Y2, norm2, G_R, g_t)
    assert abs(g[-1] - g[-2]) <= 1e-6


def test_grad_weights_translation_loss_on_coincident_clouds(rng):
    # for Y = X the rotation block of the chain is antisymmetric while the
    # covariance differentials are symmetric, so a translation-only loss
    # has zero derivative up to SVD rounding dust
    X = rng.normal(size=(12, 3)) * np.array([1.0, 0.5, 0.25])
    norm = normalize_weights(WeightVector(rng.uniform(0.45, 1.0, size=12)), 0.4)
    sol = solve(X, X, norm)
    g = grad_weights(sol, X, X, norm, np.zeros((3, 3)), rng.normal(size=3))
    assert np.abs(g).max() < 1e-12


def test_grad_weights_refuses_close_singular_values():
    # an isotropic instance has three equal singular values, where the
    # SVD derivative divides by zero
    cube = np.array(
        [
            [x, y, z]
            for x in (-1.0, 1.0)
            for y in (-1.0, 1.0)
            for z in (-1.0, 1.0)
        ]
    )
    norm = _uniform(8)
    sol = solve(cube, cube, norm)
    with pytest.raises(NumericallyUnstableGradient):
        grad_weights(sol, cube, cube, norm, np.eye(3), np.zeros(3))


def test_grad_weights_length_validation(rng):
    X = rng.normal(size=(6, 3))
    norm = _uniform(6)
    sol = solve(X, X + rng.normal(size=(6, 3)) * 0.1, norm)
    with pytest.raises(LengthMismatch):
        grad_weights(sol, X[:5], X[:5], norm, np.eye(3), np.zeros(3))
