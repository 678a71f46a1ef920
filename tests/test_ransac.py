"""Minimal-sample consensus registration (the safeguard branch)."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from rigidreg import (
    CorrespondenceSet,
    DegenerateConfiguration,
    EmptyCorrespondences,
    NoConsensus,
    NormalizedWeights,
    PointCloud,
    RansacConfig,
    SAFEGUARD_BRANCH,
    TooFewCorrespondences,
    WeightVector,
    inlier_fraction,
    ransac_register,
    solve,
)

from rigidreg import ransac
from rigidreg.ransac import _draw, _min_support, _rank, _schedule

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
        RansacConfig(max_iterations=2.5)
    with pytest.raises(ValueError):
        RansacConfig(seed=-2)
    with pytest.raises(ValueError):
        RansacConfig(inlier_threshold=0.0)
    for threshold in (math.inf, math.nan):
        with pytest.raises(ValueError):
            RansacConfig(inlier_threshold=threshold)
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


# ---------------------------------------------------------------------------
# PROSAC order: the spectral rank, the sampler and the stopping rule
# ---------------------------------------------------------------------------

def _exact_min_support(n, beta, psi=0.05):
    """PROSAC's non-randomness bound from its definition, for n* = 3..n:
    the least I with P(Bin(n* - 3, beta) >= I - 3) < psi."""

    def tail(trials, k):
        return sum(math.comb(trials, j) * beta**j * (1.0 - beta) ** (trials - j)
                   for j in range(k, trials + 1))

    bound, k = {}, 0
    for size in range(3, n + 1):
        # the bound never falls as n* grows
        while tail(size - 3, k) >= psi:
            k += 1
        bound[size] = 3 + k
    return bound


@pytest.mark.parametrize("n, beta", [(3, 1 / 3), (4, 0.25), (50, 0.02), (50, 0.5),
                                     (200, 0.005), (200, 0.011), (200, 0.2)])
def test_min_support_matches_the_binomial_tail(n, beta):
    expected = _exact_min_support(n, beta)
    assert _min_support(n, beta).tolist() == [expected[size] for size in range(3, n + 1)]


def test_prosac_samples_grow_the_pool_from_the_top():
    n, budget = 40, 500
    schedule = _schedule(n, budget)
    samples = _draw(np.random.default_rng(4), schedule, 0, 10 * budget)
    # draw t samples the top k for the least k with T'_k >= t: T'_3 = 1 and
    # T'_{k+1} = T'_k + ceil(T_{k+1} - T_k), with T_k = budget C(k, 3) / C(n, 3)
    last_draw, pool = 1, []
    for k in range(3, n):
        pool += [k] * (last_draw - len(pool))
        last_draw += math.ceil(budget * (math.comb(k + 1, 3) - math.comb(k, 3)) / math.comb(n, 3))
    pool = np.array((pool + [n] * len(samples))[: len(samples)])
    assert np.all(samples < pool[:, None]) and np.all(samples >= 0)
    ordered = np.sort(samples, axis=1)
    assert np.all(ordered[:, 0] < ordered[:, 1]) and np.all(ordered[:, 1] < ordered[:, 2])
    growing = pool < n
    assert np.all(np.any(samples[growing] == (pool[growing] - 1)[:, None], axis=1))
    # the whole pool is sampled uniformly: every member turns up
    assert len(np.unique(samples[~growing])) == n
    # the stream depends on the draw index only, not on how it is split
    rng = np.random.default_rng(4)
    head = _draw(rng, schedule, 0, 123)
    tail = _draw(rng, schedule, 123, 10 * budget - 123)
    np.testing.assert_array_equal(np.concatenate([head, tail]), samples)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectral_rank_puts_the_inliers_first(seed):
    matches, src, tgt, R, t = _corrupted_pair(seed=seed)
    X, Y = src.points[matches.pairs[:, 0]], tgt.points[matches.pairs[:, 1]]
    inliers = np.flatnonzero(np.linalg.norm(Y - (X @ R.T + t), axis=1) < 1e-9)
    assert len(inliers) == 40
    order, beta = _rank(X, Y, 0.02)
    assert np.isin(order[: len(inliers)], inliers).sum() >= 0.9 * len(inliers)
    again, beta_again = _rank(X, Y, 0.02)
    np.testing.assert_array_equal(again, order)
    assert beta_again == beta
    assert sorted(order.tolist()) == list(range(len(X)))


@pytest.mark.parametrize("sigma", [0.02, 0.3])
def test_spectral_rank_matches_the_written_out_power_steps(monkeypatch, sigma):
    # the reference adds each step's terms pair by pair in row-major order
    # over the compatible pairs above the diagonal; _rank's eigenvector must
    # equal it bit for bit, however its products are formed
    matches, src, tgt, _, _ = _corrupted_pair(seed=0)
    X, Y = src.points[matches.pairs[:, 0]], tgt.points[matches.pairs[:, 1]]
    n = len(X)
    dy = cdist(Y, Y)
    gap = np.abs(cdist(X, X) - dy)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    rows, cols = np.nonzero(upper & (gap < sigma))
    values = 1.0 - (gap[rows, cols] / sigma) ** 2
    v = np.ones(n)
    for _ in range(10):
        v = (np.bincount(rows, values * v[cols], minlength=n)
             + np.bincount(cols, values * v[rows], minlength=n))

    seen = []
    argsort = np.argsort

    def keep_and_sort(a, **kwargs):
        seen.append(-a)
        return argsort(a, **kwargs)

    monkeypatch.setattr(np, "argsort", keep_and_sort)
    order, beta = _rank(X, Y, sigma)
    monkeypatch.undo()
    np.testing.assert_array_equal(seen[-1], v)
    np.testing.assert_array_equal(order, np.argsort(-v, kind="stable"))
    close = np.count_nonzero(upper & (dy < sigma))
    assert beta == min(max(2.0 * close / n / n, 1.0 / n), 0.5)


@pytest.mark.parametrize("n, outlier_ratio", [(3, 0.0), (40, 0.0), (4000, 0.9)])
def test_ranking_memory_stays_bounded(n, outlier_ratio):
    # distances are taken a block of at most 2**16 at a time, and only the
    # compatible pairs are kept: few of them when few matches are inliers,
    # as in a dense_main-size match set
    rng = np.random.default_rng(n)
    X = rng.uniform(-1.0, 1.0, size=(n, 3))
    Y = X @ random_rotation(rng).T
    k = int(n * outlier_ratio)
    Y[:k] = rng.uniform(-1.0, 1.0, size=(k, 3))
    tracemalloc.start()
    try:
        _rank(X, Y, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_unrelated_clouds_do_not_stop_on_a_tiny_pool(monkeypatch, seed):
    # the top-ranked matches agree with each other by construction; only
    # the non-randomness bound keeps a model fitted to them from ending
    # the search at once
    rng = np.random.default_rng(seed)
    n = 50
    src = PointCloud(rng.uniform(-1.0, 1.0, size=(n, 3)))
    tgt = PointCloud(rng.uniform(-1.0, 1.0, size=(n, 3)))
    cfg = RansacConfig(max_iterations=300, inlier_threshold=0.05, seed=seed)
    fitted = []
    original = ransac.solve_stacked
    monkeypatch.setattr(ransac, "solve_stacked",
                        lambda P, Q, W: fitted.append(len(P)) or original(P, Q, W))
    try:
        ransac_register(_identity_matches(n), src, tgt, cfg)
    except NoConsensus:
        pass
    assert sum(fitted) >= cfg.max_iterations


def test_huge_budget_is_not_held_in_memory():
    # the schedule is one entry per match and samples are drawn a block at
    # a time, so a 10M budget costs no more memory than a small one
    matches, src, tgt, R, t = _corrupted_pair(seed=1)
    cfg = RansacConfig(max_iterations=10_000_000, inlier_threshold=0.02, seed=1)
    tracemalloc.start()
    try:
        res = ransac_register(matches, src, tgt, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert quaternion_angle(res.transform.rotation, R) < 1e-9


# ---------------------------------------------------------------------------
# the block walk against the one-hypothesis-at-a-time loop
# ---------------------------------------------------------------------------

def _sequential_ransac(matches, source, target, cfg, order, samples):
    """The safeguard as one hypothesis at a time, fitting through the
    package's ``solve``: the matches are taken in ``order``, and draw ``d``
    is row ``d`` of ``samples`` (positions in that order). It stops on
    PROSAC's rule, with beta and the non-randomness bound worked out here
    from their definitions. Returns ((rotation, translation,
    inlier_fraction) or NoConsensus, hypotheses, draws)."""
    n = len(matches)
    Xm = source.points[matches.pairs[order, 0]]
    Ym = target.points[matches.pairs[order, 1]]
    near = sum(int(np.sum(np.linalg.norm(Ym - y, axis=1) < cfg.inlier_threshold)) - 1
               for y in Ym)
    min_support = _exact_min_support(n, min(max(near / n / n, 1.0 / n), 0.5))

    def fit(Xs, Ys):
        k = Xs.shape[0]
        return solve(Xs, Ys, NormalizedWeights(np.full(k, 1.0 / k), float(k))).transform

    def stop_after(inliers):
        support = np.cumsum(inliers)
        ratios = [support[size - 1] / size for size in range(3, n + 1)
                  if support[size - 1] >= min_support[size]]
        if not ratios:
            return cfg.max_iterations
        w_in = max(ratios)
        if w_in >= 1.0:
            return 1
        return int(np.ceil(np.log(1.0 - cfg.confidence) / np.log(1.0 - w_in**3)))

    best_count, best_rms, best_transform, best_inliers = -1, np.inf, None, None
    draws, draw_cap, hypothesis, required = 0, 10 * cfg.max_iterations, 0, cfg.max_iterations
    while hypothesis < min(cfg.max_iterations, required) and draws < draw_cap:
        sample = samples[draws]
        draws += 1
        a, b, c = Xm[sample]
        if np.linalg.norm(np.cross(b - a, c - a)) <= 1e-9:
            continue
        try:
            model = fit(Xm[sample], Ym[sample])
        except DegenerateConfiguration:
            continue
        hypothesis += 1
        residual = np.linalg.norm(Ym - model.apply(Xm), axis=1)
        inliers = residual < cfg.inlier_threshold
        count = int(inliers.sum())
        rms = float(np.sqrt(np.mean(residual[inliers] ** 2))) if count >= 3 else np.inf
        if count > best_count or (count == best_count and rms < best_rms):
            best_count, best_rms, best_transform, best_inliers = count, rms, model, inliers
            required = stop_after(inliers)
    if best_count < 3 or best_transform is None:
        return NoConsensus, hypothesis, draws
    try:
        refit = fit(Xm[best_inliers], Ym[best_inliers])
    except DegenerateConfiguration:
        refit = best_transform
    return (refit.rotation, refit.translation, best_count / n), hypothesis, draws


def _walk_case(seed, n=200, outlier_ratio=0.5, noise=0.004, on_line=0):
    """Noisy inliers (so equal counts meet distinct RMS values), displaced
    outliers, and optionally the first ``on_line`` source points on a line."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, 3))
    X[:on_line] = np.linspace(-1.0, 1.0, on_line)[:, None] * np.array([0.3, 0.9, -0.5])
    Y = X @ random_rotation(rng).T + rng.normal(size=3) + rng.normal(size=(n, 3)) * noise
    bad = rng.choice(n, size=int(round(n * outlier_ratio)), replace=False)
    Y[bad] += rng.normal(size=(len(bad), 3)) * 0.5
    return _identity_matches(n), PointCloud(X), PointCloud(Y)


# name: (pair, RansacConfig fields, what the sequential loop must show as
# (hypotheses, draws)); blocks start at 64 samples. The spectral rank puts
# clean inliers first, so only noise near the threshold and few inliers
# delay the stop; without a stop the budget or the draw cap binds.
_WALK_CASES = {
    "outliers-0-exit-at-once": (dict(outlier_ratio=0.0, noise=0.0), dict(max_iterations=10_000),
                                lambda h, d: h == 1),
    "outliers-0.9-exit-early": (dict(outlier_ratio=0.9, noise=0.03),
                                dict(max_iterations=10_000), lambda h, d: 1 < h < 64),
    "outliers-0.97-exit-late": (dict(seed=3, outlier_ratio=0.97, noise=0.02),
                                dict(max_iterations=10_000), lambda h, d: 64 < h < 10_000),
    "outliers-0.95-exit-early-2cm": (dict(seed=2, outlier_ratio=0.95, noise=0.012),
                                     dict(max_iterations=10_000, inlier_threshold=0.02),
                                     lambda h, d: 1 < h < 64),
    "outliers-0.97-no-exit": (dict(n=60, outlier_ratio=0.97), dict(max_iterations=10_000),
                              lambda h, d: h == 10_000),
    "budget-1": (dict(outlier_ratio=0.2, seed=2), dict(max_iterations=1), lambda h, d: h == 1),
    "budget-7": (dict(n=60, outlier_ratio=0.97), dict(max_iterations=7), lambda h, d: h == 7),
    "budget-300": (dict(n=60, outlier_ratio=0.97), dict(max_iterations=300),
                   lambda h, d: h == 300),
    "collinear-draw-cap": (dict(n=40, on_line=39, outlier_ratio=0.9),
                           dict(max_iterations=60), lambda h, d: d == 600 and h < 60),
    "collinear-no-consensus": (dict(n=40, on_line=39, outlier_ratio=1.0),
                               dict(max_iterations=100), lambda h, d: d == 1000),
    # three matches can never pass the non-randomness bound
    "three-pairs": (dict(n=3, outlier_ratio=0.0), dict(max_iterations=10_000),
                    lambda h, d: h == 10_000),
}


@pytest.mark.parametrize("name", list(_WALK_CASES))
def test_block_walk_matches_sequential_loop(name):
    pair_kw, cfg_kw, covers = _WALK_CASES[name]
    matches, src, tgt = _walk_case(**{"seed": 0, **pair_kw})
    cfg = RansacConfig(**{"inlier_threshold": 0.05, "seed": 3, **cfg_kw})
    n = len(matches)
    order, _ = _rank(src.points[matches.pairs[:, 0]], tgt.points[matches.pairs[:, 1]],
                     cfg.inlier_threshold)
    samples = _draw(np.random.default_rng(cfg.seed), _schedule(n, cfg.max_iterations),
                    0, 10 * cfg.max_iterations)
    expected, hypotheses, draws = _sequential_ransac(matches, src, tgt, cfg, order, samples)
    assert covers(hypotheses, draws), (hypotheses, draws)
    if expected is NoConsensus:
        with pytest.raises(NoConsensus):
            ransac_register(matches, src, tgt, cfg)
        return
    rotation, translation, fraction = expected
    res = ransac_register(matches, src, tgt, cfg)
    np.testing.assert_array_equal(res.transform.rotation, rotation)
    np.testing.assert_array_equal(res.transform.translation, translation)
    assert res.inlier_fraction == fraction
