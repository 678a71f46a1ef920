"""Safeguard registration: PROSAC-ordered RANSAC over minimal 3-pair samples.

Used when the weighted solver cannot be trusted, i.e. when the fraction of
surviving correspondence weight is too small or the solver reported a
degeneracy. Hypotheses are rigid fits to 3 sampled pairs, scored by inlier
count under a distance threshold (ties by lower RMS on the inliers, then by
earlier hypothesis). The winning consensus set gets one final unweighted
refit through :func:`procrustes.solve`.

The putative matches are first ranked by spectral compatibility (Leordeanu &
Hebert, ICCV 2005): the leading eigenvector of the length-compatibility
matrix ``M_ij = max(0, 1 - ((|x_i - x_j| - |y_i - y_j|) / sigma)^2)``, with
sigma the inlier threshold and a zero diagonal. Only the nonzero entries of
M are kept, built from exact distances a block of rows at a time, so a dense
``n x n`` matrix is never held. Samples are then drawn in PROSAC order (Chum
& Matas, CVPR 2005): draw ``t`` samples from the top ``n_t`` ranked matches,
where ``n_t`` grows on PROSAC's schedule until the whole set is reached by
about ``max_iterations`` draws. While the pool grows, a sample is its newest
member plus 2 other members; once it is whole, all 3 are uniform. The search
stops early on PROSAC's criteria: the best hypothesis must explain more of
the top ``n*`` matches than a random model would (non-randomness), and
enough hypotheses must have been tried to see an all-inlier sample from that
pool with the configured confidence (maximality).

Hypotheses are evaluated a block at a time. A block of samples is drawn at
once from the seeded generator, one uniform variate per sample member, so
the samples depend on the draw index alone and not on the block sizes;
draws past the stopping point are never read. The whole block is then
tested for collinear samples, fitted by one call of the stacked closed-form
kernel (:func:`procrustes.solve_stacked`), checked for proper rotations by
:func:`geometry.is_rotation` (the test :class:`RigidTransform` makes) and
scored against every pair, sample k in residual column k; a degenerate or
improper fit is scored as the identity and its score never read. A walk
over the block in draw order applies the sequential rules: the draw
counter and cap, degenerate samples that consume no hypothesis,
count-then-RMS tie-breaking and the stopping rule. Blocks grow from 8
samples up to ``n * B <= 2**16`` residuals (at least 8 samples), so an
early exit stays cheap and each residual plane holds at most about 0.5 MB
whatever ``n`` is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array
from scipy.spatial.distance import cdist

from .correspondence import CorrespondenceSet, WeightVector
from .errors import (
    DegenerateConfiguration,
    EmptyCorrespondences,
    NoConsensus,
    TooFewCorrespondences,
    _check_count,
    _check_length,
)
from .geometry import _BLOCK_ELEMENTS, PointCloud, RigidTransform, is_rotation
from .procrustes import NormalizedWeights, prefilter, solve, solve_stacked
from .results import SAFEGUARD_BRANCH, RegistrationResult

_COLLINEAR_TOL = 1e-9
_DRAW_CAP_FACTOR = 10
_POWER_ITERATIONS = 10
# PROSAC's non-randomness level: the chance that a wrong model's support
# among the top n* matches reaches the bound by accident
_PSI = 0.05
# BLAS may round a ragged tail of gemm columns differently from the
# single-transform product; residual planes are padded to this width so
# every column matches ``RigidTransform.apply`` bit for bit
_COLUMN_ALIGN = 8
# one padded column group. Of 40 safeguard pairs (480-754 matches), 34
# stopped within 8 draws, and ransac_register took 3-10 % less time per
# pair starting from 8 samples than from 64, and the same as from 16
_FIRST_BLOCK = _COLUMN_ALIGN


@dataclass(frozen=True)
class RansacConfig:
    """Safeguard knobs. An ``inlier_threshold`` of None stands for the
    pipeline's ``voxel_size``; :func:`ransac_register` itself needs a length."""

    max_iterations: int = 10_000
    inlier_threshold: float | None = 0.05
    confidence: float = 0.999
    seed: int = 0

    def __post_init__(self) -> None:
        _check_count("max_iterations", self.max_iterations, 1)
        if self.inlier_threshold is not None:
            _check_length("inlier_threshold", self.inlier_threshold)
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        _check_count("seed", self.seed)


def inlier_fraction(weights: WeightVector, tau: float) -> float:
    """Sum of prefiltered weights over the correspondence count:
    sum_i I[w_i > tau] * w_i / |M|."""
    n = len(weights)
    if n == 0:
        raise EmptyCorrespondences("inlier fraction of an empty correspondence set")
    return float(prefilter(weights, tau).values.sum() / n)


def _residuals(Xm: np.ndarray, Ym: np.ndarray, rotation: np.ndarray,
               translation: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Residual norms ``||y_i - (R_k x_i + t_k)||`` as an ``(n, B)`` view of
    ``scratch``, built one coordinate at a time on contiguous planes with
    the rounding of ``np.linalg.norm(Y - transform.apply(X), axis=1)``."""
    n, width = len(Xm), len(rotation)
    total = scratch[0, : n * width].reshape(n, width)
    plane = scratch[1, : n * width].reshape(n, width)
    for j in range(3):
        out = total if j == 0 else plane
        np.matmul(Xm, rotation[:, j, :].T, out=out)
        out += translation[:, j]
        np.subtract(Ym[:, j, None], out, out=out)
        out *= out
        if j > 0:
            total += plane
    return np.sqrt(total, out=total)


def _rank(Xm: np.ndarray, Ym: np.ndarray, sigma: float) -> tuple[np.ndarray, float]:
    """Spectral rank of the matches, best first, and PROSAC's beta.

    The rank is a stable descending sort of the leading eigenvector of the
    length-compatibility matrix with width ``sigma``, found by power
    iteration from the uniform vector. M is symmetric, so only its nonzero
    entries above the diagonal are kept. beta, the chance that a wrong
    model counts a given match as an inlier, is the mean number of other
    matched target points within ``sigma`` of a matched target point,
    divided by ``n`` and clamped to ``[1/n, 0.5]``.
    """
    n = len(Xm)
    step = max(1, min(n, _BLOCK_ELEMENTS // n))
    lower = np.tri(step, dtype=bool)
    rows, cols, values = [], [], []
    close = 0
    for first in range(0, n, step):
        dx = cdist(Xm[first:first + step], Xm[first:])
        dy = cdist(Ym[first:first + step], Ym[first:])
        # pairs on or below the diagonal are kept by an earlier block, or not at all
        size = len(dy)
        dy[:, :size][lower[:size, :size]] = np.inf
        close += np.count_nonzero(dy < sigma)
        gap = np.abs(np.subtract(dx, dy, out=dx), out=dx)
        kept = np.flatnonzero(gap < sigma)
        r, c = np.divmod(kept, gap.shape[1])
        rows.append((r + first).astype(np.int32))
        cols.append((c + first).astype(np.int32))
        values.append(1.0 - (gap.ravel()[kept] / sigma) ** 2)
    upper = coo_array((np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))

    # M v = upper v + upper^T v. scipy's COO product starts each output
    # entry from 0.0 and adds the stored entries in order, which fixes every
    # step bit for bit. Entries lie in [0, 1], so 10 products stay below
    # n**10 and need no rescaling between steps
    lower_half = upper.T
    v = np.ones(n)
    for _ in range(_POWER_ITERATIONS):
        v = upper @ v + lower_half @ v
    beta = min(max(2.0 * close / n / n, 1.0 / n), 0.5)
    return np.argsort(-v, kind="stable"), beta


def _min_support(n: int, beta: float) -> np.ndarray:
    """PROSAC's non-randomness bound for n* = 3..n: the least support
    I among the top n* matches with ``P(Bin(n* - 3, beta) >= I - 3) < PSI``.

    The binomial tail is summed from its log-pmf. By Hoeffding's bound the
    tail at ``n * beta + sqrt(n * ln(1/PSI) / 2)`` is already below PSI for
    every n*, so no bound lies past that count and the pmf is summed up to
    it only; rows are taken a block at a time.
    """
    trials = np.arange(n - 2)  # n* - 3
    top = min(n - 3, math.ceil(n * beta + math.sqrt(n * math.log(1.0 / _PSI) / 2.0)))
    k = np.arange(top + 1)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n - 2)))))
    bound = np.empty(n - 2, dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // (top + 1))
    for first in range(0, n - 2, step):
        t = trials[first:first + step, None]
        rest = t - k
        log_pmf = (log_factorial[t] - log_factorial[k] - log_factorial[np.maximum(rest, 0)]
                   + k * math.log(beta) + rest * math.log1p(-beta))
        cdf = np.cumsum(np.exp(np.where(rest >= 0, log_pmf, -np.inf)), axis=1)
        # P(X >= j) < PSI  <=>  P(X <= j - 1) > 1 - PSI; cdf is nondecreasing
        bound[first:first + step] = 4 + np.count_nonzero(cdf <= 1.0 - _PSI, axis=1)
    return bound


def _schedule(n: int, budget: int) -> np.ndarray:
    """PROSAC's growth schedule: entry ``k - 3`` is T'_k, the last draw
    made from the top ``k`` matches, for k = 3..n, with T_n = ``budget``."""
    k = np.arange(3, n + 1, dtype=np.float64)
    expected = budget * (k * (k - 1) * (k - 2)) / (n * (n - 1) * (n - 2))
    return np.cumsum(np.concatenate(([1.0], np.ceil(np.diff(expected)))))


def _draw(rng: np.random.Generator, schedule: np.ndarray, done: int, size: int) -> np.ndarray:
    """Draws ``done + 1 .. done + size`` in PROSAC order, as ``(size, 3)``
    rank positions. Draw ``t`` samples the top ``k`` matches for the least
    ``k`` with T'_k >= t. Each draw reads three uniform variates, so the
    stream does not depend on how it is split."""
    n = len(schedule) + 2
    t = np.arange(done + 1, done + size + 1)
    pool = np.minimum(3 + np.searchsorted(schedule, t), n)
    growing = pool < n
    # growing: the newest member plus 2 of the pool's other members;
    # whole: 3 of all n members
    width = np.where(growing, pool - 1, n)
    u = rng.random((size, 3))
    a = (u[:, 0] * width).astype(np.int64)
    b = (u[:, 1] * (width - 1)).astype(np.int64)
    b += b >= a
    c = (u[:, 2] * (width - 2)).astype(np.int64)
    c += c >= np.minimum(a, b)
    c += c >= np.maximum(a, b)
    return np.column_stack([a, b, np.where(growing, pool - 1, c)])


def _required(inliers: np.ndarray, min_support: np.ndarray, confidence: float,
              budget: int) -> int:
    """Hypotheses needed by PROSAC's stopping rule for a best hypothesis
    with these inliers (in rank order): the fewest over the n* whose
    support passes the non-randomness bound, or the budget when none does."""
    support = np.cumsum(inliers)[2:]
    passing = support >= min_support
    if not passing.any():
        return budget
    w_in = float((support[passing] / np.arange(3, len(inliers) + 1)[passing]).max())
    if w_in >= 1.0:
        return 1
    return int(np.ceil(np.log(1.0 - confidence) / np.log(1.0 - w_in**3)))


def _evaluate(Xm: np.ndarray, Ym: np.ndarray, samples: np.ndarray,
              threshold: float, scratch: np.ndarray):
    """Collinearity test, closed-form fit, rotation check and inlier count
    of every ``(B, 3)`` sample in one pass. Residual column k and count k
    score sample k; a degenerate or improper fit is scored as the identity,
    as the padding columns are, and that score is never read."""
    P = Xm[samples]
    Q = Ym[samples]
    cross = np.cross(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])
    # x.dot(x) per sample, the reduction np.linalg.norm makes on a vector
    area = np.sqrt((cross[:, None, :] @ cross[:, :, None])[:, 0, 0])
    fit = solve_stacked(P, Q, np.full(samples.shape, 1.0 / 3.0))
    degenerate = (area <= _COLLINEAR_TOL) | fit.rank_deficient

    # the checks RigidTransform makes on construction, for every fit at once
    R, t = fit.rotation, fit.translation
    proper = is_rotation(R) & np.isfinite(t).all(axis=1)

    scored = ~degenerate & proper
    width = -(-len(samples) // _COLUMN_ALIGN) * _COLUMN_ALIGN
    Rs = np.broadcast_to(np.eye(3), (width, 3, 3)).copy()
    ts = np.zeros((width, 3))
    Rs[: len(samples)][scored] = R[scored]
    ts[: len(samples)][scored] = t[scored]
    residuals = _residuals(Xm, Ym, Rs, ts, scratch)
    counts = np.count_nonzero(residuals < threshold, axis=0)
    return degenerate.tolist(), proper.tolist(), R, t, residuals, counts.tolist()


def ransac_register(
    matches: CorrespondenceSet,
    source: PointCloud,
    target: PointCloud,
    cfg: RansacConfig,
) -> RegistrationResult:
    """Rigid registration by random minimal samples over the putative
    correspondences; deterministic given the seed.

    The returned ``inlier_fraction`` is the consensus ratio of the winning
    hypothesis (callers that branched here on a weight statistic overwrite
    it with theirs).
    """
    _check_length("inlier_threshold", cfg.inlier_threshold)  # None is the pipeline's to fill
    n = len(matches)
    if n < 3:
        raise TooFewCorrespondences(f"RANSAC needs at least 3 pairs, got {n}")
    Xm = source.points[matches.pairs[:, 0]]
    Ym = target.points[matches.pairs[:, 1]]
    order, beta = _rank(Xm, Ym, cfg.inlier_threshold)
    Xm, Ym = Xm[order], Ym[order]  # rank order from here on
    min_support = _min_support(n, beta)
    schedule = _schedule(n, cfg.max_iterations)

    rng = np.random.default_rng(cfg.seed)
    best_count = -1
    best_rms = np.inf
    best_pose = None
    best_inliers = None

    draws = 0
    draw_cap = _DRAW_CAP_FACTOR * cfg.max_iterations
    hypothesis = 0
    required = cfg.max_iterations
    max_block = max(_COLUMN_ALIGN, _BLOCK_ELEMENTS // n)
    block_size = min(_FIRST_BLOCK, max_block)
    scratch = np.empty((2, n * -(-max_block // _COLUMN_ALIGN) * _COLUMN_ALIGN))
    while hypothesis < min(cfg.max_iterations, required) and draws < draw_cap:
        # every hypothesis still wanted takes at least one draw
        size = min(block_size, draw_cap - draws,
                   min(cfg.max_iterations, required) - hypothesis)
        samples = _draw(rng, schedule, draws, size)
        degenerate, proper, R, t, residuals, counts = _evaluate(
            Xm, Ym, samples, cfg.inlier_threshold, scratch)
        block_size = min(2 * block_size, max_block)

        for k in range(size):
            if not (hypothesis < min(cfg.max_iterations, required) and draws < draw_cap):
                break
            draws += 1
            if degenerate[k]:
                continue  # degenerate sample, does not consume a hypothesis
            if not proper[k]:
                RigidTransform(R[k], t[k])  # raises NotARotation
            hypothesis += 1

            count = counts[k]
            if count >= best_count:
                # the RMS only decides ties, so it is taken only for them
                residual = residuals[:, k]
                inliers = residual < cfg.inlier_threshold
                if count >= 3:
                    rms = float(np.sqrt(np.mean(residual[inliers] ** 2)))
                else:
                    rms = np.inf
                if count > best_count or rms < best_rms:
                    best_count = count
                    best_rms = rms
                    best_pose = (R[k], t[k])
                    best_inliers = inliers
                    required = _required(inliers, min_support, cfg.confidence,
                                         cfg.max_iterations)

    if best_count < 3 or best_pose is None:
        raise NoConsensus(
            f"best hypothesis explains {max(best_count, 0)} of {n} pairs"
        )

    uniform = NormalizedWeights(np.full(best_count, 1.0 / best_count), float(best_count))
    try:
        refit = solve(Xm[best_inliers], Ym[best_inliers], uniform).transform
    except DegenerateConfiguration:
        refit = RigidTransform(*best_pose)  # consensus collinear; keep the minimal fit

    return RegistrationResult(
        transform=refit,
        branch=SAFEGUARD_BRANCH,
        inlier_fraction=best_count / n,
        trace=None,
        correspondence_count=n,
    )
