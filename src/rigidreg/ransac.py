"""Safeguard registration: RANSAC over minimal 3-pair samples.

Used when the weighted solver cannot be trusted, i.e. when the fraction of
surviving correspondence weight is too small or the solver reported a
degeneracy. Hypotheses are rigid fits to 3 sampled pairs, scored by inlier
count under a distance threshold (ties by lower RMS on the inliers, then by
earlier hypothesis), with the usual adaptive confidence-based early exit.
The winning consensus set gets one final unweighted refit.

Hypotheses are evaluated a block at a time. Each sample is drawn with the
same ``rng.choice(n, size=3, replace=False)`` call, in the same order, as a
one-at-a-time loop would draw it; a block is drawn ahead, and draws past the
stopping point are never read. The whole block is then tested for collinear
samples, fitted by one call of the stacked closed-form kernel
(:func:`procrustes.solve_stacked`), checked for proper rotations and scored
against every pair. A walk over the block in draw order applies the
sequential rules unchanged: the draw counter and cap, degenerate samples
that consume no hypothesis, count-then-RMS tie-breaking and the adaptive
exit. The returned pose is therefore bit for bit that of the sequential
loop. Blocks grow from 64 samples up to ``n * B <= 2**16`` residuals (at
least 8 samples), so an early exit stays cheap and each residual plane
holds at most about 0.5 MB whatever ``n`` is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correspondence import CorrespondenceSet, WeightVector
from .errors import (
    DegenerateConfiguration,
    EmptyCorrespondences,
    NoConsensus,
    TooFewCorrespondences,
)
from .geometry import ORTHONORMALITY_TOL, PointCloud, RigidTransform
from .procrustes import NormalizedWeights, prefilter, solve, solve_stacked
from .results import SAFEGUARD_BRANCH, RegistrationResult

_COLLINEAR_TOL = 1e-9
_DRAW_CAP_FACTOR = 10
_FIRST_BLOCK = 64
_BLOCK_ELEMENTS = 2**16
# BLAS may round a ragged tail of gemm columns differently from the
# single-transform product; residual planes are padded to this width so
# every column matches ``RigidTransform.apply`` bit for bit
_COLUMN_ALIGN = 8


@dataclass(frozen=True)
class RansacConfig:
    max_iterations: int = 10_000
    inlier_threshold: float = 0.05
    confidence: float = 0.999
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.max_iterations, (int, np.integer)):
            raise ValueError(
                f"max_iterations must be an integer, got {self.max_iterations!r}"
            )
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.inlier_threshold > 0:
            raise ValueError("inlier_threshold must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


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


@dataclass(frozen=True)
class _Block:
    """What the walk reads about a block of drawn samples. Per sample:
    whether it is degenerate, whether its fit is a proper rotation, and its
    column in ``residuals``/``counts`` (-1 when it is not scored)."""

    degenerate: list[bool]
    proper: list[bool]
    column: list[int]
    rotation: np.ndarray
    translation: np.ndarray
    residuals: np.ndarray
    counts: list[int]


def _evaluate(Xm: np.ndarray, Ym: np.ndarray, samples: np.ndarray,
              threshold: float, scratch: np.ndarray) -> _Block:
    """Collinearity test, closed-form fit, rotation check and inlier count
    of every ``(B, 3)`` sample in one pass; degenerate or improper fits are
    not scored."""
    P = Xm[samples]
    Q = Ym[samples]
    cross = np.cross(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0])
    # x.dot(x) per sample, the reduction np.linalg.norm makes on a vector
    area = np.sqrt((cross[:, None, :] @ cross[:, :, None])[:, 0, 0])
    fit = solve_stacked(P, Q, np.full(samples.shape, 1.0 / 3.0))
    degenerate = (area <= _COLLINEAR_TOL) | fit.rank_deficient

    # the checks RigidTransform makes on construction, for every fit at once
    R, t = fit.rotation, fit.translation
    finite = np.isfinite(R).all(axis=(1, 2)) & np.isfinite(t).all(axis=1)
    deviation = np.abs(np.swapaxes(R, 1, 2) @ R - np.eye(3)).max(axis=(1, 2))
    det = np.linalg.det(R)
    proper = (finite & ~(deviation > ORTHONORMALITY_TOL)
              & ~(np.abs(det - 1.0) > ORTHONORMALITY_TOL))

    scored = np.flatnonzero(~degenerate & proper)
    column = np.full(len(samples), -1)
    column[scored] = np.arange(len(scored))
    width = -(-len(scored) // _COLUMN_ALIGN) * _COLUMN_ALIGN
    Rs = np.broadcast_to(np.eye(3), (width, 3, 3)).copy()
    ts = np.zeros((width, 3))
    Rs[: len(scored)] = R[scored]
    ts[: len(scored)] = t[scored]
    residuals = _residuals(Xm, Ym, Rs, ts, scratch)
    counts = np.count_nonzero(residuals < threshold, axis=0)
    return _Block(degenerate.tolist(), proper.tolist(), column.tolist(),
                  R, t, residuals, counts.tolist())


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
    n = len(matches)
    if n < 3:
        raise TooFewCorrespondences(f"RANSAC needs at least 3 pairs, got {n}")
    Xm = source.points[matches.pairs[:, 0]]
    Ym = target.points[matches.pairs[:, 1]]

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
        samples = np.array([rng.choice(n, size=3, replace=False) for _ in range(size)])
        block = _evaluate(Xm, Ym, samples, cfg.inlier_threshold, scratch)
        block_size = min(2 * block_size, max_block)

        for k in range(size):
            if not (hypothesis < min(cfg.max_iterations, required) and draws < draw_cap):
                break
            draws += 1
            if block.degenerate[k]:
                continue  # degenerate sample, does not consume a hypothesis
            if not block.proper[k]:
                RigidTransform(block.rotation[k], block.translation[k])  # raises NotARotation
            hypothesis += 1

            count = block.counts[block.column[k]]
            if count >= best_count:
                # the RMS only decides ties, so it is taken only for them
                residual = block.residuals[:, block.column[k]]
                inliers = residual < cfg.inlier_threshold
                if count >= 3:
                    rms = float(np.sqrt(np.mean(residual[inliers] ** 2)))
                else:
                    rms = np.inf
                if count > best_count or rms < best_rms:
                    best_count = count
                    best_rms = rms
                    best_pose = (block.rotation[k], block.translation[k])
                    best_inliers = inliers

            # adaptive stopping: enough hypotheses to hit the confidence target
            # given the best consensus observed so far
            if best_count >= 3:
                w_in = best_count / n
                if w_in >= 1.0:
                    required = 1
                else:
                    required = int(
                        np.ceil(np.log(1.0 - cfg.confidence) / np.log(1.0 - w_in**3))
                    )

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
