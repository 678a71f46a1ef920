"""Safeguard registration: RANSAC over minimal 3-pair samples.

Used when the weighted solver cannot be trusted, i.e. when the fraction of
surviving correspondence weight is too small or the solver reported a
degeneracy. Hypotheses are rigid fits to 3 sampled pairs, scored by inlier
count under a distance threshold (ties by lower RMS on the inliers, then by
earlier hypothesis), with the usual adaptive confidence-based early exit.
The winning consensus set gets one final unweighted refit.
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
from .geometry import PointCloud
from .procrustes import NormalizedWeights, solve
from .results import SAFEGUARD_BRANCH, RegistrationResult

_COLLINEAR_TOL = 1e-9
_DRAW_CAP_FACTOR = 10


@dataclass(frozen=True)
class RansacConfig:
    max_iterations: int = 10_000
    inlier_threshold: float = 0.05
    confidence: float = 0.999
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.inlier_threshold > 0:
            raise ValueError("inlier_threshold must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")


def inlier_fraction(weights: WeightVector, tau: float) -> float:
    """Sum of prefiltered weights over the correspondence count:
    sum_i I[w_i > tau] * w_i / |M|."""
    n = len(weights)
    if n == 0:
        raise EmptyCorrespondences("inlier fraction of an empty correspondence set")
    w = weights.values
    return float(np.where(w > tau, w, 0.0).sum() / n)


def _fit(Xs: np.ndarray, Ys: np.ndarray):
    """Unweighted rigid fit: the closed-form solve under uniform weights."""
    n = Xs.shape[0]
    uniform = NormalizedWeights(np.full(n, 1.0 / n), 0.0, float(n))
    return solve(Xs, Ys, uniform).transform


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
    best_transform = None
    best_inliers = None

    draws = 0
    draw_cap = _DRAW_CAP_FACTOR * cfg.max_iterations
    hypothesis = 0
    required = cfg.max_iterations
    while hypothesis < min(cfg.max_iterations, required) and draws < draw_cap:
        sample = rng.choice(n, size=3, replace=False)
        draws += 1
        a, b, c = Xm[sample]
        if np.linalg.norm(np.cross(b - a, c - a)) <= _COLLINEAR_TOL:
            continue  # degenerate sample, does not consume a hypothesis
        try:
            model = _fit(Xm[sample], Ym[sample])
        except DegenerateConfiguration:
            continue
        hypothesis += 1

        residual = np.linalg.norm(Ym - model.apply(Xm), axis=1)
        inliers = residual < cfg.inlier_threshold
        count = int(inliers.sum())
        if count >= 3:
            rms = float(np.sqrt(np.mean(residual[inliers] ** 2)))
        else:
            rms = np.inf
        if count > best_count or (count == best_count and rms < best_rms):
            best_count = count
            best_rms = rms
            best_transform = model
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

    if best_count < 3 or best_transform is None:
        raise NoConsensus(
            f"best hypothesis explains {max(best_count, 0)} of {n} pairs"
        )

    try:
        refit = _fit(Xm[best_inliers], Ym[best_inliers])
    except DegenerateConfiguration:
        refit = best_transform  # consensus collinear; keep the minimal fit

    return RegistrationResult(
        transform=refit,
        branch=SAFEGUARD_BRANCH,
        inlier_fraction=best_count / n,
        trace=None,
        correspondence_count=n,
    )
