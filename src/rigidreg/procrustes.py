"""Closed-form weighted rigid alignment and its derivative with respect to
the correspondence weights.

Given matched points x_i <-> y_i and normalized weights w̃ summing to 1, the
minimizer of sum_i w̃_i ||y_i - (R x_i + t)||^2 over rotations and
translations is

    R̂ = U S Vᵀ,  t̂ = ȳ - R̂ x̄,

where x̄, ȳ are the weighted centroids, U Σ Vᵀ is the SVD of the weighted
centered cross-covariance Σ_xy = Σ_i w̃_i (y_i - ȳ)(x_i - x̄)ᵀ, and
S = diag(1, 1, det(U)det(V)) flips the smallest singular direction when the
unconstrained optimum would be a reflection.

:func:`solve_stacked` evaluates this on a stack of problems at once and is
the one closed-form kernel of the package; RANSAC's blocks of minimal
samples call it directly. :func:`solve` is its checked single-problem form,
which the main branch, every refinement step and the final RANSAC refit go
through. Both return a :class:`ProcrustesSolution`: the pose, the SVD
factors, the signs S and the centroids, which :func:`grad_weights` reuses,
and ``.transform``, the pose as a checked :class:`RigidTransform`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .correspondence import WeightVector
from .errors import (
    AllWeightsFiltered,
    DegenerateConfiguration,
    LengthMismatch,
    NumericallyUnstableGradient,
    TooFewCorrespondences,
    WeightLengthMismatch,
)
from .geometry import F64, RigidTransform, _readonly

# rank test: rotation is underdetermined when the weighted points are
# collinear or coincident, i.e. the second singular value vanishes
_RANK_TOL = 1e-12
# gradient through the SVD divides by differences of squared singular
# values; refuse instances where any two are this close
_GAP_TOL = 1e-6
# diagonal of S when U Vᵀ would be a reflection
_REFLECT = np.array([1.0, 1.0, -1.0])


@dataclass(frozen=True)
class NormalizedWeights:
    """Prefiltered, L1-normalized weights.

    ``w_tilde`` is phi(w)/||phi(w)||_1 with phi the :func:`prefilter`;
    ``scale`` keeps ||phi(w)||_1 so the raw surviving weights can be
    reconstructed as ``w_tilde * scale``. ``w_tilde`` is kept as a read-only copy.
    """

    w_tilde: NDArray[F64]
    scale: float

    def __post_init__(self) -> None:
        w = np.asarray(self.w_tilde, dtype=np.float64).reshape(-1)
        if w.size == 0:
            raise ValueError("empty weight vector")
        if w.min() < 0.0:
            raise ValueError("normalized weights must be non-negative")
        total = float(w.sum())
        # a nan or inf weight makes the sum non-finite
        if not math.isfinite(total):
            raise ValueError("normalized weights must be finite")
        if abs(total - 1.0) > 1e-12:
            raise ValueError("normalized weights must sum to 1")
        if not 0.0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")
        object.__setattr__(self, "w_tilde", _readonly(w))


def prefilter(weights: WeightVector, tau: float) -> WeightVector:
    """phi(w) = I[w > tau] * w elementwise: weights <= tau become 0 (strict
    survival test), the rest are kept as they are."""
    raw = weights.values
    return WeightVector(np.where(raw > tau, raw, 0.0))


def normalize_weights(weights: WeightVector, tau: float) -> NormalizedWeights:
    """Zero out weights <= tau with :func:`prefilter`, then divide by the L1
    norm of the survivors."""
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    phi = prefilter(weights, tau).values
    total = float(phi.sum())
    if total == 0.0:
        raise AllWeightsFiltered(
            f"no weight above tau = {tau}; safeguard registration required"
        )
    return NormalizedWeights(phi / total, total)


class ProcrustesSolution(NamedTuple):
    """Closed-form fit of one problem, or of a stack of problems with one
    entry per problem.

    Shapes follow the stack's leading dimensions ``...`` (none for one
    problem): ``rotation``, ``cross_covariance``, ``svd_u`` and ``svd_vt``
    are ``(..., 3, 3)``; ``translation``, ``svd_s``, ``signs`` (the
    diagonal of S) and the centroids are ``(..., 3)``; ``rank_deficient``
    is ``(...)`` and flags the problems whose rotation is underdetermined
    (their ``rotation`` is meaningless). The SVD factors and centroids are
    kept so the weight gradient reuses the exact decomposition that
    produced the pose.
    """

    rotation: NDArray[F64]
    translation: NDArray[F64]
    cross_covariance: NDArray[F64]
    svd_u: NDArray[F64]
    svd_s: NDArray[F64]
    svd_vt: NDArray[F64]
    signs: NDArray[F64]
    centroid_source: NDArray[F64]
    centroid_target: NDArray[F64]
    rank_deficient: NDArray[np.bool_]

    @property
    def transform(self) -> RigidTransform:
        """The pose of a single problem; raises NotARotation when the
        rotation is not a proper rotation."""
        return RigidTransform(self.rotation, self.translation)


def solve_stacked(
    source_points: np.ndarray,
    target_points: np.ndarray,
    w_tilde: np.ndarray,
) -> ProcrustesSolution:
    """Weighted closed-form fit of every problem in a stack: points
    ``(..., K, 3)``, normalized weights ``(..., K)``. Inputs are not
    checked; :func:`solve` is the checked single-problem form.

    Each problem's result is bit for bit the one the same problem gets
    alone, since every product is a matmul over the trailing dimensions.
    """
    X = np.asarray(source_points, dtype=np.float64)
    Y = np.asarray(target_points, dtype=np.float64)
    w = np.asarray(w_tilde, dtype=np.float64)

    centroid_x = (w[..., None, :] @ X)[..., 0, :]
    centroid_y = (w[..., None, :] @ Y)[..., 0, :]
    Xc = X - centroid_x[..., None, :]
    Yc = Y - centroid_y[..., None, :]
    cross = np.swapaxes(Yc * w[..., :, None], -1, -2) @ Xc

    U, sigma, Vt = np.linalg.svd(cross)
    rank_deficient = sigma[..., 1] <= _RANK_TOL * np.maximum(1.0, sigma[..., 0])
    # U and Vt are orthogonal, so det(U Vt) = det U det Vt = +-1
    proper = np.linalg.det(U @ Vt) > 0
    signs = np.where(proper[..., None], 1.0, _REFLECT)
    R = (U * signs[..., None, :]) @ Vt
    t = centroid_y - (R @ centroid_x[..., :, None])[..., 0]
    return ProcrustesSolution(
        rotation=R,
        translation=t,
        cross_covariance=cross,
        svd_u=U,
        svd_s=sigma,
        svd_vt=Vt,
        signs=signs,
        centroid_source=centroid_x,
        centroid_target=centroid_y,
        rank_deficient=rank_deficient,
    )


def solve(
    source_points: np.ndarray,
    target_points: np.ndarray,
    weights: NormalizedWeights,
) -> ProcrustesSolution:
    """Best rigid transform mapping matched source points onto targets under
    the given normalized weights (global minimizer of the weighted squared
    error): :func:`solve_stacked` on one problem, behind the checks every
    single-problem fit makes. The matched lists and weights must share one
    length, at least 3 weights must be positive and the rotation must be
    determined.

    Raises LengthMismatch, WeightLengthMismatch, TooFewCorrespondences or
    DegenerateConfiguration. The rotation is tested for being proper only
    when it is read as ``.transform`` or as a 6D rotation.
    """
    X = np.asarray(source_points, dtype=np.float64).reshape(-1, 3)
    Y = np.asarray(target_points, dtype=np.float64).reshape(-1, 3)
    if X.shape[0] != Y.shape[0]:
        raise LengthMismatch(
            f"matched lists differ in length: {X.shape[0]} vs {Y.shape[0]}"
        )
    w = weights.w_tilde
    if w.shape[0] != X.shape[0]:
        raise WeightLengthMismatch(
            f"{w.shape[0]} weights for {X.shape[0]} matched pairs"
        )
    if int(np.count_nonzero(w > 0.0)) < 3:
        raise TooFewCorrespondences(
            "weighted alignment needs at least 3 positive-weight pairs"
        )

    fit = solve_stacked(X, Y, w)
    if fit.rank_deficient:
        raise DegenerateConfiguration(
            "weighted points are (near-)collinear; rotation underdetermined"
        )
    return fit


def grad_weights(
    solution: ProcrustesSolution,
    source_points: np.ndarray,
    target_points: np.ndarray,
    weights: NormalizedWeights,
    grad_rotation: np.ndarray,
    grad_translation: np.ndarray,
) -> NDArray[F64]:
    """Derivative of a scalar loss with respect to the raw weights, given
    the loss gradients at the solver output (dL/dR̂ and dL/dt̂).

    The chain runs backwards through t̂ = ȳ - R̂ x̄, the SVD that produced
    R̂, the weighted centroids, and finally the prefilter-plus-normalization
    that took raw w to w̃. Entries the prefilter removed get gradient 0.
    Raises NumericallyUnstableGradient when two singular values are within
    1e-6 of each other relative to the largest, since the SVD derivative
    blows up there.
    """
    X = np.asarray(source_points, dtype=np.float64).reshape(-1, 3)
    Y = np.asarray(target_points, dtype=np.float64).reshape(-1, 3)
    G_R = np.asarray(grad_rotation, dtype=np.float64).reshape(3, 3)
    g_t = np.asarray(grad_translation, dtype=np.float64).reshape(3)
    w = weights.w_tilde
    if X.shape[0] != Y.shape[0] or w.shape[0] != X.shape[0]:
        raise LengthMismatch("points and weights must agree in length")

    U = solution.svd_u
    sigma = solution.svd_s
    Vt = solution.svd_vt
    gaps = np.abs(sigma[:, None] - sigma[None, :])[np.triu_indices(3, k=1)]
    if gaps.min() < _GAP_TOL * max(sigma[0], 1e-300):
        raise NumericallyUnstableGradient(
            "singular values too close for a stable SVD derivative"
        )

    R = solution.rotation
    x_bar = solution.centroid_source
    y_bar = solution.centroid_target

    # t̂ = ȳ - R̂ x̄ makes the translation path feed the rotation gradient
    G_eff = G_R - np.outer(g_t, x_bar)

    # reverse through R̂ = U S Vᵀ with S = diag(1, 1, flip): for the
    # off-diagonal entries of B = Uᵀ (dΣ_xy) V,
    #   dL/dB_ij = [ (H_ij s_j - s_i H_ji) σ_j + σ_i (H_ji s_j - s_i H_ij) ]
    #              / (σ_j² - σ_i²),
    # where H = Uᵀ G_eff V and s holds the diagonal of S. The diagonal of B
    # only moves the singular values, which R̂ does not depend on.
    s = solution.signs
    H = U.T @ G_eff @ Vt.T
    B = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            num = (H[i, j] * s[j] - s[i] * H[j, i]) * sigma[j] + sigma[i] * (
                H[j, i] * s[j] - s[i] * H[i, j]
            )
            B[i, j] = num / (sigma[j] ** 2 - sigma[i] ** 2)
    A_bar = U @ B @ Vt

    # Σ_xy = Σ w̃_i (y_i - ȳ)(x_i - x̄)ᵀ; the centroid terms drop out of its
    # differential because the centered sums Σ w̃_i (x_i - x̄) vanish
    Xc = X - x_bar
    Yc = Y - y_bar
    g_wtilde = np.einsum("ij,jk,ik->i", Yc, A_bar, Xc)
    # translation path through both centroids
    g_wtilde += (Y - X @ R.T) @ g_t

    # w̃ = phi(w)/||phi(w)||_1: surviving entries see the normalized
    # gradient, filtered entries are locally constant zeros
    active = w > 0.0
    correction = float(g_wtilde @ w)
    g_raw = np.where(active, (g_wtilde - correction) / weights.scale, 0.0)
    return g_raw
