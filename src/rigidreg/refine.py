"""Robust pose fine-tuning, and the continuous 6D rotation representation.

A rotation is parameterized by two 3-vectors (a1, a2); Gram-Schmidt plus a
cross product maps them to an orthonormal matrix:

    b1 = N(a1),  b2 = N(a2 - (b1 . a2) b1),  b3 = b1 x b2,

with N the L2 normalization. The inverse simply reads the first two matrix
columns. :func:`energy` is the Huber energy of the residuals over the
prefiltered weights phi(w) (:func:`procrustes.prefilter`) and
:func:`energy_gradient` its exact gradient in (a1, a2, t), the
differentiable interface for callers that train through the pose. Neither
they nor :func:`refine` read a threshold: the caller prefilters, and a
pair is active exactly when its weight is positive.

Refinement minimizes that energy by iteratively reweighted least squares:
every step is one weighted closed-form fit (:func:`procrustes.solve`)
with Huber weights w_i * min(1, delta / r_i), a majorize-minimize scheme
whose recorded energy sequence never increases. Weights are fixed for the
whole run; correspondences are never re-matched. The loop gathers the
active pairs once and computes the residuals once per step: those that
score a step are the ones the next step's weights need. Each step checks
its rotation once and rebuilds it once through the 6D map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .correspondence import CorrespondenceSet, WeightVector
from .errors import (
    DegenerateRepresentation,
    NoActiveCorrespondences,
    NotARotation,
    _check_count,
    _check_length,
)
from .geometry import F64, Mat3, PointCloud, RigidTransform, Vec3, _readonly, is_rotation
from .procrustes import NormalizedWeights, solve

_PARALLEL_TOL = 1e-12
# the least squared norm whose square root keeps float64's full precision
_TINY = np.finfo(np.float64).tiny


def _squared_norm(name: str, v: np.ndarray) -> float:
    """``v @ v``, refused with DegenerateRepresentation when it overflows
    float64: the norm would be inf, and dividing by it would not make a
    unit vector."""
    with np.errstate(over="ignore", under="ignore"):
        square = v @ v
    if square == np.inf:
        raise DegenerateRepresentation(f"the squared norm of {name} overflows float64")
    return square


@dataclass(frozen=True)
class Rot6D:
    """The (a1, a2) rotation parameterization; a1 must be nonzero and a2
    must keep a component orthogonal to a1; neither squared norm may
    overflow float64, nor may a1's underflow it. Both are kept as read-only
    copies."""

    a1: Vec3
    a2: Vec3

    def __post_init__(self) -> None:
        a1 = np.asarray(self.a1, dtype=np.float64).reshape(3)
        a2 = np.asarray(self.a2, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(a1)) and np.all(np.isfinite(a2))):
            raise DegenerateRepresentation("rotation parameters must be finite")
        # the two norms of _gram_schmidt, each checked before it divides
        if not a1.any():
            raise DegenerateRepresentation("a1 must be nonzero")
        square = _squared_norm("a1", a1)
        if square < _TINY:
            raise DegenerateRepresentation("the squared norm of a1 underflows float64")
        b1 = a1 / np.sqrt(square)
        with np.errstate(over="ignore", invalid="ignore"):
            u = a2 - (b1 @ a2) * b1
        if not np.all(np.isfinite(u)):
            raise DegenerateRepresentation("the projection of a2 onto a1 overflows float64")
        if np.sqrt(_squared_norm("a2's component orthogonal to a1", u)) <= _PARALLEL_TOL:
            raise DegenerateRepresentation("a2 is (near-)parallel to a1")
        object.__setattr__(self, "a1", _readonly(a1))
        object.__setattr__(self, "a2", _readonly(a2))


@dataclass(frozen=True)
class RefineConfig:
    huber_delta: float = 0.05
    max_iters: int = 200
    convergence_tol: float = 1e-8

    def __post_init__(self) -> None:
        _check_length("huber_delta", self.huber_delta)
        _check_count("max_iters", self.max_iters, 1)
        _check_length("convergence_tol", self.convergence_tol)


@dataclass(frozen=True)
class RefineTrace:
    """Energy recorded before iterating and after every accepted step."""

    energies: tuple[float, ...]
    iterations: int
    termination: str  # "converged" | "max_iters"


def _gram_schmidt(a1: np.ndarray, a2: np.ndarray) -> tuple[Vec3, Vec3, float, float]:
    """The first two rotation columns b1 = a1/||a1||, b2 = u/||u|| with
    u = a2 - (b1 . a2) b1, and the two norms ||a1||, ||u||."""
    n1 = np.linalg.norm(a1)
    b1 = a1 / n1
    u = a2 - (b1 @ a2) * b1
    nu = np.linalg.norm(u)
    return b1, u / nu, n1, nu


def _columns_to_matrix(b1: Vec3, b2: Vec3) -> Mat3:
    """The rotation with columns b1, b2 and b3 = b1 x b2."""
    # b3 as the products np.cross takes, in its order, so it rounds the
    # same; on 3-vectors np.cross costs far more than its arithmetic
    x1, y1, z1 = b1.tolist()
    x2, y2, z2 = b2.tolist()
    return np.array([
        [x1, x2, y1 * z2 - z1 * y2],
        [y1, y2, z1 * x2 - x1 * z2],
        [z1, z2, x1 * y2 - y1 * x2],
    ])


def rot6d_to_matrix(a: Rot6D) -> Mat3:
    """Gram-Schmidt the two parameter vectors into rotation columns."""
    b1, b2, _, _ = _gram_schmidt(a.a1, a.a2)
    return _columns_to_matrix(b1, b2)


def _checked_rotation(R: np.ndarray) -> Mat3:
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3) or not is_rotation(R):
        raise NotARotation("expected a proper 3x3 rotation matrix")
    return R


def matrix_to_rot6d(R: np.ndarray) -> Rot6D:
    """Drop the third column; the first two determine the rotation."""
    R = _checked_rotation(R)
    return Rot6D(R[:, 0], R[:, 1])


def _through_6d(R: np.ndarray) -> Mat3:
    """``rot6d_to_matrix(matrix_to_rot6d(R))``, bit for bit, without the
    :class:`Rot6D`, whose checks cannot fail on a proper rotation."""
    R = _checked_rotation(R)
    b1, b2, _, _ = _gram_schmidt(R[:, 0].copy(), R[:, 1].copy())
    return _columns_to_matrix(b1, b2)


# ---------------------------------------------------------------------------
# energy and gradient
# ---------------------------------------------------------------------------

def _huber_energy(
    X: np.ndarray, Y: np.ndarray, w: np.ndarray, R: Mat3, t: np.ndarray, delta: float
) -> tuple[float, NDArray[F64]]:
    """Weighted Huber energy of the residuals r = ||R x + t - y|| of matched
    rows, and those residuals."""
    d = X @ R.T
    d += t
    d -= Y
    # (x^2 + y^2) + z^2, the sum np.linalg.norm(d, axis=1) takes, at a third of its cost
    d *= d
    r = d[:, 0] + d[:, 1]
    r += d[:, 2]
    np.sqrt(r, out=r)
    # c (r - c/2) is r^2/2 up to delta and delta (r - delta/2) beyond it;
    # r - r/2 is exact, so the quadratic branch is the same 0.5 r r
    c = np.minimum(r, delta)
    return float(np.sum(w * (c * (r - 0.5 * c)))), r


def _huber_weights(w: np.ndarray, r: np.ndarray, delta: float) -> NDArray[F64]:
    """w * min(1, delta / r): each IRLS step's weights, and the gradient's per-pair coefficient."""
    return w * (delta / np.maximum(r, delta))


def _active_arrays(matches, source, target, weights):
    w = weights.values
    active = w > 0.0
    if not active.any():
        raise NoActiveCorrespondences("no correspondence has a positive weight")
    pairs = matches.pairs[active]
    return (
        source.points[pairs[:, 0]],
        target.points[pairs[:, 1]],
        w[active],
    )


def energy(
    a: Rot6D,
    t: np.ndarray,
    matches: CorrespondenceSet,
    source: PointCloud,
    target: PointCloud,
    weights: WeightVector,
    cfg: RefineConfig,
) -> float:
    """Weighted Huber energy of the residuals y_j - (R x_i + t); pairs with
    weight 0 contribute exactly 0."""
    try:
        Xa, Ya, wa = _active_arrays(matches, source, target, weights)
    except NoActiveCorrespondences:
        return 0.0
    return _huber_energy(
        Xa, Ya, wa, rot6d_to_matrix(a), np.asarray(t, dtype=np.float64), cfg.huber_delta
    )[0]


def energy_gradient(
    a: Rot6D,
    t: np.ndarray,
    matches: CorrespondenceSet,
    source: PointCloud,
    target: PointCloud,
    weights: WeightVector,
    cfg: RefineConfig,
) -> tuple[Vec3, Vec3, Vec3]:
    """Analytic gradient of :func:`energy` in (a1, a2, t).

    The per-pair residual gradient is w * min(1, delta/r) * d, with the
    weight :func:`refine` solves with (the Huber loss is C1, so the
    quadratic branch's value serves at the kink),
    accumulated into d/dt and d/dR, then chained through the Gram-Schmidt
    construction back to the parameter vectors. Raises
    NoActiveCorrespondences when no weight is positive.
    """
    Xa, Ya, wa = _active_arrays(matches, source, target, weights)
    t = np.asarray(t, dtype=np.float64).reshape(3)

    b1, b2, n1, nu = _gram_schmidt(a.a1, a.a2)
    R = _columns_to_matrix(b1, b2)

    d = Xa @ R.T + t - Ya
    r = np.linalg.norm(d, axis=1)
    g_d = _huber_weights(wa, r, cfg.huber_delta)[:, None] * d

    g_t = g_d.sum(axis=0)
    G_R = g_d.T @ Xa  # dE/dR, since d = R x + t - y

    g1, g2, g3 = G_R[:, 0], G_R[:, 1], G_R[:, 2]
    # b3 = b1 x b2 routes its gradient onto both factors
    gb1 = g1 + np.cross(b2, g3)
    gb2 = g2 - np.cross(b1, g3)
    # b2 = u/||u||
    gu = (gb2 - (b2 @ gb2) * b2) / nu
    # u = a2 - (b1 . a2) b1
    ga2 = gu - (b1 @ gu) * b1
    gb1 = gb1 - (b1 @ gu) * a.a2 - (b1 @ a.a2) * gu
    # b1 = a1/||a1||
    ga1 = (gb1 - (b1 @ gb1) * b1) / n1
    return ga1, ga2, g_t


# ---------------------------------------------------------------------------
# reweighted solve loop
# ---------------------------------------------------------------------------

def refine(
    init: RigidTransform,
    matches: CorrespondenceSet,
    source: PointCloud,
    target: PointCloud,
    weights: WeightVector,
    cfg: RefineConfig,
) -> tuple[RigidTransform, RefineTrace]:
    """Lower the Huber energy from an initial pose by iteratively reweighted
    least squares.

    Each iteration takes the residuals r_i of the active pairs at the
    current pose and solves the weighted Procrustes problem with weights
    w_i * min(1, delta / r_i). That quadratic majorizes the Huber energy and
    touches it at the current pose, so its minimizer never raises the
    energy. A step is accepted only if the energy strictly decreases (it is
    scored by the formula :func:`energy` uses, on the active pairs gathered
    once); the loop reports convergence when no step decreases it, or when
    the decrease is at most ``convergence_tol`` relative to max(|E|, 1).
    Each step's rotation is rebuilt through the 6D map before it is scored,
    and that is the rotation returned.

    ``weights`` are the prefiltered phi(w): the active pairs are those with
    a positive weight. Raises NoActiveCorrespondences when there are none,
    and the solver's TooFewCorrespondences or DegenerateConfiguration when
    the active pairs are fewer than 3 or collinear, since the pose is then
    underdetermined. A step rotation that is not a proper rotation raises
    NotARotation, one that the 6D map cannot represent
    DegenerateRepresentation.
    """
    Xa, Ya, wa = _active_arrays(matches, source, target, weights)
    delta = cfg.huber_delta

    R = _through_6d(init.rotation)
    t = np.asarray(init.translation, dtype=np.float64)
    # the residuals that scored the current pose weight the next step
    current, r = _huber_energy(Xa, Ya, wa, R, t, delta)
    energies = [current]
    iterations = 0
    termination = "max_iters"

    for _ in range(cfg.max_iters):
        iterations += 1
        v = _huber_weights(wa, r, delta)
        total = float(v.sum())
        step = solve(Xa, Ya, NormalizedWeights(v / total, total))
        # score the rotation as the 6D map rebuilds it, after the step's
        # one rotation check
        candidate_R = _through_6d(step.rotation)
        candidate, candidate_r = _huber_energy(Xa, Ya, wa, candidate_R, step.translation, delta)
        decrease = current - candidate
        if not decrease > 0.0:
            termination = "converged"
            break

        R, t, r, current = candidate_R, step.translation, candidate_r, candidate
        energies.append(current)
        if decrease <= cfg.convergence_tol * max(abs(current), 1.0):
            termination = "converged"
            break

    final = RigidTransform(R, t)
    trace = RefineTrace(tuple(energies), iterations, termination)
    return final, trace
