"""Exception hierarchy and value rules shared by all rigidreg modules."""

import math
from numbers import Real

import numpy as np


def _check_length(name: str, value) -> None:
    """A length is a finite real number > 0 (never a bool)."""
    if not (isinstance(value, Real) and not isinstance(value, bool)
            and value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_count(name: str, value, minimum: int = 0) -> None:
    """A count or seed is an int or numpy integer (never a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        rule = "a non-negative integer" if minimum == 0 else f"at least {minimum}, an integer"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


class RegistrationError(Exception):
    """Base class for every error raised by this package."""


class EmptyCloud(RegistrationError):
    """An operation requires a non-empty point cloud."""


class MissingFeatures(RegistrationError):
    """Per-point features are required but absent."""


class DimensionMismatch(RegistrationError):
    """Feature dimensions of the two clouds disagree."""


class LengthMismatch(RegistrationError):
    """Two parallel sequences have different lengths."""


class WeightLengthMismatch(LengthMismatch):
    """A weight vector does not match the correspondence count."""


class AllWeightsFiltered(RegistrationError):
    """Prefiltering removed every weight; caller should fall back."""


class TooFewCorrespondences(RegistrationError):
    """Fewer than the minimum number of usable correspondences."""


class DegenerateConfiguration(RegistrationError):
    """Weighted points are collinear or coincident; rotation underdetermined."""


class NumericallyUnstableGradient(RegistrationError):
    """Gradient through the SVD is ill-conditioned (repeated singular values)."""


class DegenerateRepresentation(RegistrationError):
    """A 6D rotation parameterization violates its non-degeneracy invariants."""


class NotARotation(RegistrationError):
    """A 3x3 matrix is not orthonormal with determinant +1."""


class NoActiveCorrespondences(RegistrationError):
    """All correspondence weights fall at or below the prefilter threshold."""


class EmptyCorrespondences(RegistrationError):
    """A correspondence set is empty."""


class NoConsensus(RegistrationError):
    """RANSAC found no hypothesis with a minimal consensus set."""


class RegistrationFailed(RegistrationError):
    """Both the solver branch and the safeguard branch failed."""


class CoordinateOverflow(RegistrationError, ValueError):
    """Coordinates too large for a stage's arithmetic: a voxel cell index
    outside the int64 range, or squared distances near float64's overflow."""


class FileFormatError(RegistrationError):
    """A file is malformed; the message locates the offending line or offset."""


class UnsupportedFormat(RegistrationError):
    """A file uses a format variant this package does not read."""
