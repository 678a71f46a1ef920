"""Registration output shared by the main pipeline and the safeguard."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .geometry import RigidTransform
from .refine import RefineTrace

MAIN_BRANCH = "weighted_procrustes_refined"
SAFEGUARD_BRANCH = "safeguard"


@dataclass(frozen=True)
class RegistrationResult:
    """Final pose plus provenance.

    From the pipeline, ``inlier_fraction`` is the statistic the branch
    decision used: sum of prefiltered weights over the correspondence
    count. From a direct :func:`ransac.ransac_register` call it is the
    winning hypothesis's consensus ratio instead. ``trace`` is
    present only on the main branch. ``fallback_reason`` explains a
    safeguard diversion ("low_inlier_fraction" or the solver error name)
    and is None on the main branch. ``stage_seconds`` carries wall-clock
    per pipeline stage when the full pipeline produced this result.
    """

    transform: RigidTransform
    branch: str
    inlier_fraction: float
    trace: RefineTrace | None
    correspondence_count: int
    fallback_reason: str | None = None
    stage_seconds: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.branch not in (MAIN_BRANCH, SAFEGUARD_BRANCH):
            raise ValueError(f"unknown branch {self.branch!r}")
        if not 0.0 <= self.inlier_fraction <= 1.0:
            raise ValueError("inlier_fraction must lie in [0, 1]")
        if self.correspondence_count < 0:
            raise ValueError("correspondence_count must be non-negative")
        if self.branch == SAFEGUARD_BRANCH and self.trace is not None:
            raise ValueError("safeguard results carry no refinement trace")
