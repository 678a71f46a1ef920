"""The benchmark's workloads: the inputs each builds from the seed, how it
drives the program through its public entry points, and the checks its
outputs must pass.

Each workload loads one layer and leaves others idle, so that a change to
one layer shows on one workload and not on another:

- ``dense_main``: closed loop, one caller, ``register`` on 6k-point pairs
  with oracle weights. Descriptors dominate; the safeguard never runs.
- ``outlier_default``: closed loop, one caller, ``register`` with
  ``PipelineConfig()`` defaults on 30 %-outlier pairs. Refinement
  dominates, and wrong poses come back labelled main branch.
- ``safeguard_suite``: ``run_benchmark`` with its default worker pool over
  PLY and pose files, with all-zero weights, so every pair takes the RANSAC
  safeguard. The only workload on the pool and on file reading.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rigidreg import (
    MAIN_BRANCH,
    SAFEGUARD_BRANCH,
    FilePairSpec,
    OracleWeighter,
    PipelineConfig,
    RegistrationError,
    SyntheticPairSpec,
    generate_pair,
    indoor_preset,
    read_ply,
    read_pose_json,
    register,
    run_benchmark,
)

from tracer import Tracer, registration_counts

_evaluation = importlib.import_module("rigidreg.evaluation")

# success thresholds of the indoor preset, fixed here so that the
# benchmark's verdict does not move with the program's presets
RE_MAX_DEG = 15.0
TE_MAX_M = 0.30

OUTLIER_RECIPE = dict(n_points=1000, overlap_ratio=0.8, noise_sigma=0.005, outlier_ratio=0.3)
DENSE_RECIPE = dict(n_points=6000, overlap_ratio=1.0, noise_sigma=0.002, outlier_ratio=0.0)


def pair_seeds(seed: int, stream: int, count: int) -> list[int]:
    """Independent pair seeds per (benchmark seed, workload)."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count)
    return [int(s) for s in state]


def pose_errors(rotation, translation, truth) -> tuple[float, float]:
    """Rotation error in degrees and translation error in meters.

    The angle is atan2(sin, cos) of the relative rotation, with the sine
    taken from its skew part, not arccos of the trace as in the program, so
    the two are independent checks of each other.
    """
    rel = np.asarray(rotation, dtype=np.float64).T @ np.asarray(truth.rotation, dtype=np.float64)
    skew = np.array([rel[2, 1] - rel[1, 2], rel[0, 2] - rel[2, 0], rel[1, 0] - rel[0, 1]])
    angle = math.atan2(0.5 * np.linalg.norm(skew), 0.5 * (np.trace(rel) - 1.0))
    te = float(np.linalg.norm(np.asarray(translation, float) - np.asarray(truth.translation, float)))
    return math.degrees(angle), te


def pose_problem(result) -> str | None:
    """Why a returned pose is not a proper rigid transform, or None."""
    R = np.asarray(result.transform.rotation)
    t = np.asarray(result.transform.translation)
    if not (np.all(np.isfinite(R)) and np.all(np.isfinite(t))):
        return "non-finite pose"
    if np.abs(R.T @ R - np.eye(3)).max() > 1e-9 or abs(np.linalg.det(R) - 1.0) > 1e-9:
        return "rotation is not orthonormal with det 1"
    return None


@dataclass
class Registration:
    """Outcome of one registration: a result, or the error it raised."""

    pair: int
    result: object | None
    error: str | None

    def same_as(self, other: "Registration") -> bool:
        if (self.result is None) != (other.result is None):
            return False
        if self.result is None:
            return self.error == other.error
        a, b = self.result, other.result
        return (
            a.branch == b.branch
            and np.array_equal(a.transform.rotation, b.transform.rotation)
            and np.array_equal(a.transform.translation, b.transform.translation)
        )


@dataclass
class Inputs:
    pairs: list
    weighters: list
    entries: list  # FilePairSpec per pair, for the suite
    warm: object  # a pair outside the pool, registered once before timing


def _attempt(pair_index: int, call) -> Registration:
    try:
        return Registration(pair_index, call(), None)
    except RegistrationError as exc:
        return Registration(pair_index, None, type(exc).__name__)


class ClosedLoop:
    """One caller that calls ``register`` on the next pair of a fixed pool
    as soon as the previous call returns."""

    kind = "closed loop, 1 caller, 1 register() per call"

    def __init__(self, name, stream, recipe, pool_size, cfg, oracle, expected_branch):
        self.name = name
        self.stream = stream
        self.recipe = recipe
        self.pool_size = pool_size
        self.cfg = cfg
        self.oracle = oracle
        self.expected_branch = expected_branch

    def _weighter(self, pair):
        return OracleWeighter(pair.transform, 0.1) if self.oracle else None

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        seeds = pair_seeds(seed, self.stream, self.pool_size + 1)
        pairs = [generate_pair(SyntheticPairSpec(**self.recipe, seed=s)) for s in seeds[:-1]]
        warm = generate_pair(SyntheticPairSpec(**self.recipe, seed=seeds[-1]))
        return Inputs(pairs, [self._weighter(p) for p in pairs], [], warm)

    def warm_up(self, inputs: Inputs) -> None:
        # at full size: the allocator keeps large buffers for reuse only
        # after it has freed one that large, so a first large call is slow
        warm = inputs.warm
        _attempt(-1, lambda: register(warm.source, warm.target, self.cfg,
                                      weighter=self._weighter(warm)))

    def calls_per_pass(self, inputs: Inputs) -> int:
        return len(inputs.pairs)

    def call(self, inputs: Inputs, i: int, tracer: Tracer | None, problems: list) -> list:
        k = i % len(inputs.pairs)
        pair = inputs.pairs[k]

        def once():
            return register(pair.source, pair.target, self.cfg, weighter=inputs.weighters[k])

        if tracer is None:
            return [_attempt(k, once)]
        with tracer.span("pipeline.register") as span:
            outcome = _attempt(k, once)
        if outcome.result is not None:
            span.counts = registration_counts(outcome.result)
        return [outcome]


class ZeroWeighter:
    """Weight 0 for every correspondence: the branch test always diverts
    to the safeguard, whatever the built-in weighters do."""

    def __call__(self, matches, source, target):
        return np.zeros(len(matches), dtype=np.float64)


def _write_ply(points: np.ndarray, path: Path) -> None:
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        f"element vertex {len(points)}\n"
        "property double x\nproperty double y\nproperty double z\nend_header\n"
    )
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        handle.write(np.ascontiguousarray(points, dtype="<f8").tobytes())


def _write_pose(transform, path: Path) -> None:
    rotation = ", ".join(repr(float(v)) for v in np.asarray(transform.rotation).reshape(-1))
    translation = ", ".join(repr(float(v)) for v in np.asarray(transform.translation))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{"rotation": [{rotation}], "translation": [{translation}]}}\n')


class Suite:
    """One caller that runs ``run_benchmark`` over the same suite of file
    pairs as soon as the previous suite returns."""

    kind = "closed loop, 1 caller, 1 run_benchmark() suite per call"

    def __init__(self, name, stream, recipe, suite_size, expected_branch):
        self.name = name
        self.stream = stream
        self.recipe = recipe
        self.suite_size = suite_size
        self.preset = indoor_preset()
        self.cfg = self.preset.pipeline
        self.expected_branch = expected_branch

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        workdir.mkdir(parents=True, exist_ok=True)
        seeds = pair_seeds(seed, self.stream, self.suite_size + 1)
        pairs = [generate_pair(SyntheticPairSpec(**self.recipe, seed=s)) for s in seeds[:-1]]
        entries = []
        for k, pair in enumerate(pairs):
            entry = FilePairSpec(
                str(workdir / f"pair{k}_source.ply"),
                str(workdir / f"pair{k}_target.ply"),
                str(workdir / f"pair{k}_pose.json"),
            )
            _write_ply(pair.source.points, Path(entry.source_path))
            _write_ply(pair.target.points, Path(entry.target_path))
            _write_pose(pair.transform, Path(entry.pose_path))
            entries.append(entry)
        warm = generate_pair(SyntheticPairSpec(**self.recipe, seed=seeds[-1]))
        return Inputs(pairs, [], entries, warm)

    def warm_up(self, inputs: Inputs) -> None:
        # the file readers, and one main-branch registration; the safeguard
        # itself has no lazy set-up and costs seconds per pair
        read_ply(inputs.entries[0].source_path)
        read_pose_json(inputs.entries[0].pose_path)
        warm = inputs.warm
        _attempt(-1, lambda: register(warm.source, warm.target, self.cfg))

    def calls_per_pass(self, inputs: Inputs) -> int:
        return 1

    def call(self, inputs: Inputs, i: int, tracer: Tracer | None, problems: list) -> list:
        seen = []
        original = _evaluation.register

        # the suite returns errors, not poses; this keeps each pose so the
        # benchmark can check it (one list append per pair)
        def capture(source, target, cfg, weighter=None):
            try:
                result = original(source, target, cfg, weighter=weighter)
            except RegistrationError as exc:
                seen.append((source.points, None, type(exc).__name__))
                raise
            seen.append((source.points, result, None))
            return result

        _evaluation.register = capture
        try:
            def once():
                return run_benchmark(
                    inputs.entries, self.cfg, self.preset.re_threshold,
                    self.preset.te_threshold, weighter=ZeroWeighter(),
                )

            if tracer is None:
                report = once()
            else:
                with tracer.span("evaluation.run_benchmark", root=True):
                    report = once()
        finally:
            _evaluation.register = original
        return self._match(inputs, report, seen, problems)

    def _match(self, inputs, report, seen, problems) -> list:
        """Pair each captured pose with its suite row, and check that the
        row agrees with the benchmark's own errors."""
        outcomes = []
        for points, result, error in seen:
            k = next((k for k, p in enumerate(inputs.pairs)
                      if np.array_equal(points, p.source.points)), None)
            if k is None:
                problems.append(f"{self.name}: a registered cloud matches no suite pair")
                continue
            outcomes.append(Registration(k, result, error))
        outcomes.sort(key=lambda o: o.pair)
        if [o.pair for o in outcomes] != list(range(len(inputs.pairs))):
            problems.append(f"{self.name}: suite registered pairs {[o.pair for o in outcomes]}")
            return outcomes
        for outcome, row in zip(outcomes, report.records):
            if row.pair_id != outcome.pair:
                problems.append(f"{self.name}: row {row.pair_id} out of order")
                continue
            if outcome.result is None:
                if row.error != outcome.error:
                    problems.append(f"{self.name}: pair {row.pair_id} error {row.error} vs {outcome.error}")
                continue
            re_deg, te = pose_errors(outcome.result.transform.rotation,
                                     outcome.result.transform.translation,
                                     inputs.pairs[outcome.pair].transform)
            ok = re_deg < RE_MAX_DEG and te < TE_MAX_M
            if (row.branch != outcome.result.branch
                    or abs(math.degrees(row.re) - re_deg) > 1e-6
                    or abs(row.te - te) > 1e-9 or row.success != ok):
                problems.append(
                    f"{self.name}: pair {row.pair_id} row (branch {row.branch}, re "
                    f"{math.degrees(row.re):.9g} deg, te {row.te:.9g} m, success "
                    f"{row.success}) disagrees with its pose ({re_deg:.9g} deg, "
                    f"{te:.9g} m, success {ok})"
                )
        return outcomes


WORKLOADS = {
    "dense_main": ClosedLoop(
        "dense_main", 1, DENSE_RECIPE, pool_size=20,
        cfg=PipelineConfig(voxel_size=0.02), oracle=True, expected_branch=MAIN_BRANCH,
    ),
    "outlier_default": ClosedLoop(
        "outlier_default", 2, OUTLIER_RECIPE, pool_size=150,
        cfg=PipelineConfig(), oracle=False, expected_branch=None,
    ),
    "safeguard_suite": Suite(
        "safeguard_suite", 3, OUTLIER_RECIPE, suite_size=2,
        expected_branch=SAFEGUARD_BRANCH,
    ),
}


@dataclass
class LoopResult:
    latencies: list
    wall: float
    registrations: list
    first_pass: list


def drive(workload, inputs: Inputs, budget_s: float, problems: list,
          tracer: Tracer | None = None, whole_passes: bool = False) -> LoopResult:
    """Call the workload back to back. Stop once the first pass over its
    inputs is done and less than half a call of ``budget_s`` is left, so the
    run ends as near the budget as whole calls allow (with
    ``whole_passes``, only stop at the end of a pass)."""
    per_pass = workload.calls_per_pass(inputs)
    latencies, registrations = [], []
    first_pass = []
    i = 0
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        outcomes = workload.call(inputs, i, tracer, problems)
        latencies.append(time.perf_counter() - begin)
        registrations.extend(outcomes)
        i += 1
        if i <= per_pass:
            first_pass.extend(outcomes)
        left = budget_s - (time.perf_counter() - start)
        if (i >= per_pass and left < latencies[-1] / 2
                and (i % per_pass == 0 or not whole_passes)):
            break
    wall = time.perf_counter() - start
    return LoopResult(latencies, wall, registrations, first_pass)


def check_outcomes(workload, inputs: Inputs, loop: LoopResult, problems: list) -> None:
    """Pose validity, repeatability within the run, workload identity, and
    for oracle-weighted input, that every pose is right."""
    first = {o.pair: o for o in loop.first_pass}
    for outcome in loop.registrations:
        if not outcome.same_as(first[outcome.pair]):
            problems.append(f"{workload.name}: pair {outcome.pair} gave a different pose on a repeat call")
            break
    for outcome in loop.first_pass:
        if outcome.result is None:
            continue
        bad = pose_problem(outcome.result)
        if bad:
            problems.append(f"{workload.name}: pair {outcome.pair}: {bad}")
        expected = workload.expected_branch
        if expected is not None and outcome.result.branch != expected:
            problems.append(
                f"{workload.name}: pair {outcome.pair} took branch {outcome.result.branch}, "
                f"expected {expected} for every pair: the workload no longer loads its layer"
            )
        if getattr(workload, "oracle", False):
            re_deg, te = pose_errors(outcome.result.transform.rotation,
                                     outcome.result.transform.translation,
                                     inputs.pairs[outcome.pair].transform)
            if not (re_deg < RE_MAX_DEG and te < TE_MAX_M):
                problems.append(
                    f"{workload.name}: pair {outcome.pair} is wrong with oracle weights "
                    f"({re_deg:.4g} deg, {te:.4g} m)"
                )


def quality(inputs: Inputs, first_pass: list) -> dict:
    """Recall and median pose errors over the first pass, one entry per
    pair; a pair that raised counts as 180 degrees and infinite meters."""
    res, tes, rows = [], [], []
    for outcome in first_pass:
        if outcome.result is None:
            re_deg, te = 180.0, math.inf
        else:
            re_deg, te = pose_errors(outcome.result.transform.rotation,
                                     outcome.result.transform.translation,
                                     inputs.pairs[outcome.pair].transform)
        res.append(re_deg)
        tes.append(te)
        rows.append({
            "pair": outcome.pair,
            "branch": outcome.result.branch if outcome.result else None,
            "fallback_reason": outcome.result.fallback_reason if outcome.result else None,
            "error": outcome.error,
            "re_deg": re_deg,
            "te_m": te if math.isfinite(te) else None,
        })
    n = len(first_pass)
    successes = sum(1 for r, t in zip(res, tes) if r < RE_MAX_DEG and t < TE_MAX_M)
    failed = sum(1 for o in first_pass if o.result is None)
    return {
        "recall": successes / n,
        "successes": successes,
        "pairs": n,
        "failed_ratio": failed / n,
        "re_p50_deg": float(np.median(res)),
        "te_p50_cm": float(np.median(tes)) * 100.0,
        "rows": rows,
    }
