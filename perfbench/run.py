"""Registration benchmark: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With ``--trace 0`` it prints the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it runs one untraced and one
traced phase over the same inputs and prints the per-layer metrics. The
last line of stdout is one JSON object; details, per-pair rows and spans go
to ``perfbench/_out/``. Exit status 1 means a correctness check failed
(the JSON says ``"correct": false``); 2 means the program is not there.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 3  # before timing, and as many again after it
TAIL_BEYOND = 10


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them; "/pair"
    per-layer values are means per registration."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


# counters that must repeat exactly for the same seed and source, besides
# the quality metrics
REPEATABLE = (
    "procrustes.solve.calls", "refine.energy.calls", "refine.energy_gradient.calls",
    "refine.refine.iterations", "geometry.voxel_downsample.points_out",
    "correspondence.match_nearest.matches", "correspondence.weigh.active_ratio",
    "ransac.fits", "ransac.consensus_ratio", "pipeline.register.main_branch_ratio",
)

# an infinite median error (more than half the pairs raised) is written as
# this, since JSON has no infinity
INFINITE_CM = 1e9


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_record() -> dict:
    import numpy

    record = {"threads": None, "vendor": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(seed: int, fingerprint: str) -> dict:
    import numpy
    import scipy

    from rigidreg import worker_count

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "worker_count": worker_count(),
        "DGR_THREADS": os.environ.get("DGR_THREADS"),
        "blas": blas_record(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit(),
        "source_sha256": fingerprint,
        "seed": seed,
    }


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import rigidreg; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def set_up(workload, seed: int, work: Path):
    """Set up SETUP_REPEATS times (import in a fresh interpreter, pair
    generation, file writing into ``work``); returns the last inputs and
    every set-up time.

    The warm-up registration is not part of it and is timed on its own: on
    dense_main it costs more than the rest of set-up, and its cost moves
    with the pair's geometry, which would drown the set-up time.
    """
    times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None
        shutil.rmtree(work, ignore_errors=True)
        cost = import_seconds()
        begin = time.perf_counter()
        inputs = workload.prepare(seed, work)
        times.append(cost + time.perf_counter() - begin)
    return inputs, times


def tail(latencies: list) -> tuple[float, float, int]:
    """Highest percentile that leaves TAIL_BEYOND calls beyond it, as
    (value, percentile, calls beyond). A run with too few calls for that
    reports its median as the tail (percentile 50)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND
    if k < (n - 1) / 2:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[k], 100.0 * k / (n - 1), TAIL_BEYOND


def end_to_end(setup_times, loop) -> tuple[dict, dict]:
    value, pct, beyond = tail(loop.latencies)
    calls = len(loop.latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pairs_per_s": len(loop.registrations) / loop.wall,
        "latency_p50_s": statistics.median(loop.latencies),
        "latency_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": (f"median of {len(setup_times)} set-ups, half before and half after "
                    "timing, warm-up not included"),
        "pairs_per_s": f"{len(loop.registrations)} registrations in {loop.wall:.2f} s",
        "latency_p50_s": f"median of {calls} calls",
        "latency_tail_s": (f"p{pct:.1f} of {calls} calls, {beyond} beyond"
                           if pct > 50 else f"p50 of {calls} calls: too few for a tail"),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes


def per_layer(traced, tracer, serial_tracer, untraced, q, warmup_s) -> dict:
    from tracer import NameSummary, calls_under, exact_count_mean, summarize

    s = defaultdict(lambda: NameSummary(counts={}), summarize(tracer.spans))

    def ratio(a, b):
        return a / b if b else 0.0

    registrations = [s["pipeline.register"], s["evaluation.register"]]
    n = sum(r.calls for r in registrations)
    fallback = dict.fromkeys(("low_inlier_fraction", "low_consensus", "solver_error"), 0.0)
    for r in registrations:
        for key, value in r.counts.items():
            if key.startswith("fallback."):
                reason = key.removeprefix("fallback.")
                fallback[reason if reason in fallback else "solver_error"] += value
    fits = calls_under(tracer.spans, "procrustes.solve", "ransac.ransac_register")
    down, feats = s["geometry.voxel_downsample"], s["correspondence.compute_features"]
    match, weigh = s["correspondence.match_nearest"], s["correspondence.weigh"]
    solve, refine = s["procrustes.solve"], s["refine.refine"]
    ransac, suite = s["ransac.ransac_register"], s["evaluation.run_benchmark"]
    pooled = s["evaluation.register"]
    m = {
        "geometry.voxel_downsample.self_s": down.self_s / n,
        "geometry.voxel_downsample.points_in": down.counts.get("points_in", 0) / n,
        "geometry.voxel_downsample.points_out": down.counts.get("points_out", 0) / n,
        "correspondence.compute_features.self_s": feats.self_s / n,
        "correspondence.compute_features.points": feats.counts.get("points", 0) / n,
        "correspondence.match_nearest.self_s": match.self_s / n,
        "correspondence.match_nearest.matches": match.counts.get("matches", 0) / n,
        "correspondence.weigh.self_s": weigh.self_s / n,
        "correspondence.weigh.active_ratio": ratio(weigh.counts.get("active", 0),
                                                   weigh.counts.get("weights", 0)),
        "procrustes.solve.calls": solve.calls / n,
        "procrustes.solve.self_s": solve.self_s / n,
        "refine.refine.self_s": refine.self_s / n,
        "refine.refine.iterations": refine.counts.get("iterations", 0) / n,
        "refine.energy.calls": s["refine.energy"].calls / n,
        "refine.energy_gradient.calls": s["refine.energy_gradient"].calls / n,
        "ransac.ransac_register.self_s": ransac.self_s / n,
        "ransac.fits": fits / n,
        "ransac.fits_per_s": ratio(fits, ransac.total_s),
        "ransac.consensus_ratio": exact_count_mean(tracer.spans, "ransac.ransac_register",
                                                   "consensus"),
        "pipeline.register.s": sum(r.total_s for r in registrations) / n,
        "pipeline.register.main_branch_ratio": sum(r.counts.get("main", 0) for r in registrations) / n,
        "pipeline.register.fallback.low_inlier_fraction": fallback["low_inlier_fraction"] / n,
        "pipeline.register.fallback.low_consensus": fallback["low_consensus"] / n,
        "pipeline.register.fallback.solver_error": fallback["solver_error"] / n,
        "pipeline.recall": q["recall"],
        "pipeline.failed_ratio": q["failed_ratio"],
        "pipeline.re_p50_deg": q["re_p50_deg"],
        "pipeline.te_p50_cm": q["te_p50_cm"] if math.isfinite(q["te_p50_cm"]) else INFINITE_CM,
        "evaluation.run_benchmark.s": ratio(suite.total_s, suite.calls),
        "evaluation.register.mean_s": ratio(pooled.total_s, pooled.calls),
        "evaluation.register.overlap": ratio(pooled.total_s, suite.total_s),
        "evaluation.serial_pairs_per_s": 0.0,
        "io.read_ply.calls": s["io.read_ply"].calls / n,
        "io.read_ply.self_s": s["io.read_ply"].self_s / n,
        "io.read_pose_json.self_s": s["io.read_pose_json"].self_s / n,
        "trace.untraced_pairs_per_s": len(untraced.registrations) / untraced.wall,
        "trace.traced_pairs_per_s": len(traced.registrations) / traced.wall,
        "setup.warmup_s": warmup_s,
    }
    if serial_tracer is not None:
        serial = summarize(serial_tracer.spans)
        m["evaluation.serial_pairs_per_s"] = (serial["evaluation.register"].calls
                                              / serial["evaluation.run_benchmark"].total_s)
    return m


def dominant_layer(tracer) -> tuple[str, dict]:
    """Layer (span name prefix) with the largest summed self time."""
    from tracer import summarize

    layers: dict[str, float] = {}
    for name, entry in summarize(tracer.spans).items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + entry.self_s
    return max(layers, key=layers.get), layers


def check_repeat(fingerprint: str, workload: str, seed: int, values: dict) -> list:
    """Compare deterministic values with an earlier run of the same seed and
    source, then record them for the next run."""
    path = OUT / "repeat" / fingerprint[:16] / f"{workload}-seed{seed}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {}
    problems = [
        f"{workload}: {key} is {values[key]!r}, an earlier run with seed {seed} gave {earlier[key]!r}"
        for key in values if key in earlier and earlier[key] != values[key]
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(json.dumps({**earlier, **values}, indent=1, sort_keys=True))
    os.replace(scratch, path)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rigidreg" / "__init__.py").is_file():
        print(f"benchmark: no rigidreg package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import Tracer, rigidreg_probes
    from workloads import RE_MAX_DEG, TE_MAX_M, WORKLOADS, check_outcomes, drive, quality

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    units = declared_units("per_layer" if args.trace else "end_to_end")
    fingerprint = source_fingerprint()
    env = environment(args.seed, fingerprint)
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    problems: list[str] = []
    try:
        inputs, setup_times = set_up(workload, args.seed, work / "before")
        begin = time.perf_counter()
        workload.warm_up(inputs)
        warmup_s = time.perf_counter() - begin
        tracer = serial_tracer = None
        if args.trace == 0:
            loop = drive(workload, inputs, args.seconds, problems)
            runs = [loop]
        else:
            half = args.seconds / 2.0
            loop = drive(workload, inputs, half, problems, whole_passes=True)
            tracer = Tracer()
            with tracer.installed(rigidreg_probes(workload.cfg.prefilter_tau)):
                traced = drive(workload, inputs, half, problems, tracer, whole_passes=True)
            runs = [loop, traced]
            if args.workload == "safeguard_suite":
                # one pass with the pool off, for the pool's cost
                serial_tracer = Tracer()
                previous = os.environ.get("DGR_THREADS")
                os.environ["DGR_THREADS"] = "1"
                try:
                    with serial_tracer.installed(rigidreg_probes(workload.cfg.prefilter_tau)):
                        runs.append(drive(workload, inputs, 0.0, problems, serial_tracer))
                finally:
                    if previous is None:
                        del os.environ["DGR_THREADS"]
                    else:
                        os.environ["DGR_THREADS"] = previous
        # the machine's speed drifts over tens of seconds; set-ups at both
        # ends of the run keep one slow spell from setting the median
        setup_times += set_up(workload, args.seed, work / "after")[1]
        for run in runs:
            check_outcomes(workload, inputs, run, problems)
        q = quality(inputs, loop.first_pass)
        repeatable = {k: q[k] for k in ("recall", "failed_ratio", "re_p50_deg")}
        repeatable["te_p50_cm"] = q["te_p50_cm"] if math.isfinite(q["te_p50_cm"]) else "inf"
        if args.trace == 0:
            metrics, notes = end_to_end(setup_times, loop)
        else:
            metrics = per_layer(traced, tracer, serial_tracer, loop, q, warmup_s)
            notes = {}
            repeatable.update({k: metrics[k] for k in REPEATABLE if k in metrics})
        problems += check_repeat(fingerprint, args.workload, args.seed, repeatable)
        if set(metrics) != set(units):
            problems.append(f"metrics {sorted(set(metrics) ^ set(units))} are computed "
                            "or declared in BENCHMARK.json, not both")
        problems = list(dict.fromkeys(problems))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(run.registrations) for run in runs)
    failed = sum(1 for run in runs for o in run.registrations if o.result is None)
    calls = sum(len(run.latencies) for run in runs)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ({workload.kind})")
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:48s} {value:14.6g} {units.get(name, '?'):10s} {note}")
    print(f"  {'recall':48s} {q['recall']:14.6g} {'ratio':10s} "
          f"{q['successes']}/{q['pairs']} pairs of the first pass, success below "
          f"{RE_MAX_DEG:g} deg and {TE_MAX_M * 100:g} cm")
    print(f"  {'failed_ratio':48s} {failed / attempted:14.6g} {'ratio':10s} "
          f"{failed}/{attempted} registrations raised RegistrationError")
    print(f"  {'warm-up':48s} {warmup_s:14.6g} {'s':10s} one registration before timing, "
          "not in setup_s")
    print(f"  {'re_p50_deg':48s} {q['re_p50_deg']:14.6g} {'deg':10s} median over {q['pairs']} pairs")
    print(f"  {'te_p50_cm':48s} {q['te_p50_cm']:14.6g} {'cm':10s} median over {q['pairs']} pairs")
    if args.trace == 1:
        layer, layers = dominant_layer(tracer)
        shares = ", ".join(f"{k} {v:.3g} s" for k, v in sorted(layers.items(), key=lambda x: -x[1]))
        print(f"  dominant self time: {layer} ({shares})")
        print(f"  tracing overhead: traced {metrics['trace.traced_pairs_per_s']:.4g} pairs/s "
              f"vs untraced {metrics['trace.untraced_pairs_per_s']:.4g} pairs/s")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    OUT.mkdir(parents=True, exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "calls": calls,
        "setup_times_s": setup_times, "warmup_s": warmup_s,
        "metrics": {k: {"value": v, "unit": units.get(k), "note": notes.get(k)} for k, v in metrics.items()},
        "quality": {k: (v if not isinstance(v, float) or math.isfinite(v) else None)
                    for k, v in q.items()},
        "problems": problems,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if args.trace == 1:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for phase, t in (("traced", tracer), ("serial", serial_tracer)):
                for sp in (t.spans if t else ()):
                    handle.write(json.dumps([phase, sp.id, sp.parent, sp.name, sp.start,
                                             sp.end, sp.thread, sp.counts]) + "\n")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
