"""Command-line entry points.

Exit codes: 0 success, 2 when registration itself fails on valid input,
1 for usage, IO, or format problems. Diagnostics go to standard error; the
pose JSON is the only thing written to standard output (or --out).
"""

from __future__ import annotations

import argparse
import math
import sys

from .correspondence import CorrespondenceSet, WeightVector
from .errors import RegistrationError, RegistrationFailed
from .evaluation import PRESETS, parse_suite_file, run_benchmark
from .io import (
    parse_config_file,
    pose_json,
    read_ply,
    read_weight_file,
    write_curves_csv,
    write_pose_json,
    write_report_json,
)
from .pipeline import PipelineConfig, register, register_with_correspondences


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidreg",
        description="Global rigid registration of 3D point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("register", help="align a source cloud onto a target")
    reg.add_argument("--source", required=True, help="source PLY")
    reg.add_argument("--target", required=True, help="target PLY")
    reg.add_argument("--config", help="key=value config file (defaults if omitted)")
    reg.add_argument(
        "--weights",
        help="weight file carrying externally computed correspondences; "
        "skips matching",
    )
    reg.add_argument("--out", help="write pose JSON here instead of stdout")

    bench = sub.add_parser("benchmark", help="run a registration suite")
    bench.add_argument("--suite", required=True, help="suite file, one pair per line")
    bench.add_argument("--config", help="key=value config file applied over the preset")
    bench.add_argument("--report", required=True, help="output report JSON")
    bench.add_argument("--curves", help="output recall-vs-threshold CSV")
    bench.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="indoor",
        help="pipeline defaults and success thresholds (default: indoor)",
    )
    bench.add_argument(
        "--re-threshold-deg", type=float, help="override the rotation success threshold"
    )
    bench.add_argument(
        "--te-threshold", type=float, help="override the translation success threshold (m)"
    )
    return parser


def _cmd_register(args) -> int:
    cfg = parse_config_file(args.config) if args.config else PipelineConfig()
    source = read_ply(args.source)
    target = read_ply(args.target)

    if args.weights:
        source_size, target_size, pairs, weights = read_weight_file(args.weights)
        if source_size != len(source) or target_size != len(target):
            print(
                f"error: weight file sized for {source_size}x{target_size} "
                f"clouds, inputs are {len(source)}x{len(target)}",
                file=sys.stderr,
            )
            return 1
        matches = CorrespondenceSet(pairs, source_size, target_size)
        result = register_with_correspondences(
            matches, WeightVector(weights), source, target, cfg
        )
    else:
        result = register(source, target, cfg)

    if args.out:
        write_pose_json(result, args.out)
    else:
        sys.stdout.write(pose_json(result))
    reason = f" ({result.fallback_reason})" if result.fallback_reason else ""
    print(
        f"branch={result.branch}{reason} inlier_fraction={result.inlier_fraction:.4f} "
        f"correspondences={result.correspondence_count}",
        file=sys.stderr,
    )
    return 0


def _cmd_benchmark(args) -> int:
    preset = PRESETS[args.preset]()
    cfg = preset.pipeline
    if args.config:
        cfg = parse_config_file(args.config, base=cfg)
    suite = parse_suite_file(args.suite)
    re_threshold = (
        math.radians(args.re_threshold_deg)
        if args.re_threshold_deg is not None
        else preset.re_threshold
    )
    te_threshold = (
        args.te_threshold if args.te_threshold is not None else preset.te_threshold
    )

    report = run_benchmark(suite, cfg, re_threshold, te_threshold)
    write_report_json(report, args.report)
    if args.curves:
        write_curves_csv(report, args.curves)
    mean_re = "-" if report.mean_re is None else f"{math.degrees(report.mean_re):.3f}deg"
    mean_te = "-" if report.mean_te is None else f"{report.mean_te * 100:.2f}cm"
    print(
        f"pairs={len(report.records)} recall={report.recall:.3f} "
        f"mean_re={mean_re} mean_te={mean_te}",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if exit_.code == 0 else 1

    try:
        if args.command == "register":
            return _cmd_register(args)
        return _cmd_benchmark(args)
    except RegistrationFailed as exc:
        print(f"registration failed: {exc}", file=sys.stderr)
        return 2
    except (RegistrationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
