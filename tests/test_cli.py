"""Command-line interface: exit codes, stream discipline, reproducibility."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rigidreg import (
    PointCloud,
    RigidTransform,
    outdoor_preset,
    run_benchmark,
    write_ply,
    write_weight_file,
)
from rigidreg import cli
from rigidreg.cli import main

from _oracles import quaternion_angle, rodrigues

_R = rodrigues(np.array([0.2, 0.7, -0.1]), 0.5)
_T = np.array([0.3, -0.1, 0.2])


@pytest.fixture()
def cloud_pair(tmp_path, patch_cloud):
    """Source/target PLY paths related by a known rigid transform."""
    truth = RigidTransform(_R, _T)
    src = tmp_path / "source.ply"
    tgt = tmp_path / "target.ply"
    write_ply(patch_cloud, src)
    write_ply(PointCloud(truth.apply(patch_cloud.points)), tgt)
    return src, tgt, truth


def _assert_pose_close(doc, truth):
    rotation = np.array(doc["rotation"]).reshape(3, 3)
    assert math.degrees(quaternion_angle(rotation, truth.rotation)) < 1e-9
    assert np.linalg.norm(np.array(doc["translation"]) - truth.translation) < 1e-9


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "register" in capsys.readouterr().out


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["transmogrify"]) == 1
    assert main(["register", "--source", "a.ply"]) == 1  # --target required
    assert main(["benchmark", "--suite", "s", "--report", "r", "--preset", "lunar"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

def test_register_cloud_against_itself(capsys, cloud_pair):
    src, _, _ = cloud_pair
    assert main(["register", "--source", str(src), "--target", str(src)]) == 0
    doc = json.loads(capsys.readouterr().out)
    rotation = np.array(doc["rotation"]).reshape(3, 3)
    assert np.abs(rotation - np.eye(3)).max() < 1e-6
    assert np.linalg.norm(doc["translation"]) < 1e-6


def test_register_writes_pose_to_stdout_only(capsys, cloud_pair):
    src, tgt, truth = cloud_pair
    assert main(["register", "--source", str(src), "--target", str(tgt)]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)  # stdout must be nothing but the document
    _assert_pose_close(doc, truth)
    assert doc["branch"] == "weighted_procrustes_refined"
    assert "branch=weighted_procrustes_refined" in captured.err
    assert "correspondences=" in captured.err


def test_register_precomputed_config_names_the_line(capsys, tmp_path, cloud_pair):
    # the descriptor follows from the clouds, so no config key chooses it
    src, tgt, _ = cloud_pair
    cfg = tmp_path / "features.cfg"
    cfg.write_text("feature.descriptor = precomputed\n")
    assert main(["register", "--source", str(src), "--target", str(tgt),
                 "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{cfg}:1: unknown key 'feature.descriptor'" in captured.err


def test_register_out_flag_redirects_document(capsys, tmp_path, cloud_pair):
    src, tgt, truth = cloud_pair
    out = tmp_path / "pose.json"
    assert main(["register", "--source", str(src), "--target", str(tgt),
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err != ""
    _assert_pose_close(json.loads(out.read_text()), truth)


def test_register_with_config_file(capsys, tmp_path, cloud_pair):
    src, tgt, truth = cloud_pair
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("seed = 3\nvoxel_size = 0.05\n")
    assert main(["register", "--source", str(src), "--target", str(tgt),
                 "--config", str(cfg)]) == 0
    _assert_pose_close(json.loads(capsys.readouterr().out), truth)


def test_register_with_weight_file(capsys, tmp_path, cloud_pair):
    src, tgt, truth = cloud_pair
    n = 408
    pairs = np.column_stack([np.arange(n), np.arange(n)])
    weights = tmp_path / "pairs.dgrw"
    write_weight_file(weights, n, n, pairs, np.ones(n))
    assert main(["register", "--source", str(src), "--target", str(tgt),
                 "--weights", str(weights)]) == 0
    doc = json.loads(capsys.readouterr().out)
    _assert_pose_close(doc, truth)
    assert doc["inlier_fraction"] == 1.0


def test_register_weight_size_mismatch_exits_one(capsys, tmp_path, cloud_pair):
    src, tgt, _ = cloud_pair
    weights = tmp_path / "pairs.dgrw"
    write_weight_file(weights, 7, 7, [[0, 0]], [1.0])
    assert main(["register", "--source", str(src), "--target", str(tgt),
                 "--weights", str(weights)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sized 7x7" in captured.err


def test_register_zero_weights_takes_safeguard(capsys, tmp_path, cloud_pair):
    src, tgt, truth = cloud_pair
    n = 408
    pairs = np.column_stack([np.arange(n), np.arange(n)])
    weights = tmp_path / "zeros.dgrw"
    write_weight_file(weights, n, n, pairs, np.zeros(n))
    assert main(["register", "--source", str(src), "--target", str(tgt),
                 "--weights", str(weights)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["branch"] == "safeguard"
    _assert_pose_close(doc, truth)


def test_register_failure_exits_two(capsys, tmp_path):
    # two points cannot support either branch
    src = tmp_path / "src.ply"
    tgt = tmp_path / "tgt.ply"
    points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    write_ply(PointCloud(points), src)
    write_ply(PointCloud(points + 0.5), tgt)
    weights = tmp_path / "pairs.dgrw"
    write_weight_file(weights, 2, 2, [[0, 0], [1, 1]], [1.0, 1.0])
    code = main(["register", "--source", str(src), "--target", str(tgt),
                 "--weights", str(weights)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "registration failed" in captured.err


@pytest.mark.parametrize(
    "breakage",
    ["missing_source", "bad_ply", "bad_config", "oracle_config"],
)
def test_register_input_problems_exit_one(capsys, tmp_path, cloud_pair, breakage):
    src, tgt, _ = cloud_pair
    argv = ["register", "--source", str(src), "--target", str(tgt)]
    if breakage == "missing_source":
        argv[2] = str(tmp_path / "absent.ply")
    elif breakage == "bad_ply":
        broken = tmp_path / "broken.ply"
        broken.write_text("not a ply file\n")
        argv[2] = str(broken)
    elif breakage == "bad_config":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("voxel_size = -3\n")
        argv += ["--config", str(cfg)]
    else:  # oracle weighting needs ground truth the CLI cannot supply
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("weighter = oracle:0.3\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err
    if breakage == "missing_source":
        assert str(tmp_path / "absent.ply") in captured.err  # names the path


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

_SUITE_TEXT = (
    "synthetic n_points=150 overlap=1.0 noise=0.0 outliers=0.0 "
    "max_rotation=0.5 max_translation=0.5\n"
    "synthetic n_points=150 overlap=1.0 noise=0.0 outliers=0.0 "
    "max_rotation=0.5 max_translation=0.5\n"
)


def _run_benchmark_cli(tmp_path, tag, extra=()):
    suite = tmp_path / "suite.txt"
    suite.write_text(_SUITE_TEXT)
    report = tmp_path / f"report_{tag}.json"
    curves = tmp_path / f"curves_{tag}.csv"
    argv = ["benchmark", "--suite", str(suite), "--report", str(report),
            "--curves", str(curves), *extra]
    return main(argv), report, curves


def test_benchmark_writes_report_and_curves(capsys, tmp_path):
    code, report, curves = _run_benchmark_cli(tmp_path, "a")
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "recall=1.000" in captured.err
    doc = json.loads(report.read_text())
    assert doc["recall"] == 1.0
    assert abs(doc["re_threshold_deg"] - 15.0) < 1e-12  # indoor preset
    assert doc["te_threshold_m"] == 0.30
    assert len(curves.read_text().splitlines()) == 123


def test_benchmark_runs_are_reproducible(capsys, tmp_path):
    code_a, report_a, curves_a = _run_benchmark_cli(tmp_path, "a")
    code_b, report_b, curves_b = _run_benchmark_cli(tmp_path, "b")
    capsys.readouterr()
    assert code_a == 0 and code_b == 0
    doc_a = json.loads(report_a.read_text())
    doc_b = json.loads(report_b.read_text())
    assert doc_a.pop("timing") != doc_b.pop("timing") or True  # wall clock varies
    assert doc_a == doc_b
    assert curves_a.read_bytes() == curves_b.read_bytes()


def test_benchmark_threshold_overrides(capsys, tmp_path):
    code, report, _ = _run_benchmark_cli(
        tmp_path, "o", ["--re-threshold-deg", "10", "--te-threshold", "0.5"]
    )
    capsys.readouterr()
    assert code == 0
    doc = json.loads(report.read_text())
    assert abs(doc["re_threshold_deg"] - 10.0) < 1e-12
    assert doc["te_threshold_m"] == 0.5


def test_benchmark_refuses_a_non_finite_threshold(capsys, tmp_path):
    code, report, _ = _run_benchmark_cli(tmp_path, "nan", ["--te-threshold", "nan"])
    assert code == 1
    assert "te_threshold must be finite" in capsys.readouterr().err
    assert not report.exists()


def test_benchmark_names_a_suite_line_with_a_negative_seed(capsys, tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_text(_SUITE_TEXT + "synthetic n_points=300 seed=-1\n")
    report = tmp_path / "report.json"
    code = main(["benchmark", "--suite", str(suite), "--report", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{suite}:3:" in err and "seed must be a non-negative integer" in err
    assert not report.exists()


def test_benchmark_reports_a_synthetic_pair_too_large_to_generate(capsys, tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_text("synthetic n_points=3000000000000000000\n" + _SUITE_TEXT)
    report = tmp_path / "report.json"
    code = main(["benchmark", "--suite", str(suite), "--report", str(report)])
    capsys.readouterr()
    assert code == 0
    rows = json.loads(report.read_text())["pairs"]
    assert [(row["pair"], row["success"], row["error"]) for row in rows] == [
        (0, False, "ValueError"), (1, True, None), (2, True, None)]


def test_benchmark_outdoor_preset_thresholds(capsys, tmp_path):
    code, report, _ = _run_benchmark_cli(tmp_path, "out", ["--preset", "outdoor"])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(report.read_text())
    assert abs(doc["re_threshold_deg"] - 5.0) < 1e-12
    assert doc["te_threshold_m"] == 0.60


def test_benchmark_config_file_edits_the_preset(capsys, tmp_path, monkeypatch):
    seen = []

    def spy(suite, cfg, *thresholds):
        seen.append(cfg)
        return run_benchmark(suite, cfg, *thresholds)

    monkeypatch.setattr(cli, "run_benchmark", spy)
    config = tmp_path / "seed.cfg"
    config.write_text("seed = 3\n")
    code, _, _ = _run_benchmark_cli(
        tmp_path, "cfg", ["--preset", "outdoor", "--config", str(config)]
    )
    capsys.readouterr()
    assert code == 0
    assert seen == [replace(outdoor_preset().pipeline, seed=3)]
    assert seen[0].voxel_size == 0.30 and seen[0].ransac.inlier_threshold is None


def test_benchmark_missing_suite_exits_one(capsys, tmp_path):
    report = tmp_path / "report.json"
    code = main(["benchmark", "--suite", str(tmp_path / "absent.txt"),
                 "--report", str(report)])
    assert code == 1
    assert "error" in capsys.readouterr().err
    assert not report.exists()


def test_benchmark_suite_with_missing_ply_fails_before_running(capsys, tmp_path, cloud_pair):
    src, _, _ = cloud_pair
    pose = tmp_path / "identity.json"
    pose.write_text(json.dumps({
        "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
        "translation": [0, 0, 0],
    }))
    suite = tmp_path / "suite.txt"
    suite.write_text(
        _SUITE_TEXT
        + f"files source={src.name} target=absent.ply pose={pose.name}\n"
    )
    report = tmp_path / "report.json"
    code = main(["benchmark", "--suite", str(suite), "--report", str(report)])
    assert code == 1
    assert "absent.ply" in capsys.readouterr().err
    assert not report.exists()  # the parse error precedes any registration
