"""File formats: PLY, weight files, configs, suites, pose JSON, reports."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rigidreg import (
    CoordinateOverflow,
    FeatureConfig,
    FileFormatError,
    MAIN_BRANCH,
    PipelineConfig,
    PointCloud,
    RansacConfig,
    RefineConfig,
    RefineTrace,
    RegistrationResult,
    RigidTransform,
    SAFEGUARD_BRANCH,
    SyntheticPairSpec,
    UnsupportedFormat,
    parse_config_file,
    parse_suite_file,
    pose_json,
    read_ply,
    read_pose_json,
    read_weight_file,
    report_to_dict,
    run_benchmark,
    write_curves_csv,
    write_ply,
    write_pose_json,
    write_report_json,
    write_weight_file,
)
from rigidreg.evaluation import FilePairSpec
from rigidreg.io import _CONFIG_KEYS

from _oracles import rot_z


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------

def _awkward_points():
    # values with no short decimal representation, plus exact integers
    return np.array([
        [0.1, -0.2, 0.30000000000000004],
        [1.0, 2.0, -3.0],
        [1e-17, 1e17, -0.0],
        [math.pi, -math.e, 2.0 / 3.0],
    ])


@pytest.mark.parametrize("mode", ["ascii", "binary_le"])
def test_ply_round_trip_is_bitwise(tmp_path, mode):
    path = tmp_path / "cloud.ply"
    write_ply(PointCloud(_awkward_points()), path, mode=mode)
    back = read_ply(path)
    np.testing.assert_array_equal(back.points, _awkward_points())
    assert back.features is None


def test_ply_write_drops_features(tmp_path):
    cloud = PointCloud(np.zeros((2, 3)), features=np.ones((2, 4)))
    path = tmp_path / "cloud.ply"
    write_ply(cloud, path)
    assert read_ply(path).features is None
    with pytest.raises(ValueError):
        write_ply(cloud, path, mode="utf16")


def test_ply_float32_payload_read_exactly(tmp_path):
    values = np.array([[0.1, 2.5, -7.25], [1e-8, 3.0, 0.2]], dtype=np.float32)
    path = tmp_path / "f32.ply"
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        "element vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n"
    )
    path.write_bytes(header.encode() + values.astype("<f4").tobytes())
    back = read_ply(path)
    np.testing.assert_array_equal(back.points, values.astype(np.float64))


def test_ply_extra_properties_and_order(tmp_path):
    path = tmp_path / "extra.ply"
    path.write_text(
        "ply\nformat ascii 1.0\n"
        "comment generated for a layout test\n"
        "element vertex 2\n"
        "property double z\nproperty uchar intensity\n"
        "property double x\nproperty double y\n"
        "end_header\n"
        "3.0 9 1.0 2.0\n"
        "6.0 8 4.0 5.0\n"
    )
    back = read_ply(path)
    np.testing.assert_array_equal(back.points, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_ply_rgb_colors_skipped(tmp_path):
    ascii_path = tmp_path / "rgb.ply"
    ascii_path.write_text(
        "ply\nformat ascii 1.0\n"
        "element vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
        "0.5 -1.25 2.0 255 0 0\n"
        "3.5 0.25 -4.0 0 255 0\n"
    )
    expected = [[0.5, -1.25, 2.0], [3.5, 0.25, -4.0]]
    np.testing.assert_array_equal(read_ply(ascii_path).points, expected)

    binary_path = tmp_path / "rgb_le.ply"
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        "element vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    ).encode("ascii")
    rows = b"".join(
        np.array(xyz, dtype="<f4").tobytes() + bytes(rgb)
        for xyz, rgb in zip(expected, ([255, 0, 0], [0, 255, 0]))
    )
    binary_path.write_bytes(header + rows)
    np.testing.assert_array_equal(read_ply(binary_path).points, expected)


def test_ply_skips_elements_before_vertex(tmp_path):
    ascii_path = tmp_path / "pre.ply"
    ascii_path.write_text(
        "ply\nformat ascii 1.0\n"
        "element meta 2\nproperty int tag\n"
        "element vertex 1\n"
        "property double x\nproperty double y\nproperty double z\n"
        "end_header\n"
        "7\n8\n"
        "1.5 2.5 3.5\n"
    )
    np.testing.assert_array_equal(read_ply(ascii_path).points, [[1.5, 2.5, 3.5]])

    binary_path = tmp_path / "pre_bin.ply"
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        "element meta 2\nproperty uchar tag\n"
        "element vertex 1\n"
        "property double x\nproperty double y\nproperty double z\n"
        "end_header\n"
    )
    payload = bytes([7, 8]) + np.array([[1.5, 2.5, 3.5]], dtype="<f8").tobytes()
    binary_path.write_bytes(header.encode() + payload)
    np.testing.assert_array_equal(read_ply(binary_path).points, [[1.5, 2.5, 3.5]])


def test_ply_big_endian_unsupported(tmp_path):
    path = tmp_path / "be.ply"
    path.write_text("ply\nformat binary_big_endian 1.0\nend_header\n")
    with pytest.raises(UnsupportedFormat):
        read_ply(path)


def test_ply_vertex_list_property_unsupported(tmp_path):
    path = tmp_path / "list.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property double x\nproperty double y\nproperty double z\n"
        "property list uchar int neighbors\n"
        "end_header\n1 2 3 0\n"
    )
    with pytest.raises(UnsupportedFormat):
        read_ply(path)
    # binary rows before the vertex element have no fixed stride with a list
    path.write_bytes(
        b"ply\nformat binary_little_endian 1.0\n"
        b"element face 1\nproperty list uchar int vertex_indices\n"
        b"element vertex 1\nproperty double x\nproperty double y\nproperty double z\n"
        b"end_header\n" + bytes(1) + np.zeros(3, dtype="<f8").tobytes()
    )
    with pytest.raises(UnsupportedFormat, match="list properties before the vertex element"):
        read_ply(path)


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("plx\nformat ascii 1.0\nend_header\n", ":1:"),
        ("ply\nformat ascii 2.0\nend_header\n", ":2:"),
        ("ply\nformat utf8 1.0\nend_header\n", ":2:"),
        ("ply\nformat ascii 1.0\nelement vertex x\nend_header\n", ":3:"),
        ("ply\nformat ascii 1.0\nproperty double x\nend_header\n", "property before"),
        ("ply\nformat ascii 1.0\nwavelength 9\nend_header\n", "unexpected header keyword"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty qword x\nend_header\n", "unknown property type"),
        ("ply\nformat ascii 1.0\nelement vertex 1\n", ":4: unexpected end of header"),
        ("ply\nformat ascii 1.0\ncomment caf\u00e9\nend_header\n", ":3: non-ASCII header byte"),
        ("ply\nformat ascii 1.0\nelement vertex\nend_header\n", ":3: malformed element line"),
        ("ply\nformat ascii 1.0\nelement vertex -1\nend_header\n", ":3: negative element count"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty double\nend_header\n",
         ":4: malformed property line"),
    ],
)
def test_ply_header_errors_are_located(tmp_path, content, fragment):
    path = tmp_path / "bad.ply"
    path.write_bytes(content.encode("utf-8"))
    with pytest.raises(FileFormatError) as err:
        read_ply(path)
    assert fragment in str(err.value)


def test_ply_requires_vertex_element_and_coordinates(tmp_path):
    path = tmp_path / "noverts.ply"
    path.write_text("ply\nformat ascii 1.0\nelement face 0\nend_header\n")
    with pytest.raises(FileFormatError, match="no vertex element"):
        read_ply(path)
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property double x\nproperty double y\nend_header\n0 0\n"
    )
    with pytest.raises(FileFormatError, match="lacks property 'z'"):
        read_ply(path)
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property int x\nproperty double y\nproperty double z\nend_header\n0 0 0\n"
    )
    with pytest.raises(FileFormatError, match="must be float or double"):
        read_ply(path)


def test_ply_ascii_row_errors_are_located(tmp_path):
    path = tmp_path / "rows.ply"
    head = (
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property double x\nproperty double y\nproperty double z\nend_header\n"
    )
    path.write_text(head + "1 2 3\n4 5\n")
    with pytest.raises(FileFormatError, match=r":9: expected 3 values, got 2"):
        read_ply(path)
    path.write_text(head + "1 2 3\n4 5 six\n")
    with pytest.raises(FileFormatError, match=r":9: non-numeric"):
        read_ply(path)
    path.write_text(head + "1 2 3\n4 5 nan\n")
    with pytest.raises(FileFormatError, match=r":9: non-finite"):
        read_ply(path)
    path.write_text(head + "1 2 3\n")
    with pytest.raises(FileFormatError, match=r":9: missing vertex row"):
        read_ply(path)
    # a count no file holds is refused before anything is allocated for it
    for count in ("100000000000", "3000000000000000000"):
        path.write_text(head.replace("vertex 2", f"vertex {count}") + "1 2 3\n")
        with pytest.raises(FileFormatError, match=r":9: missing vertex row"):
            read_ply(path)


def test_ply_binary_truncation_and_nan(tmp_path):
    head = (
        "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
        "property double x\nproperty double y\nproperty double z\nend_header\n"
    ).encode()
    path = tmp_path / "trunc.ply"
    path.write_bytes(head + np.zeros((1, 3), dtype="<f8").tobytes())
    with pytest.raises(FileFormatError, match="unexpected end of data"):
        read_ply(path)
    bad = np.zeros((2, 3))
    bad[1, 2] = np.inf
    path.write_bytes(head + bad.astype("<f8").tobytes())
    with pytest.raises(FileFormatError, match="non-finite coordinate in vertex 1"):
        read_ply(path)


@pytest.mark.parametrize("mode", ["ascii", "binary_le"])
def test_ply_refuses_coordinates_past_the_limit(tmp_path, mode):
    # the cloud read refuses them, as any PointCloud does
    path = tmp_path / "huge.ply"
    header = (f"ply\nformat {'ascii' if mode == 'ascii' else 'binary_little_endian'} 1.0\n"
              "element vertex 2\nproperty double x\nproperty double y\n"
              "property double z\nend_header\n")

    def write(points):
        if mode == "ascii":
            rows = "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in points.tolist())
            path.write_text(header + rows)
        else:
            path.write_bytes(header.encode() + points.astype("<f8").tobytes())

    points = np.array([[0.0, 0.0, 0.0], [1.0, -2.0**240, 3.0]])
    write(points)
    with pytest.raises(CoordinateOverflow, match="2\\*\\*240"):
        read_ply(path)
    write(points / 2)
    assert read_ply(path).points.tobytes() == (points / 2).tobytes()


# ---------------------------------------------------------------------------
# weight files
# ---------------------------------------------------------------------------

def test_weight_file_round_trip_bitwise(tmp_path):
    path = tmp_path / "w.dgrw"
    pairs = np.array([[0, 2], [1, 0], [3, 1]])
    weights = np.array([0.1, 1.0, 0.0])
    write_weight_file(path, 4, 3, pairs, weights)
    ns, nt, got_pairs, got_weights = read_weight_file(path)
    assert (ns, nt) == (4, 3)
    np.testing.assert_array_equal(got_pairs, pairs)
    np.testing.assert_array_equal(got_weights, weights)


def test_weight_file_first_line_is_magic(tmp_path):
    path = tmp_path / "w.dgrw"
    write_weight_file(path, 2, 2, [[0, 0]], [0.5])
    assert path.read_bytes().startswith(b"DGRW 1\n")


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("DGRW 2\nsizes 1 1\ncount 0\n", ":1: bad magic"),
        ("DGRW 1\nsizes 1\ncount 0\n", ":2: expected 'sizes"),
        ("DGRW 1\nsizes -1 1\ncount 0\n", ":2: sizes must be non-negative"),
        ("DGRW 1\nsizes 1 1\ncount 2\n0 0 0.5\n", ":3: declared 2 entries but file has 1"),
        ("DGRW 1\nsizes 1 1\ncount 1\n0 0\n", ":4: expected 'i j w'"),
        ("DGRW 1\nsizes 1 1\ncount 1\n0.5 0 0.5\n", ":4: entries must be"),
        ("DGRW 1\nsizes 1 1\ncount 1\n1 0 0.5\n", "source index 1 outside"),
        ("DGRW 1\nsizes 3 3\ncount 3\n1 0 0.5\n2 1 0.5\n1 2 0.5\n",
         ":6: duplicate source index 1 (first on line 4)"),
        ("DGRW 1\nsizes 1 1\ncount 1\n0 0 1.5\n", "weight 1.5 outside"),
        ("DGRW 1\nsizes 1 1\ncount 1\n0 0 inf\n", "weight inf outside"),
        ("DGRW 1\n", "truncated header"),
        ("DGRW 1\nsizes 1 one\ncount 0\n", ":2: sizes must be integers"),
        ("DGRW 1\nsizes 1 1\nentries 0\n", ":3: expected 'count K'"),
        ("DGRW 1\nsizes 1 1\ncount 0.5\n", ":3: count must be an integer"),
        ("DGRW 1\nsizes 1 1\ncount -1\n", ":3: count must be non-negative"),
        ("DGRW 1\nsizes 1 1\ncount 1\n0 1 0.5\n", ":4: target index 1 outside [0, 1)"),
    ],
)
def test_weight_file_errors_are_located(tmp_path, content, fragment):
    path = tmp_path / "bad.dgrw"
    path.write_text(content)
    with pytest.raises(FileFormatError) as err:
        read_weight_file(path)
    assert fragment in str(err.value)


def test_weight_file_writer_refuses_unpaired_weights(tmp_path):
    path = tmp_path / "w.dgrw"
    with pytest.raises(ValueError, match="pairs and weights differ in length"):
        write_weight_file(path, 2, 2, [[0, 0], [1, 1]], [0.5])
    assert not path.exists()


def test_weight_file_rejects_crlf_and_bad_encoding(tmp_path):
    path = tmp_path / "crlf.dgrw"
    path.write_bytes(b"DGRW 1\r\nsizes 1 1\r\ncount 0\r\n")
    with pytest.raises(FileFormatError, match="carriage returns"):
        read_weight_file(path)
    path.write_bytes(b"DGRW 1\n\xff\xfe\ncount 0\n")
    with pytest.raises(FileFormatError, match="not valid UTF-8"):
        read_weight_file(path)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_full_round_trip(tmp_path):
    path = tmp_path / "full.cfg"
    path.write_text(
        "# full pipeline configuration\n"
        "voxel_size = 0.1\n"
        "safeguard_tau_s = 0.07\n"
        "prefilter_tau = 0.3\n"
        "seed = 5\n"
        "weighter = oracle:0.25\n"
        "\n"
        "feature.radius = 0.5\n"
        "feature.bins = 16\n"
        "refine.huber_delta = 0.02\n"
        "refine.max_iters = 77\n"
        "refine.convergence_tol = 1e-9\n"
        "ransac.max_iterations = 500\n"
        "ransac.inlier_threshold = 0.2\n"
        "ransac.confidence = 0.99\n"
        "ransac.seed = 3\n"
    )
    cfg = parse_config_file(path)
    assert cfg.voxel_size == 0.1
    assert cfg.safeguard_tau_s == 0.07
    assert cfg.prefilter_tau == 0.3
    assert cfg.seed == 5
    assert cfg.weighter == "oracle:0.25"
    assert cfg.feature.radius == 0.5 and cfg.feature.bins == 16
    assert cfg.refine.huber_delta == 0.02 and cfg.refine.max_iters == 77
    assert cfg.refine.convergence_tol == 1e-9
    assert cfg.ransac.max_iterations == 500
    assert cfg.ransac.inlier_threshold == 0.2
    assert cfg.ransac.confidence == 0.99 and cfg.ransac.seed == 3


def test_config_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing but comments\n\n")
    assert parse_config_file(path) == PipelineConfig()


def test_config_ransac_threshold_defaults_to_voxel_size(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("voxel_size = 0.2\nransac.max_iterations = 50\n")
    cfg = parse_config_file(path)
    # left unset, so the safeguard reads the file's voxel_size
    assert cfg.ransac.inlier_threshold is None and cfg.voxel_size == 0.2
    assert cfg.ransac.max_iterations == 50


def test_config_file_edits_its_base(tmp_path):
    base = PipelineConfig(voxel_size=0.3, seed=1)
    base = dataclasses.replace(base, ransac=dataclasses.replace(base.ransac, seed=9))
    path = tmp_path / "edit.cfg"
    path.write_text("seed = 3\n")
    assert parse_config_file(path, base=base) == dataclasses.replace(base, seed=3)
    # a new voxel size moves the unset threshold with it; the base's RANSAC
    # values stay, and a threshold the base sets stays too
    path.write_text("voxel_size = 0.2\nrefine.max_iters = 7\n")
    cfg = parse_config_file(path, base=base)
    assert cfg.ransac == base.ransac and cfg.ransac.inlier_threshold is None
    assert cfg.voxel_size == 0.2
    assert cfg.refine.max_iters == 7 and cfg.seed == 1
    fixed = dataclasses.replace(base, ransac=dataclasses.replace(base.ransac, inlier_threshold=0.4))
    assert parse_config_file(path, base=fixed).ransac.inlier_threshold == 0.4
    path.write_text("voxel_size = 0.2\nransac.inlier_threshold = 0.5\n")
    assert parse_config_file(path, base=base).ransac.inlier_threshold == 0.5


def test_config_keys_name_exactly_the_config_fields():
    # every settable field has a key and every key a field, so a field
    # that nothing can set (or a key that sets nothing) fails here
    nested = {"feature": FeatureConfig, "refine": RefineConfig, "ransac": RansacConfig}
    expected = {
        (section, f.name) for section, cls in nested.items() for f in dataclasses.fields(cls)
    }
    expected |= {
        ("pipeline", f.name) for f in dataclasses.fields(PipelineConfig) if f.name not in nested
    }
    assert {(section, field) for section, field, _ in _CONFIG_KEYS.values()} == expected


def test_readme_config_table_lists_exactly_the_config_keys():
    # a knob added or removed without its row in the README fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert set(rows) == set(_CONFIG_KEYS)


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("vexel_size = 0.1\n", "unknown key 'vexel_size'"),
        ("refine.step_size = 0.05\n", "unknown key 'refine.step_size'"),
        ("voxel_size = 0.1\nvoxel_size = 0.2\n", ":2: duplicate key"),
        ("voxel_size zero\n", "expected 'key = value'"),
        ("seed = 1.5\n", "cannot parse '1.5' as int"),
        ("seed = -1\n", "seed must be a non-negative integer"),
        ("ransac.seed = -2\n", "seed must be a non-negative integer"),
        ("voxel_size = -1\n", "invalid configuration"),
        ("weighter = psychic\n", "unknown weighter"),
        ("weighter = file:\n", "unknown weighter"),
        ("weighter = heuristic\n",
         "unknown weighter 'heuristic' (expected uniform, oracle or oracle:TAU)"),
        ("weighter = oracle:big\n", "bad oracle tau"),
        ("weighter = oracle:-1\n", "bad oracle tau"),
        ("feature.radius = inf\n", "radius must be finite"),
        # the descriptor follows from the clouds; there is no key to set it
        ("feature.descriptor = raw_xyz\n", "unknown key 'feature.descriptor'"),
        ("voxel_size = 0.1\nfeature.descriptor = precomputed\n",
         ":2: unknown key 'feature.descriptor'"),
        ("refine.huber_delta = inf\n", "huber_delta must be finite"),
        ("voxel_size = inf\n", "voxel_size must be finite"),
        ("refine.convergence_tol = inf\n", "convergence_tol must be finite"),
        ("ransac.inlier_threshold = nan\n", "inlier_threshold must be finite"),
    ],
)
def test_config_errors_are_located(tmp_path, content, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(content)
    with pytest.raises(FileFormatError) as err:
        parse_config_file(path)
    assert fragment in str(err.value)
    assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# suite files
# ---------------------------------------------------------------------------

def test_suite_synthetic_entries_and_seed_default(tmp_path):
    path = tmp_path / "suite.txt"
    path.write_text(
        "# two generated pairs\n"
        "synthetic n_points=100 overlap=0.9 noise=0.01 outliers=0.2 "
        "max_rotation=0.5 max_translation=0.3\n"
        "synthetic n_points=50\n"
        "synthetic n_points=60 seed=41\n"
        "synthetic n_points=70 max_rotation=0.5\n"
    )
    entries = parse_suite_file(path)
    assert entries[0] == SyntheticPairSpec(
        n_points=100, overlap_ratio=0.9, noise_sigma=0.01, outlier_ratio=0.2,
        transform_magnitude=(0.5, 0.3), seed=0,
    )
    assert entries[1].seed == 1  # defaults to the entry index
    assert entries[1].transform_magnitude == (math.pi, 1.0)
    assert entries[2].seed == 41
    assert entries[3].transform_magnitude == (0.5, 1.0)  # the spec's default translation


def test_suite_file_entries_resolve_relative_paths(tmp_path):
    sub = tmp_path / "data"
    sub.mkdir()
    write_ply(PointCloud(np.eye(3)), sub / "a.ply")
    write_ply(PointCloud(np.eye(3)), sub / "b.ply")
    (sub / "pose.json").write_text(json.dumps({
        "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0],
    }))
    suite = tmp_path / "suite.txt"
    suite.write_text("files source=data/a.ply target=data/b.ply pose=data/pose.json\n")
    (entry,) = parse_suite_file(suite)
    assert isinstance(entry, FilePairSpec)
    assert entry.source_path == str(sub / "a.ply")
    assert entry.pose_path == str(sub / "pose.json")


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("telepathic n_points=10\n", "unknown pair kind"),
        ("synthetic n_points\n", "expected key=value"),
        ("synthetic n_points=10 n_points=11\n", "duplicate key"),
        ("synthetic sides=3\n", "unknown key 'sides'"),
        ("synthetic n_points=ten\n", "cannot parse 'ten'"),
        ("synthetic n_points=5\n", "n_points must be at least 10"),
        ("files source=a.ply target=b.ply\n", "missing pose"),
        ("files source=a.ply target=b.ply pose=c.json extra=1\n", "unknown key 'extra'"),
        ("# only a comment\n", "suite contains no pairs"),
    ],
)
def test_suite_errors_are_located(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(FileFormatError) as err:
        parse_suite_file(path)
    assert fragment in str(err.value)


def test_suite_refuses_a_negative_seed_at_its_line(tmp_path):
    path = tmp_path / "suite.txt"
    path.write_text("synthetic n_points=300\nsynthetic n_points=300 seed=-1\n")
    with pytest.raises(FileFormatError) as err:
        parse_suite_file(path)
    assert f"{path}:2:" in str(err.value)
    assert "seed must be a non-negative integer" in str(err.value)


def test_config_file_refuses_an_infinite_oracle_tau(tmp_path):
    path = tmp_path / "oracle.cfg"
    path.write_text("weighter = oracle:inf\n")
    with pytest.raises(FileFormatError) as err:
        parse_config_file(path)
    assert str(path) in str(err.value) and "bad oracle tau" in str(err.value)


@pytest.mark.parametrize("bad", ["noise=inf", "max_rotation=nan"])
def test_suite_rejects_non_finite_recipes(tmp_path, bad):
    path = tmp_path / "suite.txt"
    path.write_text(f"synthetic n_points=50\nsynthetic n_points=50 {bad}\n")
    with pytest.raises(FileFormatError, match=r"suite\.txt:2: .*finite"):
        parse_suite_file(path)


def test_suite_missing_referenced_file(tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_text("files source=a.ply target=b.ply pose=c.json\n")
    with pytest.raises(FileFormatError, match="source file not found"):
        parse_suite_file(suite)


# ---------------------------------------------------------------------------
# pose JSON
# ---------------------------------------------------------------------------

def _sample_result():
    transform = RigidTransform(rot_z(0.3), np.array([0.1, -0.2, 0.30000000000000004]))
    return RegistrationResult(
        transform=transform, branch=MAIN_BRANCH, inlier_fraction=1.0 / 3.0,
        trace=None, correspondence_count=5,
    )


@pytest.mark.parametrize("change, fragment", [
    ({"branch": "heuristic"}, "unknown branch 'heuristic'"),
    ({"inlier_fraction": 1.5}, "inlier_fraction must lie in [0, 1]"),
    ({"correspondence_count": -1}, "correspondence_count must be non-negative"),
    ({"branch": SAFEGUARD_BRANCH, "trace": RefineTrace((1.0,), 0, "converged")},
     "safeguard results carry no refinement trace"),
], ids=["branch", "inlier_fraction", "correspondence_count", "safeguard_trace"])
def test_registration_result_refuses_inconsistent_fields(change, fragment):
    with pytest.raises(ValueError) as err:
        dataclasses.replace(_sample_result(), **change)
    assert fragment in str(err.value)


def test_pose_json_round_trips_doubles():
    result = _sample_result()
    doc = json.loads(pose_json(result))
    assert doc["branch"] == MAIN_BRANCH
    assert doc["inlier_fraction"] == 1.0 / 3.0
    np.testing.assert_array_equal(
        np.array(doc["rotation"]).reshape(3, 3), result.transform.rotation
    )
    np.testing.assert_array_equal(np.array(doc["translation"]), result.transform.translation)


def test_pose_file_round_trip(tmp_path):
    result = _sample_result()
    path = tmp_path / "pose.json"
    write_pose_json(result, path)
    back = read_pose_json(path)
    np.testing.assert_array_equal(back.rotation, result.transform.rotation)
    np.testing.assert_array_equal(back.translation, result.transform.translation)


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("{", "invalid JSON"),
        ("[1, 2]", "must be a JSON object"),
        ('{"rotation": [1, 0, 0], "translation": [0, 0, 0]}', "'rotation' must be a list of 9"),
        ('{"rotation": [1,0,0,0,1,0,0,0,1], "translation": [0]}', "'translation' must be a list of 3"),
        ('{"rotation": [1,0,0,0,1,0,0,0,"x"], "translation": [0,0,0]}', "must be numbers"),
        ('{"rotation": [true,0,0,0,true,0,0,0,true], "translation": [0,false,0]}',
         "must be numbers"),
        ('{"rotation": [1,0,0,0,1,0,0,0,1], "translation": [0,"0.5",0]}', "must be numbers"),
        ('{"rotation": [2,0,0,0,2,0,0,0,2], "translation": [0,0,0]}', "rotation"),
        # an integer too large for float64 used to escape as OverflowError
        pytest.param('{"rotation": [1' + "0" * 400 + ',0,0,0,1,0,0,0,1], "translation": [0,0,0]}',
                     "pose entries must fit in a float64", id="integer-beyond-float64"),
    ],
)
def test_read_pose_json_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.json"
    path.write_text(content)
    with pytest.raises(FileFormatError) as err:
        read_pose_json(path)
    assert fragment in str(err.value)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report():
    suite = [
        SyntheticPairSpec(n_points=150, overlap_ratio=1.0, transform_magnitude=(0.4, 0.4), seed=s)
        for s in range(2)
    ]
    return run_benchmark(suite, PipelineConfig(), math.radians(15.0), 0.30)


def test_report_dict_layout(small_report):
    doc = report_to_dict(small_report)
    assert doc["recall"] == small_report.recall
    assert abs(doc["re_threshold_deg"] - 15.0) < 1e-12
    assert doc["te_threshold_m"] == 0.30
    assert abs(doc["mean_re_deg"] - math.degrees(small_report.mean_re)) < 1e-15
    assert list(doc["branch_counts"]) == sorted(doc["branch_counts"])
    assert [row["pair"] for row in doc["pairs"]] == [0, 1]
    assert set(doc["pairs"][0]) == {"pair", "branch", "fallback_reason", "re_deg", "te_m",
                                    "success", "error"}
    # wall-clock lives only under "timing" so byte comparisons can drop it
    assert set(doc["timing"]) == {"stage_seconds", "total_seconds"}
    assert not any("seconds" in key for key in doc if key != "timing")


def test_write_report_json_is_sorted_and_valid(tmp_path, small_report):
    path = tmp_path / "report.json"
    write_report_json(small_report, path)
    text = path.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert doc["recall"] == 1.0


def test_write_curves_csv_layout(tmp_path, small_report):
    path = tmp_path / "curves.csv"
    write_curves_csv(small_report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "metric,threshold,recall"
    assert len(lines) == 1 + 61 + 61
    re_rows = [line.split(",") for line in lines[1:62]]
    te_rows = [line.split(",") for line in lines[62:]]
    assert all(row[0] == "re_deg" for row in re_rows)
    assert all(row[0] == "te_m" for row in te_rows)
    assert float(re_rows[0][1]) == 0.0 and float(re_rows[-1][1]) == 30.0
    assert float(te_rows[0][1]) == 0.0 and float(te_rows[-1][1]) == 0.6
    recalls = [float(row[2]) for row in re_rows]
    assert all(0.0 <= r <= 1.0 for r in recalls)
    assert all(b >= a for a, b in zip(recalls, recalls[1:]))
