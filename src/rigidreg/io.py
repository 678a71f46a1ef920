"""File formats: PLY clouds, weight files, config files, pose JSON, and
benchmark reports. Suite files are parsed by
:func:`evaluation.parse_suite_file`, next to the pair specs they build;
this module imports :mod:`evaluation` for type hints only, so the
package's imports form no cycle.

Every parser rejects malformed input with an error that names the file and
the offending line (or byte offset for binary data); there is no partial
silent success. A config value that parses but that the config classes
refuse (``voxel_size = -1``, an unknown weighter) is reported with the file
and the setting it refuses.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields, is_dataclass, replace
from typing import TYPE_CHECKING, BinaryIO

import numpy as np

from .errors import CoordinateOverflow, FileFormatError, NotARotation, UnsupportedFormat
from .geometry import PointCloud, RigidTransform
from .pipeline import PipelineConfig
from .results import RegistrationResult

if TYPE_CHECKING:
    from .evaluation import BenchmarkReport

# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


class _Element:
    def __init__(self, name: str, count: int):
        self.name = name
        self.count = count
        self.properties: list[tuple[str, str]] = []  # (name, type code)
        self.has_list = False


def _read_header(handle: BinaryIO, path: str):
    """Parse the header; returns (format, elements, header byte length)."""
    line_no = 0

    def next_line() -> str:
        nonlocal line_no
        raw = handle.readline()
        if not raw:
            raise FileFormatError(f"{path}:{line_no + 1}: unexpected end of header")
        line_no += 1
        try:
            return raw.decode("ascii").rstrip("\r\n")
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}:{line_no}: non-ASCII header byte") from exc

    if next_line().strip() != "ply":
        raise FileFormatError(f"{path}:1: missing 'ply' magic")
    fmt_tokens = next_line().split()
    if len(fmt_tokens) != 3 or fmt_tokens[0] != "format" or fmt_tokens[2] != "1.0":
        raise FileFormatError(f"{path}:2: malformed format line")
    fmt = fmt_tokens[1]
    if fmt == "binary_big_endian":
        raise UnsupportedFormat(f"{path}: big-endian PLY is not supported")
    if fmt not in ("ascii", "binary_little_endian"):
        raise FileFormatError(f"{path}:2: unknown format {fmt!r}")

    elements: list[_Element] = []
    while True:
        line = next_line()
        tokens = line.split()
        if not tokens or tokens[0] == "comment" or tokens[0] == "obj_info":
            continue
        if tokens[0] == "end_header":
            break
        if tokens[0] == "element":
            if len(tokens) != 3:
                raise FileFormatError(f"{path}:{line_no}: malformed element line")
            try:
                count = int(tokens[2])
            except ValueError as exc:
                raise FileFormatError(
                    f"{path}:{line_no}: element count is not an integer"
                ) from exc
            if count < 0:
                raise FileFormatError(f"{path}:{line_no}: negative element count")
            elements.append(_Element(tokens[1], count))
        elif tokens[0] == "property":
            if not elements:
                raise FileFormatError(f"{path}:{line_no}: property before any element")
            if len(tokens) >= 2 and tokens[1] == "list":
                elements[-1].has_list = True
                elements[-1].properties.append((tokens[-1], "list"))
            elif len(tokens) == 3:
                if tokens[1] not in _PLY_TYPES:
                    raise FileFormatError(
                        f"{path}:{line_no}: unknown property type {tokens[1]!r}"
                    )
                elements[-1].properties.append((tokens[2], _PLY_TYPES[tokens[1]]))
            else:
                raise FileFormatError(f"{path}:{line_no}: malformed property line")
        else:
            raise FileFormatError(
                f"{path}:{line_no}: unexpected header keyword {tokens[0]!r}"
            )
    return fmt, elements, line_no


def _vertex_layout(element: _Element, path: str):
    """Column positions and types of x, y, z within the vertex element."""
    names = [name for name, _ in element.properties]
    for coord in ("x", "y", "z"):
        if coord not in names:
            raise FileFormatError(f"{path}: vertex element lacks property {coord!r}")
    columns = {}
    for position, (name, code) in enumerate(element.properties):
        if name in ("x", "y", "z"):
            if code not in ("f4", "f8"):
                raise FileFormatError(
                    f"{path}: vertex property {name!r} must be float or double"
                )
            columns[name] = position
    return columns


def read_ply(path) -> PointCloud:
    """Read an ASCII or binary-little-endian PLY; extra vertex properties
    are ignored, point order is preserved. A coordinate of magnitude 2**240
    or more raises CoordinateOverflow naming the file."""
    path = os.fspath(path)
    with open(path, "rb") as handle:
        fmt, elements, header_lines = _read_header(handle, path)
        vertex = next((e for e in elements if e.name == "vertex"), None)
        if vertex is None:
            raise FileFormatError(f"{path}: no vertex element")
        if vertex.has_list:
            raise UnsupportedFormat(
                f"{path}: list properties inside the vertex element"
            )
        columns = _vertex_layout(vertex, path)

        try:
            if fmt == "ascii":
                return _read_ascii_vertices(handle, path, elements, vertex, columns, header_lines)
            return _read_binary_vertices(handle, path, elements, vertex, columns)
        except CoordinateOverflow as exc:
            raise CoordinateOverflow(f"{path}: {exc}") from None


def _read_ascii_vertices(handle, path, elements, vertex, columns, header_lines):
    line_no = header_lines
    data = handle.read().decode("ascii", errors="replace").splitlines()
    cursor = 0
    for element in elements:
        if element is vertex:
            break
        cursor += element.count  # ASCII rows are line-aligned, lists included
    if cursor + vertex.count > len(data):
        # before allocating, so a count no file can hold is a located error
        row_no = line_no + max(cursor, len(data)) + 1
        raise FileFormatError(f"{path}:{row_no}: missing vertex row")
    points = np.empty((vertex.count, 3), dtype=np.float64)
    width = len(vertex.properties)
    for k in range(vertex.count):
        row_no = line_no + cursor + k + 1
        tokens = data[cursor + k].split()
        if len(tokens) != width:
            raise FileFormatError(
                f"{path}:{row_no}: expected {width} values, got {len(tokens)}"
            )
        try:
            points[k, 0] = float(tokens[columns["x"]])
            points[k, 1] = float(tokens[columns["y"]])
            points[k, 2] = float(tokens[columns["z"]])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{row_no}: non-numeric coordinate") from exc
        if not np.all(np.isfinite(points[k])):
            raise FileFormatError(f"{path}:{row_no}: non-finite coordinate")
    return PointCloud(points)


def _read_binary_vertices(handle, path, elements, vertex, columns):
    offset = 0
    payload = handle.read()
    for element in elements:
        if element is vertex:
            break
        if element.has_list:
            raise UnsupportedFormat(
                f"{path}: list properties before the vertex element"
            )
        stride = sum(np.dtype("<" + code).itemsize for _, code in element.properties)
        offset += stride * element.count
    dtype = np.dtype([(name, "<" + code) for name, code in vertex.properties])
    need = offset + dtype.itemsize * vertex.count
    if len(payload) < need:
        raise FileFormatError(
            f"{path}: unexpected end of data at byte {len(payload)} "
            f"(need {need} for {vertex.count} vertices)"
        )
    rows = np.frombuffer(payload, dtype=dtype, count=vertex.count, offset=offset)
    points = np.column_stack(
        [rows["x"].astype(np.float64), rows["y"].astype(np.float64), rows["z"].astype(np.float64)]
    )
    if not np.all(np.isfinite(points)):
        bad = int(np.flatnonzero(~np.all(np.isfinite(points), axis=1))[0])
        raise FileFormatError(f"{path}: non-finite coordinate in vertex {bad}")
    return PointCloud(points)


def write_ply(cloud: PointCloud, path, mode: str = "binary_le") -> None:
    """Write x, y, z as doubles (lossless round-trip); features, if any,
    are not part of the format and are dropped."""
    if mode not in ("ascii", "binary_le"):
        raise ValueError(f"unknown mode {mode!r}")
    path = os.fspath(path)
    fmt = "ascii" if mode == "ascii" else "binary_little_endian"
    header = (
        "ply\n"
        f"format {fmt} 1.0\n"
        f"element vertex {len(cloud)}\n"
        "property double x\n"
        "property double y\n"
        "property double z\n"
        "end_header\n"
    )
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        if mode == "ascii":
            lines = [
                f"{p[0]!r} {p[1]!r} {p[2]!r}\n".encode("ascii")
                for p in cloud.points.tolist()
            ]
            handle.writelines(lines)
        else:
            handle.write(np.ascontiguousarray(cloud.points, dtype="<f8").tobytes())


# ---------------------------------------------------------------------------
# weight files
# ---------------------------------------------------------------------------

_WEIGHT_MAGIC = "DGRW 1"


def read_weight_file(path):
    """Read a versioned plain-text weight file.

    Layout: magic line ``DGRW 1``, then ``sizes N_x N_y``, then ``count K``,
    then K lines ``i j w`` with integer indices and a weight in [0, 1]; a
    source index appears at most once. Returns (source_size, target_size,
    pairs array (K, 2), weights (K,)).
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not valid UTF-8") from exc
    if "\r" in text:
        raise FileFormatError(f"{path}: carriage returns found; lines must end in LF")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline

    def fail(index: int, message: str):
        raise FileFormatError(f"{path}:{index + 1}: {message}")

    if len(lines) < 3:
        fail(len(lines), "truncated header")
    if lines[0] != _WEIGHT_MAGIC:
        fail(0, f"bad magic {lines[0]!r}, expected {_WEIGHT_MAGIC!r}")
    size_tokens = lines[1].split()
    if len(size_tokens) != 3 or size_tokens[0] != "sizes":
        fail(1, "expected 'sizes N_x N_y'")
    try:
        source_size, target_size = int(size_tokens[1]), int(size_tokens[2])
    except ValueError:
        fail(1, "sizes must be integers")
    if source_size < 0 or target_size < 0:
        fail(1, "sizes must be non-negative")
    count_tokens = lines[2].split()
    if len(count_tokens) != 2 or count_tokens[0] != "count":
        fail(2, "expected 'count K'")
    try:
        count = int(count_tokens[1])
    except ValueError:
        fail(2, "count must be an integer")
    if count < 0:
        fail(2, "count must be non-negative")
    if len(lines) - 3 != count:
        fail(2, f"declared {count} entries but file has {len(lines) - 3}")

    pairs = np.empty((count, 2), dtype=np.int64)
    weights = np.empty(count, dtype=np.float64)
    first_line: dict[int, int] = {}
    for k in range(count):
        tokens = lines[3 + k].split()
        if len(tokens) != 3:
            fail(3 + k, "expected 'i j w'")
        try:
            i, j = int(tokens[0]), int(tokens[1])
            w = float(tokens[2])
        except ValueError:
            fail(3 + k, "entries must be two integers and a float")
        if not 0 <= i < source_size:
            fail(3 + k, f"source index {i} outside [0, {source_size})")
        if i in first_line:
            fail(3 + k, f"duplicate source index {i} (first on line {first_line[i] + 1})")
        first_line[i] = 3 + k
        if not 0 <= j < target_size:
            fail(3 + k, f"target index {j} outside [0, {target_size})")
        if not (math.isfinite(w) and 0.0 <= w <= 1.0):
            fail(3 + k, f"weight {tokens[2]} outside [0, 1]")
        pairs[k] = (i, j)
        weights[k] = w
    return source_size, target_size, pairs, weights


def write_weight_file(path, source_size: int, target_size: int, pairs, weights) -> None:
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if pairs.shape[0] != weights.shape[0]:
        raise ValueError("pairs and weights differ in length")
    lines = [_WEIGHT_MAGIC, f"sizes {source_size} {target_size}", f"count {pairs.shape[0]}"]
    lines += [f"{int(i)} {int(j)} {w!r}" for (i, j), w in zip(pairs.tolist(), weights.tolist())]
    data = "\n".join(lines) + "\n"
    with open(os.fspath(path), "wb") as handle:
        handle.write(data.encode("utf-8"))


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def _config_keys() -> dict[str, tuple[str, str, type]]:
    """key -> (section, field, type): a flat key per pipeline field and a
    dotted key per field of each nested block (feature, refine, ransac).
    A value parses with the type of its field's class default value."""
    keys = {}
    defaults = PipelineConfig()
    for outer in fields(PipelineConfig):
        value = getattr(defaults, outer.name)
        if is_dataclass(value):
            for inner in fields(value):
                keys[f"{outer.name}.{inner.name}"] = (
                    outer.name, inner.name, type(inner.default)
                )
        else:
            keys[outer.name] = ("pipeline", outer.name, type(value))
    return keys


_CONFIG_KEYS = _config_keys()


def parse_config_file(path, base: PipelineConfig = PipelineConfig()) -> PipelineConfig:
    """Apply a flat ``key = value`` config file to ``base``.

    Keys the file leaves out keep their values in ``base``. Blank lines and
    ``#`` comments are allowed; unknown or duplicate keys and unparsable
    values are rejected naming the file and line, values the config
    classes refuse naming the file and the setting.
    """
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")

    sections: dict[str, dict] = {section: {} for section, _, _ in _CONFIG_KEYS.values()}
    seen: dict[str, int] = {}
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{path}:{index + 1}"
        if "=" not in stripped:
            raise FileFormatError(f"{where}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise FileFormatError(f"{where}: unknown key {key!r}")
        if key in seen:
            raise FileFormatError(
                f"{where}: duplicate key {key!r} (first on line {seen[key] + 1})"
            )
        seen[key] = index
        section, field, converter = _CONFIG_KEYS[key]
        try:
            sections[section][field] = converter(value)
        except ValueError:
            raise FileFormatError(
                f"{where}: cannot parse {value!r} as {converter.__name__} for {key!r}"
            ) from None

    top = sections.pop("pipeline")
    try:
        pipeline = replace(base, **top)
        blocks = {
            name: replace(getattr(pipeline, name), **values)
            for name, values in sections.items() if values
        }
        return replace(pipeline, **blocks)
    except ValueError as exc:
        raise FileFormatError(f"{path}: invalid configuration: {exc}") from None


# ---------------------------------------------------------------------------
# pose JSON
# ---------------------------------------------------------------------------

def _g17(value: float) -> str:
    # 17 significant digits: enough to round-trip any double exactly
    return format(float(value), ".17g")


def pose_json(result: RegistrationResult) -> str:
    """Serialize a registration result as a small JSON document with the
    rotation stored row-major."""
    rotation = ", ".join(_g17(v) for v in result.transform.rotation.reshape(-1))
    translation = ", ".join(_g17(v) for v in result.transform.translation)
    return (
        "{\n"
        f'  "branch": {json.dumps(result.branch)},\n'
        f'  "inlier_fraction": {_g17(result.inlier_fraction)},\n'
        f'  "rotation": [{rotation}],\n'
        f'  "translation": [{translation}]\n'
        "}\n"
    )


def write_pose_json(result: RegistrationResult, path) -> None:
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        handle.write(pose_json(result))


def read_pose_json(path) -> RigidTransform:
    """Read a pose document; only rotation and translation are required,
    extra keys are ignored."""
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: pose document must be a JSON object")
    rotation = doc.get("rotation")
    translation = doc.get("translation")
    if not isinstance(rotation, list) or len(rotation) != 9:
        raise FileFormatError(f"{path}: 'rotation' must be a list of 9 numbers")
    if not isinstance(translation, list) or len(translation) != 3:
        raise FileFormatError(f"{path}: 'translation' must be a list of 3 numbers")
    # float() would also take JSON's true and false, and numeric strings
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in rotation + translation):
        raise FileFormatError(f"{path}: pose entries must be numbers")
    try:
        # a JSON integer beyond float64's range raises OverflowError here
        R = np.array(rotation, dtype=np.float64).reshape(3, 3)
        t = np.array(translation, dtype=np.float64)
        return RigidTransform(R, t)
    except OverflowError:
        raise FileFormatError(f"{path}: pose entries must fit in a float64") from None
    except NotARotation as exc:
        raise FileFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def report_to_dict(report: BenchmarkReport) -> dict:
    """JSON-ready view of a report: angles in degrees, wall-clock isolated
    under a 'timing' key so determinism checks can drop it."""
    rows = []
    for rec in report.records:
        rows.append(
            {
                "pair": rec.pair_id,
                "branch": rec.branch,
                "fallback_reason": rec.fallback_reason,
                "re_deg": None if rec.re is None else math.degrees(rec.re),
                "te_m": rec.te,
                "success": rec.success,
                "error": rec.error,
            }
        )
    return {
        "recall": report.recall,
        "mean_re_deg": None if report.mean_re is None else math.degrees(report.mean_re),
        "mean_te_m": report.mean_te,
        "re_threshold_deg": math.degrees(report.re_threshold),
        "te_threshold_m": report.te_threshold,
        "branch_counts": dict(sorted(report.branch_counts.items())),
        "pairs": rows,
        "timing": {
            "stage_seconds": dict(sorted(report.stage_seconds.items())),
            "total_seconds": report.total_seconds,
        },
    }


def write_report_json(report: BenchmarkReport, path) -> None:
    doc = json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        handle.write(doc)


def write_curves_csv(report: BenchmarkReport, path) -> None:
    """Recall-vs-threshold sweeps, one row per threshold: the rotation sweep
    (thresholds in degrees, translation unconstrained) then the translation
    sweep (thresholds in meters, rotation unconstrained)."""
    lines = ["metric,threshold,recall"]
    for threshold, recall in report.re_curve:
        lines.append(f"re_deg,{math.degrees(threshold):.6g},{recall!r}")
    for threshold, recall in report.te_curve:
        lines.append(f"te_m,{threshold:.6g},{recall!r}")
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
