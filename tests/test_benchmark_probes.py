"""The benchmark imports names from the package and its traced run wraps
module attributes by name; a rename or deletion there would only show when
``perfbench/run.py`` runs. These tests read the benchmark's files, without
changing them, and check that every name they import or wrap exists."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACER = _PERFBENCH / "tracer.py"


def test_every_traced_probe_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    probes = tracer.rigidreg_probes(0.4)
    assert probes
    missing = [
        f"{probe.module}.{probe.attr}" for probe in probes
        if not callable(getattr(importlib.import_module(probe.module), probe.attr, None))
    ]
    assert missing == []


def _rigidreg_imports(path):
    """(module, name) for each package name a file imports; name is None
    where the file imports the module itself, by statement or through
    ``importlib.import_module``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rigidreg":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rigidreg":
                    yield alias.name, None
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "import_module"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).split(".")[0] == "rigidreg"
        ):
            yield node.args[0].value, None


def test_every_benchmark_import_resolves():
    files = sorted(_PERFBENCH.glob("*.py")) + sorted(_PERFBENCH.glob("tests/*.py"))
    imports = [(path.name, *pair) for path in files for pair in _rigidreg_imports(path)]
    assert ("run.py", "rigidreg", "worker_count") in imports
    missing = []
    for file, module, name in imports:
        try:
            loaded = importlib.import_module(module)
        except ImportError:
            missing.append(f"{file}: {module}")
            continue
        if name is not None and not hasattr(loaded, name):
            missing.append(f"{file}: {module}.{name}")
    assert missing == []
