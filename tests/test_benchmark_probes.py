"""The benchmark's traced run wraps module attributes of the package by
name; a rename or deletion there would only show when ``perfbench/run.py
--trace 1`` runs. This loads the tracer by path, without changing it, and
checks that every name it wraps exists."""

import importlib
import importlib.util
import sys
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
