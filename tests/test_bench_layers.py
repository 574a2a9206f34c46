"""The benchmark's per-layer tracer names functions of the package by
string; every one of those names must still resolve, or a rename would drop
that layer's metrics from traced runs without any error."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_target_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    targets = [t for layer in tracing.LAYERS for t in layer.targets]
    assert targets
    assert [t for t in targets if tracing._resolve(t) is None] == []
