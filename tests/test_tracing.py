"""The benchmark tracer's patch points exist in the package and are restored."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    points = tracing._PATCH_POINTS
    originals = [getattr(module, attr) for module, attr, _ in points]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr, name), original in zip(points, originals):
            assert getattr(module, attr) is not original, name
    finally:
        tracer.uninstall()
    for (module, attr, name), original in zip(points, originals):
        assert getattr(module, attr) is original, name
