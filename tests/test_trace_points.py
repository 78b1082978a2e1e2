"""The names perfbench's tracer patches must resolve in the package.

perfbench/spans.py replaces each (module, attribute) of its PATCHES table
at the name its caller looks up, and its provenance reads
krflow._kernels.HAVE_NUMBA.  A refactor that moves or renames one of them
breaks the traced benchmark runs; this test catches it first.
"""

import importlib
from pathlib import Path

import krflow._kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_patch_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans.PATCHES
    for module_name, attr, _ in spans.PATCHES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), f"{module_name}.{attr}"
    assert krflow._kernels.HAVE_NUMBA in (True, False)
