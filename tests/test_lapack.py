"""krflow._lapack: the routines are scipy.linalg.lapack's own objects on
every load path, and a fresh `import krflow` runs no scipy.linalg import."""

import json
import os
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import scipy.linalg.lapack

from krflow import _lapack

ROUTINES = ("dgttrf", "dgttrs", "dgbtrf", "dgbtrs", "dlamch", "dsbevx")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_interpreter(code):
    """The JSON that code prints, run in a new interpreter on this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout)


def test_routines_are_scipy_objects():
    for name in ROUTINES:
        assert getattr(_lapack, name) is getattr(scipy.linalg.lapack, name)


def test_import_loads_no_scipy_linalg_and_no_pool():
    loaded = fresh_interpreter(
        "import json, sys, krflow\n"
        "from krflow import _lapack\n"
        "print(json.dumps({'modules': [m for m in ('scipy.linalg', "
        "'concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules], 'source': _lapack.source.__name__}))")
    assert loaded == {"modules": [], "source": _lapack.FLAPACK}


def test_scipy_linalg_first_reuses_its_module():
    same = fresh_interpreter(
        "import json, sys\n"
        "import scipy.linalg.lapack as lapack\n"
        "from krflow import _lapack\n"
        f"names = {ROUTINES}\n"
        "print(json.dumps([_lapack.source is sys.modules[_lapack.FLAPACK]]\n"
        "                 + [getattr(_lapack, n) is getattr(lapack, n)\n"
        "                    for n in names]))")
    assert same == [True] * (1 + len(ROUTINES))


def _assert_fallback(monkeypatch, path):
    monkeypatch.delitem(sys.modules, _lapack.FLAPACK, raising=False)
    monkeypatch.setattr(_lapack, "flapack_file", lambda: path)
    source = _lapack.load()
    assert source is scipy.linalg.lapack
    assert _lapack.FLAPACK not in sys.modules
    for name in ROUTINES:
        assert getattr(source, name) is getattr(scipy.linalg.lapack, name)


def test_fallback_without_extension_file(monkeypatch):
    _assert_fallback(monkeypatch, None)


def test_fallback_when_extension_does_not_load(monkeypatch, tmp_path):
    broken = tmp_path / ("_flapack" + EXTENSION_SUFFIXES[0])
    broken.write_bytes(b"not a shared object")
    _assert_fallback(monkeypatch, broken)

