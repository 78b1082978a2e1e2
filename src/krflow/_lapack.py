"""The six LAPACK routines krflow calls, without `scipy.linalg`'s import.

`from scipy.linalg.lapack import ...` first runs `scipy/linalg/__init__.py`,
which loads much of scipy and, through its array-API numpy clone,
`numpy.f2py`, `numpy.testing` and `numpy.ma`: most of the time of
`import krflow`.  The routines themselves live in scipy's compiled
`scipy.linalg._flapack` extension, which needs only numpy, so this module
loads that file directly:

- a `scipy.linalg._flapack` already in `sys.modules` is reused;
- otherwise the file is found beside scipy's package spec (finding the spec
  does not import scipy), loaded, and registered under its own name, so a
  later `import scipy.linalg` reuses it instead of loading it a second time;
- when no such file exists, or it does not load, `scipy.linalg.lapack`
  supplies the routines.

On every path the routines are the very objects `scipy.linalg.lapack`
exports, so no result depends on the path taken.
"""

from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

FLAPACK = "scipy.linalg._flapack"


def flapack_file() -> Path | None:
    """The `_flapack` extension file of the installed scipy, or None."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in EXTENSION_SUFFIXES:
            path = Path(root, "linalg", "_flapack" + suffix)
            if path.is_file():
                return path
    return None


def load():
    """The module the routines are read from: the `_flapack` extension, or
    `scipy.linalg.lapack` when the extension cannot be loaded alone."""
    if FLAPACK in sys.modules:
        return sys.modules[FLAPACK]
    path = flapack_file()
    if path is not None:
        spec = importlib.util.spec_from_file_location(FLAPACK, path)
        try:
            # an extension module is initialised by module_from_spec
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            pass
        else:
            sys.modules[FLAPACK] = module
            return module
    from scipy.linalg import lapack
    return lapack


source = load()
dgttrf = source.dgttrf
dgttrs = source.dgttrs
dgbtrf = source.dgbtrf
dgbtrs = source.dgbtrs
dlamch = source.dlamch
dsbevx = source.dsbevx
