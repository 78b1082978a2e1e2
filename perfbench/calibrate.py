"""A fixed calibration load that measures how fast the machine is.

The sandboxes this benchmark runs on change speed by up to 2x over minutes
(NOTES.md, "Machine noise").  A timed run therefore runs this load after
every sample, and scales each sample to a machine on which the load takes
REFERENCE_S:

    scaled = raw * sum(REFERENCE_S) / mean(sum(measured))

where the mean is over the two calibrations just before and just after the
sample.  The load
uses only Python, numpy and scipy, never krflow, so a change to krflow
moves the raw time and the scaled time by the same factor.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import eig_banded

# Typical seconds of each part on the 2-core sandbox the benchmark was tuned
# on, with one BLAS thread.
REFERENCE_S = {"python": 0.15, "numpy": 0.12, "lapack": 0.12}

# A banded symmetric matrix in upper storage, two superdiagonals.
_BAND = np.vstack([np.random.default_rng(0).random((2, 400)) * 0.1,
                   2.0 + np.random.default_rng(1).random((1, 400))])


def _python() -> None:
    """Interpreter work: arithmetic, a modulo and dict stores."""
    s, d = 0.0, {}
    for i in range(800_000):
        s += (i * 0.5) % 7.0
        d[i & 255] = s


def _numpy() -> None:
    """Many ufunc calls on a short array: per-call overhead, as in RK4."""
    x = np.linspace(0.0, 1.0, 128)
    for _ in range(16_000):
        x = np.sin(x) * 0.5 + np.cumsum(x)[::-1] * 1e-3


def _lapack() -> None:
    """The lowest eigenpairs of a banded matrix, as in the spectral layer."""
    for _ in range(20):
        eig_banded(_BAND, lower=False, select="i", select_range=(0, 4))


_KERNELS = {"python": _python, "numpy": _numpy, "lapack": _lapack}


def calibrate() -> dict[str, float]:
    """Seconds each part of the calibration load takes now."""
    out = {}
    for part, kernel in _KERNELS.items():
        t0 = time.perf_counter()
        kernel()
        out[part] = time.perf_counter() - t0
    return out


def scale(calibrations: list[dict]) -> float:
    """Factor that takes a time measured between these calibrations to the
    reference speed."""
    measured = statistics.fmean(sum(c.values()) for c in calibrations)
    return sum(REFERENCE_S.values()) / measured
