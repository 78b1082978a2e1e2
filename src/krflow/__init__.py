"""Numerical laboratory for the normalized conformal Ricci flow on the
two-sphere: axisymmetric metrics, their Ricci potentials, weighted
Laplacian spectra, flow trajectories, and the monitor suite that checks
the quantitative estimates along them."""

import os

# One BLAS thread unless the caller set a count: the banded eigensolves and
# the O(n) flow kernels lose time to a second thread.  This must run before
# numpy loads its BLAS, and a value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .geometry import (ConformalMetric, Grid, NumericalError,
                       conformal_metric, curvature_bounds, diameter,
                       grad_norm_sq, make_grid, noncollapsing_kappa,
                       normalize_volume, round_metric, weighted_integral)
from .potential import (FunctionalBundle, RicciPotential,
                        complex_hessian_norms, delta_prime, functional_bundle,
                        futaki_dilation, solve_ricci_potential, DomainError,
                        VolumeMismatch)
from .spectral import (BandAmbiguity, EigenData, SolveFail, Spectrum,
                       lambda_second, sobolev_constant_estimate,
                       weighted_spectrum)
from .flow import (FlowConfig, FlowState, StepReject, Trajectory,
                   log_det_bookkeeping, run)
from .monitors import CheckReport, TrajectoryReport, evaluate_trajectory
from .harness import (ConfigError, ExperimentSpec, RunArtifacts, dumps,
                      load_spec, loads, run_scenario, sweep_epsilon)
