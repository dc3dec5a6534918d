"""Exit rates of rare events from fuzzy metastable sets.

A membership function chi: state space -> [0, 1] generalizes the indicator
of a metastable set.  This package builds such memberships for
potential-driven diffusions (spectral shift-scale, PCCA+, committors,
Monte Carlo core hitting), propagates them with the transfer operator
P^tau = exp(-tau L*), and converts the regression coefficients of
P^tau chi ~ gamma1 chi + gamma2 into the chi-exit rate eps1 and the
penalty rate eps2.
"""

import os

# one BLAS thread per process cut the grid routes' CPU time 34-46% on 2 cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .potential import PotentialSurface, benchmark_potential, flat_potential
from .grid_generator import (
    GeneratorMatrix,
    RegularGrid,
    build_sqrt_generator,
)
from .spectral import EigenSystem, eigensolve, propagate
from .membership import (
    Membership,
    committor,
    find_weight_cores,
    mc_hitting_membership,
    pcca_multi,
    pcca_single,
)
from .sde import (
    SdeConfig,
    TrajectoryStats,
    estimate_ptau_chi,
    feynman_kac_holding,
    feynman_kac_holding_mc,
    sample_jump_exit_times,
    sample_set_exit_times,
    uniform_points,
)
from .rates import (
    ExitRateReport,
    RegressionResult,
    chi_mean_holding_time,
    dominance_timescale,
    exit_path_direction,
    fit_survival_rate,
    gammas_to_rate,
    holding_probability,
    rate_from_eigenpair,
    regress,
    regress_generator_action,
    set_mean_holding_time,
)

__version__ = "0.1.0"

__all__ = [
    "PotentialSurface",
    "benchmark_potential",
    "flat_potential",
    "RegularGrid",
    "GeneratorMatrix",
    "build_sqrt_generator",
    "EigenSystem",
    "eigensolve",
    "propagate",
    "Membership",
    "pcca_single",
    "pcca_multi",
    "committor",
    "find_weight_cores",
    "mc_hitting_membership",
    "SdeConfig",
    "TrajectoryStats",
    "estimate_ptau_chi",
    "feynman_kac_holding",
    "feynman_kac_holding_mc",
    "sample_set_exit_times",
    "uniform_points",
    "sample_jump_exit_times",
    "RegressionResult",
    "ExitRateReport",
    "regress",
    "gammas_to_rate",
    "rate_from_eigenpair",
    "regress_generator_action",
    "holding_probability",
    "chi_mean_holding_time",
    "set_mean_holding_time",
    "exit_path_direction",
    "dominance_timescale",
    "fit_survival_rate",
]
