"""Four routes to one exit rate.

Builds the benchmark double-well-plus-shelf system on a 50x50 grid and
computes the chi-exit rate of the upper metastable region four ways:
from a single eigenpair, from a PCCA+ membership's generator action,
from a committor propagated over a lag, and from short Monte Carlo
simulations alone.  The first three agree closely; the fourth shows
what a purely trajectory-based estimate gives at a small budget: a
100-step hitting membership lies far from the slow subspace, so even its
noise-free eps1 over all cells, on the diffusion clock, is -0.103.

Run:  python3 demos/rate_routes.py
"""

import numpy as np

from chi_exit import (
    RegularGrid,
    SdeConfig,
    benchmark_potential,
    build_sqrt_generator,
    committor,
    eigensolve,
    estimate_ptau_chi,
    find_weight_cores,
    gammas_to_rate,
    mc_hitting_membership,
    pcca_multi,
    pcca_single,
    propagate,
    rate_from_eigenpair,
    regress,
    regress_generator_action,
    uniform_points,
)


def main():
    pot = benchmark_potential()
    grid = RegularGrid(50, 50, pot.domain)
    gen = build_sqrt_generator(pot, grid, 1.0)
    eig = eigensolve(gen, 3)
    print("grid: 50x50, kbt=1")
    print("eigenvalues:", np.array2string(eig.eigenvalues, precision=6))

    # route 1: a single eigenpair gives the rate in closed form
    chi = pcca_single(eig, 3)
    r1 = rate_from_eigenpair(chi.meta["eps_bar"], chi.meta["beta_bar"],
                             "eigenpair")
    print("\n[1] eigenpair      eps1=%.6f  eps2=%.6f  pi_chi=%.4f"
          % (r1.eps1, r1.eps2, r1.pi_chi))

    # the same membership, two more computational routes: identical rate
    act = regress_generator_action(gen, chi, "least_squares")
    lag = gammas_to_rate(
        regress(chi.values, propagate(gen, chi.values, 10.0),
                "least_squares"), 10.0)
    print("    same chi via generator action: eps1=%.9f" % act.eps1)
    print("    same chi via lag regression:   eps1=%.9f" % lag.eps1)

    # route 2: regress the generator action of a PCCA+ cluster
    chis = pcca_multi(eig, 3)
    cluster = max(chis, key=lambda c: c.meta["weight"])
    r2 = regress_generator_action(gen, cluster, "least_squares")
    print("[2] pcca cluster   eps1=%.6f  (weight %.4f)"
          % (r2.eps1, cluster.meta["weight"]))

    # route 3: committor between the deep wells, lagged regression
    left, right = find_weight_cores(gen, 0.0025)
    q = committor(gen, left, right)
    tau = 100.0
    fit = regress(q.values, propagate(gen, q.values, tau), "least_squares")
    r3 = gammas_to_rate(fit, tau, "committor")
    print("[3] committor      eps1=%.6f  (gamma1=%.4f, gamma2=%.4f)"
          % (r3.eps1, fit.gamma1, fit.gamma2))

    # route 4: simulation only, no grid operator
    dyn = SdeConfig(potential=pot, sigma=0.8, dt=0.001)
    sampled = mc_hitting_membership(dyn, (0.2, 0.3, 0.4, 0.5), 100, 100,
                                    seed=0)
    pts = uniform_points(50, pot.domain, seed=0)
    xs, ys = estimate_ptau_chi(sampled, pts, 50)
    fit4 = regress(xs, ys, "least_squares")
    r4 = gammas_to_rate(fit4, 0.05, "mc")
    print("[4] simulation     eps1=%.6f  (gamma1=%.4f; on the diffusion "
          "clock rather than the grid operator's, noise-free value "
          "-0.103 over all cells)" % (r4.eps1, fit4.gamma1))

    print("\neach membership has its own exit rate: [1] rates the shallow "
          "upper region, [2] and [3] the deep wells.  For one membership "
          "all deterministic routes coincide (see [1]); route [4] "
          "estimates the same kind of quantity from trajectories alone, "
          "for a membership of its own.")


if __name__ == "__main__":
    main()
