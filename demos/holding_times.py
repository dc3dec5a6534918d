"""Fuzzy versus set-based mean holding times.

A crisp set S = {chi > threshold} has a mean holding time t(x) that
drops to zero at the set boundary, even deep inside the metastable
region, because trajectories near the boundary leave immediately.  The
fuzzy time t1(x) = chi(x)/eps1 stays finite and tracks the membership.
This script prints both along a vertical cut through the region and
their correlation where chi is high.

Run:  python3 demos/holding_times.py
"""

# chi_exit before numpy, so its one-thread BLAS policy holds
from chi_exit import (
    RegularGrid,
    benchmark_potential,
    build_sqrt_generator,
    chi_mean_holding_time,
    eigensolve,
    pcca_single,
    rate_from_eigenpair,
    set_mean_holding_time,
)

import numpy as np


def main():
    pot = benchmark_potential()
    grid = RegularGrid(50, 50, pot.domain)
    gen = build_sqrt_generator(pot, grid, 1.0)
    chi = pcca_single(eigensolve(gen, 3), 3)
    report = rate_from_eigenpair(chi.meta["eps_bar"], chi.meta["beta_bar"])

    threshold = 0.22
    mask = chi.values > threshold
    t_set = set_mean_holding_time(gen, mask)
    t_fuzzy = chi_mean_holding_time(report, chi.values)
    print("eps1 = %.6f;  t1 at the chi=%.2f level: %.2f"
          % (report.eps1, threshold, threshold / report.eps1))

    # vertical cut through the region's center column
    i = 25
    print("\n  x2     chi    in S   t(set)   t1(fuzzy)")
    for j in range(30, 50, 2):
        k = i * 50 + j
        print("  %.2f   %.3f   %s   %8.2f   %8.2f"
              % (grid.centers[k, 1], chi.values[k],
                 "yes" if mask[k] else " no", t_set[k], t_fuzzy[k]))

    high = chi.values > 0.4
    corr = np.corrcoef(t_set[high], t_fuzzy[high])[0, 1]
    print("\ninside the set both times decay together: Pearson r = %.4f "
          "on the %d cells with chi > 0.4" % (corr, int(high.sum())))
    print("at the set boundary t(set) -> 0 while t1 stays near %.1f: the "
          "fuzzy time is the one that matches the physics of a gradual "
          "exit" % (threshold / report.eps1))


if __name__ == "__main__":
    main()
