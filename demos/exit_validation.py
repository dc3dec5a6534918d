"""Validating a sampled membership against direct exit times.

Builds the membership purely from short trajectories (core-hitting
probabilities), realizes it on the grid, then checks two things:

1. mean diffusion exit times from S = {chi > 0.22} grow with chi at the
   starting point (rank structure, clock-free), and
2. the exit rate of the grid operator's jump process from S agrees with
   the Algorithm-style rate of the same membership within a small
   factor, since both live on the operator's time unit.

Run:  python3 demos/exit_validation.py   (a few seconds)
"""

# chi_exit before numpy, so its one-thread BLAS policy holds
from chi_exit import (
    RegularGrid,
    SdeConfig,
    benchmark_potential,
    build_sqrt_generator,
    fit_survival_rate,
    gammas_to_rate,
    mc_hitting_membership,
    propagate,
    regress,
    sample_jump_exit_times,
    sample_set_exit_times,
)

import numpy as np


def main():
    pot = benchmark_potential()
    dyn = SdeConfig(potential=pot, sigma=0.8, dt=0.001)
    grid = RegularGrid(50, 50, pot.domain)
    gen = build_sqrt_generator(pot, grid, 1.0)

    chi = mc_hitting_membership(dyn, (0.2, 0.3, 0.4, 0.5), n_traj=60,
                                max_steps=80, seed=0)
    print("sampling the membership on the grid (60 trajectories per "
          "cell)...")
    field = chi.evaluate_batch(grid.centers, workers=4)

    threshold = 0.22
    mask = field > threshold
    cells = np.nonzero(mask)[0]
    print("S = {chi > %.2f} has %d cells" % (threshold, cells.size))

    # exit times from starts spread across the chi range
    order = cells[np.argsort(field[cells], kind="stable")]
    picks = order[np.linspace(0, order.size - 1, 12).astype(int)]
    print("\n  chi(start)   mean exit time [sde units]   censored")
    stats = sample_set_exit_times(dyn, gen, mask, grid.centers[picks],
                                  n_traj=25, horizon_steps=4000, seed=0)
    means = stats.mean_exit_time()
    for cell, mean, censored in zip(picks, means, stats.censoring_fraction):
        print("     %.3f            %8.3f              %3.0f%%"
              % (field[cell], mean, 100 * censored))
    corr = np.corrcoef(field[picks], means)[0, 1]
    print("correlation between chi and mean exit time: %.3f" % corr)

    # rate comparison on the operator clock
    deep = int(cells[np.argmax(field[cells])])
    times, censored = sample_jump_exit_times(gen, mask, deep, n_traj=800,
                                             horizon_time=4000.0, seed=0)
    set_rate = fit_survival_rate(times, censored)
    fit = regress(field, propagate(gen, np.clip(field, 0, 1), 100.0),
                  "least_squares")
    eps1 = gammas_to_rate(fit, 100.0).eps1
    print("\njump-process exit rate from S:   %.5f" % set_rate)
    print("chi-exit rate of the membership: %.5f" % eps1)
    print("ratio %.2f: the set-based rate overestimates, since the crisp "
          "boundary ignores re-entries, but both sit within a small "
          "factor" % (set_rate / eps1))


if __name__ == "__main__":
    main()
