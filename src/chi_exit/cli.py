"""Experiment runner: config parsing, pipelines, CSV emission.

Subcommands reproduce the four rate-computation routes on the benchmark
system (idea1..idea4), the holding-time comparison (compare-mht), the
exit-time validation study (validate), and raw dumps of the generator,
eigenpairs, and memberships.  Configs are flat ``key = value`` text with
dotted sections; every default equals the benchmark parameter.  All
outputs are CSV files carrying a comment row with the config hash and
seed, and every run is byte-deterministic for a fixed config and seed,
independent of the worker count.

Exit codes: 0 success, 2 config error, 3 numerical failure or an output
that cannot be written (the failing stage is named on standard error).
"""

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .grid_generator import RegularGrid, build_sqrt_generator
from .membership import (
    committor,
    find_weight_cores,
    mc_hitting_membership,
    pcca_multi,
    pcca_single,
)
from .potential import potential_by_name
from .rates import (
    chi_mean_holding_time,
    fit_survival_rate,
    gammas_to_rate,
    rate_from_eigenpair,
    regress,
    regress_generator_action,
    set_mean_holding_time,
)
from .sde import (
    SdeConfig,
    estimate_ptau_chi,
    sample_jump_exit_times,
    sample_set_exit_times,
    uniform_points,
)
from .spectral import eigensolve, propagate

#: Every known key with its benchmark default.
DEFAULTS = {
    "potential": "paper2d",
    "kbt": 1.0,
    "grid.nx": 50,
    "grid.ny": 50,
    "sde.sigma": 0.8,
    "sde.dt": 0.001,
    "eigen.k": 3,
    "membership.kind": "pcca_single",
    "membership.eigen_index": 3,
    "membership.n_clusters": 3,
    "membership.core_weight_threshold": 0.0025,
    "membership.core_box": [0.2, 0.3, 0.4, 0.5],
    "membership.n_traj": 100,
    "membership.max_steps": 100,
    "rates.norm": "ls",
    "rates.tau": 100.0,
    "idea4.n_points": 50,
    "idea4.n_traj": 100,
    "idea4.steps": 50,
    "compare.threshold": 0.22,
    "validate.threshold": 0.22,
    "validate.n_starts": 40,
    "validate.n_traj": 40,
    "validate.horizon_steps": 4000,
    "validate.jump_n_traj": 800,
    "validate.jump_horizon": 4000.0,
    "seed": 0,
    "output_dir": "out",
    "workers": 1,
}


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


class StageError(Exception):
    """A pipeline stage failed; maps to exit code 3."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__("stage %s: %s" % (stage, cause))
        self.stage = stage
        self.cause = cause


def _parse_scalar(text: str):
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_value(text: str):
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part.strip()) for part in inner.split(",")]
    return _parse_scalar(text)


def parse_config_text(text: str) -> Dict[str, object]:
    """Parse flat ``key = value`` lines; # starts a comment."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config line %d: expected key = value" % lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in data:
            raise ConfigError("config line %d: duplicate key %r" % (lineno, key))
        data[key] = _parse_value(value)
    return data


def _finite(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("key %s expects a number" % key)
    if not math.isfinite(value):
        raise ConfigError("key %s expects a finite number" % key)
    return float(value)


def _coerce(key: str, value, default):
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError("key %s expects true/false" % key)
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError("key %s expects an integer" % key)
        return value
    if isinstance(default, float):
        return _finite(key, value)
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError("key %s expects a list like [a, b, c]" % key)
        return [_finite(key, v) for v in value]
    if not isinstance(value, str):
        raise ConfigError("key %s expects a string" % key)
    return value


@dataclass
class ExperimentConfig:
    """Effective configuration of one subcommand run."""

    experiment: str
    values: Dict[str, object]
    dynamics: SdeConfig
    grid: RegularGrid

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def seed(self) -> int:
        return self.values["seed"]

    @property
    def workers(self) -> int:
        return self.values["workers"]

    @property
    def output_dir(self) -> str:
        return self.values["output_dir"]

    def config_hash(self) -> str:
        # workers and output_dir must not influence results
        parts = []
        for key in sorted(self.values):
            if key in ("workers", "output_dir"):
                continue
            value = self.values[key]
            if isinstance(value, float):
                text = repr(value)
            elif isinstance(value, list):
                text = "[" + ",".join(repr(float(v)) for v in value) + "]"
            else:
                text = str(value)
            parts.append("%s=%s" % (key, text))
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        return digest[:16]


def load_config(experiment: str, path: Optional[str], overrides: Dict[str, object]
                ) -> ExperimentConfig:
    """Merge defaults, an optional config file, and CLI overrides.  For
    every subcommand, a core_box without four entries, a rates.norm other
    than ls or lad, rates.tau <= 0, idea4.steps < 1, idea4.n_points < 2,
    validate.n_starts < 2, kbt <= 0, a seed outside [0, 2^64), a
    potential, sde.sigma or sde.dt that ``SdeConfig`` rejects, or a
    grid.nx or grid.ny that ``RegularGrid`` rejects is a ConfigError."""
    values = dict(DEFAULTS)
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError("config file not found: %s" % path)
        with open(path) as fh:
            parsed = parse_config_text(fh.read())
        for key, value in parsed.items():
            if key == "experiment":
                if str(value) != experiment:
                    raise ConfigError(
                        "config is for experiment %r, not %r" % (value, experiment)
                    )
                continue
            if key not in DEFAULTS:
                raise ConfigError("unknown config key %r" % key)
            values[key] = _coerce(key, value, DEFAULTS[key])
    for key, value in overrides.items():
        if value is not None:
            values[key] = _coerce(key, value, DEFAULTS[key])
    if len(values["membership.core_box"]) != 4:
        raise ConfigError("membership.core_box expects [x1min,x1max,x2min,x2max]")
    if values["rates.norm"] not in ("ls", "lad"):
        raise ConfigError("rates.norm must be ls or lad")
    if values["rates.tau"] <= 0:
        raise ConfigError("rates.tau must be positive (no decay at tau=0)")
    if values["idea4.steps"] < 1:
        raise ConfigError("idea4.steps must be >= 1")
    if values["idea4.n_points"] < 2:
        raise ConfigError("idea4.n_points must be >= 2 for a regression")
    if values["validate.n_starts"] < 2:
        raise ConfigError("validate.n_starts must be >= 2 for a correlation")
    if values["kbt"] <= 0:
        raise ConfigError("kbt must be positive")
    if not 0 <= values["seed"] < 2 ** 64:
        raise ConfigError("seed must be an integer in [0, 2^64)")
    try:
        dynamics = SdeConfig(potential_by_name(values["potential"]),
                             values["sde.sigma"], values["sde.dt"])
        grid = RegularGrid(values["grid.nx"], values["grid.ny"],
                           dynamics.potential.domain)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return ExperimentConfig(experiment, values, dynamics, grid)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


#: Rows formatted and written at a time, so no whole-file text is held.
_BLOCK_ROWS = 512


def _column_text(col) -> List[str]:
    """``_fmt`` of each value; a numeric array in one pass, as ``tolist``
    yields the float or int that ``_fmt`` converts each value to."""
    if isinstance(col, np.ndarray):
        if col.dtype == bool:
            col = col.astype(np.uint8)
        if col.dtype.kind == "f":
            return list(map(repr, col.tolist()))
        if col.dtype.kind in "iu":
            return list(map(str, col.tolist()))
    return [_fmt(v) for v in col]


def _write_csv(cfg: ExperimentConfig, name: str, header: List[str], columns,
               comments: List[str] = ()) -> str:
    """Write one sequence per column under a comment row with the config
    hash and seed; an OS error is the failure of stage ``write``."""
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError("columns of %s differ in length" % name)
    path = os.path.join(cfg.output_dir, name)
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        with open(path, "w") as fh:
            first = "config=%s seed=%d" % (cfg.config_hash(), cfg.seed)
            fh.writelines("# %s\n" % c for c in [first, *comments])
            fh.write(",".join(header) + "\n")
            for lo in range(0, n, _BLOCK_ROWS):
                cells = [_column_text(col[lo:lo + _BLOCK_ROWS])
                         for col in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    except OSError as err:
        raise StageError("write", err) from err
    return path


_REPORT_HEADER = [
    "provenance", "alpha", "beta", "eps1", "eps2", "pi_chi", "meaningful",
    "tau", "residual_norm", "n_points", "norm_kind", "note",
    "gamma1", "gamma2",
]


def _write_report(cfg: ExperimentConfig, report, reg=None) -> str:
    """The report's fields, then the fit's gammas (empty without a fit)."""
    values = [getattr(report, key) for key in _REPORT_HEADER[:-2]]
    values += [getattr(reg, key, None) for key in _REPORT_HEADER[-2:]]
    return _write_csv(cfg, "report.csv", _REPORT_HEADER,
                      [[v] for v in values])


def _write_summary(cfg: ExperimentConfig, summary: Dict[str, object]) -> str:
    return _write_csv(cfg, "summary.csv", ["quantity", "value"],
                      [list(summary), list(summary.values())])


def _write_cells(cfg: ExperimentConfig, name: str, header: List[str], columns,
                 comments: List[str] = ()) -> str:
    """A per-cell table of the run's grid: cell, x1 and x2 of the cell
    center, then columns."""
    centers = cfg.grid.centers
    return _write_csv(cfg, name, ["cell", "x1", "x2"] + header,
                      [np.arange(cfg.grid.n), centers[:, 0], centers[:, 1]]
                      + list(columns), comments)


def _write_eigen(cfg: ExperimentConfig, eig) -> str:
    comments = ["eigenvalue,%d,%s" % (i + 1, repr(float(v)))
                for i, v in enumerate(eig.eigenvalues)]
    header = ["f%d" % (i + 1) for i in range(eig.count)]
    return _write_cells(cfg, "eigen.csv", header, eig.eigenvectors.T, comments)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ConfigError, StageError):
        raise
    except Exception as err:
        raise StageError(name, err) from err


def _generator(cfg: ExperimentConfig):
    return _stage("generator", build_sqrt_generator, cfg.dynamics.potential,
                  cfg.grid, cfg["kbt"])


def _spectral_setup(cfg: ExperimentConfig, k: int):
    gen = _generator(cfg)
    return gen, _stage("eigensolve", eigensolve, gen, k)


def _idea1_membership(cfg: ExperimentConfig):
    which = cfg["membership.eigen_index"]
    gen, eig = _spectral_setup(cfg, max(3, which))
    return gen, eig, _stage("pcca_single", pcca_single, eig, which)


def _idea1_rate(cfg: ExperimentConfig):
    """The idea1 membership and the rate of its eigenpair."""
    gen, eig, chi = _idea1_membership(cfg)
    return gen, eig, chi, _stage(
        "rates", rate_from_eigenpair,
        chi.meta["eps_bar"], chi.meta["beta_bar"], "idea1")


def _region(values, threshold: float):
    """The cells with chi > threshold; an empty set fails stage region."""
    mask = values > threshold
    if not mask.any():
        raise StageError("region", ValueError(
            "no cells with chi > %g; empty set rejected" % threshold))
    return mask


def _fit_rate(reg, tau: float, provenance: str):
    """The rate of a lag fit; a fit without one prints its note on stderr."""
    report = _stage("rates", gammas_to_rate, reg, tau, provenance)
    if report.note:
        print("%s: %s" % (provenance, report.note), file=sys.stderr)
    return report


def _correlation(cfg: ExperimentConfig, quantity: str, a, b):
    """The Pearson correlation of ``a`` and ``b``, and a note.  When a side
    has fewer than two distinct values it is NaN, and the note, naming
    ``quantity``, is printed on stderr; otherwise the note is empty."""
    if min(np.unique(a).size, np.unique(b).size) < 2:
        note = ("%s undefined: a side has fewer than two distinct values"
                % quantity)
        print("%s: %s" % (cfg.experiment, note), file=sys.stderr)
        return float("nan"), note
    return float(np.corrcoef(a, b)[0, 1]), ""


def _lag_rate(cfg: ExperimentConfig, gen, values, provenance: str):
    """P^tau chi at tau = rates.tau, its fit against chi, and the rate."""
    tau = cfg["rates.tau"]
    ptau = _stage("propagate", propagate, gen, values, tau)
    reg = _stage("regress", regress, values, ptau, cfg["rates.norm"])
    return ptau, reg, _fit_rate(reg, tau, provenance)


def run_idea1(cfg: ExperimentConfig) -> int:
    """Rate from a single eigenpair: eigensolve, pcca_single, eps1."""
    _, eig, chi, report = _idea1_rate(cfg)
    _write_cells(cfg, "chi.csv", ["chi"], [chi.values])
    _write_eigen(cfg, eig)
    _write_report(cfg, report)
    print(
        "idea1: eps_bar=%s pi_chi=%s eps1=%s eps2=%s meaningful=%d"
        % (repr(chi.meta["eps_bar"]), repr(report.pi_chi),
           repr(report.eps1), repr(report.eps2), int(report.meaningful))
    )
    return 0


def _select_cluster(chis):
    """The heaviest membership; among weights within 1e-9 of the largest,
    the one whose peak cell lies furthest left."""
    best = max(m.meta["weight"] for m in chis)
    tied = [m for m in chis if m.meta["weight"] >= best - 1e-9]
    return min(tied,
               key=lambda m: m.grid.centers[int(np.argmax(m.values)), 0])


def _pcca_clusters(cfg: ExperimentConfig):
    """PCCA+ memberships on the grid and the cluster selected for rates."""
    m = cfg["membership.n_clusters"]
    gen, eig = _spectral_setup(cfg, max(3, m))
    chis = _stage("pcca_multi", pcca_multi, eig, m)
    return gen, eig, chis, _select_cluster(chis)


def run_idea2(cfg: ExperimentConfig) -> int:
    """Rate by regressing the generator action of a PCCA+ membership."""
    gen, eig, chis, chi = _pcca_clusters(cfg)
    m = len(chis)
    report = _stage("rates", regress_generator_action, gen, chi,
                    cfg["rates.norm"])
    selected = chis.index(chi) + 1
    _write_cells(cfg, "chi.csv", ["chi%d" % (j + 1) for j in range(m)],
                 [c.values for c in chis],
                 ["selected_cluster,%d" % selected,
                  "weights," + ",".join(repr(c.meta["weight"]) for c in chis)])
    _write_report(cfg, report)
    print(
        "idea2: lambda2=%s weight=%s eps1=%s meaningful=%d"
        % (repr(float(eig.eigenvalues[1])), repr(chi.meta["weight"]),
           repr(report.eps1), int(report.meaningful))
    )
    return 0


def _committor(cfg: ExperimentConfig):
    """The committor between the two weight cores; needs no eigenpairs."""
    gen = _generator(cfg)
    left, right = _stage("find_weight_cores", find_weight_cores, gen,
                         cfg["membership.core_weight_threshold"])
    chi = _stage("committor", committor, gen, left, right)
    return gen, left, right, chi


def run_idea3(cfg: ExperimentConfig) -> int:
    """Rate from the committor: propagate, regress, invert the gammas."""
    gen, left, right, chi = _committor(cfg)
    ptau, reg, report = _lag_rate(cfg, gen, chi.values, "idea3")
    _write_cells(cfg, "scatter.csv", ["chi", "ptau_chi"], [chi.values, ptau],
                 ["cores,left=%d,right=%d" % (left.size, right.size)])
    _write_report(cfg, report, reg)
    print(
        "idea3: gamma1=%s gamma2=%s eps1=%s meaningful=%d"
        % (repr(reg.gamma1), repr(reg.gamma2), repr(report.eps1),
           int(report.meaningful))
    )
    return 0


def _mc_membership(cfg: ExperimentConfig, n_traj: int):
    """The Monte Carlo core-hitting membership of the configured dynamics,
    with ``n_traj`` paths per point."""
    return _stage(
        "mc_membership", mc_hitting_membership, cfg.dynamics,
        tuple(cfg["membership.core_box"]),
        n_traj, cfg["membership.max_steps"], cfg.seed,
    )


def _mc_field(cfg: ExperimentConfig):
    """The Monte Carlo membership at the cell centers of the run's grid."""
    chi = _mc_membership(cfg, cfg["membership.n_traj"])
    return _stage("chi_field", chi.evaluate_batch, cfg.grid.centers,
                  cfg.workers)


def run_idea4(cfg: ExperimentConfig) -> int:
    """Rate from short-time simulations only: MC chi and MC P^tau chi."""
    chi = _mc_membership(cfg, cfg["idea4.n_traj"])
    pts = _stage("sample_points", uniform_points, cfg["idea4.n_points"],
                 cfg.dynamics.potential.domain, cfg.seed)
    # chi(x) and P^tau chi(x) off one set of chi's paths per point
    xs, ys = _stage("ptau_estimates", estimate_ptau_chi, chi, pts,
                    cfg["idea4.steps"], cfg.workers)
    _write_csv(cfg, "scatter.csv", ["point", "x1", "x2", "chi", "ptau_chi"],
               [np.arange(len(pts)), pts[:, 0], pts[:, 1], xs, ys])
    reg = _stage("regress", regress, xs, ys, cfg["rates.norm"])
    report = _fit_rate(reg, cfg["idea4.steps"] * cfg.dynamics.dt, "idea4")
    _write_report(cfg, report, reg)
    cost = chi.meta["n_traj"] * (cfg["idea4.steps"]
                                 + chi.meta["max_steps"])
    print(
        "idea4: gamma1=%s gamma2=%s eps1=%s meaningful=%d "
        "per_point_step_budget=%d"
        % (repr(reg.gamma1), repr(reg.gamma2), repr(report.eps1),
           int(report.meaningful), cost)
    )
    return 0


def run_compare_mht(cfg: ExperimentConfig) -> int:
    """Set-based versus fuzzy mean holding times on one grid."""
    gen, eig, chi, report = _idea1_rate(cfg)
    threshold = cfg["compare.threshold"]
    mask = _region(chi.values, threshold)
    t_set = _stage("set_mean_holding_time", set_mean_holding_time, gen, mask)
    t_fuzzy = _stage("chi_mean_holding_time", chi_mean_holding_time,
                     report, chi.values)
    _write_cells(cfg, "mht.csv", ["chi", "in_region", "t1", "t"],
                 [chi.values, mask, t_fuzzy, t_set])
    high = chi.values > 0.4
    pearson, _ = _correlation(cfg, "pearson_high_chi", t_set[high],
                              t_fuzzy[high])
    median_diff = float(np.median(t_set[mask] - t_fuzzy[mask]))
    _write_summary(cfg, {
        "threshold": threshold,
        "eps1": report.eps1,
        "t1_at_threshold": threshold / report.eps1,
        "n_region": int(mask.sum()),
        "pearson_high_chi": pearson,
        "median_t_minus_t1_inside": median_diff,
    })
    print(
        "compare-mht: t1_at_threshold=%s pearson_high_chi=%s n_region=%d"
        % (repr(threshold / report.eps1), repr(pearson), int(mask.sum()))
    )
    return 0


def run_validate(cfg: ExperimentConfig) -> int:
    """Exit-time validation of the sampled membership.

    Realizes the idea-4 membership on the grid, samples diffusion exit
    times from S = {chi > threshold} for the (chi, mean exit time)
    correlation, and fits the exit rate of the generator's jump process
    from the deepest cell of S, reported beside the grid-propagation
    exit rate of the same membership (both live on the generator clock).
    """
    gen = _generator(cfg)
    field = _mc_field(cfg)
    threshold = cfg["validate.threshold"]
    mask = _region(field, threshold)

    # spread starting cells evenly over the chi range inside S
    cells = np.nonzero(mask)[0]
    order = cells[np.argsort(field[cells], kind="stable")]
    n_starts = min(cfg["validate.n_starts"], order.size)
    picks = order[np.linspace(0, order.size - 1, n_starts).astype(int)]

    starts = cfg.grid.centers[picks]
    stats = _stage("exit_times", sample_set_exit_times, cfg.dynamics, gen,
                   mask, starts, cfg["validate.n_traj"],
                   cfg["validate.horizon_steps"], cfg.seed)
    means = stats.mean_exit_time()
    _write_csv(cfg, "exit_times.csv",
               ["cell", "x1", "x2", "chi", "mean_exit_time",
                "censoring_fraction"],
               [picks, starts[:, 0], starts[:, 1], field[picks], means,
                stats.censoring_fraction])
    corr, corr_note = _correlation(cfg, "corr_chi_exit_time", field[picks],
                                   means)

    # exit rate of the jump process from the deepest cell, generator clock
    deep = int(cells[np.argmax(field[cells])])
    times, censored = _stage(
        "jump_exit_times", sample_jump_exit_times, gen, mask, deep,
        cfg["validate.jump_n_traj"], cfg["validate.jump_horizon"], cfg.seed,
    )
    censor_frac = float(censored.mean())
    notes = [corr_note] if corr_note else []
    # the survival curve has a point per exit but the last when none is
    # censored, where the survival fraction reaches zero
    if np.count_nonzero(~censored) - (not censored.any()) < 2:
        set_rate = float("nan")
        notes.append("survival curve has fewer than two points; "
                     "no rate fitted")
        print("validate: %s" % notes[-1], file=sys.stderr)
    else:
        set_rate = _stage("survival_fit", fit_survival_rate, times, censored)

    # reference eps1 of the same membership on the same clock
    _, reg, report = _lag_rate(cfg, gen, field, "validate")
    ratio = set_rate / report.eps1 if np.isfinite(set_rate) else float("nan")
    _write_summary(cfg, {
        "threshold": threshold,
        "n_region": int(mask.sum()),
        "corr_chi_exit_time": corr,
        "set_exit_rate": set_rate,
        "eps1_grid": report.eps1,
        "rate_ratio": ratio,
        "jump_censoring_fraction": censor_frac,
        "note": "; ".join(notes),
    })
    _write_report(cfg, report, reg)
    print(
        "validate: corr=%s set_rate=%s eps1_grid=%s ratio=%s"
        % (repr(corr), repr(set_rate), repr(report.eps1), repr(ratio))
    )
    return 0


def run_dump_generator(cfg: ExperimentConfig) -> int:
    """Write the generator matrix as (i, j, value) triplets."""
    gen = _generator(cfg)
    mat = gen.rates.tocoo()
    order = np.lexsort((mat.col, mat.row))  # (i, j) pairs are unique
    _write_csv(cfg, "generator.csv", ["i", "j", "value"],
               [mat.row[order], mat.col[order], mat.data[order]])
    print("dump-generator: %d cells, %d entries" % (gen.n, order.size))
    return 0


def run_dump_eigen(cfg: ExperimentConfig) -> int:
    """Write the k smallest eigenpairs of the generator."""
    k = cfg["eigen.k"]
    _, eig = _spectral_setup(cfg, k)
    _write_eigen(cfg, eig)
    print("dump-eigen: k=%d eigenvalues=%s"
          % (k, ",".join(repr(float(v)) for v in eig.eigenvalues)))
    return 0


def run_dump_chi(cfg: ExperimentConfig) -> int:
    """Write a membership of the configured kind on the grid."""
    kind = cfg["membership.kind"]
    if kind == "pcca_single":
        values = _idea1_membership(cfg)[-1].values
    elif kind == "pcca_multi":
        values = _pcca_clusters(cfg)[-1].values
    elif kind == "committor":
        values = _committor(cfg)[-1].values
    elif kind == "mc":
        values = _mc_field(cfg)
    else:
        raise ConfigError(
            "membership.kind must be pcca_single, pcca_multi, committor, "
            "or mc (got %r)" % kind
        )
    _write_cells(cfg, "chi.csv", ["chi"], [values], ["kind,%s" % kind])
    print("dump-chi: kind=%s cells=%d" % (kind, cfg.grid.n))
    return 0


_COMMANDS = {
    "idea1": run_idea1,
    "idea2": run_idea2,
    "idea3": run_idea3,
    "idea4": run_idea4,
    "compare-mht": run_compare_mht,
    "validate": run_validate,
    "dump-generator": run_dump_generator,
    "dump-eigen": run_dump_eigen,
    "dump-chi": run_dump_chi,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chi-exit",
        description="Exit rates of rare events from fuzzy metastable sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=(fn.__doc__ or name).splitlines()[0])
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (never changes results)")
        p.add_argument("--norm", choices=("ls", "lad"), default=None,
                       help="regression norm")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(
            args.command, args.config,
            {
                "seed": args.seed,
                "output_dir": args.out,
                "workers": args.workers,
                "rates.norm": args.norm,
            },
        )
        return _COMMANDS[args.command](cfg)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    except StageError as err:
        print(str(err), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
