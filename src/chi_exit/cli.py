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
import re
import sys
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

import numpy as np

from .grid_generator import RegularGrid, build_sqrt_generator
from .membership import (
    Membership,
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


#: A line up to its first ``#`` outside quotes, or up to a quote left open.
_BEFORE_COMMENT = re.compile(r"""(?:[^#"']|"[^"]*"|'[^']*')*""")


def parse_config_text(text: str) -> Dict[str, object]:
    """Parse flat ``key = value`` lines; # outside quotes starts a comment,
    and a quote left open is a ConfigError."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _BEFORE_COMMENT.match(raw).group()
        if raw[len(line):len(line) + 1] in ("'", '"'):
            raise ConfigError("config line %d: unclosed quote" % lineno)
        if not line.strip():
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
    if isinstance(default, int):
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
    """One subcommand run's configuration, dynamics, grid and sampler."""

    experiment: str
    values: Dict[str, object]
    dynamics: SdeConfig
    grid: RegularGrid
    sampler: Membership

    def __getitem__(self, key: str):
        return self.values[key]

    def config_hash(self) -> str:
        # workers and output_dir must not influence results
        parts = []
        for key in sorted(self.values):
            if key in ("workers", "output_dir"):
                continue
            value = self.values[key]
            text = ("[%s]" % ",".join(map(_fmt, value))
                    if isinstance(value, list) else _fmt(value))
            parts.append("%s=%s" % (key, text))
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        return digest[:16]


def load_config(experiment: str, path: Optional[str], overrides: Dict[str, object]
                ) -> ExperimentConfig:
    """Merge defaults, an optional config file, and ``overrides`` (the
    flags by the keys they set; None is a flag not given), each file key
    and override checked alike.  A file that cannot be read as UTF-8 or
    is tagged for another experiment, an unknown key, a value without its
    default's type, and for every subcommand a core_box without four
    entries, a rates.norm other than ls or lad, rates.tau,
    validate.jump_horizon or kbt <= 0, a step, path or worker count below
    1, idea4.n_points, validate.n_starts, membership.eigen_index or
    membership.n_clusters < 2, a seed outside [0, 2^64), a potential,
    sde.sigma or sde.dt that ``SdeConfig`` rejects, a grid.nx or grid.ny
    that ``RegularGrid`` rejects, a core box that ``mc_hitting_membership``
    rejects, or a membership.kind not in ``_KINDS`` is a ConfigError."""
    given = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError("cannot read config file %s: %s" % (
                path, getattr(err, "strerror", None) or err)) from err
        given = parse_config_text(text)
    tag = given.pop("experiment", experiment)
    if str(tag) != experiment:
        raise ConfigError("config is for experiment %r, not %r"
                          % (tag, experiment))
    flags = [(k, v) for k, v in overrides.items() if v is not None]
    values = dict(DEFAULTS)
    for key, value in [*given.items(), *flags]:
        if key not in DEFAULTS:
            raise ConfigError("unknown config key %r" % key)
        values[key] = _coerce(key, value, DEFAULTS[key])
    if len(values["membership.core_box"]) != 4:
        raise ConfigError("membership.core_box expects [x1min,x1max,x2min,x2max]")
    if values["rates.norm"] not in ("ls", "lad"):
        raise ConfigError("rates.norm must be ls or lad")
    if values["membership.kind"] not in _KINDS:
        raise ConfigError("membership.kind must be %s, or %s (got %r)" % (
            ", ".join(list(_KINDS)[:-1]), list(_KINDS)[-1],
            values["membership.kind"]))
    if values["rates.tau"] <= 0:
        raise ConfigError("rates.tau must be positive (no decay at tau=0)")
    for key in ("eigen.k", "idea4.steps", "idea4.n_traj", "membership.n_traj",
                "membership.max_steps", "validate.n_traj",
                "validate.horizon_steps", "validate.jump_n_traj", "workers"):
        if values[key] < 1:
            raise ConfigError("%s must be >= 1" % key)
    if values["idea4.n_points"] < 2:
        raise ConfigError("idea4.n_points must be >= 2 for a regression")
    if values["validate.n_starts"] < 2:
        raise ConfigError("validate.n_starts must be >= 2 for a correlation")
    for key in ("membership.eigen_index", "membership.n_clusters"):
        if values[key] < 2:
            raise ConfigError("%s must be >= 2" % key)
    for key in ("validate.jump_horizon", "kbt"):
        if values[key] <= 0:
            raise ConfigError("%s must be positive" % key)
    if not 0 <= values["seed"] < 2 ** 64:
        raise ConfigError("seed must be an integer in [0, 2^64)")
    paths = "idea4.n_traj" if experiment == "idea4" else "membership.n_traj"
    try:
        dynamics = SdeConfig(potential_by_name(values["potential"]),
                             values["sde.sigma"], values["sde.dt"])
        grid = RegularGrid(values["grid.nx"], values["grid.ny"],
                           dynamics.potential.domain)
        sampler = mc_hitting_membership(
            dynamics, values["membership.core_box"], values[paths],
            values["membership.max_steps"], values["seed"])
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return ExperimentConfig(experiment, values, dynamics, grid, sampler)


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


def _say(cfg: ExperimentConfig, **figures) -> None:
    """Print the run's summary line, each figure as ``_fmt`` writes it."""
    print("%s: %s" % (cfg.experiment, " ".join(
        "%s=%s" % (key, _fmt(value)) for key, value in figures.items())))


#: Rows formatted and written at a time, so no whole-file text is held.
_BLOCK_ROWS = 512


def _csv_field(text: str) -> str:
    """``text`` as one CSV field (RFC 4180): quoted, its quotes doubled,
    when it holds a comma, a quote, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"%s"' % text.replace('"', '""')
    return text


def _column_text(col) -> List[str]:
    """``_fmt`` of each value as a CSV field; a numeric array in one pass,
    as ``tolist`` yields the float or int that ``_fmt`` converts each value
    to (a number's text needs no quotes).  A ``str`` array is text this
    function made, and passes through."""
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "U":
            return col.tolist()
        if col.dtype == bool:
            col = col.astype(np.uint8)
        if col.dtype.kind == "f":
            return list(map(repr, col.tolist()))
        if col.dtype.kind in "iu":
            return list(map(str, col.tolist()))
    return [_csv_field(_fmt(v)) for v in col]


def _write_csv(cfg: ExperimentConfig, name: str, header: List[str], columns,
               comments: List[str] = ()) -> str:
    """Write one sequence per column under a comment row with the config
    hash and seed; an OS error is the failure of stage ``write``."""
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError("columns of %s differ in length" % name)
    path = os.path.join(cfg["output_dir"], name)
    try:
        os.makedirs(cfg["output_dir"], exist_ok=True)
        with open(path, "w") as fh:
            first = "config=%s seed=%d" % (cfg.config_hash(), cfg["seed"])
            fh.writelines("# %s\n" % c for c in [first, *comments])
            fh.write(",".join(header) + "\n")
            for lo in range(0, n, _BLOCK_ROWS):
                cells = [_column_text(col[lo:lo + _BLOCK_ROWS])
                         for col in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    except OSError as err:
        raise StageError("write", err) from err
    return path


def _write_report(cfg: ExperimentConfig, report, reg=None) -> str:
    """One row: the subcommand as provenance, ``ExitRateReport``'s fields
    in order, then the fit's gamma1 and gamma2 (empty without a fit)."""
    keys = [f.name for f in fields(report)] + ["gamma1", "gamma2"]
    values = [getattr(report, key, getattr(reg, key, None)) for key in keys]
    return _write_csv(cfg, "report.csv", ["provenance", *keys],
                      [[v] for v in [cfg.experiment, *values]])


def _write_summary(cfg: ExperimentConfig, summary: Dict[str, object]) -> str:
    return _write_csv(cfg, "summary.csv", ["quantity", "value"],
                      [list(summary), list(summary.values())])


def _write_cells(cfg: ExperimentConfig, name: str, header: List[str], columns,
                 comments: List[str] = ()) -> str:
    """A per-cell table of the run's grid: cell, x1 and x2 of the cell
    center, then columns.  Each axis's centers are formatted once and laid
    out in the row-major order of ``RegularGrid.centers``."""
    grid = cfg.grid
    c1, c2 = (np.array(_column_text(c)) for c in grid.axis_centers)
    return _write_csv(cfg, name, ["cell", "x1", "x2"] + header,
                      [np.arange(grid.n), np.repeat(c1, grid.ny),
                       np.tile(c2, grid.nx)] + list(columns), comments)


def _write_eigen(cfg: ExperimentConfig, eig) -> str:
    comments = ["eigenvalue,%d,%s" % (i + 1, _fmt(v))
                for i, v in enumerate(eig.eigenvalues)]
    header = ["f%d" % (i + 1) for i in range(eig.count)]
    return _write_cells(cfg, "eigen.csv", header, eig.eigenvectors.T, comments)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
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
    return gen, eig, chi, _stage("rates", rate_from_eigenpair,
                                 chi.meta["eps_bar"], chi.meta["beta_bar"])


def _region(values, threshold: float):
    """The cells with chi > threshold; an empty set fails stage region."""
    mask = values > threshold
    if not mask.any():
        raise StageError("region", ValueError(
            "no cells with chi > %g; empty set rejected" % threshold))
    return mask


def _fit_rate(cfg: ExperimentConfig, reg, tau: float):
    """The rate of a lag fit; a fit without one prints its note on stderr."""
    report = _stage("rates", gammas_to_rate, reg, tau)
    if report.note:
        print("%s: %s" % (cfg.experiment, report.note), file=sys.stderr)
    return report


#: Values whose spread is at most this share of their largest magnitude
#: differ only by roundoff, and count as one value.
_ROUNDOFF_SPREAD = 1e-12


def _correlation(cfg: ExperimentConfig, quantity: str, a, b):
    """The Pearson correlation of ``a`` and ``b``, and a note.  When a side
    has fewer than two distinct values (values that agree to within
    ``_ROUNDOFF_SPREAD`` count as one) it is NaN, and the note, naming
    ``quantity``, is printed on stderr; otherwise the note is empty."""
    if any(side.size < 2
           or np.ptp(side) <= _ROUNDOFF_SPREAD * np.max(np.abs(side))
           for side in (np.asarray(a), np.asarray(b))):
        note = ("%s undefined: a side has fewer than two distinct values"
                % quantity)
        print("%s: %s" % (cfg.experiment, note), file=sys.stderr)
        return float("nan"), note
    return float(np.corrcoef(a, b)[0, 1]), ""


def _lag_rate(cfg: ExperimentConfig, gen, values):
    """P^tau chi at tau = rates.tau, its fit against chi, and the rate."""
    tau = cfg["rates.tau"]
    ptau = _stage("propagate", propagate, gen, values, tau)
    reg = _stage("regress", regress, values, ptau, cfg["rates.norm"])
    return ptau, reg, _fit_rate(cfg, reg, tau)


def run_idea1(cfg: ExperimentConfig) -> int:
    """Rate from a single eigenpair: eigensolve, pcca_single, eps1."""
    _, eig, chi, report = _idea1_rate(cfg)
    _write_cells(cfg, "chi.csv", ["chi"], [chi.values])
    _write_eigen(cfg, eig)
    _write_report(cfg, report)
    _say(cfg, eps_bar=chi.meta["eps_bar"], pi_chi=report.pi_chi,
         eps1=report.eps1, eps2=report.eps2, meaningful=report.meaningful)
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
                  "weights," + ",".join(_fmt(c.meta["weight"]) for c in chis)])
    _write_report(cfg, report)
    _say(cfg, lambda2=eig.eigenvalues[1], weight=chi.meta["weight"],
         eps1=report.eps1, meaningful=report.meaningful)
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
    ptau, reg, report = _lag_rate(cfg, gen, chi.values)
    _write_cells(cfg, "scatter.csv", ["chi", "ptau_chi"], [chi.values, ptau],
                 ["cores,left=%d,right=%d" % (left.size, right.size)])
    _write_report(cfg, report, reg)
    _say(cfg, gamma1=reg.gamma1, gamma2=reg.gamma2, eps1=report.eps1,
         meaningful=report.meaningful)
    return 0


def _mc_field(cfg: ExperimentConfig):
    """The run's core-hitting membership at the cell centers of its grid."""
    return _stage("chi_field", cfg.sampler.evaluate_batch, cfg.grid.centers,
                  cfg["workers"])


def run_idea4(cfg: ExperimentConfig) -> int:
    """Rate from short-time simulations only: MC chi and MC P^tau chi."""
    chi = cfg.sampler
    pts = _stage("sample_points", uniform_points, cfg["idea4.n_points"],
                 cfg.dynamics.potential.domain, cfg["seed"])
    # chi(x) and P^tau chi(x) off one set of chi's paths per point
    xs, ys = _stage("ptau_estimates", estimate_ptau_chi, chi, pts,
                    cfg["idea4.steps"], cfg["workers"])
    _write_csv(cfg, "scatter.csv", ["point", "x1", "x2", "chi", "ptau_chi"],
               [np.arange(len(pts)), pts[:, 0], pts[:, 1], xs, ys])
    reg = _stage("regress", regress, xs, ys, cfg["rates.norm"])
    report = _fit_rate(cfg, reg, cfg["idea4.steps"] * cfg.dynamics.dt)
    _write_report(cfg, report, reg)
    cost = chi.meta["n_traj"] * (cfg["idea4.steps"] + chi.meta["max_steps"])
    _say(cfg, gamma1=reg.gamma1, gamma2=reg.gamma2, eps1=report.eps1,
         meaningful=report.meaningful, per_point_step_budget=cost)
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
    _say(cfg, t1_at_threshold=threshold / report.eps1,
         pearson_high_chi=pearson, n_region=mask.sum())
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
                   cfg["validate.horizon_steps"], cfg["seed"])
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
        cfg["validate.jump_n_traj"], cfg["validate.jump_horizon"], cfg["seed"],
    )
    censor_frac = float(censored.mean())
    notes = [corr_note] if corr_note else []
    set_rate = _stage("survival_fit", fit_survival_rate, times, censored)
    if np.isnan(set_rate):
        notes.append("no rate fitted: survival curve has fewer than two "
                     "points")
        print("validate: %s" % notes[-1], file=sys.stderr)

    # reference eps1 of the same membership on the same clock
    _, reg, report = _lag_rate(cfg, gen, field)
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
    _say(cfg, corr=corr, set_rate=set_rate, eps1_grid=report.eps1,
         ratio=ratio)
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
    _say(cfg, k=k, eigenvalues=",".join(map(_fmt, eig.eigenvalues)))
    return 0


#: Each membership.kind and the per-cell values dump-chi writes of it.
_KINDS = {
    "pcca_single": lambda cfg: _idea1_membership(cfg)[-1].values,
    "pcca_multi": lambda cfg: _pcca_clusters(cfg)[-1].values,
    "committor": lambda cfg: _committor(cfg)[-1].values,
    "mc": _mc_field,
}


def run_dump_chi(cfg: ExperimentConfig) -> int:
    """Write a membership of the configured kind on the grid."""
    kind = cfg["membership.kind"]
    _write_cells(cfg, "chi.csv", ["chi"], [_KINDS[kind](cfg)],
                 ["kind,%s" % kind])
    _say(cfg, kind=kind, cells=cfg.grid.n)
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
        epilog="commands:\n" + "\n".join(
            "  %-15s %s" % (name, (fn.__doc__ or name).splitlines()[0])
            for name, fn in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--out", dest="output_dir", metavar="OUT",
                        default=None, help="output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (never changes results)")
    parser.add_argument("--norm", dest="rates.norm", choices=("ls", "lad"),
                        default=None, help="regression norm")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.command, args.config,
                          {k: v for k, v in vars(args).items() if k in DEFAULTS})
        return _COMMANDS[args.command](cfg)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    except StageError as err:
        print(str(err), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
