"""The benchmark's workloads and the checks on their outputs.

Every workload runs real ``chi-exit`` subcommands with ``--workers 1``
and the benchmark seed.  A check returns the problems it found (empty
when the outputs are right) and the figures worth printing.
"""

import csv
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: 70 x 70 = 4,900 cells is above ``spectral.DENSE_LIMIT`` (4,096), so the
#: iterative eigensolver and the ODE propagator run.  The weight threshold
#: scales with the cell count so that ``find_weight_cores`` still finds
#: exactly two cores (at 0.0025 it finds none and idea3 exits with 3).
LARGE_CONFIG = (
    "grid.nx = 70\n"
    "grid.ny = 70\n"
    "membership.core_weight_threshold = %r\n" % (0.0025 * 2500 / 4900)
)


def read_csv(path) -> Tuple[List[str], List[Dict[str, str]]]:
    """Comment lines (without '# ') and data rows of a CLI output CSV."""
    comments, lines = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line[1:].strip())
            else:
                lines.append(line)
    return comments, list(csv.DictReader(lines))


def _report(out) -> Dict[str, str]:
    return read_csv(os.path.join(out, "report.csv"))[1][0]


def _summary(out) -> Dict[str, str]:
    rows = read_csv(os.path.join(out, "summary.csv"))[1]
    return {row["quantity"]: row["value"] for row in rows}


def _printed(stdout: str, key: str) -> float:
    match = re.search(r"\b%s=(\S+)" % re.escape(key), stdout)
    if match is None:
        raise KeyError("%s not printed" % key)
    return float(match.group(1))


def _near(problems, label, value, ref, tol):
    if not abs(value - ref) < tol:
        problems.append("%s=%r, expected %r +- %r" % (label, value, ref, tol))


# Golden values of the 50 x 50 acceptance criteria 01, 02, 03 and 08 with
# their absolute tolerances.
_GOLDEN_50 = {
    "idea1.eps_bar": (0.0086, 0.0005),
    "idea1.pi_chi": (0.1965, 0.005),
    "idea1.eps1": (0.0069, 0.0004),
    "idea1.eps2": (0.0017, 0.0002),
    "idea2.lambda2": (0.0025, 0.0003),
    "idea2.weight": (0.4452, 0.01),
    "idea2.eps1": (0.0014, 0.0003),
    "idea3.gamma1": (0.8201, 0.01),
    "idea3.eps1": (0.0010, 0.0002),
    "compare-mht.t1_at_threshold": (31.88, 2.0),
}
# The 70 x 70 values of commit 8613437, each with the relative tolerance
# of its 50 x 50 criterion.
_VALUES_70 = {
    "idea1.eps_bar": 0.004513138781,
    "idea1.pi_chi": 0.1964269687,
    "idea1.eps1": 0.003626636611,
    "idea1.eps2": 0.0008865021701,
    "idea2.lambda2": 0.001310126191,
    "idea2.weight": 0.4465881586,
    "idea2.eps1": 0.0007608672303,
    "idea3.gamma1": 0.9178897005,
    "idea3.eps1": 0.0004283902377,
    "compare-mht.t1_at_threshold": 60.66226744,
}
GOLDEN = {
    50: _GOLDEN_50,
    70: {key: (value, value * _GOLDEN_50[key][1] / _GOLDEN_50[key][0])
         for key, value in _VALUES_70.items()},
}


def _grid_figures(command: str, out: str, stdout: str) -> Dict[str, float]:
    """The golden-checked figures of one grid subcommand's outputs."""
    if command == "idea1":
        rep = _report(out)
        return {"eps_bar": float(rep["alpha"]), "pi_chi": float(rep["pi_chi"]),
                "eps1": float(rep["eps1"]), "eps2": float(rep["eps2"])}
    if command == "idea2":
        comments, _ = read_csv(os.path.join(out, "chi.csv"))
        meta = dict(c.split(",", 1) for c in comments if "," in c)
        weights = [float(w) for w in meta["weights"].split(",")]
        return {"lambda2": _printed(stdout, "lambda2"),
                "weight": weights[int(meta["selected_cluster"]) - 1],
                "eps1": float(_report(out)["eps1"])}
    if command == "idea3":
        rep = _report(out)
        return {"gamma1": float(rep["gamma1"]), "eps1": float(rep["eps1"])}
    summary = _summary(out)
    return {"t1_at_threshold": float(summary["t1_at_threshold"]),
            "pearson_high_chi": float(summary["pearson_high_chi"])}


def _check_grid(size):
    def check(command, out, stdout):
        figures = _grid_figures(command, out, stdout)
        problems = []
        for key, value in figures.items():
            golden = GOLDEN[size].get("%s.%s" % (command, key))
            if golden is not None:
                _near(problems, key, value, *golden)
        if command == "compare-mht" and not figures["pearson_high_chi"] > 0.95:
            problems.append("pearson_high_chi=%r, expected > 0.95"
                            % figures["pearson_high_chi"])
        return problems, figures
    return check


def _check_idea4(command, out, stdout):
    problems = []
    _, rows = read_csv(os.path.join(out, "scatter.csv"))
    if len(rows) != 50:
        problems.append("scatter.csv has %d rows, expected 50" % len(rows))
    for col in ("chi", "ptau_chi"):
        vals = [float(r[col]) for r in rows]
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals):
            problems.append("%s leaves [0, 1] or is not finite" % col)
    rep = _report(out)
    # criterion 04's eps1 window is a known failure owned by the tests;
    # the value is printed, never gated
    return problems, {"eps1": float(rep["eps1"]), "gamma1": float(rep["gamma1"])}


def _check_validate(command, out, stdout):
    summary = _summary(out)
    corr = float(summary["corr_chi_exit_time"])
    ratio = float(summary["rate_ratio"])
    problems = []
    if not corr > 0.8:
        problems.append("corr_chi_exit_time=%r, expected > 0.8" % corr)
    if not 1.0 / 3.0 < ratio < 3.0:
        problems.append("rate_ratio=%r, expected within a factor of 3" % ratio)
    return problems, {"corr_chi_exit_time": corr, "rate_ratio": ratio}


@dataclass(frozen=True)
class Workload:
    """Subcommands of one pass, their output check, and an optional config
    file text (defaults otherwise).  BENCHMARK.json says why each exists."""

    name: str
    commands: Tuple[str, ...]
    check: Callable
    config: Optional[str] = None


WORKLOADS = {
    w.name: w for w in (
        Workload("grid-routes", ("idea1", "idea2", "idea3", "compare-mht"),
                 _check_grid(50)),
        Workload("grid-large", ("idea1", "idea2", "idea3", "compare-mht"),
                 _check_grid(70), LARGE_CONFIG),
        Workload("mc-idea4", ("idea4",), _check_idea4),
        Workload("exit-validate", ("validate",), _check_validate),
    )
}
