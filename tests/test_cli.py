"""Config parsing, experiment orchestration, exit codes, CSV format."""

import csv
import re
from pathlib import Path

import numpy as np
import pytest

from chi_exit import cli, sde
from chi_exit.cli import (
    _BLOCK_ROWS,
    ConfigError,
    DEFAULTS,
    _fmt,
    _say,
    _select_cluster,
    _write_csv,
    _write_report,
    load_config,
    main,
    parse_config_text,
)
from chi_exit.grid_generator import RegularGrid
from chi_exit.membership import Membership, mc_hitting_membership
from chi_exit.rates import RegressionResult, rate_from_eigenpair
from chi_exit.sde import estimate_ptau_chi, uniform_points

SMALL = """
# small grid for fast runs
grid.nx = 16
grid.ny = 16
"""

#: A validate run of a few seconds.
VALIDATE_SMALL = """
grid.nx = 20
grid.ny = 20
membership.n_traj = 15
membership.max_steps = 25
validate.n_starts = 5
validate.n_traj = 6
validate.horizon_steps = 200
"""

#: An idea4 run of a fraction of a second.
IDEA4_SMALL = """
idea4.n_points = 6
membership.n_traj = 10
membership.max_steps = 15
idea4.n_traj = 8
"""


def _cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_text_values():
    data = parse_config_text(
        'a = 1\nb = 2.5\nc = true\nd = hello\ne = "quoted"\n'
        "f = [1, 2.5, 3]\n# comment\ng = 7 # trailing\n"
        'h = "runs#1"\ni = "a # b"  # note\nj = \'x#y\'\nk = []\n'
        "l = FALSE\n"
    )
    assert data == {
        "a": 1, "b": 2.5, "c": True, "d": "hello", "e": "quoted",
        "f": [1, 2.5, 3], "g": 7, "h": "runs#1", "i": "a # b", "j": "x#y",
        "k": [], "l": False,
    }


def test_parse_config_text_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")
    # a # inside a quote left open must not end the line quietly
    for text in ('a = 1\nb = "runs#1\n', "a = 1\nb = 'runs # 1\n"):
        with pytest.raises(ConfigError, match="config line 2: unclosed quote"):
            parse_config_text(text)


def test_a_hash_inside_quotes_is_part_of_the_value(tmp_path, capsys):
    # "runs#1" was cut to the text `"runs`, and the run wrote there
    out = tmp_path / "runs#1"
    cfg = _cfg(tmp_path, SMALL + 'output_dir = "%s"  # a comment\n' % out)
    assert main(["dump-generator", "--config", cfg]) == 0
    assert (out / "generator.csv").exists()
    cfg = _cfg(tmp_path, SMALL + 'output_dir = "%s\n' % out, "open.cfg")
    assert main(["dump-generator", "--config", cfg]) == 2
    assert "config error: config line 5: unclosed quote" in (
        capsys.readouterr().err)


def test_load_config_defaults_and_overrides(tmp_path):
    path = _cfg(tmp_path, "grid.nx = 30\nseed = 5\n")
    cfg = load_config("idea1", path, {"seed": 9, "output_dir": None,
                                      "workers": None, "rates.norm": None})
    assert cfg["grid.nx"] == 30
    assert cfg["grid.ny"] == DEFAULTS["grid.ny"]
    assert cfg["seed"] == 9  # CLI override beats the file
    assert cfg["rates.norm"] == "ls"


def test_load_config_rejects_unknown_key(tmp_path):
    path = _cfg(tmp_path, "grid.nz = 10\n")
    with pytest.raises(ConfigError, match="unknown"):
        load_config("idea1", path, {})


def test_load_config_type_checks(tmp_path):
    with pytest.raises(ConfigError):
        load_config("idea1", _cfg(tmp_path, "grid.nx = 2.5\n"), {})
    with pytest.raises(ConfigError):
        load_config("idea1", _cfg(tmp_path, "sde.sigma = hello\n"), {})
    with pytest.raises(ConfigError):
        load_config("idea1", _cfg(tmp_path, "membership.core_box = [1, 2]\n"),
                    {})
    with pytest.raises(ConfigError):
        load_config("idea1", _cfg(tmp_path, "sde.antithetic = true\n"), {})
    for text, message in (
            ("membership.core_box = 0.5\n", "expects a list like"),
            ("membership.core_box = []\n", "core_box expects"),
            ("potential = 3\n", "key potential expects a string")):
        with pytest.raises(ConfigError, match=message):
            load_config("idea1", _cfg(tmp_path, text), {})


@pytest.mark.parametrize("key,value", [("rates.tau", "nan"),
                                       ("rates.tau", "inf"),
                                       ("sde.sigma", "-inf"),
                                       ("membership.core_box", "[0, nan, 0, 1]")])
def test_load_config_rejects_nonfinite(tmp_path, key, value):
    cfg = _cfg(tmp_path, "%s = %s\n" % (key, value))
    with pytest.raises(ConfigError, match="key %s expects a finite number"
                       % key):
        load_config("idea3", cfg, {})


def test_load_config_experiment_tag(tmp_path):
    path = _cfg(tmp_path, "experiment = idea2\n")
    with pytest.raises(ConfigError, match="experiment"):
        load_config("idea1", path, {})
    assert load_config("idea2", path, {}).experiment == "idea2"


def test_default_config_hash_is_pinned():
    # the hash on every CSV's first row ties its numbers to their config,
    # so its bytes must not drift
    assert load_config("idea1", None, {}).config_hash() == "9d8ea8102753f5de"


def test_every_flag_names_the_key_it_overrides():
    parser = cli.build_parser()
    for command in cli._COMMANDS:
        dests = set(vars(parser.parse_args([command]))) - {"command", "config"}
        assert dests and dests <= set(DEFAULTS)


def test_help_names_every_command_with_its_description():
    text = cli.build_parser().format_help()
    for command, fn in cli._COMMANDS.items():
        line = r"^ +%s +%s$" % (re.escape(command),
                                re.escape(fn.__doc__.splitlines()[0]))
        assert re.search(line, text, re.MULTILINE), command


def test_a_flag_passes_the_checks_of_a_file_key(tmp_path):
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        load_config("idea1", None, {"workers": 0})
    with pytest.raises(ConfigError, match="key seed expects an integer"):
        load_config("idea1", None, {"seed": 1.5})
    with pytest.raises(ConfigError, match="unknown config key 'grid.nz'"):
        load_config("idea1", None, {"grid.nz": 10})
    # a flag beats the file, but the file's value is still checked
    with pytest.raises(ConfigError, match="key seed expects an integer"):
        load_config("idea1", _cfg(tmp_path, "seed = x\n"), {"seed": 3})


def test_config_hash_scope(tmp_path):
    base = load_config("idea1", None, {})
    moved = load_config("idea1", None, {"output_dir": "elsewhere",
                                        "workers": 8})
    reseeded = load_config("idea1", None, {"seed": 1})
    regridded = load_config("idea1", _cfg(tmp_path, "grid.nx = 30\n"), {})
    assert base.config_hash() == moved.config_hash()
    assert base.config_hash() != reseeded.config_hash()
    assert base.config_hash() != regridded.config_hash()


def _read_csv(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return comments, header, rows


def test_idea1_run_and_artifacts(tmp_path):
    cfg = _cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["idea1", "--config", cfg, "--out", str(out)]) == 0
    comments, header, rows = _read_csv(out / "report.csv")
    assert comments[0].startswith("# config=") and "seed=0" in comments[0]
    assert header[:6] == ["provenance", "alpha", "beta", "eps1", "eps2",
                          "pi_chi"]
    assert len(rows) == 1
    assert rows[0][0] == "idea1"
    assert float(rows[0][3]) > 0
    _, chi_header, chi_rows = _read_csv(out / "chi.csv")
    assert chi_header == ["cell", "x1", "x2", "chi"]
    assert len(chi_rows) == 16 * 16
    values = np.array([float(r[3]) for r in chi_rows])
    assert values.min() >= 0.0 and values.max() <= 1.0


@pytest.mark.parametrize("command,text", [
    ("idea1", SMALL),
    ("idea2", SMALL),
    ("idea3", SMALL + "membership.core_weight_threshold = 0.02\n"),
    ("idea4", IDEA4_SMALL),
    ("validate", VALIDATE_SMALL),
], ids=["idea1", "idea2", "idea3", "idea4", "validate"])
def test_report_names_its_route(tmp_path, command, text):
    # the CLI writes the subcommand as provenance, for every route alike;
    # idea2's report once named the function behind it, generator_action
    out = tmp_path / "out"
    assert main([command, "--config", _cfg(tmp_path, text), "--out",
                 str(out)]) == 0
    _, header, rows = _read_csv(out / "report.csv")
    assert header[0] == "provenance" and rows[0][0] == command


def test_idea3_run(tmp_path):
    # coarser cells carry more weight, so the core cut moves up
    cfg = _cfg(tmp_path, SMALL + "rates.tau = 40\n"
               "membership.core_weight_threshold = 0.02\n")
    out = tmp_path / "out3"
    assert main(["idea3", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = _read_csv(out / "scatter.csv")
    assert header == ["cell", "x1", "x2", "chi", "ptau_chi"]
    assert len(rows) == 16 * 16


def test_idea3_noise_dominated_fit_reports_no_rate(tmp_path, capsys,
                                                  monkeypatch):
    # gamma1 <= 0 leaves the rate undefined, as gamma1 >= 1 does: the run
    # exits 0 and writes a NaN report with a note
    def negative_slope(xs, ys, norm_kind):
        return RegressionResult(-0.2, 0.1, 0.0, len(xs), "least_squares")

    monkeypatch.setattr(cli, "regress", negative_slope)
    cfg = _cfg(tmp_path, SMALL + "rates.tau = 40\n"
               "membership.core_weight_threshold = 0.02\n")
    out = tmp_path / "out3"
    assert main(["idea3", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = _read_csv(out / "report.csv")
    row = dict(zip(header, rows[0]))
    assert row["eps1"] == "nan" and row["gamma1"] == "-0.2"
    assert row["note"] == "lag time too long / noise dominated"
    assert "idea3: gamma1=-0.2" in capsys.readouterr().out


@pytest.mark.parametrize("gamma1,note", [
    (-0.2, "lag time too long / noise dominated"),
    (1.02, "no decay detected"),
], ids=["noise", "no-decay"])
@pytest.mark.parametrize("command,text", [
    ("idea3", SMALL + "rates.tau = 40\n"
     "membership.core_weight_threshold = 0.02\n"),
    ("idea4", IDEA4_SMALL),
    ("validate", VALIDATE_SMALL),
], ids=["idea3", "idea4", "validate"])
def test_lag_fit_without_a_rate_says_so(tmp_path, capsys, monkeypatch,
                                        command, text, gamma1, note):
    # every lag fit outside 0 < gamma1 < 1 writes NaN rates and prints the
    # report's note on standard error, prefixed by the provenance
    def fixed_fit(xs, ys, norm_kind):
        return RegressionResult(gamma1, 0.1, 0.0, len(xs), "least_squares")

    monkeypatch.setattr(cli, "regress", fixed_fit)
    out = tmp_path / "out"
    assert main([command, "--config", _cfg(tmp_path, text),
                 "--out", str(out)]) == 0
    _, header, rows = _read_csv(out / "report.csv")
    row = dict(zip(header, rows[0]))
    assert row["eps1"] == "nan" and row["note"] == note
    assert "%s: %s\n" % (command, note) in capsys.readouterr().err


def test_idea4_run_small(tmp_path):
    cfg = _cfg(tmp_path,
               "idea4.n_points = 6\nmembership.n_traj = 10\n"
               "membership.max_steps = 15\nidea4.n_traj = 8\n"
               "idea4.steps = 5\n")
    out = tmp_path / "out4"
    assert main(["idea4", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = _read_csv(out / "scatter.csv")
    assert header == ["point", "x1", "x2", "chi", "ptau_chi"]
    assert len(rows) == 6
    assert (out / "report.csv").exists()


@pytest.mark.parametrize("n_traj,budget", [
    (10, 10 * (50 + 15)),
    (8, 8 * (50 + 15)),
], ids=["shared-ensemble", "own-ensembles"])
def test_idea4_reads_chi_off_the_ptau_paths(tmp_path, capsys, monkeypatch,
                                            n_traj, budget):
    # chi(x) and P^tau chi(x) come off one set of idea4.n_traj paths per
    # point, whatever membership.n_traj is: one stream per point, beside
    # the stream of the points
    calls = []
    real = sde.generator_for

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sde, "generator_for", counted)
    text = IDEA4_SMALL.replace("idea4.n_traj = 8", "idea4.n_traj = %d" % n_traj)
    path = _cfg(tmp_path, text)
    assert main(["idea4", "--config", path,
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1 + 6
    assert ("per_point_step_budget=%d\n" % budget
            in capsys.readouterr().out)
    # both scatter columns are the library's one pass
    cfg = load_config("idea4", path, {})
    chi = mc_hitting_membership(
        cfg.dynamics, cfg["membership.core_box"], cfg["idea4.n_traj"],
        cfg["membership.max_steps"], cfg["seed"])
    pts = uniform_points(6, cfg.dynamics.potential.domain, cfg["seed"])
    xs, ys = estimate_ptau_chi(chi, pts, cfg["idea4.steps"])
    _, _, rows = _read_csv(tmp_path / "out" / "scatter.csv")
    assert [float(r[3]) for r in rows] == xs.tolist()
    assert [float(r[4]) for r in rows] == ys.tolist()


def test_dump_generator_triplets(tmp_path):
    cfg = _cfg(tmp_path, "grid.nx = 4\ngrid.ny = 3\n")
    out = tmp_path / "dump"
    assert main(["dump-generator", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = _read_csv(out / "generator.csv")
    assert header == ["i", "j", "value"]
    n = 12
    interior_links = 2 * (3 * 3 + 4 * 2)
    assert len(rows) == n + interior_links
    ij = [(int(r[0]), int(r[1])) for r in rows]
    assert ij == sorted(ij)


def test_dump_chi_kinds(tmp_path):
    for kind in ("pcca_single", "pcca_multi", "committor", "mc"):
        cfg = _cfg(tmp_path, SMALL + "membership.kind = %s\n"
                   "membership.core_weight_threshold = 0.02\n" % kind,
                   name="%s.cfg" % kind)
        out = tmp_path / ("chi_" + kind)
        assert main(["dump-chi", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = _read_csv(out / "chi.csv")
        assert header == ["cell", "x1", "x2", "chi"]
        assert len(rows) == 16 * 16


def test_cell_centers_follow_the_grid_row_by_row(tmp_path):
    # on a grid with nx != ny, a transposed repeat/tile of the per-axis
    # center text would pair the wrong x1 with the wrong x2
    cfg = _cfg(tmp_path, "grid.nx = 5\ngrid.ny = 3\n")
    assert main(["dump-chi", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "chi.csv")[2]
    centers = RegularGrid(5, 3).centers
    assert [row[:3] for row in rows] == [
        [str(k), repr(float(c1)), repr(float(c2))]
        for k, (c1, c2) in enumerate(centers)]


def test_committor_routes_need_no_eigenpairs(tmp_path, capsys, monkeypatch):
    def no_eigensolve(gen, k):
        raise RuntimeError("no eigenpairs in this test")

    monkeypatch.setattr(cli, "eigensolve", no_eigensolve)
    text = SMALL + "rates.tau = 40\nmembership.core_weight_threshold = 0.02\n"
    cfg = _cfg(tmp_path, text)
    dump = _cfg(tmp_path, text + "membership.kind = committor\n", "dump.cfg")
    assert main(["idea3", "--config", cfg, "--out", str(tmp_path / "i3")]) == 0
    assert main(["dump-chi", "--config", dump,
                 "--out", str(tmp_path / "chi")]) == 0
    capsys.readouterr()
    assert main(["idea1", "--config", cfg, "--out", str(tmp_path / "i1")]) == 3
    assert "stage eigensolve" in capsys.readouterr().err


def test_exit_code_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, "nonsense.key = 1\n")
    assert main(["idea1", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_zero_tau(tmp_path, capsys):
    cfg = _cfg(tmp_path, "rates.tau = 0\n")
    assert main(["idea3", "--config", cfg]) == 2
    assert "tau" in capsys.readouterr().err


#: The load check of a membership.kind outside dump-chi's table.
_BAD_KIND = ("membership.kind must be pcca_single, pcca_multi, committor, "
             "or mc (got 'bogus')")


@pytest.mark.parametrize("command,text,key", [
    ("validate", VALIDATE_SMALL + "rates.tau = 0\n", "rates.tau"),
    ("idea4", IDEA4_SMALL + "idea4.steps = 0\n", "idea4.steps"),
    ("idea4", IDEA4_SMALL + "idea4.steps = -5\n", "idea4.steps"),
    ("idea4", IDEA4_SMALL.replace("n_points = 6", "n_points = 1"),
     "idea4.n_points"),
    ("idea4", IDEA4_SMALL.replace("n_points = 6", "n_points = 0"),
     "idea4.n_points"),
    ("validate", VALIDATE_SMALL.replace("n_starts = 5", "n_starts = 1"),
     "validate.n_starts"),
    ("idea1", "membership.eigen_index = 1\n", "membership.eigen_index"),
    ("idea2", "membership.n_clusters = 1\n", "membership.n_clusters"),
    ("idea3", "membership.n_clusters = 0\n", "membership.n_clusters"),
    ("idea1", "seed = -1\n", "seed"),
    ("idea1 --seed -1", "", "seed"),
    ("idea4 --seed -1", IDEA4_SMALL, "seed"),
    ("validate", VALIDATE_SMALL + "seed = %d\n" % 2 ** 64, "seed"),
    ("dump-chi --seed %d" % 2 ** 64, 'membership.kind = "mc"\n', "seed"),
    ("idea4", IDEA4_SMALL.replace("membership.n_traj = 10",
                                  "membership.n_traj = 0"),
     "membership.n_traj"),
    ("idea4", IDEA4_SMALL.replace("max_steps = 15", "max_steps = 0"),
     "membership.max_steps"),
    ("idea4", IDEA4_SMALL.replace("idea4.n_traj = 8", "idea4.n_traj = 0"),
     "idea4.n_traj"),
    ("validate", VALIDATE_SMALL.replace("validate.n_traj = 6",
                                        "validate.n_traj = 0"),
     "validate.n_traj"),
    ("validate", VALIDATE_SMALL.replace("horizon_steps = 200",
                                        "horizon_steps = 0"),
     "validate.horizon_steps"),
    ("validate", VALIDATE_SMALL + "validate.jump_n_traj = 0\n",
     "validate.jump_n_traj"),
    ("validate", VALIDATE_SMALL + "validate.jump_horizon = 0.0\n",
     "validate.jump_horizon"),
    ("dump-eigen", "eigen.k = 0\n", "eigen.k"),
    ("dump-eigen", "eigen.k = -2\n", "eigen.k"),
    ("idea4 --workers 0", IDEA4_SMALL, "workers"),
    ("validate --workers -2", VALIDATE_SMALL, "workers"),
    ("idea3", 'rates.norm = "l1"\n', "rates.norm must be ls or lad"),
    *[(command, "membership.kind = bogus\n", _BAD_KIND)
      for command in cli._COMMANDS],
], ids=["validate-tau-0", "idea4-steps-0", "idea4-steps-negative",
        "idea4-n-points-1", "idea4-n-points-0", "validate-n-starts-1",
        "idea1-eigen-index-1", "idea2-n-clusters-1", "idea3-n-clusters-0",
        "idea1-seed-key-negative", "idea1-seed-flag-negative",
        "idea4-seed-flag-negative", "validate-seed-key-2-64",
        "dump-chi-seed-flag-2-64", "idea4-membership-n-traj-0",
        "idea4-membership-max-steps-0", "idea4-n-traj-0",
        "validate-n-traj-0", "validate-horizon-steps-0",
        "validate-jump-n-traj-0", "validate-jump-horizon-0",
        "dump-eigen-k-0", "dump-eigen-k-negative",
        "idea4-workers-flag-0", "validate-workers-flag-negative",
        "idea3-norm-key-l1",
        *["%s-kind-bogus" % command for command in cli._COMMANDS]])
def test_exit_code_lag_checked_before_any_work(tmp_path, capsys, command,
                                               text, key):
    # a command may carry flags, such as --seed or --workers, after its name
    cfg = _cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([*command.split(), "--config", cfg, "--out", str(out)]) == 2
    assert "config error: %s" % key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,text,message", [
    ("idea1", 'potential = "nope"\n', "unknown potential 'nope'"),
    ("idea4", IDEA4_SMALL + 'potential = "nope"\n', "unknown potential"),
    ("validate", VALIDATE_SMALL + 'potential = "nope"\n',
     "unknown potential"),
    ("validate", VALIDATE_SMALL + "sde.dt = 0.0\n", "dt must be"),
    ("dump-chi", 'membership.kind = "mc"\nsde.sigma = -0.5\n',
     "sigma must be"),
    ("idea1", "grid.nx = 0\n", "grid needs at least one cell per axis"),
    ("idea1", "grid.nx = false\n", "key grid.nx expects an integer"),
    ("idea1", "grid.ny = -3\n", "grid needs at least one cell per axis"),
    ("idea4", IDEA4_SMALL + "grid.nx = 0\n", "grid needs at least one cell"),
    ("dump-chi", 'membership.kind = "mc"\ngrid.nx = 0\n',
     "grid needs at least one cell"),
    ("idea1", "kbt = 0.0\n", "kbt must be positive"),
    ("validate", VALIDATE_SMALL + "kbt = -1.0\n", "kbt must be positive"),
], ids=["idea1-potential", "idea4-potential", "validate-potential",
        "validate-dt-0", "dump-chi-mc-sigma-negative", "idea1-grid-nx-0",
        "idea1-grid-nx-false",
        "idea1-grid-ny-negative", "idea4-grid-nx-0", "dump-chi-mc-grid-nx-0",
        "idea1-kbt-0", "validate-kbt-negative"])
def test_exit_code_dynamics_checked_before_any_work(tmp_path, capsys, command,
                                                    text, message):
    # the checks of SdeConfig and RegularGrid, run once by load_config, and
    # its kbt check give a config error
    cfg = _cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "config error: %s" % message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "idea1", "idea2", "idea3", "idea4", "compare-mht", "validate",
    "dump-generator", "dump-eigen", "dump-chi", "dump-chi mc"])
@pytest.mark.parametrize("box,message", [
    ("[0.3, 0.2, 0.4, 0.5]", "core box is degenerate"),
    ("[0.2, 1.3, 0.4, 0.5]", "core box leaves the potential domain"),
], ids=["degenerate", "off-domain"])
def test_exit_code_core_box_checked_before_any_work(tmp_path, capsys, command,
                                                    box, message):
    # load_config builds the run's sampler, so its box is checked for every
    # subcommand, whether it samples or not
    command, _, kind = command.partition(" ")
    text = SMALL + "membership.core_box = %s\n" % box
    if kind:
        text += 'membership.kind = "%s"\n' % kind
    cfg = _cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "config error: %s" % message in capsys.readouterr().err
    assert not out.exists()


def test_load_config_builds_the_run_sampler(tmp_path):
    # idea4 samples with idea4.n_traj paths, every other run with
    # membership.n_traj
    cfg = _cfg(tmp_path, IDEA4_SMALL)
    for command, n_traj in (("idea4", 8), ("validate", 10), ("dump-chi", 10)):
        sampler = load_config(command, cfg, {}).sampler
        assert sampler.meta["n_traj"] == n_traj
        assert sampler.meta["max_steps"] == 15
        assert sampler.meta["box"] == (0.2, 0.3, 0.4, 0.5)


@pytest.mark.parametrize("n_traj", [1, 2])
def test_validate_one_exit_fits_no_rate(tmp_path, capsys, n_traj):
    # every jump trajectory exits, and the last exit leaves the survival
    # curve at zero, off the log fit: one or two exits give fewer than two
    # points, as short of a fit as none
    cfg = _cfg(tmp_path, VALIDATE_SMALL + "validate.jump_n_traj = %d\n"
               "validate.jump_horizon = 600\n" % n_traj)
    out = tmp_path / "v"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "summary.csv")
    summary = dict(rows)
    assert summary["jump_censoring_fraction"] == "0.0"
    assert summary["set_exit_rate"] == "nan"
    assert summary["note"] == ("no rate fitted: survival curve has fewer "
                               "than two points")
    assert "no rate fitted" in capsys.readouterr().err


def test_seed_is_a_u64():
    for seed in (0, 2 ** 64 - 1):
        assert load_config("idea1", None, {"seed": seed})["seed"] == seed


#: validate with every start at chi = 1.0.
VALIDATE_FLAT = VALIDATE_SMALL.replace("validate.n_starts = 5\n", "") + \
    "validate.threshold = 0.999\n"

_FLAT_NOTE = ("corr_chi_exit_time undefined: a side has fewer than two "
              "distinct values")


@pytest.mark.parametrize("command,text,quantity,note", [
    ("validate", VALIDATE_FLAT, "corr_chi_exit_time", _FLAT_NOTE),
    ("validate", VALIDATE_FLAT + "validate.jump_n_traj = 1\n"
     "validate.jump_horizon = 600\n", "corr_chi_exit_time",
     _FLAT_NOTE + "; no rate fitted: survival curve has fewer than two "
     "points"),
    ("compare-mht", "grid.nx = 4\ngrid.ny = 1\n", "pearson_high_chi", None),
    ("compare-mht", "grid.nx = 3\ngrid.ny = 3\n"
     "membership.core_weight_threshold = 0.2\n", "pearson_high_chi", None),
], ids=["validate-flat-chi", "validate-flat-chi-no-rate", "compare-mht-4x1",
        "compare-mht-3x3"])
def test_correlation_without_spread_says_so(tmp_path, capsys, command, text,
                                            quantity, note):
    # a side with fewer than two distinct values has no correlation: NaN,
    # with no numpy warning (tier-1 makes a RuntimeWarning an error) and a
    # note on stderr naming the quantity; validate's summary note holds it
    out = tmp_path / "out"
    assert main([command, "--config", _cfg(tmp_path, text),
                 "--out", str(out)]) == 0
    summary = dict(_read_csv(out / "summary.csv")[2])
    assert summary[quantity] == "nan"
    assert ("%s: %s undefined: a side has fewer than two distinct values\n"
            % (command, quantity)) in capsys.readouterr().err
    if note is not None:
        assert summary["note"] == note


def test_roundoff_spread_has_no_correlation(capsys):
    # two symmetric cells whose values came out one ulp apart are one value
    cfg = load_config("compare-mht", None, {})
    x = 0.9209010302575361
    corr, note = cli._correlation(cfg, "q", np.array([x, np.nextafter(x, 1)]),
                                  np.array([1.0, 2.0]))
    assert np.isnan(corr)
    assert note == "q undefined: a side has fewer than two distinct values"
    assert capsys.readouterr().err == "compare-mht: %s\n" % note
    corr, note = cli._correlation(cfg, "q", np.array([1.0, 1.0 + 1e-9, 2.0]),
                                  np.array([1.0, 2.0, 3.0]))
    assert corr > 0.8 and note == ""


def _peaked(grid, cell, weight):
    values = np.zeros(grid.n)
    values[cell] = 1.0
    return Membership(values=values, grid=grid, meta={"weight": weight})


@pytest.mark.parametrize("cells,weights,chosen", [
    ((0, 1, 2), (0.44, 0.56, 0.0), 1),  # the heaviest, not one near 0.4452
    ((2, 0, 1), (0.45, 0.45 - 1e-12, 0.1), 1),  # a tie goes left
])
def test_select_cluster_takes_the_heaviest(cells, weights, chosen):
    grid = RegularGrid(3, 1)
    chis = [_peaked(grid, c, w) for c, w in zip(cells, weights)]
    assert _select_cluster(chis) is chis[chosen]


def test_exit_code_nonfinite_tau(tmp_path, capsys):
    cfg = _cfg(tmp_path, "rates.tau = nan\n")
    assert main(["idea3", "--config", cfg]) == 2
    assert "key rates.tau expects a finite number" in capsys.readouterr().err


def test_exit_code_numerical_failure(tmp_path, capsys):
    cfg = _cfg(tmp_path, 'potential = "flat"\ngrid.nx = 12\ngrid.ny = 12\n')
    out = tmp_path / "flat"
    assert main(["idea1", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "stage pcca_single" in err


def test_exit_code_empty_region(tmp_path, capsys):
    cfg = _cfg(tmp_path, SMALL + "compare.threshold = 1.5\n")
    out = tmp_path / "cmp"
    assert main(["compare-mht", "--config", cfg, "--out", str(out)]) == 3
    assert "stage region" in capsys.readouterr().err


def test_exit_code_unwritable_output(tmp_path, capsys):
    cfg = _cfg(tmp_path, SMALL)
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    out = blocker / "out"
    assert main(["idea1", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "stage write" in err and str(out) in err


def test_missing_config_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["idea1", "--config", str(tmp_path / "none.cfg"),
                 "--out", str(out)]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, kind):
    # both raised a traceback with exit code 1
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"grid.nx = 16\n\xff\xfe\n")
    out = tmp_path / "out"
    assert main(["idea1", "--config", str(path), "--out", str(out)]) == 2
    assert ("config error: cannot read config file %s" % path
            in capsys.readouterr().err)
    assert not out.exists()


def test_rerun_is_byte_identical(tmp_path):
    cfg = _cfg(tmp_path, SMALL)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["idea1", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["idea1", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("report.csv", "chi.csv", "eigen.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _row_writer_bytes(cfg, header, rows, comments=()) -> bytes:
    """The row writer the column-wise one replaced: ``_fmt`` per value."""
    lines = ["# config=%s seed=%d" % (cfg.config_hash(), cfg["seed"])]
    lines += ["# %s" % comment for comment in comments]
    lines.append(",".join(header))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


def _out_cfg(tmp_path):
    return load_config("idea1", None, {"output_dir": str(tmp_path)})


_FLOATS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-05, 1e16,
                    0.1 + 0.2, 1.0, -2.5])
_FLOATS32 = np.array([0.1, 1 / 3, -2.5e-8, np.nan, np.inf, 0.0],
                     dtype=np.float32)
_INTS = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 7])
_UINTS = np.array([np.iinfo(np.uint64).max, 0, 3], dtype=np.uint64)
_MASK = np.array([True, False, False])
_MIXED = ["note", 0.25, 3, "", np.float64(0.1 + 0.2), np.int64(-7),
          float("nan"), None]


@pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                               _BLOCK_ROWS + 1])
def test_column_writer_matches_row_writer(tmp_path, n):
    columns = [np.resize(c, n) for c in (_FLOATS, _FLOATS32, _INTS, _UINTS,
                                         _MASK)]
    columns.append([_MIXED[i % len(_MIXED)] for i in range(n)])
    header = ["f64", "f32", "i64", "u64", "mask", "mixed"]
    cfg = _out_cfg(tmp_path)
    path = _write_csv(cfg, "t.csv", header, columns, ["kind,test", "x,1"])
    expected = _row_writer_bytes(cfg, header, list(zip(*columns)),
                                 ["kind,test", "x,1"])
    with open(path, "rb") as fh:
        assert fh.read() == expected


def test_one_row_report_matches_row_writer(tmp_path):
    # the columns are the run's subcommand, ExitRateReport's fields in
    # order, then the gammas
    header = ["provenance", "alpha", "beta", "eps1", "eps2", "pi_chi",
              "meaningful", "tau", "residual_norm", "n_points", "norm_kind",
              "note", "gamma1", "gamma2"]
    cfg = _out_cfg(tmp_path)
    report = rate_from_eigenpair(0.0086, 0.1965)
    reg = RegressionResult(gamma1=0.8, gamma2=0.05, residual_norm=0.0,
                           n_points=9, norm_kind="least_squares")
    # meaningful as 0/1, tau None as an empty cell, no note
    row = "idea1,0.0086,-0.0016899,0.0069101,0.0016899,0.1965,1,,nan,0,exact,"
    for fit, gammas in ((None, ",,"), (reg, ",0.8,0.05")):
        with open(_write_report(cfg, report, fit), "rb") as fh:
            assert fh.read() == _row_writer_bytes(
                cfg, header, [(row + gammas).split(",")])


def test_say_prints_each_figure_as_its_csv_cell(capsys):
    # a numpy scalar prints as the CSV writes it, not as its repr
    _say(load_config("dump-chi", None, {}), a=np.float64(0.1),
         b=np.bool_(True), c=3, d="mc", e=float("nan"))
    assert capsys.readouterr().out == "dump-chi: a=0.1 b=1 c=3 d=mc e=nan\n"


def test_column_writer_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="length"):
        _write_csv(_out_cfg(tmp_path), "t.csv", ["a", "b"],
                   [np.zeros(3), np.zeros(2)])


def test_summary_text_reads_back_through_a_csv_reader(tmp_path):
    # a text value holding a comma, a quote, CR or LF is one quoted field
    # (RFC 4180), so it adds no field and no row
    note = 'corr undefined, "flat"\nsecond line\rthird; x'
    summary = {"note": note, "rate": 0.25, "plain": "no rate", "n": 3}
    path = cli._write_summary(_out_cfg(tmp_path), summary)
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
    assert rows == [["quantity", "value"], ["note", note],
                    ["rate", "0.25"], ["plain", "no rate"], ["n", "3"]]


def test_benchmark_tracer_finds_every_traced_name(monkeypatch):
    # the benchmark's tracer wraps names of the package by where callers
    # look them up; a refactor that drops one must fail here first
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    before = dict(vars(cli))
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert all(vars(cli)[k] is v for k, v in before.items())
