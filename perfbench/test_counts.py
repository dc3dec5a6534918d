"""The traced work counts repeat exactly for a fixed seed.

Run with ``python3 -m pytest perfbench/test_counts.py`` from the root of
the repository.  Small configs keep it to a few seconds; the counts are
computed from call arguments and return values, so their size does not
matter to the property.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from chi_exit import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = {
    "idea4": ("idea4.n_points = 8\nmembership.n_traj = 12\n"
              "membership.max_steps = 20\nidea4.n_traj = 10\n"
              "idea4.steps = 5\n"),
    "validate": ("grid.nx = 20\ngrid.ny = 20\nmembership.n_traj = 15\n"
                 "membership.max_steps = 25\nvalidate.n_starts = 5\n"
                 "validate.n_traj = 6\nvalidate.horizon_steps = 200\n"
                 "validate.jump_n_traj = 40\nvalidate.jump_horizon = 600\n"),
    "idea3": ("grid.nx = 16\ngrid.ny = 16\n"
              "membership.core_weight_threshold = 0.02\nrates.tau = 40\n"),
}


def _traced_counts(command, cfg_path, out, seed):
    tracer = Tracer().install()
    try:
        code = cli.main([command, "--config", str(cfg_path), "--out", str(out),
                         "--workers", "1", "--seed", str(seed)])
    finally:
        tracer.uninstall()
    assert code == 0
    per_name, _ = tracer.summary()
    calls = {name: s["calls"] for name, s in per_name.items()}
    return tracer.counts, calls


@pytest.mark.parametrize("command", sorted(SMALL))
def test_counts_repeat_for_a_fixed_seed(command, tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL[command])
    first = _traced_counts(command, cfg, tmp_path / "a", seed=3)
    second = _traced_counts(command, cfg, tmp_path / "b", seed=3)
    assert first == second
    assert first[1], "no span was recorded"


def test_idea4_counts_follow_the_arguments(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL["idea4"])
    counts, calls = _traced_counts("idea4", cfg, tmp_path / "a", seed=0)
    points, ptau_traj, steps = 8, 10, 5
    # chi at the points, then at every endpoint of the P^tau ensembles
    assert counts["membership.mc_points"] == points + points * ptau_traj
    # one stream for the points, one per hitting start, one per P^tau start
    assert calls["streams.generator_for"] == 1 + counts[
        "membership.mc_points"] + points
    hit_budget = counts["membership.mc_points"] * 12 * 20
    assert counts["sde.step_budget"] == hit_budget + points * ptau_traj * steps
    assert calls["spectral.eigensolve"] == calls["spectral.propagate"] == 0


def test_uninstall_restores_the_package(tmp_path):
    from chi_exit.potential import PotentialSurface

    before = (cli.eigensolve, PotentialSurface.__dict__["grad"])
    Tracer().install().uninstall()
    assert (cli.eigensolve, PotentialSurface.__dict__["grad"]) == before


def test_result_names_match_benchmark_json():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    fake = {"wall_s": 1.0, "root_s": 0.5, "spans": {}, "counts": {},
            "n_spans": 0, "span_cost_ns": 0.0}
    layer = run.per_layer_metrics([fake], 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in layer.items()}
