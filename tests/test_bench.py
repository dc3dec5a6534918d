"""tools/bench.py: the summary of alternating perfbench pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("bench",
                                               ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _stdout(wall, cpu, rss, setup, ok=1.0):
    """A perfbench run's standard output, as it prints it."""
    metrics = {"wall_s": (wall, "s"), "cpu_s": (cpu, "s"),
               "peak_rss_mb": (rss, "MB"), "setup_s": (setup, "s"),
               "ok_frac": (ok, "share")}
    return "\n".join(
        ["workload mc-idea4 seed 0: idea4", "pass 0:",
         "  idea4        wall %.3f s cpu %.3f s rss %.1f MB  ok"
         % (wall, cpu, rss),
         'env: {"nproc": 2, "python": "3.11.7"}',
         "passes 1, set-up samples 5, invocations 1, failed 0, fail_frac 0 "
         "share"]
        + ["%-36s %.6g %s" % (k, v, u) for k, (v, u) in metrics.items()]
        + [json.dumps({"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})]) + "\n"


def test_summary_of_canned_pairs_says_better_worse_unresolved_and_same():
    base, change = [], []
    for k in range(10):
        # wall_s: a tight base and a change 12% lower in every pair;
        # cpu_s: a tight base and a change 40% higher; peak_rss_mb: a base
        # whose quartiles lie 10% apart, above the 5% bound; setup_s: the
        # same spread on both sides, the change winning half the pairs
        out_a = _stdout(0.100 + 0.001 * k, 0.100 + 0.001 * (k % 3),
                        64.0 + 0.8 * k, 0.40 + 0.01 * (k % 2))
        out_b = _stdout(0.088 + 0.001 * k, 0.140 + 0.001 * (k % 3),
                        64.0 + 0.8 * k, 0.40 + 0.01 * ((k + 1) % 2))
        for runs, out in ((base, out_a), (change, out_b)):
            metrics, env = bench.parse_result(out)
            assert env == {"nproc": 2, "python": "3.11.7"}
            runs.append(metrics)
    rows = bench.summarize(base, change, _SPEC)
    assert [r["metric"] for r in rows] == [
        m["name"] for m in _SPEC["end_to_end"]]
    got = {r["metric"]: r for r in rows}
    assert {k: r["verdict"] for k, r in got.items()} == {
        "wall_s": "better", "cpu_s": "worse", "peak_rss_mb": "unresolved",
        "setup_s": "same", "ok_frac": "same"}
    wall = got["wall_s"]
    assert (wall["wins"], wall["pairs"]) == (10, 10)
    assert wall["base_median"] == pytest.approx(0.1045)
    assert wall["relative_change"] == pytest.approx(-0.012 / 0.1045)
    assert got["cpu_s"]["relative_change"] > got["cpu_s"]["bound"]
    rss = got["peak_rss_mb"]
    assert rss["base_q3"] - rss["base_q1"] > rss["bound"] * rss["base_median"]
    assert got["setup_s"]["wins"] == 5
    assert got["ok_frac"]["wins"] == 0
    lines = bench.format_table(rows)
    assert len(lines) == 1 + len(rows)
    assert lines[1].split()[0] == "wall_s" and lines[1].endswith("better")
    assert "10/10" in lines[1] and "-11.5%" in lines[1]


def test_noise_and_few_pairs_give_no_verdict_of_worse_or_better():
    # the change passes the bound, but the base's own spread is wider
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s",
                            "better": "lower", "bound": 0.25}]}
    base = [{"wall_s": v} for v in (1.0, 1.0, 1.6, 1.6)]
    change = [{"wall_s": v} for v in (1.6, 1.6, 1.7, 1.7)]
    (row,) = bench.summarize(base, change, spec)
    assert row["relative_change"] > 0.25
    assert row["verdict"] == "unresolved"
    # fewer than ten pairs: a clear gain in every pair is no gain, and a
    # clear loss is no verdict either
    (row,) = bench.summarize([{"wall_s": 1.0}] * 4, [{"wall_s": 0.5}] * 4,
                             spec)
    assert (row["wins"], row["verdict"]) == (4, "same")
    (row,) = bench.summarize([{"wall_s": 1.0}] * 4, [{"wall_s": 1.5}] * 4,
                             spec)
    assert (row["wins"], row["verdict"]) == (0, "unresolved")


def test_bad_arguments_exit_2(capsys, tmp_path):
    assert bench.main(["--src", str(tmp_path), "--workload", "mc-idea4"]) == 2
    assert "no chi_exit package" in capsys.readouterr().err
    assert bench.main(["HEAD", "--workload", "no-such-workload"]) == 2
    assert "unknown workload" in capsys.readouterr().err
    assert bench.main(["no-such-revision-x", "--workload", "mc-idea4",
                       "--pairs", "1"]) == 2
    assert "cannot read revision" in capsys.readouterr().err
    for path in ("BENCHMARK.json", "perfbench/BENCH_1.json", ".git/x.json"):
        assert bench.main(["HEAD", "--workload", "mc-idea4", "--record",
                           str(ROOT / path)]) == 2
        assert "will not write" in capsys.readouterr().err
