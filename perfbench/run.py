"""chi-exit benchmark: time the CLI subcommands of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid-routes --seed 0 --seconds 17 --trace 0

Each subcommand runs in a fresh interpreter (``child.py``) with
``--workers 1`` and ``--seed``; its outputs are checked after every run.
A pass is one run of every subcommand of the workload; passes repeat
until ``--seconds`` have gone by (at least one).

With ``--trace 0`` the result holds the end-to-end metrics: median pass
wall and CPU time, median pass peak RSS, median set-up time over at least
``SETUP_SAMPLES`` fresh interpreters, and the share of invocations that
exited 0 and passed their check.  With ``--trace 1`` one untraced pass
is followed by one with every layer wrapped (``tracer.py``), and the
result holds the per-layer metrics of the traced pass.  The last line of
standard output is the JSON result; the lines before it are for people.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from environment import code_identity  # noqa: E402
from tracer import KERNELS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")
SPANS = os.path.join(ROOT, ".perfbench_spans")

#: Fresh interpreters whose set-up time the median is taken over.
SETUP_SAMPLES = 5
#: Seconds one subcommand may take before it counts as failed.
CHILD_TIMEOUT = 150

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s", "ok_frac": "share"}


class Runner:
    """Starts the measured child processes of one benchmark run."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.invocations = 0
        self.failed = 0
        self.config = None
        if workload.config is not None:
            self.config = os.path.join(work, "workload.cfg")
            with open(self.config, "w") as fh:
                fh.write(workload.config)

    def child(self, flags, cli_args, tag):
        """Run child.py; returns (measurement or None, exit code, stdout,
        stderr)."""
        result = os.path.join(self.work, tag + ".json")
        cmd = [sys.executable, CHILD, SRC, repr(time.time()), result] + \
            flags + ["--"] + cli_args
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            return None, -1, "", "timed out after %d s" % CHILD_TIMEOUT
        if not os.path.exists(result):
            return None, proc.returncode, proc.stdout, proc.stderr
        with open(result) as fh:
            return json.load(fh), proc.returncode, proc.stdout, proc.stderr

    def setup_only(self, tag):
        data, code, _, err = self.child(["--setup-only"], ["idea1"], tag)
        if data is None or code != 0:
            raise RuntimeError("set-up probe failed (exit %s): %s"
                               % (code, err.strip()[-2000:]))
        return data

    def invoke(self, command, tag, trace_id=None, env=False):
        """One checked subcommand; returns its measurement or None."""
        out = os.path.join(self.work, tag)
        args = [command, "--workers", "1", "--seed", str(self.seed),
                "--out", out]
        if self.config is not None:
            args += ["--config", self.config]
        flags = ["--env"] if env else []
        if trace_id is not None:
            flags += ["--trace", str(trace_id),
                     os.path.join(SPANS, "%s-%s.csv"
                                  % (self.workload.name, command))]
        self.invocations += 1
        data, code, stdout, stderr = self.child(flags, args, tag)
        problems = []
        figures = {}
        if data is None or code != 0 or data.get("code") != 0:
            problems.append("exit %s: %s" % (
                data.get("code") if data else code, stderr.strip()[-2000:]))
        else:
            try:
                problems, figures = self.workload.check(command, out, stdout)
            except (OSError, KeyError, ValueError, IndexError) as err:
                problems = ["unreadable output: %r" % err]
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
        status = "FAIL " + "; ".join(problems) if problems else "ok"
        shown = " ".join("%s=%r" % kv for kv in figures.items())
        timing = ""
        if data is not None and "wall_s" in data:
            timing = "wall %.3f s cpu %.3f s rss %.1f MB " % (
                data["wall_s"], data["cpu_s"], data["peak_rss_mb"])
        print("  %-12s %s%s %s" % (command, timing, shown, status))
        return data

    def run_pass(self, label, trace=False, env=False):
        """All subcommands once; returns the measurements, or None when one
        produced none.  ``env`` asks the first for the environment."""
        print("%s:" % label)
        results = []
        for i, command in enumerate(self.workload.commands):
            data = self.invoke(command, "%s-%d-%s" % (label.replace(" ", ""),
                                                      i, command),
                               trace_id=i if trace else None,
                               env=env and i == 0)
            if data is None or "wall_s" not in data:
                return None
            results.append(data)
        return results


def _pass_totals(results):
    return (sum(r["wall_s"] for r in results),
            sum(r["cpu_s"] for r in results),
            max(r["peak_rss_mb"] for r in results))


def per_layer_metrics(results, untraced_wall):
    """Per-layer figures of one traced pass (``results`` per subcommand)."""
    spans, counts = {}, Counter()
    for r in results:
        for name, s in r["spans"].items():
            spans.setdefault(name, Counter()).update(s)
        counts.update(r["counts"])

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    traced_wall = sum(r["wall_s"] for r in results)
    kernel_s = sum(spans.get(k, {}).get("total_s", 0.0) for k in KERNELS)
    grad_points = counts["potential.grad.points"]
    m = {}
    for name in ("spectral.eigensolve", "spectral.propagate"):
        m[name + ".self_s"] = (self_s(name), "s")
        m[name + ".calls"] = (calls(name), "count")
    for name in ("grid_generator.build_sqrt_generator",
                 "grid_generator.cells_of", "membership.pcca_single",
                 "membership.pcca_multi", "membership.committor",
                 "membership.find_weight_cores", "membership.mc_evaluate",
                 "sde.hitting_fractions", "sde.endpoint_ensemble",
                 "sde.estimate_ptau_chi", "sde.sample_set_exit_times",
                 "sde.sample_jump_exit_times", "potential.grad",
                 "streams.generator_for"):
        m[name + ".self_s"] = (self_s(name), "s")
    m["membership.mc_points"] = (counts["membership.mc_points"], "count")
    m["sde.step_budget"] = (counts["sde.step_budget"], "count")
    m["sde.step_budget_per_s"] = (
        ratio(counts["sde.step_budget"], kernel_s), "steps/s")
    m["sde.exit_useful_step_frac"] = (ratio(
        counts["sde.exit_useful_steps"],
        counts["sde.exit_steps"]), "share")
    m["sde.exit_censored_frac"] = (ratio(
        counts["sde.exit_censored"],
        counts["sde.exit_trajectories"]), "share")
    m["sde.jump_censored_frac"] = (ratio(
        counts["sde.jump_censored"],
        counts["sde.jump_trajectories"]), "share")
    m["potential.grad.calls"] = (calls("potential.grad"), "count")
    m["potential.grad.points"] = (grad_points, "count")
    m["potential.grad.ns_per_point"] = (
        ratio(self_s("potential.grad") * 1e9, grad_points), "ns")
    m["streams.generator_for.calls"] = (calls("streams.generator_for"),
                                        "count")
    m["rates.self_s"] = (sum(s["self_s"] for n, s in spans.items()
                             if n.startswith("rates.")), "s")
    m["cli.self_s"] = (traced_wall - sum(r["root_s"] for r in results), "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.spans"] = (sum(r["n_spans"] for r in results), "count")
    m["trace.overhead_est_s"] = (sum(r["n_spans"] * r["span_cost_ns"]
                                     for r in results) * 1e-9, "s")
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn (one "
                        "result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chi_exit", "cli.py")):
        print("no chi_exit package under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    if args.trace:
        os.makedirs(SPANS, exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        workload = WORKLOADS[name]
        work = os.path.join(WORK, "%s-%d-%d" % (name, args.seed, os.getpid()))
        os.makedirs(work)
        try:
            code = measure(workload, args,
                           Runner(workload, args.seed, work)) or code
        finally:
            shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:  # another run is using it
        pass
    return code


def measure(workload, args, runner):
    print("workload %s seed %d: %s" % (workload.name, args.seed,
                                      ", ".join(workload.commands)))
    passes, setups = [], []
    env = None
    tic = time.perf_counter()
    # a traced run needs one untraced pass, to compare the traced one with
    while not passes or (not args.trace
                         and time.perf_counter() - tic < args.seconds):
        results = runner.run_pass("pass %d" % len(passes), env=not passes)
        if results is None:
            print("a subcommand produced no measurement", file=sys.stderr)
            return 1
        env = env or results[0]["env"]
        passes.append(_pass_totals(results))
        setups.extend(r["setup_s"] for r in results)
    env.update(code_identity(ROOT))
    print("env: " + json.dumps(env, sort_keys=True))
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup_only("setup-%d" % len(setups))["setup_s"])

    walls, cpus, rsss = zip(*passes)
    wall = statistics.median(walls)
    e2e = {
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
        "setup_s": statistics.median(setups),
        "ok_frac": 1.0 - runner.failed / runner.invocations,
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    if args.trace:
        traced = runner.run_pass("traced", trace=True)
        if traced is None:
            print("a traced subcommand produced no measurement",
                  file=sys.stderr)
            return 1
        metrics = per_layer_metrics(traced, wall)
        for key in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "ok_frac"):
            print("%-36s %.6g %s" % (key, e2e[key], END_TO_END_UNITS[key]))
    fail_frac = runner.failed / runner.invocations
    print("passes %d, set-up samples %d, invocations %d, failed %d, "
          "fail_frac %.6g share" % (len(passes), len(setups),
                                    runner.invocations, runner.failed,
                                    fail_frac))
    for key, (value, unit) in metrics.items():
        print("%-36s %.6g %s" % (key, value, unit))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.invocations,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
