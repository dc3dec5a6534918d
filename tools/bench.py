"""Time another revision against the working tree with perfbench, in pairs.

    python tools/bench.py REV --workload W [--seed S] [--seconds T]
                              [--pairs N] [--record BENCH_<n>.json]
    python tools/bench.py --src DIR --workload W ...

Runs each tree's own ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in a fresh process, in N pairs, one workload per call; the
other tree runs first in even pairs and the working tree in odd ones.
For every end-to-end metric of ``BENCHMARK.json`` it prints the other
tree's median and quartiles, the working tree's median, the relative
change, the metric's bound, the pairs the working tree won, and a
verdict:

- ``unresolved``: the other tree's interquartile range is more than the
  bound times its median, so the runs cannot resolve a change of the
  bound's size, in either direction; also a median past the bound from
  fewer than ten pairs;
- ``worse``: from at least ten pairs, the median is worse than the other
  tree's by more than the bound;
- ``better``: of at least ten pairs the working tree won nine in ten,
  and its median is better by more than the other tree's interquartile
  range;
- ``same`` otherwise.

REV is read with ``git archive`` (``src`` and ``perfbench``) into a
temporary directory, so the working tree, the index, the branches and
``.git`` are never written.  ``--src DIR`` takes the other ``chi_exit``
package from under DIR and runs it with a copy of the working tree's
``perfbench``.  ``--record FILE`` writes the command, the revision,
every pair's metrics and ``env`` lines, and the summary as JSON, with the
code the working tree ran: its ``src`` digest (perfbench's
``src_sha256``), HEAD's commit and digest, and whether the two differ,
since perfbench's ``env`` line names HEAD's commit whatever ``src``
holds.  Nothing
is written under ``perfbench/`` or ``.git``, or into ``BENCHMARK.json``;
each perfbench run keeps its scratch output in its own tree's
``.perfbench_work``, which it removes.
Exit code 0 means no metric reads worse, 1 a worse metric or a failed
run, 2 a bad argument.
"""

import argparse
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "tools"))
from same_bytes import _archive  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "perfbench_environment", ROOT / "perfbench" / "environment.py")
environment = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(environment)

#: Pairs for a ``worse`` or ``better`` verdict, and the share of them the
#: working tree must win for ``better``.
MIN_PAIRS, WIN_SHARE = 10, 0.9


def parse_result(stdout):
    """The metrics ({name: value}) of perfbench's last line, and the dict
    of its ``env:`` line (None when there is none)."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    env = next((json.loads(line[len("env: "):]) for line in lines
                if line.startswith("env: ")), None)
    return {k: m["value"] for k, m in result["metrics"].items()}, env


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(base, change, spec):
    """One row per end-to-end metric of ``spec`` (BENCHMARK.json's dict):
    ``base`` and ``change`` are lists of {metric: value}, one per pair."""
    rows = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        a = [run[name] for run in base]
        b = [run[name] for run in change]
        med_a, med_b = statistics.median(a), statistics.median(b)
        q1, q3 = _quartiles(a)
        iqr = q3 - q1
        if med_a:
            rel = (med_b - med_a) / abs(med_a)
        else:
            rel = 0.0 if med_b == med_a else float("inf") * (med_b - med_a)
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        few = len(a) < MIN_PAIRS
        if iqr > bound * abs(med_a) or (few and sign * rel > bound):
            verdict = "unresolved"
        elif sign * rel > bound:
            verdict = "worse"
        elif (not few and wins >= WIN_SHARE * len(a)
              and sign * (med_a - med_b) > iqr):
            verdict = "better"
        else:
            verdict = "same"
        c1, c3 = _quartiles(b)
        rows.append({"metric": name, "unit": metric["unit"],
                     "base_median": med_a, "base_q1": q1, "base_q3": q3,
                     "change_median": med_b, "change_q1": c1, "change_q3": c3,
                     "relative_change": rel, "bound": bound, "wins": wins,
                     "pairs": len(a), "verdict": verdict})
    return rows


def format_table(rows):
    """The summary rows as aligned text lines, a header first."""
    lines = ["%-12s %-32s %-12s %8s %6s %6s  %s" % (
        "metric", "base median [q1, q3]", "change", "rel", "bound", "wins",
        "verdict")]
    for r in rows:
        lines.append("%-12s %-32s %-12s %+7.1f%% %5.0f%% %6s  %s" % (
            r["metric"],
            "%.4g [%.4g, %.4g] %s" % (r["base_median"], r["base_q1"],
                                      r["base_q3"], r["unit"]),
            "%.4g %s" % (r["change_median"], r["unit"]),
            100 * r["relative_change"], 100 * r["bound"],
            "%d/%d" % (r["wins"], r["pairs"]), r["verdict"]))
    return lines


def code_fields(change, head, commit):
    """The record's fields naming the code of the working tree ``change``
    against HEAD (``commit``, its ``src`` under ``head``), with
    perfbench's digest of each ``src``."""
    ours = environment.code_identity(str(change))["src_sha256"]
    theirs = environment.code_identity(str(head))["src_sha256"]
    return {"change_src_sha256": ours, "head_commit": commit,
            "head_src_sha256": theirs, "change_src_differs_from_head":
            ours != theirs}


def run_perfbench(tree, workload, seed, seconds):
    """One perfbench run of ``tree``; its metrics and env, or RuntimeError
    when it printed no result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(float(seconds)),
         "--trace", "0"], cwd=tree, capture_output=True, text=True)
    try:
        return parse_result(proc.stdout)
    except (ValueError, KeyError) as err:
        raise RuntimeError("perfbench in %s exited %d without a result (%s): "
                           "%s" % (tree, proc.returncode, err,
                                   proc.stderr.strip()[-2000:])) from None


def _base_tree(src, revision, tmp):
    """A directory holding ``src`` and ``perfbench`` of the other side:
    the package under ``src`` with the working tree's perfbench, or both
    from ``revision``."""
    tree = Path(tmp, "base")
    if src is None:
        _archive(revision, tree, ("src", "perfbench"))
        return tree
    shutil.copytree(src / "chi_exit", tree / "src" / "chi_exit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("rev", nargs="?", help="git revision to compare with")
    side.add_argument("--src", type=Path,
                      help="directory holding the other chi_exit package")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=17.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--record", type=Path,
                        help="write the pairs and the summary here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.src is not None:
        args.src = args.src.resolve()
        if not (args.src / "chi_exit" / "cli.py").is_file():
            print("no chi_exit package under %s" % args.src, file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    if args.record is not None:
        record = args.record.resolve()
        if (record == ROOT / "BENCHMARK.json"
                or {ROOT / "perfbench", ROOT / ".git"} & set(record.parents)):
            print("will not write %s" % args.record, file=sys.stderr)
            return 2
    revision = None
    if args.rev is not None:
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
             args.rev + "^{commit}"], capture_output=True, text=True)
        if found.returncode:
            print("cannot read revision %s" % args.rev, file=sys.stderr)
            return 2
        revision = found.stdout.strip()
    pairs, code = [], {}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        base = _base_tree(args.src, revision, tmp)
        if args.record is not None:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                   "HEAD"], capture_output=True, text=True,
                                  check=True).stdout.strip()
            _archive(head, Path(tmp, "head"))
            code = code_fields(ROOT, Path(tmp, "head"), head)
        print("bench: %s seed %d, %d pairs of --seconds %g; base %s, change "
              "the working tree" % (args.workload, args.seed, args.pairs,
                                    args.seconds, args.src or args.rev))
        try:
            for k in range(args.pairs):
                pair = {}
                sides = [("base", base), ("change", ROOT)]
                for label, tree in sides[::1 - 2 * (k % 2)]:
                    metrics, env = run_perfbench(tree, args.workload,
                                                 args.seed, args.seconds)
                    pair[label] = {"metrics": metrics, "env": env}
                print("pair %d: wall_s %.4g / %.4g s" % (
                    k, pair["base"]["metrics"]["wall_s"],
                    pair["change"]["metrics"]["wall_s"]), flush=True)
                pairs.append(pair)
        except RuntimeError as err:
            print(err, file=sys.stderr)
            return 1
    for label in ("base", "change"):
        print("env %s: %s" % (label, json.dumps(pairs[0][label]["env"],
                                                sort_keys=True)))
    rows = summarize([p["base"]["metrics"] for p in pairs],
                     [p["change"]["metrics"] for p in pairs], spec)
    print("\n".join(format_table(rows)))
    if args.record is not None:
        args.record.write_text(json.dumps({
            "command": ["tools/bench.py"] + list(argv),
            "base": args.rev if args.rev is not None else "--src",
            "revision": revision, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "pairs": pairs,
            "summary": rows, **code}, indent=1, sort_keys=True) + "\n")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
