"""Check that the CLI writes the same bytes as another revision.

    python tools/same_bytes.py REV        # REV: any git revision
    python tools/same_bytes.py --src DIR  # DIR holds a chi_exit package

Runs one fixed matrix of ``chi-exit`` invocations (``matrix()``), each in a
fresh interpreter, once on the ``src/`` next to this file and once on the
other tree, and compares every output CSV, standard output, standard error
and exit code by SHA-256.  Each output that differs is printed with its
first differing line, and a CSV also with the largest relative and
absolute differences over its numeric fields, which size a deliberate
roundoff-level change in two numbers per file; the last line is a
one-line summary.  Exit code 0 means no difference, 1 a difference, 2 a
bad argument.

REV is read with ``git archive`` into a temporary directory, so the working
tree, the index, the branches and ``.git`` are never written; the
directory is removed when the run ends.  The thread variables are left to
the package's own policy, and the ``env`` line is printed as perfbench
prints it.
"""

import argparse
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The nine subcommands, the first seven of which work on a grid only.
COMMANDS = ("idea1", "idea2", "idea3", "compare-mht", "dump-generator",
            "dump-eigen", "dump-chi", "idea4", "validate")

#: Config texts of the matrix by name; "default" sets no key.
CONFIGS = {
    "default": "",
    # perfbench's grid-large config: 70x70 cells, the same core weight
    "large": "grid.nx = 70\ngrid.ny = 70\n"
             "membership.core_weight_threshold = %r\n" % (0.0025 * 2500 / 4900),
    "idea4-small": "idea4.n_points = 6\nmembership.n_traj = 10\n"
                   "membership.max_steps = 15\nidea4.n_traj = 8\n",
    **{"kind-" + kind: 'membership.kind = "%s"\n' % kind
       for kind in ("pcca_multi", "committor", "mc")},
}

#: Prints the environment of a child that has imported the package.
_ENV_SCRIPT = ("import json, chi_exit\n"
               "from perfbench.environment import describe\n"
               "print(json.dumps(describe(), sort_keys=True))\n")


def matrix():
    """The fixed matrix as (label, config text, argv) triples: per seed the
    nine subcommands at their defaults, the seven grid subcommands on
    ``large``, idea4 on ``idea4-small``, dump-chi's other three kinds,
    idea4 and validate at two workers, and the routes of ``rates.norm``
    that run in a second or so at ``--norm lad``."""
    cases = []
    for seed in (0, 1, 2):
        runs = [("default", [cmd]) for cmd in COMMANDS]
        runs += [("large", [cmd]) for cmd in COMMANDS[:7]]
        runs += [("idea4-small", ["idea4"])]
        runs += [(name, ["dump-chi"]) for name in CONFIGS
                 if name.startswith("kind-")]
        runs += [("default", [cmd, "--workers", "2"])
                 for cmd in ("idea4", "validate")]
        runs += [("default", [cmd, "--norm", "lad"])
                 for cmd in ("idea2", "idea3", "idea4")]
        for name, argv in runs:
            argv = argv + ["--seed", str(seed)]
            cases.append(("%s: %s" % (name, " ".join(argv)), CONFIGS[name],
                          argv))
    return cases


def _child_env(path):
    return dict(os.environ, PYTHONPATH=str(path))


def _start(src, text, argv, workdir):
    """One run in a fresh interpreter in its own directory; config and
    output are named relative to it, so that no path differs."""
    workdir.mkdir(parents=True)
    (workdir / "run.cfg").write_text(text)
    return subprocess.Popen(
        [sys.executable, "-m", "chi_exit.cli", *argv, "--config", "run.cfg",
         "--out", "out"],
        cwd=workdir, env=_child_env(src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)


def _outputs(proc, workdir):
    """Every output of a finished run by name."""
    stdout, stderr = proc.communicate()
    found = {"exit code": b"%d\n" % proc.returncode, "stdout": stdout,
             "stderr": stderr}
    out = workdir / "out"
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        found[path.name] = path.read_bytes()
    return found


def _first_difference(a, b):
    """The number of the first line where ``a`` and ``b`` differ, and that
    line of each ("<end>" past the last)."""
    la, lb = a.splitlines(), b.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y),
             min(len(la), len(lb)))
    return (i + 1, *(lines[i].decode(errors="replace") if i < len(lines)
                     else "<end>" for lines in (la, lb)))


def _number(text):
    """The finite float that a field's text reads as, or None."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def largest_differences(a, b):
    """The largest relative difference |x - y| / max(|x|, |y|) and the
    largest absolute difference |x - y| over the fields of ``a`` and ``b``
    (CSV bytes, comment lines included) that differ and both read as
    finite numbers, paired by line and field; lines of unequal field counts
    are skipped.  Each is (difference, line number, x text, y text); both
    are None when no numeric field differs.  The absolute one sizes the
    change where the relative one is set by a value near 0."""
    worst = [None, None]
    pairs = zip(a.decode(errors="replace").splitlines(),
                b.decode(errors="replace").splitlines())
    for lineno, (la, lb) in enumerate(pairs, 1):
        if la == lb:
            continue
        fa, fb = next(csv.reader([la])), next(csv.reader([lb]))
        if len(fa) != len(fb):
            continue
        for ta, tb in zip(fa, fb):
            x, y = _number(ta), _number(tb)
            if ta == tb or x is None or y is None:
                continue
            diff = abs(x - y)
            rel = diff / max(abs(x), abs(y)) if diff else 0.0
            for i, d in enumerate((rel, diff)):
                if worst[i] is None or d > worst[i][0]:
                    worst[i] = (d, lineno, ta, tb)
    return tuple(worst)


def compare_trees(base, change, cases):
    """Run every case on both ``src`` trees, a case's two runs side by side,
    and print each output that differs.  Returns (outputs compared,
    outputs that differ)."""
    compared = differ = 0
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        for k, (label, text, argv) in enumerate(cases):
            dirs = [Path(tmp, side, str(k)) for side in ("base", "change")]
            procs = [_start(src, text, argv, d)
                     for src, d in zip((base, change), dirs)]
            got = [_outputs(p, d) for p, d in zip(procs, dirs)]
            for name in sorted(got[0].keys() | got[1].keys()):
                compared += 1
                a, b = (side.get(name) for side in got)
                ha, hb = (hashlib.sha256(v).hexdigest()[:12] if v is not None
                          else "absent" for v in (a, b))
                if ha == hb:
                    continue
                differ += 1
                if a is None or b is None:
                    print("%s: %s: base %s, change %s" % (label, name, ha, hb))
                    continue
                lineno, la, lb = _first_difference(a, b)
                print("%s: %s (%s vs %s) line %d:\n  base   %s\n  change %s"
                      % (label, name, ha, hb, lineno, la, lb))
                if not name.endswith(".csv"):
                    continue
                rel, absolute = largest_differences(a, b)
                if rel is None:
                    print("  no numeric field differs")
                    continue
                print("  largest relative difference %.3g at line %d: %s vs %s"
                      "\n  largest absolute difference %.3g at line %d: "
                      "%s vs %s" % (*rel, *absolute))
    return compared, differ


def _archive(rev, dest, paths=("src",)):
    """``paths`` (by default ``src/``) of a revision into ``dest``; returns
    ``dest/src``, and raises CalledProcessError for a bad revision."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          rev, *paths], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return Path(dest, "src")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("rev", nargs="?", help="git revision to compare with")
    side.add_argument("--src", type=Path, help="directory holding chi_exit")
    args = parser.parse_args(argv)
    change = ROOT / "src"
    with tempfile.TemporaryDirectory(prefix="same_bytes-rev-") as tmp:
        try:
            base = args.src.resolve() if args.src else _archive(args.rev, tmp)
        except subprocess.CalledProcessError as err:
            print("cannot read revision %s: %s"
                  % (args.rev, err.stderr.decode().strip()), file=sys.stderr)
            return 2
        for tree in (base, change):
            # a tree without the package would quietly import an installed one
            if not (tree / "chi_exit" / "cli.py").is_file():
                print("no chi_exit package under %s" % tree, file=sys.stderr)
                return 2
        env = subprocess.run(
            [sys.executable, "-c", _ENV_SCRIPT], check=True,
            capture_output=True,
            env=_child_env(os.pathsep.join((str(change), str(ROOT))))).stdout
        print("env: " + env.decode().strip())
        print("base %s, change %s" % (args.src or args.rev, change))
        cases = matrix()
        compared, differ = compare_trees(base, change, cases)
    print("same_bytes: %d runs a side, %d outputs compared, %s"
          % (len(cases), compared,
             "%d differ" % differ if differ else "no difference"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
