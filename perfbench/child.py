"""Run one chi_exit subcommand in a fresh interpreter and measure it.

Usage::

    python3 child.py SRC SPAWNED_AT RESULT [--setup-only] [--env]
        [--trace ID SPANS] -- <chi-exit arguments>

``SRC`` is the ``src`` directory the package is imported from, and
``SPAWNED_AT`` the parent's ``time.time()`` just before it started this
process.  ``setup_s`` runs from then until ``chi_exit.cli`` is imported.
``wall_s`` and ``cpu_s`` cover ``cli.main`` only, so interpreter start-up
is excluded; ``peak_rss_mb`` is the process's maximum resident set.  The
measurement goes to ``RESULT`` as JSON; standard output is the CLI's own.
"""

import os
import sys
import time


def main(argv):
    cut = argv.index("--")
    own, cli_args = argv[:cut], argv[cut + 1:]
    src, spawned_at, result_path = own[0], float(own[1]), own[2]
    flags = own[3:]
    sys.path.insert(0, src)
    import chi_exit.cli as cli

    setup_s = time.time() - spawned_at
    import json
    import resource

    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit("chi_exit imported from %s, not from %s" % (where, src))
    result = {"setup_s": setup_s}
    tracer = None
    if "--trace" in flags:
        from tracer import Tracer

        at = flags.index("--trace")
        tracer = Tracer().install()
        tracer.trace_id = int(flags[at + 1])
        spans_path = flags[at + 2]
    if "--setup-only" not in flags:
        before = resource.getrusage(resource.RUSAGE_SELF)
        tic = time.perf_counter()
        try:
            code = cli.main(cli_args)
        except SystemExit as stop:  # argparse rejects the arguments
            code = stop.code if isinstance(stop.code, int) else 2
        wall = time.perf_counter() - tic
        after = resource.getrusage(resource.RUSAGE_SELF)
        sys.stdout.flush()
        result.update(
            code=int(code),
            wall_s=wall,
            cpu_s=(after.ru_utime - before.ru_utime)
            + (after.ru_stime - before.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024.0,
        )
    if tracer is not None:
        tracer.uninstall()
        result["spans"], result["root_s"] = tracer.summary()
        result["counts"] = tracer.counts
        result["n_spans"] = len(tracer.span_name)
        result["span_cost_ns"] = tracer.span_cost_ns()
        tracer.write_spans(spans_path)
    if "--env" in flags:
        from environment import describe

        result["env"] = describe()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
