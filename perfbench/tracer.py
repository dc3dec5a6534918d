"""Span tracing of chi_exit from outside the package.

``Tracer.install`` replaces public names with timing wrappers at the place
where the caller looks them up: the names ``chi_exit.cli`` imports, the
module globals that the package's own modules call
(``membership.hitting_fractions``, ``sde.endpoint_ensemble``,
``sde.generator_for``) and three methods on their classes
(``PotentialSurface.grad``, ``RegularGrid.cells_of``, and
``Membership.evaluate_batch`` of point-sampler memberships).  Nothing under ``src/`` is edited.

Each call records one span (name, parent, start, end) in flat arrays held
in memory; ``write_spans`` dumps them when the run ends.  A span's self
time is its duration minus the durations of its direct children.

Work counts are computed from call arguments and return values, never
timed, so they repeat exactly for a fixed seed:

- ``potential.grad.points``: positions passed to the gradient;
- ``membership.mc_points``: positions requested from a point-sampler
  membership;
- ``streams.generator_for.calls``: random streams created;
- ``sde.step_budget``: trajectory-steps the stepping kernels were asked
  for (points x trajectories x steps, or trajectories x horizon);
- ``sde.exit_useful_steps``: set-exit sampler steps taken before exit or
  the horizon, with ``sde.exit_steps`` the steps it computed;
- censoring tallies of both exit samplers.
"""

import inspect
import time
from array import array

import numpy as np

#: Layer of each package module, as the metrics name it.
_CLI_NAMES = {
    "build_sqrt_generator": "grid_generator",
    "eigensolve": "spectral",
    "propagate": "spectral",
    "pcca_single": "membership",
    "pcca_multi": "membership",
    "committor": "membership",
    "find_weight_cores": "membership",
    "mc_hitting_membership": "membership",
    "estimate_ptau_chi": "sde",
    "sample_set_exit_times": "sde",
    "sample_jump_exit_times": "sde",
    "uniform_points": "sde",
    "regress": "rates",
    "gammas_to_rate": "rates",
    "rate_from_eigenpair": "rates",
    "regress_generator_action": "rates",
    "set_mean_holding_time": "rates",
    "chi_mean_holding_time": "rates",
    "fit_survival_rate": "rates",
}

#: Stepping kernels whose inclusive time the step budget is divided by.
KERNELS = ("sde.hitting_fractions", "sde.endpoint_ensemble",
           "sde.sample_set_exit_times")


class Tracer:
    """In-memory span recorder with per-name work counters."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_trace = array("i")
        self.trace_id = 0
        self._stack = [-1]
        self.counts = {}
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, count=None):
        """Timing wrapper around ``fn``; ``count(args, kwargs, result)``
        adds work counts after each call."""
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns
        spans = (self.span_name, self.span_parent, self.span_start,
                 self.span_end, self.span_trace)

        def traced(*args, **kwargs):
            idx = len(spans[0])
            spans[0].append(name_id)
            spans[1].append(stack[-1])
            spans[2].append(0)
            spans[3].append(0)
            spans[4].append(self.trace_id)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[2][idx] = start
                spans[3][idx] = end
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch(self, owner, attr, name, count=None):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the package's public names; ``uninstall`` restores them."""
        from chi_exit import cli, membership, sde
        from chi_exit.grid_generator import RegularGrid
        from chi_exit.potential import PotentialSurface

        for attr, layer in _CLI_NAMES.items():
            self.patch(cli, attr, "%s.%s" % (layer, attr),
                       self._count_for(attr, getattr(cli, attr)))
        self.patch(membership, "hitting_fractions", "sde.hitting_fractions",
                   self._count_for("hitting_fractions",
                                   membership.hitting_fractions))
        self.patch(sde, "endpoint_ensemble", "sde.endpoint_ensemble",
                   self._count_for("endpoint_ensemble",
                                   sde.endpoint_ensemble))
        self.patch(sde, "generator_for", "streams.generator_for")
        self.patch(PotentialSurface, "grad", "potential.grad",
                   self._count_grad)
        self.patch(RegularGrid, "cells_of", "grid_generator.cells_of")
        self._patch_evaluate(membership.Membership)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch_evaluate(self, cls):
        """Membership.evaluate_batch, traced for point samplers only."""
        original = cls.__dict__["evaluate_batch"]
        mc = self.wrap("membership.mc_evaluate", original, self._count_mc)

        def evaluate_batch(member, *args, **kwargs):
            if member.kind == "point_sampler":
                return mc(member, *args, **kwargs)
            return original(member, *args, **kwargs)

        self._undo.append((cls, "evaluate_batch", original))
        cls.evaluate_batch = evaluate_batch

    # -- work counts -------------------------------------------------------

    def _count_grad(self, args, kwargs, result):
        self.add("potential.grad.points", np.asarray(args[1]).size // 2)

    def _count_mc(self, args, kwargs, result):
        self.add("membership.mc_points", len(result))

    def _count_for(self, attr, fn):
        builder = getattr(self, "_count_" + attr, None)
        if builder is None:
            return None
        sig = inspect.signature(fn)

        def count(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            builder(bound.arguments, result)

        return count

    def _count_hitting_fractions(self, a, result):
        self.add("sde.step_budget",
                 len(result) * int(a["n_traj"]) * int(a["max_steps"]))

    def _count_endpoint_ensemble(self, a, result):
        m, n_traj = result.shape[:2]
        self.add("sde.step_budget", m * n_traj * int(a["steps"]))

    def _count_sample_set_exit_times(self, a, stats):
        horizon = int(stats.horizon_steps)
        exit_steps = np.asarray(stats.exit_steps)
        censored = exit_steps < 0
        self.add("sde.step_budget", exit_steps.size * horizon)
        self.add("sde.exit_steps", exit_steps.size * horizon)
        self.add("sde.exit_useful_steps",
                 int(np.where(censored, horizon, exit_steps).sum()))
        self.add("sde.exit_trajectories", exit_steps.size)
        self.add("sde.exit_censored", int(censored.sum()))

    def _count_sample_jump_exit_times(self, a, result):
        censored = np.asarray(result[1])
        self.add("sde.jump_trajectories", censored.size)
        self.add("sde.jump_censored", int(censored.sum()))

    # -- summaries ---------------------------------------------------------

    def summary(self):
        """Per-name calls, inclusive and self seconds, and the seconds
        covered by top-level spans."""
        n = len(self.span_name)
        dur = np.frombuffer(self.span_end, dtype=np.int64)[:n] - \
            np.frombuffer(self.span_start, dtype=np.int64)[:n]
        parent = np.frombuffer(self.span_parent, dtype=np.int32)[:n]
        names = np.frombuffer(self.span_name, dtype=np.int32)[:n]
        child = np.zeros(n, dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k) * 1e-9
        self_s = np.bincount(names, weights=own, minlength=k) * 1e-9
        per_name = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
        return per_name, float(dur[~nested].sum()) * 1e-9

    @staticmethod
    def span_cost_ns(n=200000):
        """Measured cost of one span around a no-op call, in ns; work
        count hooks are not included."""
        def noop():
            return None

        wrapped = Tracer().wrap("probe", noop)
        clock = time.perf_counter_ns
        start = clock()
        for _ in range(n):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(n):
            wrapped()
        return max(0.0, (clock() - start - bare) / n)

    def write_spans(self, path):
        """One line per span: trace, id, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("trace,id,parent,name,start_ns,end_ns\n")
            for i in range(len(self.span_name)):
                fh.write("%d,%d,%d,%s,%d,%d\n" % (
                    self.span_trace[i], i, self.span_parent[i],
                    self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i]))
