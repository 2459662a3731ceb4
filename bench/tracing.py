"""Span tracing of teamlqg layers from outside the package.

``Tracer.install`` replaces each layer entry point in every teamlqg module
namespace that binds it (``dare_solve`` is bound in riccati, tree, delayed,
cli and the package itself), so calls through any of those names are seen.
Spans carry name, start, end and parent index, stay in memory, and are
written out by the caller at the end.  A layer's self time is the sum over
its spans of the span's duration minus its direct children's durations.
Counters marked "computed" in LAYER_DOC derive from argument shapes.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("teamlqg", "teamlqg.cli", "teamlqg.model", "teamlqg.riccati",
           "teamlqg.tree", "teamlqg.info_graph", "teamlqg.delayed",
           "teamlqg.sim", "teamlqg.rng", "teamlqg.linalg")

# (layer, defining module, attribute); "Class.method" patches the class.
ENTRY_POINTS = (
    ("cli", "teamlqg.cli", "main"),
    ("cli", "teamlqg.cli", "write_report"),
    ("model.validate", "teamlqg.model", "validate"),
    ("rng.draw", "teamlqg.rng", "PrimitiveSampler.draw"),
    ("sim.rollout", "teamlqg.sim", "rollout_costs"),
    ("sim.rollout", "teamlqg.sim", "_tree_mc"),
    ("sim.rollout", "teamlqg.sim", "_graph_mc"),
    ("delayed.estimator", "teamlqg.delayed", "simulate_estimator"),
    ("sim.checks", "teamlqg.sim", "pbp_check"),
    ("sim.checks", "teamlqg.sim", "_pbp_graph"),
    ("sim.checks", "teamlqg.sim", "exchangeability_check"),
    ("sim.checks", "teamlqg.sim", "symmetrization_check"),
    ("sim.checks", "teamlqg.sim", "certainty_equivalence_check"),
    ("sim.checks", "teamlqg.sim", "mft_sweep"),
    ("moments", "teamlqg.sim", "exact_cost_general"),
    ("moments", "teamlqg.delayed", "closed_loop_cost"),
    ("tree.kp", "teamlqg.tree", "solve_k_p"),
    ("tree.adjoint", "teamlqg.tree", "_cost_and_grad"),
    ("tree.coupling", "teamlqg.tree", "solve_coupling_gains"),
    ("tree.limit", "teamlqg.tree", "solve_infinite_tree"),
    ("tree.limit", "teamlqg.tree", "meanfield_limit_policy"),
    ("riccati.dare", "teamlqg.riccati", "dare_solve"),
    ("delayed.finite", "teamlqg.delayed", "solve_delayed_finite"),
    ("delayed.infinite", "teamlqg.delayed", "solve_delayed_infinite"),
    ("delayed.rank", "teamlqg.delayed", "_rank_condition"),
    ("info_graph.build", "teamlqg.info_graph", "build_info_graph"),
)

# riccati_step runs up to 10 000 times per DARE; it is counted, not spanned,
# so its time stays in the caller's span (riccati.dare, tree.kp, ...).
COUNTED_ONLY = (("riccati.step.calls", "teamlqg.riccati", "riccati_step"),)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))

# name -> (unit, description); every per-layer metric the trace reports.
LAYER_DOC = {
    "cli.calls": ("count", "teamlqg.cli.main invocations (setup and tasks)"),
    "cli.report_kb": ("kB", "bytes of --out reports written / 1e3"),
    "rng.draw.calls": ("count", "PrimitiveSampler.draw calls"),
    "rng.draw.rollouts": ("count", "rollouts drawn"),
    "rng.draw.variates": ("count", "standard variates drawn (computed)"),
    "rng.draw.raw_mb": ("MB", "8 bytes per variate / 1e6 (computed)"),
    "rng.draw.repeat_frac": ("ratio", "draws repeating an earlier seed and "
                             "shape in the same CLI call"),
    "sim.rollout.calls": ("count", "entries into the rollout engines"),
    "sim.rollout.agent_steps": ("count", "sum of R*T*N over engine runs "
                                "(computed)"),
    "sim.pbp.cost_evals": ("count", "exact cost evaluations inside pbp_check"),
    "moments.calls": ("count", "exact moment propagations"),
    "moments.steps": ("count", "sum of propagated horizons"),
    "moments.state_dim_max": ("count", "largest propagated state dimension "
                              "(computed)"),
    "tree.adjoint.calls": ("count", "_cost_and_grad calls"),
    "tree.adjoint.columns": ("count", "sum of _cost_and_grad batch sizes"),
    "tree.coupling.calls": ("count", "solve_coupling_gains calls"),
    "tree.coupling.unknowns": ("count", "sum of d = T*m*n over dense solves"),
    "tree.coupling.hessian_mb": ("MB", "sum of 8*d^2 / 1e6 (computed)"),
    "tree.limit.horizon_used": ("count", "largest horizon_used of "
                                "solve_infinite_tree"),
    "tree.limit.coupling_solves": ("count", "coupling solves inside the "
                                   "infinite-horizon and mean-field limits"),
    "riccati.dare.calls": ("count", "dare_solve calls"),
    "riccati.dare.iterations": ("count", "sum of DareSolution.iterations"),
    "riccati.dare.failed": ("count", "dare_solve calls that raised"),
    "riccati.step.calls": ("count", "riccati_step calls"),
    "delayed.rank.grid_points": ("count", "unit-circle points tested "
                                 "(computed)"),
    "delayed.nodes": ("count", "information-graph nodes synthesized"),
}
for _layer in LAYERS:
    LAYER_DOC[f"{_layer}.self_s"] = ("s", f"self time of {_layer} spans")
LAYER_DOC["trace.overhead_frac"] = ("ratio", "traced / untraced wall_s - 1")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []            # [layer, start, end, parent index, function]
        self.stack = []
        self.counts = defaultdict(float)
        self._patches = []
        self._draw_keys = set()

    # -- recording ----------------------------------------------------------

    def inside(self, *fn_names):
        return any(self.spans[i][4] in fn_names for i in self.stack)

    def _enter(self, layer, fn_name):
        """Opens a span; returns True when it enters ``layer`` from outside."""
        parent = self.stack[-1] if self.stack else None
        if parent is None:
            self._draw_keys = set()
        self.spans.append([layer, self.clock(), None, parent, fn_name])
        self.stack.append(len(self.spans) - 1)
        return parent is None or self.spans[parent][0] != layer

    def _exit(self):
        idx = self.stack.pop()
        self.spans[idx][2] = self.clock()

    def wrap(self, layer, fn, count=None):
        sig = inspect.signature(fn)

        def arguments(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        def traced(*args, **kwargs):
            entry = self._enter(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if count is not None:
                    count(self, entry, arguments(args, kwargs), None, True)
                raise
            finally:
                self._exit()
            if count is not None:
                count(self, entry, arguments(args, kwargs), result, False)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def _replace(self, modname, attr, make):
        """Replaces ``attr`` of ``modname`` (or ``Class.method``) by
        ``make(original)`` in every teamlqg namespace that binds it."""
        home = importlib.import_module(modname)
        if "." in attr:
            cls_name, name = attr.split(".")
            home = getattr(home, cls_name)
            owners = [home]
        else:
            name = attr
            owners = [importlib.import_module(m) for m in MODULES]
        fn = getattr(home, name)
        new = make(fn)
        for owner in owners:
            if getattr(owner, name, None) is fn:
                self._patches.append((owner, name, fn))
                setattr(owner, name, new)

    def install(self):
        for layer, modname, attr in ENTRY_POINTS:
            self._replace(modname, attr,
                          lambda fn: self.wrap(layer, fn, COUNTERS.get(attr)))
        for key, modname, attr in COUNTED_ONLY:
            self._replace(modname, attr, lambda fn: self._counting(fn, key))

    def _counting(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results ------------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for (layer, start, end, _, _), c in zip(self.spans, child):
            out[layer] += (end - start) - c
        return out

    def metrics(self):
        """Every per-layer metric except trace.overhead_frac."""
        st = self.self_times()
        out = {name: self.counts[name] for name in LAYER_DOC
               if name != "trace.overhead_frac"}
        out.update({f"{layer}.self_s": st[layer] for layer in LAYERS})
        draws = self.counts["rng.draw.calls"]
        out["rng.draw.repeat_frac"] = (self.counts["rng.draw.repeats"] / draws
                                       if draws else 0.0)
        return out

    def span_records(self):
        return [{"name": layer, "function": f, "start": s, "end": e,
                 "parent": p} for layer, s, e, p, f in self.spans]


# ---------------------------------------------------------------------------
# counters: (tracer, entry into layer, bound arguments, result, raised)


def _cli_main(tr, entry, a, result, raised):
    tr.counts["cli.calls"] += 1


def _write_report(tr, entry, a, result, raised):
    if not raised:
        tr.counts["cli.report_kb"] += os.path.getsize(a["path"]) / 1e3


def _draw(tr, entry, a, result, raised):
    sampler, T, R, seed = a["self"], a["T"], a["n_rollouts"], a["seed"]
    N, n = sampler.n_dm, sampler.n
    k = (n + N * n if sampler._split is not None else N * n) + T * N * n
    c = tr.counts
    c["rng.draw.calls"] += 1
    c["rng.draw.rollouts"] += R
    c["rng.draw.variates"] += R * k
    c["rng.draw.raw_mb"] += 8 * R * k / 1e6
    key = (seed, T, R, N, n, sampler.family)
    if key in tr._draw_keys:
        c["rng.draw.repeats"] += 1
    tr._draw_keys.add(key)


def _rollout_entry(tr, entry, a, result, raised):
    if entry:
        tr.counts["sim.rollout.calls"] += 1


def _tree_mc(tr, entry, a, result, raised):
    _rollout_entry(tr, entry, a, result, raised)
    tr.counts["sim.rollout.agent_steps"] += (a["n_rollouts"] * a["T"]
                                             * a["pset"].n_dm)


def _graph_mc(tr, entry, a, result, raised):
    _rollout_entry(tr, entry, a, result, raised)
    tr.counts["sim.rollout.agent_steps"] += (a["n_rollouts"] * a["T"]
                                             * a["spec"].n_dm)


def _moment(tr, entry, dim, T):
    c = tr.counts
    if entry:
        c["moments.calls"] += 1
    c["moments.steps"] += T
    c["moments.state_dim_max"] = max(c["moments.state_dim_max"], dim)
    if entry and tr.inside("pbp_check", "_pbp_graph"):
        c["sim.pbp.cost_evals"] += 1


def _exact_cost_general(tr, entry, a, result, raised):
    from teamlqg.sim import GraphPolicySet

    p = a["policies"]
    if isinstance(p, GraphPolicySet):     # delegates to closed_loop_cost
        return
    _moment(tr, entry, 2 * p.n_dm * a["spec"].n, a["T"])


def _closed_loop_cost(tr, entry, a, result, raised):
    pol, spec = a["policy"], a["spec"]
    T = pol.horizon if a["T"] is None else a["T"]
    dim = spec.n_dm * spec.n + sum(len(r) * spec.n for r in pol.graph.nodes)
    _moment(tr, entry, dim, T)


def _cost_and_grad(tr, entry, a, result, raised):
    c = tr.counts
    batch = a["L"].shape[0]
    c["tree.adjoint.calls"] += 1
    c["tree.adjoint.columns"] += batch
    if tr.stack and tr.spans[tr.stack[-1]][4] == "solve_coupling_gains":
        d = batch - 1          # the dense solve's basis: origin + d unit L's
        c["tree.coupling.unknowns"] += d
        c["tree.coupling.hessian_mb"] += 8 * d * d / 1e6


def _coupling(tr, entry, a, result, raised):
    c = tr.counts
    c["tree.coupling.calls"] += 1
    if tr.inside("solve_infinite_tree", "meanfield_limit_policy"):
        c["tree.limit.coupling_solves"] += 1


def _infinite_tree(tr, entry, a, result, raised):
    if result is not None:
        c = tr.counts
        c["tree.limit.horizon_used"] = max(c["tree.limit.horizon_used"],
                                           result.horizon_used)


def _dare(tr, entry, a, result, raised):
    c = tr.counts
    c["riccati.dare.calls"] += 1
    if raised:
        c["riccati.dare.failed"] += 1
    else:
        c["riccati.dare.iterations"] += result.iterations


def _rank(tr, entry, a, result, raised):
    tr.counts["delayed.rank.grid_points"] += a["grid"]


def _delayed_nodes(tr, entry, a, result, raised):
    if raised:
        return
    pol = result[0] if isinstance(result, tuple) else result
    tr.counts["delayed.nodes"] += len(pol.graph.nodes)


COUNTERS = {
    "main": _cli_main,
    "write_report": _write_report,
    "PrimitiveSampler.draw": _draw,
    "rollout_costs": _rollout_entry,
    "_tree_mc": _tree_mc,
    "_graph_mc": _graph_mc,
    "exact_cost_general": _exact_cost_general,
    "closed_loop_cost": _closed_loop_cost,
    "_cost_and_grad": _cost_and_grad,
    "solve_coupling_gains": _coupling,
    "solve_infinite_tree": _infinite_tree,
    "dare_solve": _dare,
    "_rank_condition": _rank,
    "solve_delayed_finite": _delayed_nodes,
    "solve_delayed_infinite": _delayed_nodes,
}
