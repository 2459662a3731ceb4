"""Command-line entry point.

Usage: teamlqg COMMAND SPECFILE [flags].  Commands parse a JSON spec file,
dispatch the solvers/checks, print a human-readable summary, and return
their report; ``main`` writes every report (with --out) as JSON whose
numbers round-trip losslessly.

Exit codes: 0 success, 1 validation failure, 2 numerical failure,
3 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import delayed as _delayed
from . import sim as _sim
from . import tree as _tree
from .model import (
    Blocked,
    CostSpec,
    Delayed,
    Homogeneous,
    MeanFieldTree,
    NoiseSpec,
    TeamSpec,
    Tree,
    ValidationReport,
    validate,
)
from .riccati import RiccatiError, dare_solve

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 3


class SpecFileError(ValueError):
    pass


# ---------------------------------------------------------------------------
# spec file parsing


SECTIONS = ["model", "cost", "noise", "info"]
SPEC_KEYS = [*SECTIONS, "horizon", "n_dm"]


def _require_keys(obj, allowed, required, where):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SpecFileError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise SpecFileError(f"missing keys in {where}: {sorted(missing)}")


def _integer(data, key):
    """data[key], which must be a JSON integer (not 2.7, "2" or true)."""
    v = data[key]
    if type(v) is not int:
        raise SpecFileError(f"{key} must be an integer, got {v!r}")
    return v


def _delayed_info(delays):
    """Delayed information; null, like "inf", means never shared."""
    return Delayed(delays=tuple(tuple(math.inf if v is None else v for v in row)
                                for row in delays))


# info.kind -> (constructor, its keyword fields)
INFO_KINDS = {"tree": (Tree, []), "meanfield": (MeanFieldTree, []),
              "delayed": (_delayed_info, ["delays"])}


def _build(section, make, fields):
    """make(**fields), naming the section when a grid is not a list."""
    try:
        return make(**fields)
    except TypeError as exc:
        raise SpecFileError(f"malformed {section}: {exc}") from exc


def parse_spec(data: dict) -> TeamSpec:
    """The spec of a decoded spec file.  Each section's keys are checked
    here; the model constructors convert and shape-check every matrix."""
    _require_keys(data, SPEC_KEYS, SPEC_KEYS, "spec file")
    for name in SECTIONS:
        if not isinstance(data[name], dict):
            raise SpecFileError(f"{name} must be a JSON object")
    model, cost, noise, info = (data[name] for name in SECTIONS)
    blocked = "A_blocks" in model or "B_blocks" in model
    fields = ["A_blocks", "B_blocks"] if blocked else ["A", "B"]
    _require_keys(model, fields, fields, "model")
    _require_keys(cost, ["Q", "R", "R_tilde", "Q_tilde", "S"], ["Q", "R"],
                  "cost")
    _require_keys(noise, ["sigma_w", "init_diag", "init_offdiag", "family"],
                  ["sigma_w", "init_diag", "init_offdiag"], "noise")
    kind = info.get("kind")
    if not (isinstance(kind, str) and kind in INFO_KINDS):
        raise SpecFileError(f"info.kind must be tree|meanfield|delayed, got {kind!r}")
    make_info, fields = INFO_KINDS[kind]
    _require_keys(info, ["kind", *fields], ["kind", *fields], "info")
    return TeamSpec(
        n_dm=_integer(data, "n_dm"), horizon=_integer(data, "horizon"),
        dynamics=_build("model", Blocked if blocked else Homogeneous, model),
        cost=_build("cost", CostSpec, cost),
        noise=_build("noise", NoiseSpec, noise),
        info=_build("info", make_info, {k: info[k] for k in fields}))


def _read_object(path, what):
    """The JSON object in the file at path; ``what`` names the file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecFileError(f"{what} must contain a JSON object")
    return data


def load_spec(path: str) -> TeamSpec:
    return parse_spec(_read_object(path, "spec file"))


def write_report(path, payload):
    """Write the payload to path as one line of JSON.  It is encoded before
    the file is opened, so a payload that cannot be encoded leaves no file."""
    text = json.dumps(payload) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SpecFileError(f"cannot write report: {exc}") from exc


# ---------------------------------------------------------------------------
# policy (de)serialization for simulate/verify round-trips


def _field(data, key, where="policy report"):
    if not isinstance(data, dict) or key not in data:
        raise SpecFileError(f"{where} has no {key!r}")
    return data[key]


def _schedule(value, name, shape):
    """A report's schedule as a float array of the given shape."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecFileError(f"policy {name} is not a numeric array") from exc
    if arr.shape != shape:
        raise SpecFileError(f"policy {name} has shape {arr.shape}, expected "
                            f"{shape}")
    return arr


def _report_horizon(data, stationary_ok):
    """A report's horizon: a positive integer, or None if ``stationary_ok``."""
    T = _field(data, "horizon")
    if (T is None and stationary_ok) or (type(T) is int and T >= 1):
        return T
    raise SpecFileError(f"policy horizon {T!r} is not a positive integer")


def _node_gains(data, graph, stages, m, n):
    """data["gains"] as {node r: float array of shape stages + (|r| m,
    |r| n)}, in the report's node order, so that the gains dump back to
    the same bytes.  Solvers list nodes in ``graph.nodes`` order; older
    ``solve-delayed-inf`` reports list self-loop nodes first.  A key that
    is not a node of the graph is refused."""
    table = _field(data, "gains")
    nodes = {_delayed.node_key(r): r for r in graph.nodes}
    for k in nodes:
        _field(table, k, "policy gains")
    for k in table:
        if k not in nodes:
            raise SpecFileError(f"policy gains has {k!r}, which is not a "
                                "node of the spec's information graph")
    return {r: _schedule(table[k], f"gains[{k}]",
                         (*stages, len(r) * m, len(r) * n))
            for k in table if (r := nodes.get(k))}


def policy_from_report(data: dict, spec: TeamSpec):
    """The policy of a solver report (its ``as_dict``) for ``spec``, as
    (policy set, policy).  Raises SpecFileError naming the field when a key
    is missing, a number is not an integer where one is needed, or a
    schedule's shape does not fit the horizon and the spec's (or the
    node's) block sizes.  Only the gains are read: the value matrices
    that older reports also hold (tree "P", graph "values") are ignored."""
    kind = _field(data, "kind")
    n, m = spec.n, spec.m
    if kind == "tree":
        mode_n = data.get("mode_n")
        if not (mode_n is None or type(mode_n) is int):
            raise SpecFileError(f"policy mode_n {mode_n!r} is not an integer")
        mode = _tree.Population(_field(data, "mode"), mode_n)
        if mode.n not in (None, spec.n_dm):
            raise SpecFileError(f"policy is for {mode.n} agents "
                                f"({mode.kind}), the spec has {spec.n_dm}")
        try:    # the report prices its mode's cost, which must be the spec's
            want = _tree.default_mode(spec).kind
        except ValueError as exc:
            want = f"none ({exc})"
        if mode.kind != want and not (mode.kind == "mean_field_limit" and
                                      isinstance(spec.info, MeanFieldTree)):
            raise SpecFileError(f"policy mode {mode.kind} differs from the "
                                f"spec's mode {want}")
        T = _report_horizon(data, stationary_ok=False)
        pol = _tree.TreePolicy(mode=mode, **{
            name: _schedule(_field(data, name), name, (T, m, n))
            for name in "KL"})
        return _sim.TreePolicySet.from_policy(pol, spec.n_dm), pol
    if kind == "delayed":
        graph = _delayed.check_preconditions(spec)
        T = _report_horizon(data, stationary_ok=True)   # None: stationary
        stages = [] if T is None else [T]
        pol = _delayed.GraphPolicy(
            graph=graph, horizon=T,
            gains=_node_gains(data, graph, stages, m, n))
        return _sim.GraphPolicySet(policy=pol), pol
    raise SpecFileError(f"unsupported policy kind {kind!r} in policy file")


def load_policy(path: str, spec: TeamSpec):
    """The policy set of the report at ``path`` and the horizon it runs at:
    a finite policy's own, the spec's for a stationary graph policy."""
    data = _read_object(path, "policy file")
    pset, pol = policy_from_report(data.get("policy", data), spec)
    return pset, spec.horizon if pol.horizon is None else pol.horizon


# ---------------------------------------------------------------------------
# commands


def _validated_spec(path):
    spec = load_spec(path)
    rep = validate(spec)
    if not rep.ok:
        names = ", ".join(c.name for c in rep.failed())
        raise SpecFileError(f"spec validation failed: {names}")
    return spec


def _checks_report(rep):
    """Print a ValidationReport's lines; return its report."""
    print(rep.summary())
    return {"ok": rep.ok, "checks": [asdict(c) for c in rep.checks]}


def cmd_check(args):
    return _checks_report(validate(load_spec(args.spec)))


def cmd_solve_tree(args):
    spec = _validated_spec(args.spec)
    T = spec.horizon
    pol = _tree.solve_tree(spec, T)
    cost = _tree.predicted_cost(spec, pol)
    print(f"tree policy solved: horizon {T}, mode {pol.mode.kind}")
    _print_summary(cost, pol)
    return {"predicted_cost": cost, "policy": pol.as_dict()}


def _print_summary(cost, pol):
    """The predicted cost and the largest gains of a tree policy, in lines
    that do not grow with the horizon; the report holds every stage."""
    peak = lambda G: float(np.linalg.norm(G, axis=(1, 2)).max())
    print(f"predicted cost: {cost:.12g}")
    print(f"max_t |K_t| {peak(pol.K):.6g}, max_t |L_t| {peak(pol.L):.6g} "
          "(Frobenius)")


def cmd_solve_tree_inf(args):
    spec = _validated_spec(args.spec)
    pol = _tree.solve_infinite_tree(spec)
    print(f"stationary gain K = {pol.K.ravel().tolist()}")
    print(f"value matrix P = {pol.P.ravel().tolist()}")
    print(f"average cost = {pol.average_cost:.12g}")
    print(f"closed-loop spectral radius = {pol.closed_loop_radius:.6g}")
    print(f"coupling schedule below 1e-8 from stage {pol.horizon_used}")
    return {"policy": pol.as_dict()}


def cmd_solve_ndm(args):
    spec = _validated_spec(args.spec)
    if args.n < 2:
        raise SpecFileError("--n must be at least 2")
    _tree.tree_dynamics(spec)    # refused here, not by the resize below
    nspec = replace(spec, n_dm=args.n)
    T = spec.horizon
    pol = _tree.solve_tree(nspec, T, mode=_tree.n_dm(args.n))
    cost = _tree.predicted_cost(nspec, pol)
    print(f"{args.n}-agent policy solved: horizon {T}")
    print(f"predicted cost: {cost:.12g}")
    return {"n": args.n, "predicted_cost": cost, "policy": pol.as_dict()}


def cmd_solve_mf(args):
    spec = _validated_spec(args.spec)
    T = spec.horizon
    pol = _tree.meanfield_limit_policy(spec, T)
    L_N = _tree.solve_coupling_gains(spec, T, _tree.mean_field(spec.n_dm))
    gap = float(max(map(np.linalg.norm, L_N - pol.L)))
    cost = _tree.predicted_cost(spec, pol)
    print(f"mean-field limit policy solved at horizon {T}")
    print(f"  N={spec.n_dm:4d}  max_t |L^N - L^inf| {gap:.3e}")
    _print_summary(cost, pol)
    return {"predicted_cost": cost,
            "convergence": [{"N": spec.n_dm, "L_gap": gap}],
            "policy": pol.as_dict()}


def cmd_solve_delayed(args):
    spec = _validated_spec(args.spec)
    T = spec.horizon
    pol, cost = _delayed.solve_delayed_finite(spec, T)
    print(f"delayed-sharing policy solved: horizon {T}")
    print("information graph:")
    print("  " + pol.graph.adjacency_listing().replace("\n", "\n  "))
    print(f"predicted cost: {cost:.12g}")
    return {"predicted_cost": cost, "policy": pol.as_dict()}


def cmd_solve_delayed_inf(args):
    spec = _validated_spec(args.spec)
    pol, radius, cost = _delayed.solve_delayed_infinite(spec)
    print("stationary delayed-sharing policy solved")
    print("  " + pol.graph.adjacency_listing().replace("\n", "\n  "))
    print(f"average cost = {cost:.12g}")
    print(f"closed-loop spectral radius = {radius:.6g}")
    return {"average_cost": cost, "closed_loop_radius": radius,
            "policy": pol.as_dict()}


def cmd_dare(args):
    spec = _validated_spec(args.spec)
    sol = dare_solve(*_tree.homogeneous_dynamics(spec), spec.cost.Q,
                     spec.cost.R)
    print(f"P = {sol.P.ravel().tolist()}")
    print(f"K = {sol.K.ravel().tolist()}")
    print(f"relative residual = {sol.residual:.3e} after {sol.iterations} doublings")
    return {"P": sol.P.tolist(), "K": sol.K.tolist(),
            "residual": sol.residual, "iterations": sol.iterations}


def _check_rollouts(args):
    if args.rollouts < 1:
        raise SpecFileError("--rollouts must be at least 1")


def cmd_simulate(args):
    _check_rollouts(args)
    spec = _validated_spec(args.spec)
    pset, T = load_policy(args.policy, spec)
    rep = _sim.simulate(spec, pset, T, args.rollouts, args.seed)
    print(f"mean cost = {rep.mean_cost:.12g} +/- {rep.std_error:.3g} "
          f"(1 SE, {rep.n_rollouts} rollouts, seed {rep.seed})")
    return rep.as_dict()


def cmd_sweep_mft(args):
    _check_rollouts(args)
    spec = _validated_spec(args.spec)
    try:
        schedule = [int(v) for v in args.schedule.split(",") if v]
    except ValueError as exc:
        raise SpecFileError(f"bad --schedule: {exc}") from exc
    rows = _sim.mft_sweep(spec, spec.horizon, schedule, args.rollouts,
                          args.seed)
    cols = ["N", "L_diff_prev", "predicted_cost", "mc_cost", "cost_gap",
            "mc_cost_gap", "cost_gap_3se", "moment_dist_second",
            "ui_surrogate"]
    print("\t".join(cols))
    for row in rows:
        print("\t".join(
            "-" if row[c] is None else (str(row[c]) if c == "N" else f"{row[c]:.6g}")
            for c in cols
        ))
    return {"table": rows}


def cmd_verify(args):
    _check_rollouts(args)
    if args.rollouts < 2:
        raise SpecFileError("verify needs --rollouts of at least 2: one "
                            "rollout has no standard error, so every 3-SE "
                            "band would be empty")
    spec = _validated_spec(args.spec)
    if args.policy:
        pset, T = load_policy(args.policy, spec)
    else:
        T = spec.horizon
        pset = _sim.TreePolicySet.from_policy(_tree.solve_tree(spec, T),
                                              spec.n_dm)

    rep = ValidationReport()
    defect, where, cost = _sim.pbp_check(spec, pset, T)
    holder, t, gain, (a, b), g = where
    rep.add("pbp_check", defect < _sim.PBP_REL_TOL,
            f"max unilateral improvement {defect:.3e} |J| at {holder}, "
            f"t={t}, {gain}[{a},{b}], g={g:.3e}")

    if isinstance(pset, _sim.TreePolicySet):
        perm = list(range(1, spec.n_dm)) + [0]
        (delta, ci), (cs, co, ci2) = _sim.symmetry_checks(
            spec, pset, perm, args.rollouts, args.seed)
        rep.add("exchangeability_check",
                abs(delta) <= max(ci, 1e-12 * abs(cost)),
                f"delta {delta:.3e} +/- {ci:.3e}")
        rep.add("symmetrization_check", _sim.symmetrization_holds(cs, co, ci2),
                f"symmetrized {cs:.6g} vs original {co:.6g}")
        ce = _sim.certainty_equivalence_check(spec, pset, cost, args.rollouts,
                                              args.seed)
        rep.add("certainty_equivalence_check", ce["uniform_mc_within_3se"],
                f"uniform-noise MC {ce['uniform_mc_cost']:.6g} vs exact "
                f"{ce['exact_cost']:.6g} +/- {ce['uniform_mc_3se']:.3g}")
    return _checks_report(rep)


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser():
    """The CLI's parser, built once per process: parsing leaves it
    unchanged, and no action has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="teamlqg",
        description="Solvers and checks for decentralized LQG team problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("spec", help="JSON spec file")
        p.add_argument("--out", help="write a JSON report to this path")
        p.set_defaults(fn=fn)
        return p

    add("check", cmd_check, help="validate a spec file")
    add("solve-tree", cmd_solve_tree, help="finite-horizon tree policy")
    add("solve-tree-inf", cmd_solve_tree_inf,
        help="average-cost stationary tree policy")
    p = add("solve-ndm", cmd_solve_ndm, help="N-agent sum-coupled policy")
    p.add_argument("--n", type=int, required=True)
    add("solve-mf", cmd_solve_mf, help="mean-field limit policy")
    add("solve-delayed", cmd_solve_delayed,
        help="finite-horizon delayed-sharing policy")
    add("solve-delayed-inf", cmd_solve_delayed_inf,
        help="stationary delayed-sharing policy")
    add("dare", cmd_dare, help="stationary Riccati solve on (A, B, Q, R)")
    p = add("simulate", cmd_simulate, help="Monte Carlo policy evaluation")
    p.add_argument("--policy", required=True, help="policy report file")
    p.add_argument("--rollouts", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p = add("sweep-mft", cmd_sweep_mft, help="mean-field convergence sweep")
    p.add_argument("--schedule", required=True,
                   help="comma-separated population sizes, e.g. 2,4,8")
    p.add_argument("--rollouts", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p = add("verify", cmd_verify, help="run the structural check suite")
    p.add_argument("--policy", help="policy report file (default: re-solve)")
    p.add_argument("--rollouts", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        payload = args.fn(args)
        if args.out:
            write_report(args.out, {"command": args.command, **payload})
    except (RiccatiError, _tree.CouplingSystemError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK if payload.get("ok", True) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
