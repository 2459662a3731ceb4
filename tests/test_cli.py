"""Command-line interface: spec parsing, commands, exit codes, round-trips."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from teamlqg.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    build_parser,
    load_policy,
    load_spec,
    main,
    policy_from_report,
    write_report,
)
from teamlqg import delayed, sim, tree
from teamlqg.model import Delayed, MeanFieldTree, Tree
from teamlqg.riccati import RiccatiError, dare_solve

GOLDEN = {
    "n_dm": 2,
    "horizon": 3,
    "model": {"A": [[1.0]], "B": [[1.0]]},
    "cost": {"Q": [[1.0]], "R": [[1.0]], "R_tilde": [[0.5]]},
    "noise": {"sigma_w": [[1.0]], "init_diag": [[1.0]],
              "init_offdiag": [[0.5]]},
    "info": {"kind": "tree"},
}

MF = {
    "n_dm": 4,
    "horizon": 3,
    "model": {"A": [[0.9]], "B": [[1.0]]},
    "cost": {"Q": [[1.0]], "R": [[1.0]], "R_tilde": [[0.4]],
             "Q_tilde": [[0.2]]},
    "noise": {"sigma_w": [[0.5]], "init_diag": [[1.0]],
              "init_offdiag": [[0.3]]},
    "info": {"kind": "meanfield"},
}

DELAYED = {
    "n_dm": 2,
    "horizon": 3,
    "model": {
        "A_blocks": [[[[0.8]], [[0.3]]], [[[0.2]], [[0.7]]]],
        "B_blocks": [[[[1.0]], [[0.4]]], [[[0.1]], [[1.2]]]],
    },
    "cost": {"Q": [[1.0]], "R": [[1.0]], "S": [[0.2]]},
    "noise": {"sigma_w": [[0.6]], "init_diag": [[1.0]],
              "init_offdiag": [[0.0]]},
    "info": {"kind": "delayed", "delays": [[0, 1], [1, 0]]},
}


# n = m = 2 tree spec whose coupling modes do not share one weight
TINF = {
    "n_dm": 2,
    "horizon": 6,
    "model": {"A": [[0.9, 0.2], [0.0, 0.7]], "B": [[1.0, 0.0], [0.3, 1.0]]},
    "cost": {"Q": [[1.0, 0.0], [0.0, 2.0]], "R": [[1.0, 0.0], [0.0, 0.5]],
             "R_tilde": [[0.5, 0.1], [0.1, 0.3]]},
    "noise": {"sigma_w": [[1.0, 0.0], [0.0, 1.0]],
              "init_diag": [[1.0, 0.3], [0.3, 2.0]],
              "init_offdiag": [[0.4, 0.1], [0.1, 0.2]]},
    "info": {"kind": "tree"},
}


def _src_env():
    """The environment of a subprocess that imports this checkout's src."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


def write_spec(tmp_path, data, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


class TestSpecParsing:
    def test_tree_spec_round_trip(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, GOLDEN))
        assert isinstance(spec.info, Tree)
        assert spec.n_dm == 2 and spec.horizon == 3
        assert np.array_equal(spec.cost.R_tilde, [[0.5]])

    def test_meanfield_and_delayed_kinds(self, tmp_path):
        assert isinstance(load_spec(write_spec(tmp_path, MF)).info,
                          MeanFieldTree)
        spec = load_spec(write_spec(tmp_path, DELAYED))
        assert isinstance(spec.info, Delayed)
        assert spec.info.delays[0][1] == 1.0

    def test_infinite_delay_spellings(self, tmp_path):
        data = json.loads(json.dumps(DELAYED))
        data["model"] = {"A": [[0.8]], "B": [[1.0]]}
        data["cost"] = {"Q": [[1.0]], "R": [[1.0]]}
        data["info"]["delays"] = [[0, "inf"], [None, 0]]
        spec = load_spec(write_spec(tmp_path, data))
        assert spec.info.delays[0][1] == float("inf")
        assert spec.info.delays[1][0] == float("inf")

    def test_unknown_keys_rejected(self, tmp_path):
        data = dict(GOLDEN)
        data["extra"] = 1
        assert main(["check", write_spec(tmp_path, data)]) == EXIT_VALIDATION
        data2 = json.loads(json.dumps(GOLDEN))
        data2["cost"]["bogus"] = [[1.0]]
        assert main(["check", write_spec(tmp_path, data2)]) == EXIT_VALIDATION

    def test_missing_file_and_bad_json(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == EXIT_VALIDATION
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d.update(cost=5), "cost"),
        (lambda d: d.update(model=[1]), "model"),
        (lambda d: d.update(info=[1]), "info"),
        (lambda d: d.update(horizon=None), "horizon"),
        (lambda d: d.update(n_dm=2.7), "n_dm"),
        (lambda d: d.update(n_dm="2"), "n_dm"),
        (lambda d: d["info"].update(delays=5), "info"),
        (lambda d: d["model"].update(A_blocks=5), "model"),
        (lambda d: d["cost"].update(Q=[["a"]]), "Q"),
        (lambda d: d["cost"].update(Q=[[1.0], [1.0, 2.0]]), "Q"),
        (lambda d: d["cost"].update(Q=[1.0]), "Q"),
        (lambda d: d["cost"].update(Q=[[float("nan")]]), "Q has a non-finite"),
        (lambda d: d["noise"].update(sigma_w=[[float("inf")]]),
         "sigma_w has a non-finite"),
        (lambda d: d["cost"].update(S=[[float("-inf")]]), "S has a non-finite"),
        (lambda d: d["model"]["A_blocks"][0].__setitem__(1, [[float("nan")]]),
         "A block has a non-finite"),
        (lambda d: d["info"]["delays"][0].__setitem__(1, "abc"),
         "info.delays[0][1] = 'abc'"),
        (lambda d: d["info"]["delays"][1].__setitem__(0, [1]),
         "info.delays[1][0]"),
    ], ids=["cost-number", "model-list", "info-list", "horizon-null",
            "n_dm-float", "n_dm-string", "delays-number", "A_blocks-number",
            "Q-strings", "Q-ragged", "Q-1d", "Q-nan", "sigma_w-infinity",
            "S-minus-infinity", "A_blocks-nan", "delay-string", "delay-list"])
    def test_malformed_spec_exits_1_naming_the_field(self, tmp_path, capsys,
                                                     edit, named):
        """A section that is not an object, a count that is not a JSON
        integer, a grid or matrix of the wrong form, a NaN or infinite
        matrix entry, or a delay that is not a number is one error line
        naming it, not a traceback, a numpy warning, a check failing on NaN
        or a run at a truncated count."""
        data = json.loads(json.dumps(DELAYED))
        edit(data)
        assert main(["check", write_spec(tmp_path, data)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and named in line
        assert captured.out == ""


class TestCommands:
    def test_check_passes_on_golden(self, tmp_path, capsys):
        assert main(["check", write_spec(tmp_path, GOLDEN)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_parser_is_built_once_and_parses_each_call_afresh(self):
        """The cached parser keeps no state between calls: a verify without
        --out after a simulate --out r.json sees its own defaults."""
        assert build_parser() is build_parser()
        first = build_parser().parse_args(
            ["simulate", "s.json", "--policy", "p.json", "--rollouts", "5",
             "--seed", "1", "--out", "r.json"])
        second = build_parser().parse_args(
            ["verify", "s.json", "--rollouts", "7", "--seed", "2"])
        assert (first.command, first.out, first.rollouts) == (
            "simulate", "r.json", 5)
        assert vars(second) == {
            "command": "verify", "spec": "s.json", "out": None,
            "policy": None, "rollouts": 7, "seed": 2, "fn": second.fn}
        assert second.fn is not first.fn

    def test_check_fails_on_bad_covariance(self, tmp_path):
        data = json.loads(json.dumps(GOLDEN))
        data["noise"]["init_offdiag"] = [[1.5]]
        assert main(["check", write_spec(tmp_path, data)]) == EXIT_VALIDATION

    def test_check_fails_on_single_agent_mean_field(self, tmp_path, capsys):
        """A one-agent mean-field spec fails validation by name, and so does
        every solver command on it, instead of failing inside the solver."""
        data = json.loads(json.dumps(MF))
        data["n_dm"] = 1
        spec_path = write_spec(tmp_path, data)
        assert main(["check", spec_path]) == EXIT_VALIDATION
        assert "[FAIL] mean-field population n_dm >= 2" in \
            capsys.readouterr().out
        for argv in (["solve-tree"], ["solve-mf"],
                     ["sweep-mft", "--schedule", "2,4,8", "--rollouts", "10",
                      "--seed", "1"]):
            assert main(argv[:1] + [spec_path] + argv[1:]) == EXIT_VALIDATION
            assert "mean-field population n_dm >= 2" in capsys.readouterr().err

    def test_dare_golden_ratio_report(self, tmp_path, capsys):
        out_path = str(tmp_path / "dare.json")
        assert main(["dare", write_spec(tmp_path, GOLDEN),
                     "--out", out_path]) == EXIT_OK
        report = json.loads(open(out_path).read())
        assert abs(report["P"][0][0] - 1.6180339887) < 1e-8

    def test_solve_tree_and_simulate_round_trip(self, tmp_path):
        spec_path = write_spec(tmp_path, GOLDEN)
        pol_path = str(tmp_path / "pol.json")
        assert main(["solve-tree", spec_path, "--out", pol_path]) == EXIT_OK

        r1 = str(tmp_path / "sim1.json")
        r2 = str(tmp_path / "sim2.json")
        for r in (r1, r2):
            assert main(["simulate", spec_path, "--policy", pol_path,
                         "--rollouts", "500", "--seed", "11",
                         "--out", r]) == EXIT_OK
        assert open(r1).read() == open(r2).read()  # bitwise round trip

        rep = json.loads(open(r1).read())
        pol = json.loads(open(pol_path).read())
        assert abs(rep["mean_cost"] - pol["predicted_cost"]) \
            <= 5 * rep["std_error"]

    def test_seed_outside_64_bits_exits_1(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, GOLDEN)
        pol_path = str(tmp_path / "pol.json")
        assert main(["solve-tree", spec_path, "--out", pol_path]) == EXIT_OK
        for seed in ("-1", str(1 << 64)):
            capsys.readouterr()
            assert main(["simulate", spec_path, "--policy", pol_path,
                         "--rollouts", "10", "--seed", seed]) \
                == EXIT_VALIDATION
            assert f"seed {seed} is outside" in capsys.readouterr().err

    def test_independent_initial_states_solve(self, tmp_path):
        """init_offdiag = 0 makes the coupling statistic 0, so every tree
        solve succeeds with L = 0."""
        data = json.loads(json.dumps(GOLDEN))
        data["noise"]["init_offdiag"] = [[0.0]]
        spec_path = write_spec(tmp_path, data)
        pol_path = str(tmp_path / "pol.json")
        for args in (["check"], ["solve-tree"], ["solve-tree-inf"],
                     ["solve-ndm", "--n", "3"], ["solve-mf"]):
            assert main([args[0], spec_path, *args[1:],
                         "--out", pol_path]) == EXIT_OK, args[0]
            policy = json.loads(open(pol_path).read()).get("policy", {})
            if "L" in policy:
                assert not np.any(policy["L"]), args[0]
            elif "z0" in policy:   # stationary: an empty realization
                assert policy["z0"] == [] and policy["horizon_used"] == 0

    def test_solve_delayed_round_trip(self, tmp_path):
        spec_path = write_spec(tmp_path, DELAYED)
        pol_path = str(tmp_path / "dpol.json")
        assert main(["solve-delayed", spec_path, "--out", pol_path]) == EXIT_OK
        rep_path = str(tmp_path / "dsim.json")
        assert main(["simulate", spec_path, "--policy", pol_path,
                     "--rollouts", "2000", "--seed", "4",
                     "--out", rep_path]) == EXIT_OK
        rep = json.loads(open(rep_path).read())
        pred = json.loads(open(pol_path).read())["predicted_cost"]
        assert abs(rep["mean_cost"] - pred) <= 5 * rep["std_error"]

    def test_stationary_delayed_report_simulates(self, tmp_path, capsys):
        """A solve-delayed-inf report (horizon null) loads as the stationary
        policy: simulate prices it within 5 SE of its exact cost at the
        spec's horizon, and verify, whose pbp check needs a finite horizon,
        exits 1 by name instead of a traceback."""
        spec_path = write_spec(tmp_path, DELAYED)
        pol_path = str(tmp_path / "dinf.json")
        assert main(["solve-delayed-inf", spec_path,
                     "--out", pol_path]) == EXIT_OK
        rep_path = str(tmp_path / "dsim.json")
        assert main(["simulate", spec_path, "--policy", pol_path,
                     "--rollouts", "2000", "--seed", "4",
                     "--out", rep_path]) == EXIT_OK
        rep = json.loads(open(rep_path).read())
        spec = load_spec(spec_path)
        exact = delayed.closed_loop_cost(
            spec, delayed.solve_delayed_infinite(spec)[0], DELAYED["horizon"])
        assert abs(rep["mean_cost"] - exact) <= 5 * rep["std_error"]
        capsys.readouterr()
        assert main(["verify", spec_path, "--policy", pol_path,
                     "--rollouts", "200", "--seed", "4"]) == EXIT_VALIDATION
        assert "finite-horizon graph policy required" in \
            capsys.readouterr().err

    def test_solve_tree_inf_and_delayed_inf(self, tmp_path, capsys):
        assert main(["solve-tree-inf", write_spec(tmp_path, GOLDEN)]) == EXIT_OK
        assert "average cost" in capsys.readouterr().out
        assert main(["solve-delayed-inf",
                     write_spec(tmp_path, DELAYED)]) == EXIT_OK

    @pytest.mark.parametrize("command, base", [("solve-tree", GOLDEN),
                                               ("solve-mf", MF)])
    def test_solve_stdout_does_not_grow_with_horizon(self, tmp_path, capsys,
                                                     command, base):
        """The report holds every stage; stdout is a fixed-size summary."""
        lines = []
        for T in (4, 64):
            spec_path = write_spec(tmp_path, dict(base, horizon=T))
            assert main([command, spec_path]) == EXIT_OK
            out = capsys.readouterr().out
            assert "predicted cost: " in out and "max_t |K_t| " in out
            lines.append(len(out.splitlines()))
        assert lines[0] == lines[1]

    def test_solve_ndm_and_mf(self, tmp_path):
        assert main(["solve-ndm", write_spec(tmp_path, GOLDEN),
                     "--n", "3"]) == EXIT_OK
        out_path = str(tmp_path / "mf.json")
        assert main(["solve-mf", write_spec(tmp_path, MF),
                     "--out", out_path]) == EXIT_OK
        report = json.loads(open(out_path).read())
        assert report["convergence"][0]["N"] == MF["n_dm"]

    def test_solve_mf_report_simulates_per_agent(self, tmp_path):
        """simulate prices a solve-mf report per agent, as the report's
        predicted cost does (see CostSpec): the mean of 4000 rollouts lies
        within 4 SE of it."""
        spec_path = write_spec(tmp_path, MF)
        pol_path = str(tmp_path / "mf.json")
        sim_path = str(tmp_path / "sim.json")
        assert main(["solve-mf", spec_path, "--out", pol_path]) == EXIT_OK
        assert main(["simulate", spec_path, "--policy", pol_path,
                     "--rollouts", "4000", "--seed", "1",
                     "--out", sim_path]) == EXIT_OK
        rep, pol = (json.loads(open(p).read()) for p in (sim_path, pol_path))
        assert abs(rep["mean_cost"] - pol["predicted_cost"]) \
            <= 4 * rep["std_error"]

    def test_solve_mf_gap_to_its_own_population_is_rounding(self, tmp_path,
                                                           capsys):
        """The N-agent weights are N times the limit's, so every N has the
        limit's coupling gains, and the printed max_t |L^N - L^inf| is
        rounding, although L itself is not 0 (correlated initial
        states)."""
        out_path = str(tmp_path / "mf.json")
        assert main(["solve-mf", write_spec(tmp_path, MF),
                     "--out", out_path]) == EXIT_OK
        label = "max_t |L^N - L^inf| "
        (line,) = [l for l in capsys.readouterr().out.splitlines()
                   if label in l]
        assert float(line.split(label)[1]) <= 1e-12
        assert np.abs(json.loads(open(out_path).read())["policy"]["L"]).max() \
            > 0.01

    def test_solve_tree_and_solve_ndm_price_two_agents_alike(self, tmp_path):
        """One pair convention at every N: the two-agent team of a Tree spec
        costs the same through solve-tree and solve-ndm --n 2."""
        spec_path = write_spec(tmp_path, GOLDEN)
        costs = []
        for argv in (["solve-tree"], ["solve-ndm", "--n", "2"]):
            out_path = str(tmp_path / "report.json")
            assert main(argv[:1] + [spec_path, "--out", out_path]
                        + argv[1:]) == EXIT_OK
            costs.append(json.loads(open(out_path).read())["predicted_cost"])
        assert costs[0] == costs[1]

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_policy_of_another_population_size_rejected(self, tmp_path, capsys,
                                                        command):
        """A policy solved for three agents, given with a two-agent spec, is
        an input error naming both sizes, not the cost of another team or a
        failed check."""
        spec_path = write_spec(tmp_path, GOLDEN)
        pol_path = str(tmp_path / "pol.json")
        assert main(["solve-ndm", spec_path, "--n", "3",
                     "--out", pol_path]) == EXIT_OK
        capsys.readouterr()
        code = main([command, spec_path, "--policy", pol_path,
                     "--rollouts", "200", "--seed", "7"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "policy is for 3 agents (n_dm), the spec has 2" in captured.err
        assert "pbp_check" not in captured.out

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_tree_report_of_another_mode_rejected(self, tmp_path, capsys,
                                                  command):
        """A tree report prices the cost of its mode, so one priced under
        a cost the spec does not define exits 1 naming both modes: a
        mean_field_N report on a Tree spec of the same size, and a
        mean-field limit report on a one-agent Tree spec (not a division by
        N - 1 = 0).  The limit report still runs on its mean-field spec."""
        tree_cost = {k: v for k, v in MF["cost"].items() if k != "Q_tilde"}
        cases = (
            (["solve-tree"], MF, dict(MF, info={"kind": "tree"},
                                      cost=tree_cost),
             ("mean_field_N", "n_dm")),
            (["solve-mf"], MF, dict(GOLDEN, n_dm=1),
             ("mean_field_limit", "n_dm")),
        )
        for solve, solved_on, given, modes in cases:
            pol_path = str(tmp_path / "pol.json")
            assert main(solve + [write_spec(tmp_path, solved_on, "mf.json"),
                                 "--out", pol_path]) == EXIT_OK
            capsys.readouterr()
            code = main([command, write_spec(tmp_path, given), "--policy",
                         pol_path, "--rollouts", "200", "--seed", "7"])
            assert code == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert all(mode in captured.err for mode in modes)
            assert "mean cost" not in captured.out
            assert "pbp_check" not in captured.out
        assert main(["simulate", write_spec(tmp_path, MF), "--policy",
                     pol_path, "--rollouts", "200", "--seed", "7"]) == EXIT_OK

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_two_dm_policy_report_rejected(self, tmp_path, capsys, command):
        """The two_dm kind is gone, with no alias: a report of it exits 1
        naming the kind."""
        spec_path = write_spec(tmp_path, GOLDEN)
        pol_path = str(tmp_path / "pol.json")
        assert main(["solve-tree", spec_path, "--out", pol_path]) == EXIT_OK
        data = json.loads(open(pol_path).read())
        data["policy"].update(mode="two_dm", mode_n=None)
        open(pol_path, "w").write(json.dumps(data))
        capsys.readouterr()
        code = main([command, spec_path, "--policy", pol_path,
                     "--rollouts", "200", "--seed", "7"])
        assert code == EXIT_VALIDATION
        assert "unknown population kind 'two_dm'" in capsys.readouterr().err

    @pytest.mark.parametrize("base", [GOLDEN, MF], ids=["tree", "meanfield"])
    def test_s_on_tree_spec_rejected(self, tmp_path, capsys, base):
        """No tree-class solver, pricer or rollout reads S, so a Tree or
        MeanFieldTree spec that sets it fails check by name; a delayed
        spec still prices it."""
        data = json.loads(json.dumps(base))
        data["cost"]["S"] = [[0.3]]
        assert main(["check", write_spec(tmp_path, data)]) == EXIT_VALIDATION
        assert "[FAIL] no S under tree info" in capsys.readouterr().out
        assert main(["check", write_spec(tmp_path, DELAYED)]) == EXIT_OK

    def test_q_tilde_on_tree_spec_rejected(self, tmp_path, capsys):
        """The tree-class cost does not price Q_tilde, so a Tree spec that
        sets it fails validation by name, in check and in every solver
        command; mean-field and delayed specs still price it."""
        data = json.loads(json.dumps(GOLDEN))
        data["cost"]["Q_tilde"] = [[0.3]]
        spec_path = write_spec(tmp_path, data)
        assert main(["check", spec_path]) == EXIT_VALIDATION
        assert "[FAIL] no Q_tilde under tree info" in capsys.readouterr().out
        for argv in (["solve-tree"], ["solve-tree-inf"], ["solve-ndm", "--n",
                     "3"], ["verify", "--rollouts", "10", "--seed", "1"]):
            assert main(argv[:1] + [spec_path] + argv[1:]) == EXIT_VALIDATION
            assert "no Q_tilde under tree info" in capsys.readouterr().err
        data = json.loads(json.dumps(DELAYED))
        data["cost"]["Q_tilde"] = [[0.3]]
        for ok in (MF, data):
            assert main(["check", write_spec(tmp_path, ok)]) == EXIT_OK

    @pytest.mark.parametrize("command, spec, flag", [
        ("solve-mf", MF, ["--n-max", "8"]),
        ("solve-delayed-inf", DELAYED, ["--tol", "1e-6"]),
        ("solve-tree-inf", GOLDEN, ["--tol", "1e-8"])])
    def test_stopping_knobs_are_gone(self, tmp_path, command, spec, flag):
        assert main([command, write_spec(tmp_path, spec)] + flag) == EXIT_USAGE

    def test_every_command_on_blocked_dynamics_exits_cleanly(self, tmp_path,
                                                             capsys):
        """Blocked dynamics suit only the delayed-sharing commands: the
        others exit 1 with one error line, never a traceback."""
        spec_path = write_spec(tmp_path, DELAYED)
        pol_path = str(tmp_path / "pol.json")
        mc = ["--rollouts", "50", "--seed", "1"]
        codes = {}
        for argv in (["solve-delayed", "--out", pol_path], ["check"],
                     ["solve-tree"], ["solve-tree-inf"], ["solve-ndm", "--n",
                     "3"], ["solve-mf"], ["solve-delayed-inf"], ["dare"],
                     ["simulate", "--policy", pol_path, *mc],
                     ["sweep-mft", "--schedule", "2,4,8", *mc],
                     ["verify", *mc], ["verify", "--policy", pol_path, *mc]):
            code = main([argv[0], spec_path, *argv[1:]])
            err = capsys.readouterr().err.splitlines()
            assert code == EXIT_OK and err == [] or (
                code == EXIT_VALIDATION and len(err) == 1), (argv, err)
            codes[argv[0]] = code
        assert codes["dare"] == codes["solve-mf"] == EXIT_VALIDATION

    def test_sweep_mft_table(self, tmp_path, capsys):
        assert main(["sweep-mft", write_spec(tmp_path, MF),
                     "--schedule", "2,4,8", "--rollouts", "500",
                     "--seed", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("N\t")
        assert len(out.splitlines()) == 4

    def test_verify_passes_on_solved_policy(self, tmp_path, capsys):
        assert main(["verify", write_spec(tmp_path, GOLDEN),
                     "--rollouts", "4000", "--seed", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("pbp_check", "exchangeability_check",
                     "symmetrization_check", "certainty_equivalence_check"):
            assert f"[PASS] {name}" in out

    def test_verify_draws_solves_and_prices_once(self, tmp_path, monkeypatch):
        """One tree verify repeats no draw of a (seed, family, shape), draws
        the uniform family once (certainty equivalence's rollouts), solves
        the gaussian policy once, prices the profile once (pbp_check's
        ``tree._price``, one propagation and one gain sensitivity pass,
        whose exact cost certainty equivalence reuses), and takes its
        exchangeability and symmetrization numbers bit for bit from the
        standalone checks'.  verify --policy on a saved tree report solves
        nothing."""
        from teamlqg import rng, sim
        draws, solves, passes, verdicts, shared = [], [], [], [], []
        propagations, prices, ce = [], [], []

        def spy(owner, name, note):
            fn = getattr(owner, name)

            def spied(*args, **kwargs):
                out = fn(*args, **kwargs)
                note(out, *args, **kwargs)
                return out
            monkeypatch.setattr(owner, name, spied)

        spy(rng.PrimitiveSampler, "draw",
            lambda out, smp, T, R, seed, first_block=0: draws.append(
                (seed, smp.family, T, R, smp.n_dm, smp.n, first_block)))
        spy(tree, "solve_tree", lambda out, spec, *a, **k: solves.append(
            spec.noise.family))
        monkeypatch.setattr(sim, "solve_tree", tree.solve_tree)
        spy(tree, "propagate", lambda out, *a: propagations.append(out))
        spy(tree, "gain_sensitivity", lambda out, *a: passes.append(out))
        spy(tree, "_price", lambda out, *a: prices.append(out))
        spy(sim, "symmetrization_holds", lambda out, *a: verdicts.append(a))
        spy(sim, "symmetry_checks", lambda out, *a: shared.append(out))
        spy(sim, "certainty_equivalence_check",
            lambda out, *a: ce.append(out))
        spec_path = write_spec(tmp_path, dict(GOLDEN, n_dm=3))
        argv = ["verify", spec_path, "--rollouts", "300", "--seed", "5"]
        assert main(argv) == EXIT_OK
        assert len(draws) == len(set(draws)) == 2
        assert [d[1] for d in draws].count("uniform") == 1
        assert solves == ["gaussian"]
        assert len(propagations) == len(passes) == len(prices) == 1
        assert len(shared) == len(ce) == 1
        assert ce[0]["exact_cost"] == prices[0][0]

        pol_path = str(tmp_path / "pol.json")
        assert main(["solve-tree", spec_path, "--out", pol_path]) == EXIT_OK
        solves.clear()
        assert main(argv + ["--policy", pol_path]) == EXIT_OK
        assert solves == []
        # the loaded profile is the solved one, so its checks agree
        assert shared[1] == shared[0] and ce[1] == ce[0]

        spec = load_spec(spec_path)
        pset = sim.TreePolicySet.from_policy(tree.solve_tree(spec), 3)
        (exch, _), _ = shared
        assert exch == sim.exchangeability_check(spec, pset, [1, 2, 0], 300,
                                                 5)
        assert verdicts[0] == sim.symmetrization_check(spec, pset, 300, 5)

    def test_verify_corrupted_gain_exits_1_naming_pbp(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, GOLDEN)
        pol_path = str(tmp_path / "pol.json")
        assert main(["solve-tree", spec_path, "--out", pol_path]) == EXIT_OK
        data = json.loads(open(pol_path).read())
        data["policy"]["L"][0][0][0] += 0.25
        bad_path = str(tmp_path / "bad.json")
        open(bad_path, "w").write(json.dumps(data))
        code = main(["verify", spec_path, "--policy", bad_path,
                     "--rollouts", "2000", "--seed", "7"])
        assert code == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "[FAIL] pbp_check" in out
        # At t = 0 the state is x_0 itself and c = alpha*Sigma x_0 = 0.5 x_0,
        # so the corrupted L[0] entry's g and h are 0.5 and 0.25 times those
        # of K[0] of the same agent: both best moves gain exactly
        # g^2 / (4h), and the tie goes to the first entry checked, agent
        # 1's K.
        pbp_line = next(l for l in out.splitlines() if "pbp_check" in l)
        assert ", t=0, K[0,0], g=2.344e-01)" in pbp_line
        # From t = 1 on the corrupted L entry itself is named.
        data["policy"]["L"][0][0][0] -= 0.25
        data["policy"]["L"][1][0][0] += 0.25
        open(bad_path, "w").write(json.dumps(data))
        code = main(["verify", spec_path, "--policy", bad_path,
                     "--rollouts", "2000", "--seed", "7"])
        assert code == EXIT_VALIDATION
        pbp_line = next(l for l in capsys.readouterr().out.splitlines()
                        if "pbp_check" in l)
        assert pbp_line.startswith("[FAIL] pbp_check")
        assert ", t=1, L[0,0], g=9.375e-02)" in pbp_line

    def test_policy_runs_at_its_own_horizon(self, tmp_path, capsys):
        """simulate and verify --policy run a finite policy at its own
        horizon, whatever the spec's: a policy solved from a horizon-5 spec
        simulates under the horizon-3 spec to the same bytes as under the
        horizon-5 one, and passes verify there."""
        spec3 = write_spec(tmp_path, GOLDEN)
        spec5 = write_spec(tmp_path, dict(GOLDEN, horizon=5), "spec5.json")
        pol_path = str(tmp_path / "pol.json")
        assert main(["solve-tree", spec5, "--out", pol_path]) == EXIT_OK
        mc = ["--rollouts", "200", "--seed", "7"]
        reports = []
        for spec_path in (spec3, spec5):
            out = tmp_path / f"sim{len(reports)}.json"
            assert main(["simulate", spec_path, "--policy", pol_path, *mc,
                         "--out", str(out)]) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        capsys.readouterr()
        assert main(["verify", spec3, "--policy", pol_path, *mc]) == EXIT_OK
        assert "[PASS] pbp_check" in capsys.readouterr().out

    @pytest.mark.parametrize("command, extra", [
        ("solve-tree", []), ("solve-ndm", ["--n", "3"]), ("solve-mf", []),
        ("solve-delayed", []),
        ("simulate", ["--policy", "p.json", "--rollouts", "5", "--seed", "1"]),
        ("sweep-mft", ["--schedule", "2,4,8", "--rollouts", "5", "--seed",
                       "1"]),
        ("verify", ["--rollouts", "5", "--seed", "1"])])
    def test_horizon_flag_is_gone(self, tmp_path, command, extra):
        """The horizon comes from the spec or the policy: --horizon is a
        usage error on every command."""
        assert main([command, write_spec(tmp_path, GOLDEN), *extra,
                     "--horizon", "5"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["solve-tree"], ["solve-tree-inf"], ["solve-ndm", "--n", "2"],
        ["solve-ndm", "--n", "3"], ["solve-mf"],
        ["sweep-mft", "--schedule", "2,4,8", "--rollouts", "5", "--seed",
         "1"]], ids=["solve-tree", "solve-tree-inf", "solve-ndm-2",
                     "solve-ndm-3", "solve-mf", "sweep-mft"])
    def test_tree_class_commands_refuse_delayed_information(
            self, tmp_path, capsys, argv):
        """A delayed spec with S and Q_tilde, which no tree-class solver
        prices, exits 1 from every tree-class command naming the
        information, whether the command names a mode or not."""
        data = json.loads(json.dumps(DELAYED))
        data["model"] = {"A": [[0.8]], "B": [[1.0]]}
        data["cost"].update(S=[[0.3]], Q_tilde=[[0.2]])
        out = str(tmp_path / "out.json")
        code = main([argv[0], write_spec(tmp_path, data), *argv[1:],
                     "--out", out])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.err == ("error: tree solver needs Tree or "
                                "MeanFieldTree information\n")
        assert "predicted cost" not in captured.out
        assert not os.path.exists(out)


class TestOneAgentTree:
    """A one-agent Tree spec passes ``check`` (the dare specs are such
    specs), so the tree-class commands solve it: one agent has no pairs and
    no coupling statistic, so its policy is the LQR one with L = 0."""

    SPEC = {
        "n_dm": 1, "horizon": 5,
        "model": {"A": [[0.9, 0.2], [0.0, 1.1]],
                  "B": [[1.0, 0.0], [0.3, 1.0]]},
        "cost": {"Q": [[1.0, 0.0], [0.0, 2.0]], "R": [[1.0, 0.0], [0.0, 0.5]],
                 "R_tilde": [[0.5, 0.1], [0.1, 0.3]]},
        "noise": {"sigma_w": [[1.0, 0.2], [0.2, 0.7]],
                  "init_diag": [[1.0, 0.3], [0.3, 2.0]],
                  "init_offdiag": [[0.4, 0.1], [0.1, 0.2]]},
        "info": {"kind": "tree"},
    }

    def _matrices(self):
        return (*(np.array(self.SPEC["model"][k]) for k in "AB"),
                *(np.array(self.SPEC["cost"][k]) for k in "QR"))

    def _report(self, tmp_path, command):
        out = str(tmp_path / "out.json")
        spec_path = write_spec(tmp_path, self.SPEC)
        assert main(["check", spec_path]) == EXIT_OK
        assert main([command, spec_path, "--out", out]) == EXIT_OK
        return json.loads(open(out).read())

    def test_finite_gains_are_the_lqr_recursion(self, tmp_path):
        A, B, Q, R = self._matrices()
        P, K = np.zeros((2, 2)), []
        for _ in range(self.SPEC["horizon"]):
            G = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
            P = Q + A.T @ P @ (A + B @ G)
            K.insert(0, G)
        pol = self._report(tmp_path, "solve-tree")["policy"]
        assert (pol["mode"], pol["mode_n"]) == ("n_dm", 1)
        np.testing.assert_allclose(pol["K"], K, rtol=0, atol=1e-12)
        assert not np.any(pol["L"])

    def test_stationary_gain_and_cost_are_the_dare(self, tmp_path):
        import scipy.linalg

        A, B, Q, R = self._matrices()
        P = scipy.linalg.solve_discrete_are(A, B, Q, R)
        K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        pol = self._report(tmp_path, "solve-tree-inf")["policy"]
        np.testing.assert_allclose(pol["K"], K, rtol=0, atol=1e-10)
        cost = np.trace(P @ np.array(self.SPEC["noise"]["sigma_w"]))
        assert abs(pol["average_cost"] - cost) <= 1e-10 * cost
        assert pol["z0"] == []

    def test_verify_pbp_passes(self, tmp_path, capsys):
        """Only the exact person-by-person line is asserted; the Monte
        Carlo lines' bands are not calibrated at 200 rollouts."""
        main(["verify", write_spec(tmp_path, self.SPEC), "--rollouts", "200",
              "--seed", "1"])
        assert "[PASS] pbp_check" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["solve-mf"],
        ["sweep-mft", "--schedule", "1,2,4", "--rollouts", "5", "--seed",
         "1"]], ids=["solve-mf", "sweep-mft"])
    def test_mean_field_commands_refuse_one_agent(self, tmp_path, capsys,
                                                  argv):
        spec = dict(MF) if argv[0] == "sweep-mft" else self.SPEC
        assert main(argv[:1] + [write_spec(tmp_path, spec)]
                    + argv[1:]) == EXIT_VALIDATION
        assert ("mean_field_N needs a population size n >= 2"
                in capsys.readouterr().err)


class TestPolicyReports:
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("solve, data, mutate, named", [
        ("solve-delayed", DELAYED, lambda p: p["gains"].pop("1,2"), "'1,2'"),
        ("solve-delayed", DELAYED, lambda p: p["gains"]["1"].pop(),
         "gains[1] has shape (2, 1, 1), expected (3, 1, 1)"),
        ("solve-tree", GOLDEN, lambda p: p.update(horizon=5),
         "K has shape (3, 1, 1), expected (5, 1, 1)"),
        ("solve-tree", GOLDEN, lambda p: p.update(mode_n="2"),
         "mode_n '2' is not an integer"),
    ], ids=["delayed-without-node", "delayed-stage-short",
            "tree-horizon-past-schedules", "tree-mode-n-string"])
    def test_malformed_report_exits_1_naming_the_field(
            self, tmp_path, capsys, command, solve, data, mutate, named):
        """A report with a key missing or a schedule whose shape does not
        fit its horizon and the spec's block sizes is an input error naming
        the field, not a traceback or a check run at the schedules' own
        length."""
        spec_path = write_spec(tmp_path, data)
        pol_path = str(tmp_path / "pol.json")
        assert main([solve, spec_path, "--out", pol_path]) == EXIT_OK
        report = json.loads(open(pol_path).read())
        mutate(report["policy"])
        open(pol_path, "w").write(json.dumps(report))
        capsys.readouterr()
        code = main([command, spec_path, "--policy", pol_path,
                     "--rollouts", "200", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert named in captured.err
        assert "pbp_check" not in captured.out

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_report_for_another_graph_exits_1_naming_the_node(
            self, tmp_path, capsys, command):
        """A report solved for delays [[0, 1], [1, 0]] holds node {1, 2},
        which the graph of delays [[0, null], [null, 0]] lacks: an input
        error naming that node, not a run on the nodes the graphs share."""
        pol_path = str(tmp_path / "pol.json")
        linked = dict(DELAYED, model={"A": [[0.8]], "B": [[1.0]]},
                      cost={"Q": [[1.0]], "R": [[1.0]]})
        assert main(["solve-delayed", write_spec(tmp_path, linked),
                     "--out", pol_path]) == EXIT_OK
        apart = dict(linked, info={"kind": "delayed",
                                   "delays": [[0, None], [None, 0]]})
        capsys.readouterr()
        code = main([command, write_spec(tmp_path, apart, "apart.json"),
                     "--policy", pol_path, "--rollouts", "200", "--seed", "7"])
        assert code == EXIT_VALIDATION
        assert "policy gains has '1,2', which is not a node" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ("[1, 2]", "policy file must contain a JSON object"),
        ('{"policy": [1, 2]}', "policy report has no 'kind'"),
    ], ids=["list", "policy-list"])
    def test_report_that_is_not_an_object_exits_1(self, tmp_path, capsys,
                                                   text, named):
        pol_path = tmp_path / "pol.json"
        pol_path.write_text(text)
        code = main(["simulate", write_spec(tmp_path, GOLDEN), "--policy",
                     str(pol_path), "--rollouts", "20", "--seed", "1"])
        assert code == EXIT_VALIDATION
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("data, solve", [
        (GOLDEN, tree.solve_tree),
        (DELAYED, lambda spec: delayed.solve_delayed_finite(spec)[0]),
        (DELAYED, lambda spec: delayed.solve_delayed_infinite(spec)[0]),
    ], ids=["tree", "delayed", "delayed-stationary"])
    def test_report_round_trip_is_bitwise(self, tmp_path, data, solve):
        """A solved policy dumped to JSON and loaded back has the solver's
        gains bit for bit, and dumps to the same bytes again."""
        spec = load_spec(write_spec(tmp_path, data))
        pol = solve(spec)
        text = json.dumps(pol.as_dict())
        _, loaded = policy_from_report(json.loads(text), spec)
        assert json.dumps(loaded.as_dict()) == text
        assert loaded.horizon == pol.horizon
        if isinstance(pol, tree.TreePolicy):
            pairs = [(getattr(pol, f), getattr(loaded, f)) for f in "KL"]
        else:
            pairs = [(pol.gains[r], loaded.gains[r]) for r in pol.graph.nodes]
        for solved, got in pairs:
            assert got.dtype == solved.dtype and got.shape == solved.shape
            assert got.tobytes() == solved.tobytes()

    @pytest.mark.parametrize("command, data", [
        ("solve-tree", GOLDEN), ("solve-delayed-inf", DELAYED),
        ("dare", GOLDEN)], ids=["solve-tree", "solve-delayed-inf", "dare"])
    def test_report_is_one_line_with_the_solvers_arrays(self, tmp_path,
                                                        command, data):
        """An --out report is one line of JSON ending in a newline, and the
        arrays parsed from it are the solver's bit for bit."""
        spec_path = write_spec(tmp_path, data)
        out = tmp_path / "report.json"
        assert main([command, spec_path, "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        report = json.loads(text)
        spec = load_spec(spec_path)
        if command == "solve-tree":
            pol = tree.solve_tree(spec)
            pairs = [(getattr(pol, f), report["policy"][f]) for f in "KL"]
        elif command == "solve-delayed-inf":
            pol = delayed.solve_delayed_infinite(spec)[0]
            pairs = [(pol.gains[r],
                      report["policy"]["gains"][delayed.node_key(r)])
                     for r in pol.graph.nodes]
        else:
            sol = dare_solve(spec.dynamics.A, spec.dynamics.B, spec.cost.Q,
                             spec.cost.R)
            pairs = [(sol.P, report["P"]), (sol.K, report["K"])]
        for solved, parsed in pairs:
            assert np.asarray(parsed).tobytes() == solved.tobytes()
            assert np.asarray(parsed).shape == solved.shape

    @pytest.mark.parametrize("command", ["solve-delayed", "solve-delayed-inf"])
    def test_delayed_reports_list_nodes_in_graph_order(self, tmp_path,
                                                       command):
        """Finite and stationary reports list their gains in the order of
        their own "nodes" list."""
        pol_path = str(tmp_path / "pol.json")
        assert main([command, write_spec(tmp_path, DELAYED),
                     "--out", pol_path]) == EXIT_OK
        pol = json.loads(open(pol_path).read())["policy"]
        keys = [",".join(str(i + 1) for i in r) for r in pol["nodes"]]
        assert list(pol["gains"]) == keys

    def test_report_in_another_node_order_round_trips(self, tmp_path):
        """A stationary report whose nodes come in another order than its
        "nodes" list, as older solve-delayed-inf reports have them, loads
        and dumps back to the same bytes."""
        spec = load_spec(write_spec(tmp_path, DELAYED))
        data = delayed.solve_delayed_infinite(spec)[0].as_dict()
        data["gains"] = dict(reversed(data["gains"].items()))
        text = json.dumps(data)
        _, loaded = policy_from_report(json.loads(text), spec)
        assert json.dumps(loaded.as_dict()) == text

    @pytest.mark.parametrize("command, data", [
        ("solve-tree", GOLDEN), ("solve-delayed", DELAYED),
        ("solve-delayed-inf", DELAYED)])
    def test_reports_with_value_matrices_still_load(self, tmp_path, capsys,
                                                     command, data):
        """Reports in the older format, which also held the value matrices
        (tree "P", graph "values"), load with the solver's gains bit for
        bit, and simulate and verify print and write the same for them as
        for today's report, which holds no value matrices."""
        spec_path = write_spec(tmp_path, data)
        new_path, old_path = tmp_path / "new.json", tmp_path / "old.json"
        assert main([command, spec_path, "--out", str(new_path)]) == EXIT_OK
        new = json.loads(new_path.read_text())
        assert not {"P", "values"} & set(new["policy"])
        with open(os.path.join(os.path.dirname(__file__),
                               "reports_with_values.json")) as fh:
            old = json.load(fh)[command]
        assert {"P", "values"} & set(old["policy"])
        old_path.write_text(json.dumps(old))
        # JSON floats round-trip, so equal text is equal bits
        _, loaded = policy_from_report(old["policy"], load_spec(spec_path))
        assert json.dumps(loaded.as_dict()) == json.dumps(new["policy"])
        runs = []
        for path in (old_path, new_path):
            sim_path = tmp_path / f"sim-{path.name}"
            capsys.readouterr()
            codes = (
                main(["simulate", spec_path, "--policy", str(path),
                      "--rollouts", "200", "--seed", "3",
                      "--out", str(sim_path)]),
                main(["verify", spec_path, "--policy", str(path),
                      "--rollouts", "200", "--seed", "3"]))
            runs.append((codes, capsys.readouterr(), sim_path.read_text()))
        assert runs[0] == runs[1]


class TestUnitScaling:
    """A change of cost or noise units changes no gain and no verdict.  A
    power of two scales every cost exactly, so every ``check`` and
    ``verify`` verdict, and verify's relative pbp defect, must be the same
    to the bit under costs times 2^k, on solved policies and on policies
    with one gain entry moved by 1."""

    SOLVER = {"tree": "solve-tree", "meanfield": "solve-tree",
              "delayed": "solve-delayed"}

    @staticmethod
    def _scaled(data, block, c):
        return dict(data, **{block: {k: (c * np.asarray(v)).tolist()
                                     for k, v in data[block].items()}})

    @staticmethod
    def _verdicts(path):
        return [(c["name"], c["passed"])
                for c in json.loads(open(path).read())["checks"]]

    def _solve(self, tmp_path, data, tag):
        """(spec path, solved report) of ``data``."""
        spec_path = write_spec(tmp_path, data, f"{tag}.json")
        pol_path = str(tmp_path / f"{tag}-pol.json")
        assert main([self.SOLVER[data["info"]["kind"]], spec_path,
                     "--out", pol_path]) == EXIT_OK
        return spec_path, json.loads(open(pol_path).read())

    def _judge(self, tmp_path, spec_path, report, tag):
        """(check verdicts, verify verdicts, pbp defect) of a report."""
        pol_path = write_spec(tmp_path, report, f"{tag}-judged.json")
        out = str(tmp_path / f"{tag}-out.json")
        main(["check", spec_path, "--out", out])
        checked = self._verdicts(out)
        main(["verify", spec_path, "--policy", pol_path, "--rollouts", "20",
              "--seed", "1", "--out", out])
        spec = load_spec(spec_path)
        pset, T = load_policy(pol_path, spec)
        return checked, self._verdicts(out), sim.pbp_check(spec, pset, T)[0]

    @staticmethod
    def _moved(report):
        """The report with one gain entry at t = 0 moved by 1: K_0[0,0],
        or agent 1's own node's first entry."""
        moved = json.loads(json.dumps(report))
        pol = moved["policy"]
        gains = pol["K"] if pol["kind"] == "tree" else pol["gains"]["1"]
        gains[0][0][0] += 1.0
        return moved

    @pytest.mark.parametrize("data", [GOLDEN, TINF, MF, DELAYED],
                             ids=["golden", "tinf", "mf", "delayed"])
    def test_cost_units_change_no_gain_and_no_verdict(self, tmp_path, data):
        spec_path, report = self._solve(tmp_path, data, "base")
        want = [self._judge(tmp_path, spec_path, r, name)
                for r, name in ((report, "solved"),
                                (self._moved(report), "moved"))]
        (_, solved, tiny), (_, moved, big) = want
        assert dict(solved)["pbp_check"] and not dict(moved)["pbp_check"]
        assert tiny < sim.PBP_REL_TOL < big
        for k in (-44, -20, 20):
            tag = f"cost{k}"
            path, rep = self._solve(tmp_path,
                                    self._scaled(data, "cost", 2.0 ** k), tag)
            assert rep["policy"] == report["policy"], k
            got = [self._judge(tmp_path, path, r, f"{tag}-{name}")
                   for r, name in ((rep, "solved"),
                                   (self._moved(rep), "moved"))]
            assert got == want, k

    @pytest.mark.parametrize("data", [GOLDEN, TINF, MF],
                             ids=["golden", "tinf", "mf"])
    def test_noise_units_change_no_gain(self, tmp_path, data):
        _, report = self._solve(tmp_path, data, "base")
        path, rep = self._solve(
            tmp_path, self._scaled(data, "noise", 2.0 ** -44), "noise")
        assert rep["policy"] == report["policy"]
        assert main(["check", path]) == EXIT_OK

    @pytest.mark.parametrize("c", [1.0, 1e-4])
    def test_verify_fails_a_moved_gain_in_any_cost_units(self, tmp_path,
                                                          capsys, c):
        """K_0[0,0] moved by 1 costs 12.7% more than the optimum, in any
        cost units, and pbp_check fails it in each."""
        spec_path, report = self._solve(
            tmp_path, self._scaled(TINF, "cost", c), "tinf")
        bad_path = write_spec(tmp_path, self._moved(report), "bad.json")
        capsys.readouterr()
        main(["verify", spec_path, "--policy", bad_path, "--rollouts", "20",
              "--seed", "1"])
        pbp_line = next(l for l in capsys.readouterr().out.splitlines()
                        if "pbp_check" in l)
        assert pbp_line.startswith("[FAIL] pbp_check")


class TestExitCodes:
    def test_usage_errors(self, tmp_path):
        assert main([]) == EXIT_USAGE
        assert main(["frobnicate", "x.json"]) == EXIT_USAGE
        # stochastic commands require the seed flag
        spec_path = write_spec(tmp_path, GOLDEN)
        assert main(["verify", spec_path, "--rollouts", "10"]) == EXIT_USAGE

    def test_numerical_failure_exit(self, tmp_path):
        data = json.loads(json.dumps(GOLDEN))
        data["model"] = {"A": [[2.0]], "B": [[0.0]]}  # unstabilizable
        data["cost"] = {"Q": [[1.0]], "R": [[1.0]]}
        assert main(["solve-tree-inf",
                     write_spec(tmp_path, data)]) == EXIT_NUMERICAL

    def test_unstable_stationary_loop_raises_and_exits_2(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(tree, "spectral_radius", lambda M: 1.25)
        spec_path = write_spec(tmp_path, GOLDEN)
        with pytest.raises(RiccatiError, match="spectral radius 1.25"):
            tree.solve_infinite_tree(load_spec(spec_path))
        assert main(["solve-tree-inf", spec_path]) == EXIT_NUMERICAL

    def test_coupling_sweep_failure_exits_2(self, tmp_path, monkeypatch):
        """The stationary coupling sweep's DARE (the second DARE of
        solve-tree-inf) failing is a named numerical failure."""
        calls = []

        def dare(A, B, Q, R):
            calls.append(A.shape)
            if len(calls) % 2 == 0:
                raise RiccatiError("DARE doubling did not settle")
            return dare_solve(A, B, Q, R)

        monkeypatch.setattr(tree, "dare_solve", dare)
        spec_path = write_spec(tmp_path, GOLDEN)
        with pytest.raises(tree.CouplingSystemError,
                           match="stationary coupling sweep: DARE doubling"):
            tree.solve_infinite_tree(load_spec(spec_path))
        assert calls == [(1, 1), (1, 1)]
        assert main(["solve-tree-inf", spec_path]) == EXIT_NUMERICAL

    @pytest.mark.parametrize("r_tilde", [2.0, 1.01])
    def test_indefinite_delayed_node_exits_2(self, tmp_path, capsys,
                                             r_tilde):
        """A node whose inner matrix is indefinite is a named numerical
        failure of solve-delayed."""
        data = json.loads(json.dumps(DELAYED))
        data["cost"]["R_tilde"] = [[r_tilde]]
        assert main(["solve-delayed",
                     write_spec(tmp_path, data)]) == EXIT_NUMERICAL
        assert "node {1, 2} at stage 2" in capsys.readouterr().err

    def test_unstable_delayed_estimator_raises_and_exits_2(self, tmp_path,
                                                            monkeypatch):
        monkeypatch.setattr(delayed, "closed_loop_radius",
                            lambda spec, policy: 1.25)
        spec_path = write_spec(tmp_path, DELAYED)
        with pytest.raises(RiccatiError, match="spectral radius 1.25"):
            delayed.solve_delayed_infinite(load_spec(spec_path))
        assert main(["solve-delayed-inf", spec_path]) == EXIT_NUMERICAL

    def test_unstable_loop_exits_2_under_optimize_flag(self, tmp_path):
        """The stability check is not an assert, so ``python -O`` keeps it."""
        code = ("import sys; from teamlqg import cli, tree; "
                "tree.spectral_radius = lambda M: 1.25; "
                f"sys.exit(cli.main(['solve-tree-inf', "
                f"{write_spec(tmp_path, GOLDEN)!r}]))")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env=_src_env(), capture_output=True, text=True)
        assert proc.returncode == EXIT_NUMERICAL, proc.stderr
        assert "spectral radius 1.25" in proc.stderr

    @pytest.mark.parametrize("command", ["solve-tree", "simulate"])
    def test_report_to_missing_directory_exits_1(self, tmp_path, command):
        """A report path that cannot be opened is an input error: exit 1
        with one line naming the path, not a traceback."""
        spec_path = write_spec(tmp_path, GOLDEN)
        argv = [command, spec_path]
        if command == "simulate":
            pol_path = str(tmp_path / "pol.json")
            assert main(["solve-tree", spec_path, "--out", pol_path]) == EXIT_OK
            argv += ["--policy", pol_path, "--rollouts", "20", "--seed", "1"]
        out = str(tmp_path / "missing" / "report.json")
        proc = subprocess.run(
            [sys.executable, "-m", "teamlqg.cli", *argv, "--out", out],
            env=_src_env(), capture_output=True, text=True)
        assert proc.returncode == EXIT_VALIDATION
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: cannot write report: ") and out in line
        assert not os.path.exists(os.path.dirname(out))

    def test_unencodable_report_raises_and_leaves_no_file(self, tmp_path):
        out = tmp_path / "report.json"
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_report(str(out), {"command": "x", "value": object()})
        assert not out.exists()

    @pytest.mark.parametrize("rollouts", ["0", "-5"])
    def test_rollouts_below_one_rejected(self, tmp_path, capsys, rollouts):
        spec_path = write_spec(tmp_path, GOLDEN)
        mf_path = write_spec(tmp_path, MF, "mf.json")
        pol_path = str(tmp_path / "pol.json")
        assert main(["solve-tree", spec_path, "--out", pol_path]) == EXIT_OK
        for command, extra in (("simulate", [spec_path, "--policy", pol_path]),
                               ("verify", [spec_path]),
                               ("sweep-mft", [mf_path, "--schedule", "2,4,8"])):
            out = str(tmp_path / f"{command}.json")
            assert main([command, *extra, "--rollouts", rollouts, "--seed",
                         "1", "--out", out]) == EXIT_VALIDATION
            assert "--rollouts must be at least 1" in capsys.readouterr().err
            assert not os.path.exists(out)

    def test_one_rollout_simulates_with_zero_standard_error(self, tmp_path,
                                                            capsys):
        """--rollouts 1 is the smallest simulate accepts: one rollout, a
        standard error of 0."""
        spec_path = write_spec(tmp_path, GOLDEN)
        pol_path = str(tmp_path / "pol.json")
        out = tmp_path / "sim.json"
        assert main(["solve-tree", spec_path, "--out", pol_path]) == EXIT_OK
        assert main(["simulate", spec_path, "--policy", pol_path,
                     "--rollouts", "1", "--seed", "1",
                     "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["n_rollouts"] == 1 and report["std_error"] == 0.0
        assert "--rollouts" not in capsys.readouterr().err

    def test_two_rollouts_verify(self, tmp_path, capsys):
        """--rollouts 2 is the smallest verify accepts: it runs every check
        rather than failing with the rollouts error."""
        out = tmp_path / "verify.json"
        main(["verify", write_spec(tmp_path, GOLDEN), "--rollouts", "2",
              "--seed", "1", "--out", str(out)])
        assert "--rollouts" not in capsys.readouterr().err
        names = [c["name"] for c in json.loads(out.read_text())["checks"]]
        assert names == ["pbp_check", "exchangeability_check",
                         "symmetrization_check",
                         "certainty_equivalence_check"]

    def test_verify_needs_two_rollouts(self, tmp_path, capsys):
        """One rollout has no standard error, so verify's 3-SE bands would
        be empty: an input error naming that reason, not a failed check."""
        out = str(tmp_path / "verify.json")
        assert main(["verify", write_spec(tmp_path, GOLDEN), "--rollouts",
                     "1", "--seed", "1", "--out", out]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "--rollouts of at least 2" in captured.err
        assert "one rollout has no standard error" in captured.err
        assert "[FAIL]" not in captured.out
        assert not os.path.exists(out)

    def test_sweep_schedule_needs_three_distinct_sizes(self, tmp_path,
                                                       capsys):
        out = str(tmp_path / "sweep.json")
        assert main(["sweep-mft", write_spec(tmp_path, MF), "--schedule",
                     "2,2,4", "--rollouts", "20", "--seed", "1",
                     "--out", out]) == EXIT_VALIDATION
        assert ("schedule needs at least 3 distinct population sizes"
                in capsys.readouterr().err)
        assert not os.path.exists(out)

    def test_validation_failure_exit_from_solver_command(self, tmp_path):
        data = json.loads(json.dumps(GOLDEN))
        data["noise"]["init_offdiag"] = [[1.5]]
        assert main(["solve-tree",
                     write_spec(tmp_path, data)]) == EXIT_VALIDATION
