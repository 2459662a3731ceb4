"""Mutant smoke: every listed mutant of the package must fail a named test.

    python tests/mutant_smoke.py

Each mutant is one textual edit of one file under ``src/``.  For each, the
script copies ``src/`` and ``tests/`` into a fresh temporary directory,
applies the edit there and runs the mutant's named tests with pytest
against the copy.  A mutant is caught when pytest reports failing tests
(exit code 1); it survives when they all pass.  Before any run, the script
checks that every edit matches its file exactly once and exits 1 listing
those that do not.  The named tests are then run on an unmutated copy,
which must pass, so that a broken environment cannot pass for a caught
mutant.  The exit code is 1 if any mutant survives or any run goes wrong in
another way.

The file name does not match ``test_*.py``, so the Tier-1 suite does not
collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str        # relative to the repository root
    old: str
    new: str
    tests: tuple     # pytest node ids that must catch it


TREE = "src/teamlqg/tree.py"
SIM = "src/teamlqg/sim.py"
DELAYED = "src/teamlqg/delayed.py"
MOMENTS = "src/teamlqg/moments.py"
RNG = "src/teamlqg/rng.py"
INFINITE = "tests/test_tree.py::TestInfiniteTree::"
MFT = "tests/test_simulator.py::TestMftSweep::"
LAYOUT = "tests/test_simulator.py::TestRolloutLayout::"
ZETA = "tests/test_simulator.py::TestZetaLoop::"
CHECKS = "tests/test_simulator.py::TestStructuralChecks::"
RANK = "tests/test_delayed.py::TestRankGrid::"
KRON = "tests/test_tree.py::TestKroneckerReference::"
PRICER = "tests/test_tree.py::TestPerAgentPricer::"
IDENTITY = "tests/test_delayed.py::TestTreeIdentity::"
UNITS = "tests/test_cli.py::TestUnitScaling::"
MALFORMED = ("tests/test_cli.py::TestPolicyReports::"
             "test_malformed_report_exits_1_naming_the_field")

MUTANTS = (
    Mutant("Sigma^T in tree._price's loading Lam_0", TREE,
           "np.vstack([np.eye(n), p.alpha * p.Sigma])",
           "np.vstack([np.eye(n), p.alpha * p.Sigma.T])",
           ("tests/test_tree.py::TestPredictedCost::"
            "test_matches_oracle_propagation",)),
    Mutant("co-state of tree._price stepped by F_t instead of F_t^T", TREE,
           "mom.F[t].swapaxes(-1, -2) @ ell",
           "mom.F[t] @ ell",
           (PRICER + "test_matches_stacked_reference",)),
    Mutant("self-pair term dropped from tree._price's pair sums", TREE,
           "(Y.sum(axis=1, keepdims=True) - Y)",
           "Y.sum(axis=1, keepdims=True)",
           (PRICER + "test_matches_stacked_reference",)),
    Mutant("factor 2 restored on n_dm's pair weight in tree.cost_weights",
           TREE,
           "return float(N), float(N * (N - 1)), 0.0, float(N - 1)",
           "return float(N), 2.0 * N * (N - 1), 0.0, float(N - 1)",
           ("tests/test_tree.py::TestPredictedCost::"
            "test_exact_cost_is_the_stacked_form",)),
    Mutant("own weight 1 restored for every mode in tree.spread_weights",
           TREE,
           "own, pairs = a / N, N * (N - 1)",
           "own, pairs = 1.0, N * (N - 1)",
           ("tests/test_simulator.py::TestExactCost::"
            "test_matches_predicted_for_symmetric_policy[mean_field_limit]",
            "tests/test_cli.py::TestCommands::"
            "test_solve_mf_report_simulates_per_agent")),
    Mutant("Phi_j transposed in the stationary Stein equation", TREE,
           "stein_solve(Phi.swapaxes(1, 2), ",
           "stein_solve(Phi, ",
           (INFINITE + "test_closed_form_matches_long_finite_head",)),
    Mutant("Yo block of y dropped from the stationary forward pass", TREE,
           "*(Y0 @ W).swapaxes(1, 2)]",
           "(Y0[0] @ W).T, 0 * (Y0[1] @ W).T]",
           (INFINITE + "test_closed_form_matches_long_finite_head",)),
    Mutant("certified tail energy threshold 1e-16 raised to 1e-12", TREE,
           "while z @ X @ z >= 1e-16:",
           "while z @ X @ z >= 1e-12:",
           (INFINITE + "test_schedule_matches_kronecker_reference[head]",)),
    Mutant("InfiniteTreePolicy.L steps z before reading L_t", TREE,
           "L[t] = self.C @ z\n            z = self.G @ z",
           "z = self.G @ z\n            L[t] = self.C @ z",
           (INFINITE + "test_schedule_matches_kronecker_reference[head]",)),
    Mutant("every d_j replaced by 1 in tree._modes' mode weights", TREE,
           "dj = d[:, None, None]",
           "dj = np.ones_like(d)[:, None, None]",
           (KRON + "test_matches_on_bench_shaped_specs[32-3-2-mean_field4]",)),
    Mutant("L back-transformed with W instead of W^T in tree._solve", TREE,
           "L = Lm.swapaxes(1, 2) @ W.T",
           "L = Lm.swapaxes(1, 2) @ W",
           (KRON + "test_matches_on_bench_shaped_specs[32-2-3-n_dm3]",)),
    Mutant("per-stage Cholesky guard dropped from tree._value_recursion",
           TREE,
           "            if U is not None:\n"
           "                np.linalg.cholesky(H[t, 1:])\n",
           "",
           (KRON + "test_sweep_stops_at_first_indefinite_stage",)),
    Mutant("Sigma^T in sim._policy_distance's initial factor", SIM,
           "np.eye(n), p.alpha * p.Sigma])",
           "np.eye(n), p.alpha * p.Sigma.T])",
           (MFT + "test_exact_columns_agree_with_monte_carlo",)),
    Mutant("noise loaded into the state difference e in "
           "sim._policy_distance", SIM,
           "noise = np.vstack([np.zeros((n, n)), psd_factor(p.W), ",
           "noise = np.vstack([psd_factor(p.W), psd_factor(p.W), ",
           (MFT + "test_exact_columns_agree_with_monte_carlo",)),
    Mutant("transposed A + B K block of sim._TreeStepper's Gamma_t", SIM,
           "np.concatenate([A + B @ K, B @ L], axis=4)",
           "np.concatenate([(A + B @ K).swapaxes(3, 4), B @ L], axis=4)",
           (LAYOUT + "test_kernel_matches_agent_major_loop",)),
    Mutant("R_tilde pair term dropped from sim._TreeStepper", SIM,
           "for coef, M, on_u in ((cR, Rt, True), (cQ, Qt, False))",
           "for coef, M, on_u in ((cQ, Qt, False),)",
           (LAYOUT + "test_kernel_matches_agent_major_loop",)),
    Mutant("noise factor transposed in rng.PrimitiveSampler.draw", RNG,
           "np.matmul(self.Fw, e, out=w)",
           "np.matmul(self.Fw.T, e, out=w)",
           (LAYOUT + "test_draw_general_factors_agree_to_rounding",)),
    Mutant("every noise stage drawn from one substream in "
           "rng.PrimitiveSampler.draw", RNG,
           "self._fill(blocks, t + 1, fill)",
           "self._fill(blocks, 1, fill)",
           (LAYOUT + "test_stages_are_pairwise_different[split-2]",)),
    Mutant("initial states drawn from the first noise stage's substream "
           "in rng.PrimitiveSampler.draw", RNG,
           "self._fill(blocks, 0, fill)",
           "self._fill(blocks, 1, fill)",
           (LAYOUT + "test_draw_equals_one_shot_rollout_major_draw"
            "[split-2-gaussian]",)),
    Mutant("nested populations read the first N n columns of the largest "
           "population's noise fill in rng.PrimitiveSampler.draw", RNG,
           "_prefix(fill, N * n).T",
           "fill[:, :N * n].T",
           (MFT + "test_mc_cost_is_rollout_costs_mean",)),
    Mutant("first node's stage cost dropped from delayed._node_moments",
           DELAYED,
           'cost += np.einsum("tij,tji->", C[r], Z[r])',
           'cost += (r != graph.nodes[0]) * np.einsum("tij,tji->", C[r], '
           'Z[r])',
           (ZETA + "test_matches_x_zeta_reference[ring4-1]",)),
    Mutant("agent i's x_0 and noise loaded into every node that contains i "
           "in delayed._node_moments", DELAYED,
           "        Zi = _node_block(s, i, Z[s], d.n)\n"
           "        Zi[0], Zi[1:] = ",
           "        for s in [q for q in graph.nodes if i in q]:\n"
           "            Zi = _node_block(s, i, Z[s], d.n)\n"
           "            Zi[0], Zi[1:] = ",
           (ZETA + "test_matches_x_zeta_reference[ring4-1]",)),
    Mutant("first node's zeta routed to the wrong successor in "
           "delayed._node_moments' forward pass", DELAYED,
           "            Z[s][t + 1] += F[r][t] @ Z[r][t] @ F[r][t].T\n",
           "            if r == graph.nodes[0]:\n"
           "                s = graph.nodes[graph.nodes.index(s) - 1]\n"
           "            Z[s][t + 1] += F[r][t] @ Z[r][t] @ F[r][t].T\n",
           (ZETA + "test_matches_x_zeta_reference[ring4-1]",)),
    Mutant("(S^{rr} K)^T dropped from C^r in delayed._node_moments",
           DELAYED,
           "SK + SK.swapaxes(1, 2)",
           "SK + SK",
           (ZETA + "test_matches_x_zeta_reference[pair-2]",)),
    Mutant("F P F^T written for F^T P F in delayed._node_moments' adjoint",
           DELAYED,
           "F[r][t].T @ P[s][t + 1] @ F[r][t]",
           "F[r][t] @ P[s][t + 1] @ F[r][t].T",
           (ZETA + "test_matches_x_zeta_reference[ring4-1]",)),
    Mutant("sign of Q~ flipped in delayed.stacked_data", DELAYED,
           "kron(off, sym(spec.cost.Q_tilde))",
           "-kron(off, sym(spec.cost.Q_tilde))",
           (ZETA + "test_matches_x_zeta_reference[ring4-1]",)),
    Mutant("transpose of the cross term dropped from moments.propagate's C",
           MOMENTS,
           "CM + CM.swapaxes(-1, -2)",
           "CM + CM",
           (ZETA + "test_matches_x_zeta_reference[pair-2]",)),
    Mutant("F^T P F written as F P F^T in moments.gain_sensitivity", MOMENTS,
           "F[t].swapaxes(-1, -2) @ P[t + 1] @ F[t]",
           "F[t] @ P[t + 1] @ F[t].swapaxes(-1, -2)",
           (CHECKS + "test_pbp_matches_reference_on_tree_profiles",
            "tests/test_tree.py::TestCouplingGains::"
            "test_adjoint_gradient_vs_finite_difference[n_dm2]")),
    Mutant("1/|J| factor dropped from sim.pbp_check's defect", SIM,
           "(best / abs(cost) if best > 0.0 else 0.0)",
           "(best if best > 0.0 else 0.0)",
           (CHECKS + "test_pbp_matches_reference_on_tree_profiles",
            UNITS + "test_cost_units_change_no_gain_and_no_verdict[tinf]")),
    Mutant("absolute floor restored in model.conditional_gain's "
           "singular-init_diag test", "src/teamlqg/model.py",
           "if w[0] <= 1e-12 * abs(w[-1]):",
           "if w[0] <= 1e-12 * (1.0 + abs(w[-1])):",
           (UNITS + "test_noise_units_change_no_gain[golden]",)),
    Mutant("absolute floor restored in linalg.is_pd",
           "src/teamlqg/linalg.py",
           "return lo > 1e-12 * abs(hi)",
           "return lo > 1e-12 * (1.0 + abs(hi))",
           (UNITS + "test_cost_units_change_no_gain_and_no_verdict[golden]",)),
    Mutant("absolute floor restored in linalg.is_psd",
           "src/teamlqg/linalg.py",
           "return lo >= -PSD_REL_TOL * abs(hi)",
           "return lo >= -PSD_REL_TOL * (1.0 + abs(hi))",
           (UNITS + "test_check_fails_a_bad_cost_block_in_any_units"
            "[indefinite]",)),
    Mutant("absolute floor restored in linalg.asymmetry",
           "src/teamlqg/linalg.py",
           "return gap / np.linalg.norm(M) if gap else 0.0",
           "return gap / (1.0 + np.linalg.norm(M))",
           (UNITS + "test_check_fails_a_bad_cost_block_in_any_units"
            "[asymmetric]",)),
    Mutant("absolute floor restored in delayed._node_step", DELAYED,
           "if w[0] <= 1e-12 * abs(w[-1]):",
           "if w[0] <= 1e-12 * (1.0 + abs(w[-1])):",
           (UNITS + "test_cost_units_change_no_gain_and_no_verdict[delayed]",)),
    Mutant("operands' axes swapped in linalg.kron", "src/teamlqg/linalg.py",
           "X[:, None, :, None] * Y[None, :, None, :]",
           "X[None, :, None, :] * Y[:, None, :, None]",
           ("tests/test_linalg.py::test_kron_matches_numpy_bitwise",)),
    Mutant("certainty equivalence band 3 / SE instead of 3 SE", SIM,
           "band = 3.0 * rep.std_error",
           "band = 3.0 / rep.std_error",
           (CHECKS + "test_certainty_equivalence_fails_off_the_exact_cost",)),
    Mutant("certainty equivalence band 1e6 SE instead of 3 SE", SIM,
           "band = 3.0 * rep.std_error",
           "band = 1e6 * rep.std_error",
           (CHECKS + "test_certainty_equivalence_fails_off_the_exact_cost",)),
    Mutant("certainty equivalence rolled out under the spec's own family",
           SIM,
           'noise=replace(spec.noise, family="uniform"))',
           "noise=replace(spec.noise, family=spec.noise.family))",
           ("tests/test_cli.py::TestCommands::"
            "test_verify_draws_solves_and_prices_once",)),
    Mutant("correlated initial states priced by delayed._node_moments",
           DELAYED,
           "    _check_independent_initials(spec)\n    graph = policy.graph\n",
           "    graph = policy.graph\n",
           ("tests/test_delayed.py::TestInfiniteHorizon::"
            "test_correlated_initial_states_not_priced",)),
    Mutant("sparsity rule loosened to E > 2 in info_graph.check_sparsity",
           "src/teamlqg/info_graph.py",
           "moves & (E > 1.0)[..., None]",
           "moves & (E > 2.0)[..., None]",
           ("tests/test_info_graph.py::TestValidateSparsity::"
            "test_control_block_beyond_delay_fails",)),
    Mutant("mirrored half of the theta grid dropped in "
           "delayed._rank_condition", DELAYED,
           "theta[np.union1d(k, (grid - k) % grid)]",
           "theta[k]",
           (RANK + "test_mirrored_marginal_pairs_match_reference[720]",)),
    Mutant("cost-block factor transposed in delayed._rank_condition",
           DELAYED,
           "M[:, nn:] = (V * sv).T",
           "M[:, nn:] = V * sv",
           (RANK + "test_rotated_singular_cost_block",)),
    Mutant("PSD cost block certified by its largest singular value in "
           "delayed._rank_condition", DELAYED,
           "if sv[0] > 2.0",
           "if sv[-1] > 2.0",
           (RANK + "test_mirrored_marginal_pairs_match_reference[720]",
            "tests/test_delayed.py::TestInfiniteHorizon::"
            "test_rank_condition_failure_raises")),
    Mutant("terminal x_T' Q x_T restored in delayed._node_recursion, "
           "the node recursion of solve_delayed_finite (X_T^r = Q^{rr})",
           DELAYED,
           "    for t in range(T - 1, -1, -1):\n        for r in graph.nodes:",
           "    for r in graph.nodes:\n        values[r][T] = sym(blocks[r][2])"
           "\n    for t in range(T - 1, -1, -1):\n        for r in graph.nodes:",
           (IDENTITY + "test_node_gains_equal_tree_gains[2]",
            "tests/test_delayed.py::TestFiniteHorizon::"
            "test_values_psd_and_terminal_condition")),
    Mutant("terminal x_T' Q x_T (less its noise) restored in "
           "sim._graph_costs", SIM,
           "            np.matmul(AB, v, out=x)\n    return cost / T",
           "            np.matmul(AB, v, out=x)\n"
           "    x = AB @ v\n"
           "    cost += np.einsum(\"ir,ir->r\", W[:nx, :nx] @ x, x)\n"
           "    return cost / T",
           (IDENTITY + "test_graph_rollouts_match_tree_cost[4]",)),
    Mutant("plant stepped without B u in sim._graph_mc's [A B]", SIM,
           "np.hstack([d.A, d.B])",
           "np.hstack([d.A, 0 * d.B])",
           (LAYOUT + "test_graph_kernel_matches_dict_estimator[full3-1-1]",)),
    Mutant("a node's zeta not cleared after its share moves on in "
           "delayed.step_nodes", DELAYED,
           "            z[cols] = 0.0\n",
           "",
           (LAYOUT + "test_graph_kernel_matches_dict_estimator[chain4-1-1]",)),
    Mutant("nodes stepped smallest first in delayed.node_plan", DELAYED,
           "    order = graph.nodes[::-1]\n",
           "    order = graph.nodes\n",
           (LAYOUT + "test_graph_kernel_matches_dict_estimator[ring6-2-2]",)),
    Mutant("stationary graph cost priced with init_diag in place of "
           "sigma_w in delayed.solve_delayed_infinite", DELAYED,
           "    W = sym(spec.noise.sigma_w)\n    cost = 0.0",
           "    W = sym(spec.noise.init_diag)\n    cost = 0.0",
           ("tests/test_delayed.py::TestStationaryCostReference::"
            "test_small_specs[coupled-2dm]",)),
    Mutant("sign of the S cross term flipped in sim._graph_mc's stage "
           "weight", SIM,
           "np.block([[d.Q, d.S], [d.S.T, d.R]])",
           "np.block([[d.Q, -d.S], [-d.S.T, d.R]])",
           (LAYOUT + "test_graph_kernel_matches_dict_estimator[full3-1-1]",)),
    Mutant("joint initial-state factor built from Sd + So in "
           "rng.PrimitiveSampler", RNG,
           "kron(np.eye(N), sd - so)",
           "kron(np.eye(N), sd + so)",
           ("tests/test_simulator.py::TestSampling::"
            "test_initial_moments_within_standard_errors[joint-2--0.3-"
            "gaussian]",)),
    Mutant("riccati.is_detectable testing (A, C^T) instead of (A^T, C^T)",
           "src/teamlqg/riccati.py",
           "return is_stabilizable(A.T, C.T)",
           "return is_stabilizable(A, C.T)",
           ("tests/test_riccati.py::TestPBH::"
            "test_detectability_tests_the_transposed_pair",)),
    Mutant("tree-class information check skipped in tree.tree_dynamics",
           TREE,
           "    A, B = homogeneous_dynamics(spec)\n    default_mode(spec)\n",
           "    A, B = homogeneous_dynamics(spec)\n",
           ("tests/test_tree.py::TestTreeInformation::"
            "test_delayed_information_refused[solve_tree-n_dm]",
            "tests/test_cli.py::TestCommands::"
            "test_tree_class_commands_refuse_delayed_information[solve-mf]")),
    Mutant("+ for - in cli.cmd_solve_mf's printed max_t |L^N - L^inf|",
           "src/teamlqg/cli.py",
           "max(map(np.linalg.norm, L_N - pol.L))",
           "max(map(np.linalg.norm, L_N + pol.L))",
           ("tests/test_cli.py::TestCommands::"
            "test_solve_mf_gap_to_its_own_population_is_rounding",)),
    Mutant("--rollouts bound 1 made exclusive", "src/teamlqg/cli.py",
           "if args.rollouts < 1:",
           "if args.rollouts <= 1:",
           ("tests/test_cli.py::TestExitCodes::"
            "test_one_rollout_simulates_with_zero_standard_error",)),
    Mutant("verify's --rollouts bound 2 made exclusive", "src/teamlqg/cli.py",
           "if args.rollouts < 2:",
           "if args.rollouts <= 2:",
           ("tests/test_cli.py::TestExitCodes::test_two_rollouts_verify",)),
    Mutant("policy report schedules checked for rank, not shape",
           "src/teamlqg/cli.py",
           "if arr.shape != shape:",
           "if arr.ndim != len(shape):",
           (MALFORMED + "[delayed-stage-short-simulate]",
            MALFORMED + "[tree-horizon-past-schedules-verify]")),
)


def _copy(dest):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _pytest(dest, tests):
    """Run the named tests in a copy: (completed process, seconds)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(dest, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    probe = subprocess.run(
        [sys.executable, "-c", "import teamlqg; print(teamlqg.__file__)"],
        cwd=dest, env=env, capture_output=True, text=True, check=True)
    if not os.path.realpath(probe.stdout.strip()).startswith(
            os.path.realpath(dest)):
        sys.exit(f"the copy imports teamlqg from {probe.stdout.strip()}")
    t0 = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=dest, env=env, capture_output=True, text=True)
    return run, time.perf_counter() - t0


def _hits(mutant):
    """How many times the mutant's edit matches its file in this checkout."""
    with open(os.path.join(ROOT, mutant.path)) as fh:
        return fh.read().count(mutant.old)


def _apply(dest, mutant):
    path = os.path.join(dest, mutant.path)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def main():
    t_start = time.perf_counter()
    unmatched = [m for m in MUTANTS if _hits(m) != 1]
    if unmatched:
        sys.exit("mutant edits that do not match exactly once:\n" + "\n".join(
            f"  {m.name}: {_hits(m)} matches in {m.path}" for m in unmatched))
    bad = []
    named = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="mutant-clean-") as dest:
        _copy(dest)
        run, dt = _pytest(dest, named)
        if run.returncode != 0:
            print(run.stdout[-3000:], run.stderr[-3000:])
            sys.exit(f"the named tests fail without any mutant "
                     f"(pytest exit {run.returncode})")
        print(f"clean copy: {len(named)} named tests pass ({dt:.1f} s)")
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="mutant-") as dest:
            _copy(dest)
            _apply(dest, mutant)
            run, dt = _pytest(dest, mutant.tests)
        verdict = {0: "SURVIVED", 1: "caught"}.get(
            run.returncode, f"ERROR (pytest exit {run.returncode})")
        print(f"{verdict:>10}  {mutant.name} ({dt:.1f} s)")
        if verdict != "caught":
            bad.append(mutant.name)
            if run.returncode != 0:
                print(run.stdout[-3000:], run.stderr[-3000:])
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants caught in "
          f"{time.perf_counter() - t_start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
