"""Acceptance suite: the ten library-level guarantees at full scale.

Each test exercises one headline property end to end — exact norm
identities, oracle agreement in rational arithmetic, the extraction and
subgradient inequalities, estimator unbiasedness and norm bounds, the
scaled training experiment with its regret guarantee, Hoeffding-rate
estimation, solver cross-checks, and bit-level reproducibility — at the
stated tolerances and within the stated time budgets, and prints one
summary line (visible with pytest -s; the -v test line carries pass/fail).
Criteria 01-05 and 09 measure through occupal.properties, which
`occupal verify` runs at small counts; the tolerances stay here.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from occupal import (
    BoundInputs,
    build_feature_matrix,
    exact_al_solve,
    feature_expectation,
    make_chain,
    make_gridworld,
    make_random_mdp,
    occupancy_of_policy,
    region_indicator_basis,
    regret_report,
    sampling_constants,
    uniform_policy,
    value_iteration,
)
from occupal import properties
from occupal.cli import main
from occupal.expert import (
    default_horizon,
    empirical_feature_expectation,
    hoeffding_sample_size,
    sample_trajectories,
)
from occupal.extraction import evaluate_theta
from occupal.mdp import chain_cost
from occupal.sgd import (
    SgdConfig,
    exact_subgradient,
    flow_feature_rows,
    run_sgd_al,
    surrogate_loss,
)


def report(number, detail, elapsed, budget):
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s >= {budget}s"
    print(f"[criterion {number:02d}] PASS: {detail} ({elapsed:.1f}s < {budget:.0f}s)")


def test_criterion_01_l1_gap_equals_sign_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = properties.l1_gap_enumeration_error(rng, 1000)
    assert worst <= 1e-12
    report(1, f"1000 triples, max |direct - enumerated| = {worst:.2e}",
           time.perf_counter() - start, 10.0)


def test_criterion_02_occupancy_solve_matches_series_tail():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    bound = Fraction(2) * Fraction(1, 2) ** 60
    worst = properties.series_tail_gap(rng, 100, 60)
    assert worst <= bound  # exact rational comparison
    report(2, f"100 MDPs, max exact gap = {float(worst):.3e} <= {float(bound):.3e}",
           time.perf_counter() - start, 30.0)


def test_criterion_03_extraction_distance_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    min_slack = properties.extraction_slack(rng, 20, 500)
    assert min_slack >= -1e-8
    report(3, f"10^4 vectors across 20 MDPs, min bound slack = {min_slack:.2e}",
           time.perf_counter() - start, 60.0)


def test_criterion_04_estimator_is_unbiased_exhaustively():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst, most_pairs = properties.estimator_bias(rng, 20)
    assert most_pairs <= 64
    assert worst <= 1e-10
    report(4, f"3 instances x 20 thetas exhaustively, max bias = {worst:.2e}",
           time.perf_counter() - start, 30.0)


def test_criterion_05_subgradient_norm_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst, k = properties.gradient_norms(rng, 100, 1000)
    limit = k * (1.0 + 1e-12)
    assert worst <= limit
    report(5, f"10^5 draws across 100 thetas, max ||g|| = {worst:.4f} <= K = {k:.4f}",
           time.perf_counter() - start, 60.0)


def test_criterion_06_subgradient_validity():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    mdp = make_random_mdp(4, 3, 0.75, seed=66)
    basis = region_indicator_basis(mdp, 3)
    phi = build_feature_matrix(mdp, 4, seed=67, beta=1e-3)
    lam = 2.5
    target = feature_expectation(occupancy_of_policy(mdp, uniform_policy(mdp)), basis)

    def loss(theta):
        return surrogate_loss(theta, phi, basis, mdp, target, lam).total

    min_gap = float("inf")
    for _ in range(100):
        theta = rng.normal(0.0, 1.0, 4)
        other = rng.normal(0.0, 1.0, 4)
        g = exact_subgradient(theta, phi, basis, mdp, target, lam)
        min_gap = min(min_gap, loss(other) - loss(theta) - float(g @ (other - theta)))
    assert min_gap >= -1e-8

    # central differences where every absolute value and hinge is active
    phi_arr = np.asarray(phi.phi)
    a_mat = basis.psi.T @ phi_arr
    flow_rows = flow_feature_rows(phi_arr, mdp)
    checked, worst_fd = 0, 0.0
    while checked < 50:
        theta = rng.normal(0.0, 1.0, 4)
        margins = [
            np.abs(a_mat @ theta - target).min(),
            np.abs(phi_arr @ theta).min(),
            np.abs(flow_rows @ theta - mdp.initial_dist).min(),
        ]
        if min(margins) < 1e-3:
            continue
        checked += 1
        g = exact_subgradient(theta, phi, basis, mdp, target, lam)
        h = 1e-7
        for i in range(4):
            step = np.zeros(4)
            step[i] = h
            fd = (loss(theta + step) - loss(theta - step)) / (2.0 * h)
            worst_fd = max(worst_fd, abs(fd - float(g[i])))
    assert worst_fd <= 1e-6
    report(6, f"convexity min gap = {min_gap:.2e}; 50 points, max |fd - g| = {worst_fd:.2e}",
           time.perf_counter() - start, 30.0)


def test_criterion_07_scaled_training_experiment():
    start = time.perf_counter()
    mdp, cost = make_gridworld(4, 4, 0.9, 0.1)
    basis = region_indicator_basis(mdp, 4)
    phi = build_feature_matrix(mdp, 6, seed=2471, beta=1e-3)
    expert, _ = value_iteration(mdp, cost, tolerance=1e-10)
    true_fe = feature_expectation(occupancy_of_policy(mdp, expert), basis)
    exact = exact_al_solve(mdp, basis, true_fe)

    lam, rho, iterations = 10.0, 2.0, 50_000
    constants = sampling_constants(phi, mdp, basis, lam)
    eta = rho / (constants.k * np.sqrt(iterations))
    horizon = default_horizon(mdp.discount)  # 1e-9 tail rule

    phi_arr = np.asarray(phi.phi)
    a_mat = basis.psi.T @ phi_arr
    flow_rows = flow_feature_rows(phi_arr, mdp)

    def batch_loss(thetas, target):
        objective = np.abs(thetas @ a_mat.T - target).sum(axis=1)
        v1 = np.clip(-(thetas @ phi_arr.T), 0.0, None).sum(axis=1)
        v2 = np.abs(thetas @ flow_rows.T - mdp.initial_dist).sum(axis=1)
        return objective + lam * (v1 + v2)

    sample_rng = np.random.default_rng(777)
    directions = sample_rng.normal(size=(100_000, 6))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = rho * sample_rng.random(100_000) ** (1.0 / 6.0)
    theta_sample = directions * radii[:, None]

    inputs = BoundInputs(
        epsilon=0.1, lam=lam, rho=rho, d=6, n_costs=4, gamma=mdp.discount,
        psi_inf_norm=float(np.abs(basis.psi).max()),
        phi_one_norm=float(np.abs(phi_arr).sum(axis=0).max()),
    )

    ratios, holds = [], 0
    for seed in range(50):
        trajectories = sample_trajectories(mdp, expert, 2000, horizon, 9000 + seed)
        estimate = empirical_feature_expectation(
            trajectories, basis, mdp.discount, mdp.n_actions
        )
        config = SgdConfig(rho=rho, lam=lam, eta=float(eta),
                           iterations=iterations, seed=seed)
        trace, _ = run_sgd_al(config, phi, basis, mdp, estimate, constants)
        trained = evaluate_theta(trace.theta_avg, phi, basis, mdp, true_fe)
        holds += regret_report(trained, exact, inputs).holds
        if seed < 5:
            final = surrogate_loss(
                trace.theta_avg, phi, basis, mdp, estimate, lam
            ).total
            reference = float(batch_loss(theta_sample, estimate.values).min())
            ratios.append(final / reference)

    median_ratio = float(np.median(ratios))
    assert median_ratio <= 1.1, f"median final/comparator = {median_ratio}"
    assert holds >= 45, f"guarantee held in only {holds}/50 runs"
    report(7, f"median-of-5 loss ratio = {median_ratio:.4f} <= 1.1; "
              f"guarantee held {holds}/50",
           time.perf_counter() - start, 600.0)


def test_criterion_08_hoeffding_estimation_rate():
    start = time.perf_counter()
    mdp = make_chain(0.5)
    basis = region_indicator_basis(mdp, 2)
    expert, _ = value_iteration(mdp, chain_cost(), tolerance=1e-10)
    true_fe = feature_expectation(occupancy_of_policy(mdp, expert), basis)

    epsilon = delta = 0.5
    m = hoeffding_sample_size(2, mdp.discount, epsilon, delta)
    horizon = default_horizon(mdp.discount)
    bound = epsilon / (4 * 2) + mdp.discount**horizon / (1.0 - mdp.discount)

    successes = 0
    for rep in range(200):
        trajectories = sample_trajectories(mdp, expert, m, horizon, 31_000 + rep)
        estimate = empirical_feature_expectation(
            trajectories, basis, mdp.discount, mdp.n_actions
        )
        successes += bool(np.abs(estimate.values - true_fe).max() <= bound)
    assert successes >= 150
    report(8, f"m={m}: per-coordinate error within {bound:.4f} in {successes}/200 reps",
           time.perf_counter() - start, 120.0)


def test_criterion_09_solvers_agree():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    worst, certified = properties.solver_agreement(rng, 20)
    assert worst <= 1e-4
    assert certified
    report(9, f"20 instances, max |simplex - subgradient| = {worst:.2e}",
           time.perf_counter() - start, 120.0)


def test_criterion_10_training_trace_is_bit_reproducible(tmp_path):
    start = time.perf_counter()
    config = {
        "environment": {"kind": "chain", "discount": 0.5},
        "basis": {"kind": "region-indicator", "n_blocks": 2},
        "features": {"d": 2},
        "expert": {"m": 50},
        "sgd": {"rho": 2.0, "lam": 5.0, "eta": 0.01, "iterations": 100},
        "out_dir": str(tmp_path / "a"),
        "master_seed": 424242,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "trace.csv").read_bytes()
    second = (tmp_path / "b" / "trace.csv").read_bytes()
    assert first == second
    report(10, f"two invocations, identical {len(first)}-byte trace.csv",
           time.perf_counter() - start, 60.0)
