"""Imitating a gridworld expert end to end.

The full training loop at demo scale: build a 4x4 gridworld, compute the
expert by value iteration on the true cost, estimate the expert's feature
expectations from sampled trajectories, train a cost parameter by averaged
projected stochastic subgradient descent, extract the matching policy, and
compare its feature gap against the exact optimum.
"""

import numpy as np

from occupal import (
    BoundInputs,
    build_feature_matrix,
    exact_al_solve,
    feature_expectation,
    make_gridworld,
    occupancy_of_policy,
    region_indicator_basis,
    regret_report,
    sampling_constants,
    value_iteration,
)
from occupal.expert import (
    default_horizon,
    empirical_feature_expectation,
    sample_trajectories,
)
from occupal.extraction import evaluate_theta, extraction_report
from occupal.sgd import SgdConfig, flow_feature_rows, run_sgd_al, surrogate_loss

print("== Environment and expert ==")
mdp, true_cost = make_gridworld(4, 4, 0.9, slip_prob=0.1)
basis = region_indicator_basis(mdp, 4)  # 4 cost features: one per board region
phi = build_feature_matrix(mdp, 6, seed=12)  # 6-dimensional candidate space
expert, _ = value_iteration(mdp, true_cost, tolerance=1e-10)
expert_mu = occupancy_of_policy(mdp, expert)
true_fe = feature_expectation(expert_mu, basis)
print(f"16 states x 4 actions, discount 0.9; expert region profile: {true_fe}")

print("\n== Estimating the expert from demonstrations ==")
horizon = default_horizon(mdp.discount)  # truncation error below 1e-9
trajectories = sample_trajectories(mdp, expert, m=2000, horizon=horizon, seed=13)
estimate = empirical_feature_expectation(trajectories, basis, mdp.discount, mdp.n_actions)
print(f"m = 2000 episodes of {horizon} steps")
print(f"estimated profile: {estimate.values}")
print(f"per-coordinate estimation error: {np.abs(estimate.values - true_fe).max():.4f}")

print("\n== Training ==")
lam, rho, iterations = 10.0, 2.0, 20_000
constants = sampling_constants(phi, mdp, basis, lam)
eta = rho / (constants.k * np.sqrt(iterations))
config = SgdConfig(rho=rho, lam=lam, eta=float(eta), iterations=iterations, seed=14)
trace, policy = run_sgd_al(config, phi, basis, mdp, estimate, constants)
print(f"subgradient norm bound K = {constants.k:.2f}, step size eta = {eta:.2e}")
print("loss along the way (training objective at the current iterate):")
for t in (1, 10, 100, 1000, 10_000, iterations):
    print(f"  iteration {t:>6d}: {trace.loss_total[t - 1]:.4f}")
final_loss = surrogate_loss(trace.theta_avg, phi, basis, mdp, estimate, lam)
print(f"loss at the averaged parameter: {final_loss.total:.4f} "
      f"(constraint violations v1 = {final_loss.v1:.2e}, v2 = {final_loss.v2:.2e})")

print("\n== Extraction and the distance bound ==")
candidate = np.asarray(phi.phi) @ trace.theta_avg
extraction = extraction_report(candidate, mdp)
print(f"||occupancy(policy) - candidate||_1 = {extraction.l1_distance:.4f}")
print(f"certified bound from the violations = {extraction.violation_bound:.4f}")

print("\n== Comparison with the exact optimum ==")
exact = exact_al_solve(mdp, basis, true_fe)
trained_mu, trained_gap = evaluate_theta(trace.theta_avg, phi, basis, mdp, true_fe)

# the exact solver searches every occupancy measure; training is confined
# to the 6-parameter candidate family, so the fair yardstick is the best
# parameter in that family (estimated here from 20000 random draws)
rng = np.random.default_rng(15)
directions = rng.normal(size=(20_000, phi.d))
directions /= np.linalg.norm(directions, axis=1, keepdims=True)
sample = directions * (rho * rng.random(20_000) ** (1.0 / phi.d))[:, None]
phi_arr = np.asarray(phi.phi)
flow_rows = flow_feature_rows(phi_arr, mdp)
sampled_losses = (
    np.abs(sample @ (basis.psi.T @ phi_arr).T - estimate.values).sum(axis=1)
    + lam * np.clip(-(sample @ phi_arr.T), 0.0, None).sum(axis=1)
    + lam * np.abs(sample @ flow_rows.T - mdp.initial_dist).sum(axis=1)
)
best_sampled = float(sampled_losses.min())
print(f"training loss at averaged parameter  : {final_loss.total:.4f}")
print(f"best of 20000 sampled parameters     : {best_sampled:.4f}")
print(f"trained feature gap vs expert        : {trained_gap:.4f}")
print(f"unrestricted exact optimum           : {exact.objective:.4f}")
print("(the gap to 0 is the price of the 6-parameter family, not of training)")

inputs = BoundInputs(
    epsilon=0.1, lam=lam, rho=rho, d=phi.d, n_costs=basis.n_costs,
    gamma=mdp.discount,
    psi_inf_norm=float(np.abs(basis.psi).max()),
    phi_one_norm=float(np.abs(np.asarray(phi.phi)).sum(axis=0).max()),
)
report = regret_report((trained_mu, trained_gap), exact, inputs)
print(f"performance guarantee: {report.lhs:.4f} <= {report.rhs:.4f} "
      f"(holds: {report.holds})")
