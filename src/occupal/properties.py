"""The checked guarantees, one function each, on random instances.

Each function draws instances from the generator it is given, loops for
the counts it is given and returns what it measured, never a verdict: the
caller holds the tolerance.  The acceptance suite calls these at full
scale, `occupal verify` at small counts.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .baseline import exact_al_solve, subgradient_solve
from .extraction import extraction_report
from .features import (
    CostBasis,
    brute_force_sup_gap,
    build_feature_matrix,
    feature_expectation,
    l1_feature_gap,
    region_indicator_basis,
    sampling_constants,
    state_action_indicator_basis,
)
from .mdp import make_random_mdp, occupancy_of_policy, uniform_policy
from .rational import random_rational_mdp, random_rational_policy, series_tail_gaps
from .sgd import SubgradientEstimator, exact_subgradient, project_l2_ball

__all__ = [
    "l1_gap_enumeration_error",
    "series_tail_gap",
    "extraction_slack",
    "estimator_bias",
    "gradient_norms",
    "solver_agreement",
    "occupancy_mass_error",
    "ball_projection_errors",
]


def l1_gap_enumeration_error(rng, n_triples):
    """Worst |l1 feature gap - sup over enumerated sign costs| on random triples."""
    worst = 0.0
    for _ in range(n_triples):
        n = int(rng.integers(2, 41))
        n_costs = int(rng.integers(1, 9))
        psi = rng.uniform(0.0, 1.0, size=(n, n_costs))
        mu = rng.uniform(0.0, 4.0, size=n)
        mu_expert = rng.uniform(0.0, 4.0, size=n)
        direct = l1_feature_gap(psi.T @ mu, psi.T @ mu_expert)
        brute = brute_force_sup_gap(psi.T @ mu, psi.T @ mu_expert)
        worst = max(worst, abs(direct - brute))
    return worst


def series_tail_gap(rng, n_mdps, horizon):
    """Worst exact l1 gap (a Fraction) between occupancy and its horizon-term
    series; with discount 1/2 the tail identity makes it 2 * 2**-horizon."""
    worst = Fraction(0)
    for _ in range(n_mdps):
        n_states = int(rng.integers(2, 21))
        n_actions = int(rng.integers(1, 4))
        rmdp = random_rational_mdp(rng, n_states, n_actions)
        policy = random_rational_policy(rng, rmdp)
        worst = max(worst, series_tail_gaps(rmdp, policy, [horizon])[horizon])
    return worst


def extraction_slack(rng, n_mdps, n_vectors):
    """Least violation_bound - l1_distance of extraction_report over random vectors."""
    min_slack = float("inf")
    for trial in range(n_mdps):
        mdp = make_random_mdp(
            int(rng.integers(2, 11)), int(rng.integers(1, 5)),
            float(rng.uniform(0.3, 0.95)), seed=3000 + trial,
        )
        feasible = occupancy_of_policy(mdp, uniform_policy(mdp)).mass
        for k in range(n_vectors):
            if k % 3 == 0:
                u = rng.normal(0.0, rng.uniform(0.2, 3.0), mdp.n_pairs)
            elif k % 3 == 1:
                u = rng.uniform(-1.0, 2.0, mdp.n_pairs)
            else:
                u = feasible + rng.normal(0.0, 0.1, mdp.n_pairs)
            rep = extraction_report(u, mdp)
            min_slack = min(min_slack, rep.violation_bound - rep.l1_distance)
    return min_slack


def estimator_bias(rng, n_thetas):
    """Worst |mean of the estimate over every (pair, state) draw - exact
    subgradient| at n_thetas points on each of three fixed instances, and
    the largest instance's number of pairs."""
    worst, most_pairs = 0.0, 0
    for n_states, n_actions, gamma in ((4, 4, 0.7), (8, 8, 0.85), (5, 3, 0.6)):
        mdp = make_random_mdp(n_states, n_actions, gamma, seed=40 + n_states)
        most_pairs = max(most_pairs, mdp.n_pairs)
        basis = state_action_indicator_basis(mdp)
        phi = build_feature_matrix(mdp, 4, seed=41 + n_states, beta=1e-3)
        lam = 2.0
        constants = sampling_constants(phi, mdp, basis, lam)
        target = feature_expectation(
            occupancy_of_policy(mdp, uniform_policy(mdp)), basis
        )
        estimator = SubgradientEstimator(phi, basis, mdp, target, constants)
        for _ in range(n_thetas):
            theta = project_l2_ball(rng.normal(0.0, 1.0, 4), 2.0)
            mean = np.zeros(4)
            for pair in range(mdp.n_pairs):
                for state in range(mdp.n_states):
                    g = estimator.estimate(theta, (pair,), (state,))
                    mean += constants.q1[pair] * constants.q2[state] * g
            exact = exact_subgradient(theta, phi, basis, mdp, target, lam)
            worst = max(worst, float(np.abs(mean - exact).max()))
    return worst, most_pairs


def gradient_norms(rng, n_thetas, n_draws):
    """Largest sampled ||g|| and the bound K, n_draws estimates at each of n_thetas points."""
    mdp = make_random_mdp(5, 3, 0.8, seed=55)
    basis = state_action_indicator_basis(mdp)
    phi = build_feature_matrix(mdp, 5, seed=56, beta=1e-3)
    lam = 3.0
    constants = sampling_constants(phi, mdp, basis, lam)
    target = feature_expectation(occupancy_of_policy(mdp, uniform_policy(mdp)), basis)
    estimator = SubgradientEstimator(phi, basis, mdp, target, constants)
    worst = 0.0
    for _ in range(n_thetas):
        theta = project_l2_ball(rng.normal(0.0, 2.0, 5), 2.0)
        for _ in range(n_draws):
            g = estimator.sample(theta, rng)
            worst = max(worst, float(np.sqrt(g @ g)))
    return worst, constants.k


def solver_agreement(rng, n_instances):
    """Worst |simplex - column generation| objective, and whether every
    column-generation result certified, over random MDPs and bases."""
    worst, certified = 0.0, True
    for trial in range(n_instances):
        n_states = int(rng.integers(2, 11))
        n_actions = int(rng.integers(1, 5))
        gamma = float(rng.uniform(0.3, 0.95))
        mdp = make_random_mdp(n_states, n_actions, gamma, seed=9000 + trial)
        kind = trial % 3
        if kind == 0:
            basis = region_indicator_basis(mdp, int(rng.integers(1, n_states + 1)))
        elif kind == 1:
            basis = state_action_indicator_basis(mdp)
        else:
            n_costs = int(rng.integers(1, 7))
            psi = rng.uniform(0.0, 1.0, size=(mdp.n_pairs, n_costs))
            basis = CostBasis(psi / psi.max())
        target = rng.uniform(
            -0.5, 2.0 / (1.0 - gamma), basis.psi.shape[1]
        )
        lp = exact_al_solve(mdp, basis, target)
        sub = subgradient_solve(mdp, basis, target)
        worst = max(worst, abs(lp.objective - sub.objective))
        certified = certified and bool(sub.certified)
    return worst, certified


def occupancy_mass_error(rng, n_mdps):
    """Worst |total mass - 1/(1 - g)| of the uniform policy's occupancy measure."""
    worst = 0.0
    for _ in range(n_mdps):
        mdp = make_random_mdp(6, 3, 0.8, seed=int(rng.integers(2**31)))
        mu = occupancy_of_policy(mdp, uniform_policy(mdp))
        worst = max(worst, abs(mu.total() - 1.0 / (1.0 - mdp.discount)))
    return worst


def ball_projection_errors(rng, n_vectors):
    """Largest ||projection|| - radius, and the largest change when a
    projection is projected again, over random vectors."""
    radius = 1.5
    excess, drift = float("-inf"), 0.0
    for _ in range(n_vectors):
        proj = project_l2_ball(rng.normal(0.0, 3.0, 6), radius)
        excess = max(excess, float(np.sqrt(proj @ proj)) - radius)
        drift = max(drift, float(np.abs(project_l2_ball(proj, radius) - proj).max()))
    return excess, drift
