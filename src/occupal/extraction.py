"""Turning arbitrary vectors over state-actions back into policies.

Any vector u induces a policy through normalized positive parts, and the
occupancy measure of that policy deviates from u by at most the constraint
violations scaled by 1/(1 - g).  The report object carries both sides of
that inequality so callers can see exactly how much feasibility repair
cost them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import _phi_array, feature_expectation, l1_feature_gap
from .mdp import OccupancyMeasure, Policy, flow_residual, occupancy_of_policy

__all__ = [
    "ExtractionReport",
    "policy_from_vector",
    "extraction_report",
    "evaluate_theta",
]

_SUPPORT_FLOOR = 1.0e-15


@dataclass(frozen=True)
class ExtractionReport:
    """Repair diagnostics for a candidate measure u.

    l1_distance is ||mu_pi_u - u||_1; violation_bound is the guaranteed
    ceiling (2 ||[u]_-||_1 + flow gap) / (1 - g).  positive_part_bound is
    the sharper intermediate bound on the distance to [u]_+ before the
    final triangle step, ((1 + g) ||[u]_-||_1 + flow gap) / (1 - g).
    """

    policy: Policy
    mu: OccupancyMeasure
    l1_distance: float
    violation_bound: float
    positive_part_bound: float
    uniform_fallback_states: tuple


def _positive_policy(u, mdp):
    pos = np.maximum(np.asarray(u, dtype=float), 0.0).reshape(
        mdp.n_states, mdp.n_actions
    )
    support = pos.sum(axis=1)
    dead = support <= _SUPPORT_FLOOR
    probs = np.empty_like(pos)
    live = ~dead
    probs[live] = pos[live] / support[live, None]
    probs[dead] = 1.0 / mdp.n_actions
    return Policy(probs), tuple(int(x) for x in np.where(dead)[0])


def policy_from_vector(u, mdp):
    """Policy with pi(a|x) proportional to [u(x, a)]_+.

    States whose positive mass does not exceed 1e-15 fall back to the
    uniform row; extraction_report lists them.
    """
    policy, _ = _positive_policy(u, mdp)
    return policy


def extraction_report(u, mdp):
    """Extract a policy from u and measure the feasibility repair cost."""
    u = np.asarray(u, dtype=float)
    policy, fallback = _positive_policy(u, mdp)
    mu = occupancy_of_policy(mdp, policy)
    negative_mass, flow_gap = flow_residual(mdp, u)
    one_minus = 1.0 - mdp.discount
    return ExtractionReport(
        policy=policy,
        mu=mu,
        l1_distance=float(np.abs(mu.mass - u).sum()),
        violation_bound=(2.0 * negative_mass + flow_gap) / one_minus,
        positive_part_bound=(
            (1.0 + mdp.discount) * negative_mass + flow_gap
        ) / one_minus,
        uniform_fallback_states=fallback,
    )


def evaluate_theta(theta, phi, basis, mdp, expert_fe):
    """Occupancy measure and feature gap of the policy extracted from Phi theta.

    Returns (mu, gap) where gap is the l1 distance between the extracted
    policy's feature expectation and `expert_fe` (an estimator object or a
    plain vector).
    """
    phi_arr = _phi_array(phi)
    policy = policy_from_vector(phi_arr @ np.asarray(theta, dtype=float), mdp)
    mu = occupancy_of_policy(mdp, policy)
    gap = l1_feature_gap(feature_expectation(mu, basis), expert_fe)
    return mu, gap
