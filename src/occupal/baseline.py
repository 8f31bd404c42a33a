"""Exact small-instance solver for the occupancy matching program.

The reference solution minimizes ||Psi^T mu - target||_1 over the Bellman
flow polytope by a revised simplex method.  Every deterministic policy is
a vertex of that polytope, so the method starts from one and needs no
phase 1; it prices by Dantzig's rule and falls back to Bland's rule on
runs of degenerate pivots, so it terminates without cycling.

A cross-check of the optimum, `subgradient_solve`, runs column generation
over the deterministic policies' measures: a master of n_costs + 1 rows
finds the best mixture of the policies found so far, and an exact
policy-iteration solve prices the next one.  Every pricing solve also
bounds the optimum from below, so each result says whether it is
certified.  The master shares the simplex core with `exact_al_solve`, but
a certificate does not rest on it: the gap is recomputed from the mixed
measure and the bound comes from the policy-iteration solves alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import _target_vector
from .mdp import (
    OccupancyMeasure,
    deterministic_policy,
    occupancy_of_policy,
    state_transition_matrix,
    uniform_policy,
    value_iteration,
)

__all__ = [
    "ExactSolution",
    "BoundInputs",
    "RegretReport",
    "SimplexError",
    "exact_al_solve",
    "subgradient_solve",
    "regret_report",
    "exact_solution_to_json",
    "regret_report_to_json",
]

_MAX_EXACT_PAIRS = 4096
_MAX_PIVOTS = 200_000
_REFACTOR_EVERY = 64  # pivots between fresh inversions of the basis matrix
_DEGENERATE_RUN = 32  # degenerate Dantzig pivots in a row before Bland's rule
_TOL = 1e-9
_HARRIS_TOL = 1e-11  # infeasibility the ratio test may accept for a larger pivot
_SMALL_PIVOT = 1e-6  # relative to the column's largest entry


def _certifies(objective, lower_bound):
    """Whether a lower bound proves `objective` optimal up to round-off."""
    return objective - lower_bound <= 1e-9 * max(1.0, objective)


@dataclass(frozen=True)
class ExactSolution:
    """Optimal occupancy measure, its objective, and which solver found it.

    `lower_bound`, when known, is a proven lower bound on the optimum;
    `certified` tells whether it meets the objective.
    """

    mu_star: OccupancyMeasure
    objective: float
    method: str
    lower_bound: float | None = None

    @property
    def certified(self):
        return self.lower_bound is not None and _certifies(
            self.objective, self.lower_bound
        )


@dataclass(frozen=True)
class BoundInputs:
    """Constants entering the right side of the regret guarantee.

    comparator_v1/v2 are the constraint violations of the comparator the
    report is evaluated against (zero for any feasible comparator, such as
    a polytope point returned by exact_al_solve).
    """

    epsilon: float
    lam: float
    rho: float
    d: int
    n_costs: int
    gamma: float
    psi_inf_norm: float
    phi_one_norm: float
    comparator_v1: float = 0.0
    comparator_v2: float = 0.0


@dataclass(frozen=True)
class RegretReport:
    """Both sides of the regret guarantee for one trained policy."""

    lhs: float
    comparator_gap: float
    violation_term: float
    approximation_term: float
    epsilon_term: float
    rhs: float
    holds: bool


class SimplexError(RuntimeError):
    pass


def _revised_simplex(costs, a, b, basis):
    """Minimize costs @ x s.t. a @ x = b, x >= 0, from a feasible basis.

    The arguments are float arrays.  `basis` names one column per row,
    forming a nonsingular B with B^-1 b >= 0.  B^-1 is kept explicitly: a
    rank-one (product-form) update per pivot, and a fresh inversion every
    _REFACTOR_EVERY pivots, around every pivot below _SMALL_PIVOT of its
    column (on an updated inverse such a pivot may be round-off) and
    before returning, so the final basis is checked primal and dual
    feasible on an exact inverse.  Pricing takes the most negative reduced
    cost (Dantzig).  After _DEGENERATE_RUN degenerate pivots in a row,
    Bland's lowest-index rule picks both the entering and the leaving
    column until the objective moves again, so the method cannot cycle.
    Returns (x, objective, basis, duals), where `duals` is c_B B^-1 on the
    final basis.
    """
    basis = np.array(basis, dtype=np.intp)

    def factorise():
        try:
            inv = np.linalg.inv(a[:, basis])
        except np.linalg.LinAlgError as exc:
            raise SimplexError("singular basis matrix") from exc
        return inv, inv @ b

    def check_feasible(x_b, which):
        if x_b.min() < -_TOL:
            raise SimplexError(
                f"{which} basis is not primal feasible (x_B min {x_b.min()!r})"
            )

    inv, x_b = factorise()
    check_feasible(x_b, "starting")
    since_refactor, degenerate = 0, 0
    for _ in range(_MAX_PIVOTS):
        reduced = costs - (costs[basis] @ inv) @ a
        reduced[basis] = 0.0
        improving = np.flatnonzero(reduced < -_TOL)
        if improving.size == 0:
            if since_refactor == 0:  # optimal on a freshly factorised basis
                check_feasible(x_b, "final")
                x = np.zeros(a.shape[1])
                x[basis] = x_b
                return x, float(costs @ x), basis, costs[basis] @ inv
            inv, x_b = factorise()
            since_refactor = 0
            continue
        bland = degenerate >= _DEGENERATE_RUN
        entering = improving[0] if bland else improving[np.argmin(reduced[improving])]
        col = inv @ a[:, entering]
        leave = _leaving_row(col, x_b, basis, bland)
        small = col[leave] < _SMALL_PIVOT * np.abs(col).max()
        if small and since_refactor:
            inv, x_b = factorise()
            since_refactor = 0
            col = inv @ a[:, entering]
            leave = _leaving_row(col, x_b, basis, bland)
        step = max(x_b[leave], 0.0) / col[leave]

        x_b -= step * col
        x_b[leave] = step
        pivot_row = inv[leave] / col[leave]
        inv -= np.outer(col, pivot_row)
        inv[leave] = pivot_row
        basis[leave] = entering
        degenerate = degenerate + 1 if step <= _TOL else 0
        since_refactor = (since_refactor + 1) % _REFACTOR_EVERY
        if since_refactor == 0 or small:
            inv, x_b = factorise()
            since_refactor = 0
    raise SimplexError(f"no convergence within {_MAX_PIVOTS} pivots")


def _leaving_row(col, x_b, basis, bland):
    """Ratio test for the entering column `col` = B^-1 a_q.

    Bland: the lowest variable index among the rows of minimum ratio.
    Otherwise Harris: the largest pivot among the rows whose ratio is
    within the step that keeps every basic value above -_HARRIS_TOL, since
    tiny pivots on degenerate rows would wreck the updated inverse.
    """
    rows = np.flatnonzero(col > _TOL)
    if rows.size == 0:
        raise SimplexError("objective unbounded below")
    ratios = np.maximum(x_b[rows], 0.0) / col[rows]
    if bland:
        ties = rows[ratios <= ratios.min() + 1e-12]
        return ties[np.argmin(basis[ties])]
    bound = max(((x_b[rows] + _HARRIS_TOL) / col[rows]).min(), 0.0)
    ties = rows[ratios <= bound]
    return ties[np.argmax(col[ties])]


def _flow_matrix(mdp):
    """(B - g P)^T as a dense (n_states x n_pairs) array."""
    incidence = np.kron(np.eye(mdp.n_states), np.ones(mdp.n_actions))
    return incidence - mdp.discount * mdp.transition.T


def _l1_program(mdp, psi, b_target):
    """The LP min sum(u + v) s.t. flow mu = nu0, Psi^T mu - u + v = b, all >= 0.

    Columns are mu (n_pairs), then u and v (n_costs each); rows are the
    n_states flow equalities, then the n_costs feature rows.
    """
    n, nc = psi.shape
    eye = np.eye(nc)
    a_eq = np.block([
        [_flow_matrix(mdp), np.zeros((mdp.n_states, 2 * nc))],
        [psi.T, -eye, eye],
    ])
    b_eq = np.concatenate([mdp.initial_dist, b_target])
    costs = np.concatenate([np.zeros(n), np.ones(2 * nc)])
    return costs, a_eq, b_eq


def _sign_probe(mdp, psi, b_target):
    """The deterministic policy minimizing s . Psi^T mu, where s holds the
    signs of the uniform policy's residual.  Returns (s, actions, measure).
    """
    uniform = occupancy_of_policy(mdp, uniform_policy(mdp)).mass
    signs = np.where(psi.T @ uniform - b_target >= 0.0, 1.0, -1.0)
    return (signs, *_optimal_occupancy_for_cost(mdp, psi @ signs))


def _split_columns(residual, offset):
    """Per feature row, u_i where residual r_i >= 0 and v_i otherwise, for
    u and v columns numbered from `offset`: the basic split of a vertex."""
    nc = residual.size
    return np.where(residual >= 0.0, offset, offset + nc) + np.arange(nc)


def _warm_start_basis(mdp, psi, b_target):
    """A feasible starting basis of `_l1_program`, no phase 1 needed.

    The pair columns of any deterministic policy pi form I - g P_pi^T on
    the flow rows, which is invertible, and give pi's occupancy measure.
    Each feature row then takes u_i when pi's residual r_i >= 0 and v_i
    otherwise, so the basis matrix is block-triangular and nonsingular,
    and its solution (mu_pi, |r|) is nonnegative.  The policy is
    `_sign_probe`'s.
    """
    _, actions, mu = _sign_probe(mdp, psi, b_target)
    pairs = np.arange(mdp.n_states) * mdp.n_actions + actions
    splits = _split_columns(psi.T @ mu.mass - b_target, psi.shape[0])
    return np.concatenate([pairs, splits])


def exact_al_solve(mdp, basis, target):
    """Exact minimum of the feature-matching gap over the flow polytope.

    The l1 objective is split as Psi^T mu - target = u - v with u, v >= 0,
    so the LP has n_states + n_costs rows and n_pairs + 2 n_costs variables.
    A revised simplex solves it from a deterministic policy's vertex
    (`_warm_start_basis`).  Guarded to 4096 pairs.
    """
    if mdp.n_pairs > _MAX_EXACT_PAIRS:
        raise ValueError(
            f"exact solve guarded to {_MAX_EXACT_PAIRS} pairs, got {mdp.n_pairs}"
        )
    psi = basis.psi
    b_target = _target_vector(basis, target)
    costs, a_eq, b_eq = _l1_program(mdp, psi, b_target)
    x, objective, _, _ = _revised_simplex(
        costs, a_eq, b_eq, _warm_start_basis(mdp, psi, b_target)
    )
    mu = np.clip(x[: mdp.n_pairs], 0.0, None)
    check = float(np.abs(psi.T @ mu - b_target).sum())
    if abs(check - objective) > 1e-9 * max(1.0, abs(objective)) + 1e-9:
        raise SimplexError(
            f"objective {objective} disagrees with recomputed gap {check}"
        )
    # report the gap recomputed from mu so the objective is exactly
    # consistent with the returned measure (and never a tiny negative); the
    # final basis is dual feasible, so the objective is its own lower bound
    return ExactSolution(OccupancyMeasure(mu), check, "lp-simplex", check)


def _optimal_occupancy_for_cost(mdp, cost):
    """Exact minimizer of <mu, cost> over the occupancy polytope.

    Policy iteration on the deterministic policies: evaluate exactly by
    linear solve, improve greedily, stop when no action improves by more
    than solver round-off.  Finite and independent of the simplex code.
    Returns (actions, measure) of the final deterministic policy.
    """
    cost = np.asarray(cost, dtype=float)
    policy, _ = value_iteration(mdp, cost, tolerance=1e-12)
    actions = policy.probs.argmax(axis=1)
    idx = np.arange(mdp.n_states)
    for _ in range(64):
        p_pi = state_transition_matrix(mdp, deterministic_policy(mdp, actions))
        c_pi = cost.reshape(mdp.n_states, mdp.n_actions)[idx, actions]
        values = np.linalg.solve(
            np.eye(mdp.n_states) - mdp.discount * p_pi, c_pi
        )
        q = (cost + mdp.discount * (mdp.transition @ values)).reshape(
            mdp.n_states, mdp.n_actions
        )
        improved = q.argmin(axis=1)
        keep = q[idx, actions] <= q[idx, improved] + 1e-12
        improved[keep] = actions[keep]
        if np.array_equal(improved, actions):
            break
        actions = improved
    return actions, occupancy_of_policy(mdp, deterministic_policy(mdp, actions))


def subgradient_solve(mdp, basis, target, iterations=None):
    """Certified solve of the same program by column generation.

    The objective is convex and the occupancy polytope is the convex hull
    of the deterministic policies' measures, so the optimum is a mixture
    of them (Dantzig-Wolfe).  The restricted master

        min sum(u + v)  s.t.  sum_j lam_j Psi^T mu_j - u + v = target,
                              sum_j lam_j = 1,  lam, u, v >= 0

    has n_costs + 1 rows whatever the MDP's size.  The first column is
    `_sign_probe`'s policy.  Each round re-solves the master with the
    revised simplex from its previous optimal basis, then prices with one
    exact policy-iteration solve (`_optimal_occupancy_for_cost`) of the
    cost Psi w, where w = -y clipped to [-1, 1]^n_costs and y holds the
    master's feature-row duals.  Every w in that box bounds the optimum
    from below by w . (Psi^T mu_new - target), and the best such bound is
    the result's `lower_bound`.  The solve stops when the bound certifies
    the master's mixture, or, uncertified, when pricing returns a policy
    already in the master.  Each round adds a new deterministic policy,
    so it terminates.

    The result is the mixture sum_j lam_j mu_j.  `iterations` is ignored;
    it is kept because the benchmark harness still passes it.
    """
    del iterations
    psi = basis.psi
    b_target = _target_vector(basis, target)
    nc = basis.n_costs
    rhs = np.append(b_target, 1.0)
    splits = np.hstack([-np.eye(nc), np.eye(nc)])

    signs, actions, mu = _sign_probe(mdp, psi, b_target)
    residual = psi.T @ mu.mass - b_target
    lower = max(0.0, float(signs @ residual))  # the gap is nonnegative
    seen = {actions.tobytes()}
    measures = [mu.mass]
    master = np.concatenate([[0], _split_columns(residual, 1)])
    while True:
        k = len(measures)
        mass = np.array(measures)
        a = np.vstack([
            np.hstack([psi.T @ mass.T, splits]),
            np.concatenate([np.ones(k), np.zeros(2 * nc)]),
        ])
        costs = np.concatenate([np.zeros(k), np.ones(2 * nc)])
        x, _, master, duals = _revised_simplex(costs, a, rhs, master)
        lam = np.clip(x[:k], 0.0, None)  # renormalised, a convex mixture
        mixture = (lam / lam.sum()) @ mass
        gap = float(np.abs(psi.T @ mixture - b_target).sum())
        if _certifies(gap, lower):
            break
        w = np.clip(-duals[:nc], -1.0, 1.0)
        actions, mu = _optimal_occupancy_for_cost(mdp, psi @ w)
        lower = max(lower, float(w @ (psi.T @ mu.mass - b_target)))
        if actions.tobytes() in seen:
            break
        seen.add(actions.tobytes())
        measures.append(mu.mass)
        master = np.where(master >= k, master + 1, master)
    return ExactSolution(OccupancyMeasure(mixture), gap, "column-generation", lower)


def regret_report(trained, exact, inputs):
    """Evaluate both sides of the regret guarantee for a trained policy.

    `trained` is the (mu, gap) pair from evaluate_theta computed against
    the true expert feature expectation, `exact` supplies the comparator
    gap, and `inputs` carries the constants of the guarantee's right side.
    """
    lhs = float(trained[1]) if isinstance(trained, tuple) else float(trained)
    one_minus = 1.0 - inputs.gamma
    violation_term = (
        4.0 * inputs.psi_inf_norm / one_minus + 1.0 / inputs.epsilon
    ) * (inputs.comparator_v1 + inputs.comparator_v2)
    approximation_term = (
        (2.0 * inputs.psi_inf_norm / one_minus)
        * (
            inputs.psi_inf_norm * inputs.phi_one_norm * inputs.rho * math.sqrt(inputs.d)
            + inputs.n_costs / one_minus
        )
        * inputs.epsilon
    )
    rhs = exact.objective + violation_term + approximation_term + inputs.epsilon
    return RegretReport(
        lhs=lhs,
        comparator_gap=float(exact.objective),
        violation_term=float(violation_term),
        approximation_term=float(approximation_term),
        epsilon_term=float(inputs.epsilon),
        rhs=float(rhs),
        holds=bool(lhs <= rhs),
    )


def exact_solution_to_json(solution):
    return {
        "mu_star": solution.mu_star.mass.tolist(),
        "objective": solution.objective,
        "method": solution.method,
    }


def regret_report_to_json(report):
    return {
        "lhs": report.lhs,
        "comparator_gap": report.comparator_gap,
        "violation_term": report.violation_term,
        "approximation_term": report.approximation_term,
        "epsilon_term": report.epsilon_term,
        "rhs": report.rhs,
        "holds": report.holds,
    }

