"""Correctness checks on a workload's outputs, computed apart from occupal.

Every reference value here (occupancy measures, flow residuals, feature
expectations, the best deterministic policy) comes from plain numpy on the
artifacts' own numbers; nothing calls back into the program under test.
Each check takes a dict of outputs and returns None or a message, so the
self-check can perturb one output and watch the matching check fail.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

HOEFFDING_DELTA = 1e-6
GAP_TOL = 1e-9
FLOW_TOL = 1e-8
AGREE_TOL = 1e-4


def occupancy(transition, initial, discount, probs):
    """mu(x, a) = d(x) pi(a|x) with (I - g P_pi^T) d = nu0."""
    n_states, n_actions = probs.shape
    p_pi = np.einsum("xa,xay->xy", probs,
                     transition.reshape(n_states, n_actions, n_states))
    d = np.linalg.solve(np.eye(n_states) - discount * p_pi.T, initial)
    return (d[:, None] * probs).ravel()


def flow_residual(transition, initial, discount, mu):
    """Largest violation of sum_a mu(x, a) - g sum P(x | x', a') mu(x', a') = nu0(x)."""
    n_states = initial.size
    outflow = mu.reshape(n_states, -1).sum(axis=1)
    return float(np.abs(outflow - discount * (transition.T @ mu) - initial).max())


def best_deterministic_gap(transition, initial, discount, psi, target):
    """Brute force over every deterministic policy."""
    n_states = initial.size
    n_actions = transition.shape[0] // n_states
    best = math.inf
    for actions in itertools.product(range(n_actions), repeat=n_states):
        probs = np.zeros((n_states, n_actions))
        probs[np.arange(n_states), actions] = 1.0
        mu = occupancy(transition, initial, discount, probs)
        best = min(best, float(np.abs(psi.T @ mu - target).sum()))
    return best


def hoeffding_radius(psi, discount, m, horizon, delta=HOEFFDING_DELTA):
    """Per-coordinate radius holding jointly with probability 1 - delta.

    A truncated discounted sum of coordinate i lies in an interval of width
    (max psi_i - min psi_i, 0 included) (1 - g^H) / (1 - g); truncation adds
    at most max |psi_i| g^H / (1 - g) of bias.
    """
    width = (np.maximum(psi.max(axis=0), 0.0) - np.minimum(psi.min(axis=0), 0.0))
    width = width * (1.0 - discount**horizon) / (1.0 - discount)
    spread = width * math.sqrt(math.log(2.0 * psi.shape[1] / delta) / (2.0 * m))
    return spread + np.abs(psi).max(axis=0) * discount**horizon / (1.0 - discount)


# -- checks on one run_experiment output and its reload ---------------------


def expert_feature_expectation(o):
    """Feature expectation of the expert, from an exact occupancy solve."""
    mu = occupancy(o["transition"], o["initial"], o["discount"], o["expert_probs"])
    return o["psi"].T @ mu


def check_roundtrip(o):
    if not np.array_equal(o["reloaded"], o["resampled"]):
        return "reloaded trajectories differ from the sampled ones"
    return None


def check_expert_actions(o):
    probs = o["expert_probs"]
    if not np.all((probs == 0.0) | (probs == 1.0)) or not np.all(probs.sum(axis=1) == 1.0):
        return "expert policy is not deterministic"
    traj = o["reloaded"]
    chosen = probs.argmax(axis=1)[traj[:, :, 0]]
    bad = int((traj[:, :, 1] != chosen).sum())
    return f"{bad} steps take a non-expert action" if bad else None


def check_transitions(o):
    traj = o["reloaded"]
    n_actions = o["expert_probs"].shape[1]
    if np.any(o["initial"][traj[:, 0, 0]] <= 0.0):
        return "a trajectory starts in a state of zero initial probability"
    rows = traj[:, :-1, 0] * n_actions + traj[:, :-1, 1]
    bad = int((o["transition"][rows, traj[:, 1:, 0]] <= 0.0).sum())
    return f"{bad} steps have zero transition probability" if bad else None


def check_estimate_reload(o):
    fe = o["fe_json"]
    m, horizon = o["reloaded"].shape[:2]
    if fe["m"] != m or fe["horizon"] != horizon:
        return f"expert_fe.json has (m, H) = ({fe['m']}, {fe['horizon']}), data ({m}, {horizon})"
    if not np.array_equal(o["estimate"], np.array(fe["values"])):
        return "re-derived estimate differs from expert_fe.json"
    return None


def check_estimate_hoeffding(o):
    m, horizon = o["reloaded"].shape[:2]
    radius = hoeffding_radius(o["psi"], o["discount"], m, horizon)
    excess = np.abs(o["estimate"] - expert_feature_expectation(o)) - radius
    if np.any(excess > 0.0):
        return f"estimate outside the Hoeffding radius by {excess.max():.3e}"
    return None


def check_simplex_feasible(o):
    mu = o["mu_star"]
    if np.any(mu < 0.0):
        return f"simplex measure has a negative entry {mu.min():.3e}"
    residual = flow_residual(o["transition"], o["initial"], o["discount"], mu)
    if residual > FLOW_TOL:
        return f"simplex measure violates the flow constraints by {residual:.3e}"
    return None


def check_simplex_optimal(o):
    gap = float(np.abs(o["psi"].T @ o["mu_star"] - expert_feature_expectation(o)).sum())
    if gap > GAP_TOL:
        return f"simplex gap {gap:.3e} exceeds {GAP_TOL:g}"
    if abs(gap - o["objective"]) > GAP_TOL:
        return f"reported objective {o['objective']:.3e} differs from its gap {gap:.3e}"
    return None


def check_lower_bound(o):
    if o["objective"] > o["trained_gap"] + 1e-12:
        return f"optimum {o['objective']:.3e} exceeds the trained gap {o['trained_gap']:.3e}"
    if abs(o["trained_gap"] - o["regret_lhs"]) > 1e-9 * max(1.0, o["trained_gap"]):
        return "trained gap differs from regret_report.json"
    return None


RUN_CHECKS = (
    check_roundtrip,
    check_expert_actions,
    check_transitions,
    check_estimate_reload,
    check_estimate_hoeffding,
    check_simplex_feasible,
    check_simplex_optimal,
    check_lower_bound,
)


# -- checks on the mixed-optimum cross-check --------------------------------


def _recomputed_gap(o, mu):
    return float(np.abs(o["psi"].T @ mu - o["target"]).sum())


def check_solvers_agree(o):
    diff = abs(o["lp_objective"] - o["sub_objective"])
    return f"simplex and subgradient differ by {diff:.3e}" if diff > AGREE_TOL else None


def check_solutions_valid(o):
    for name in ("lp", "sub"):
        mu = o[f"{name}_mu"]
        residual = flow_residual(o["transition"], o["initial"], o["discount"], mu)
        if np.any(mu < 0.0) or residual > FLOW_TOL:
            return f"{name} measure is not in the flow polytope (residual {residual:.3e})"
        if abs(_recomputed_gap(o, mu) - o[f"{name}_objective"]) > GAP_TOL:
            return f"{name} objective differs from the gap of its measure"
    return None


def check_beats_deterministic(o):
    best = best_deterministic_gap(o["transition"], o["initial"], o["discount"],
                                  o["psi"], o["target"])
    for name in ("lp", "sub"):
        if not o[f"{name}_objective"] < best:
            return f"{name} objective {o[f'{name}_objective']:.6f} is not below {best:.6f}"
    return None


CROSS_CHECKS = (check_solvers_agree, check_solutions_valid, check_beats_deterministic)


def failures(checks, outputs):
    """Messages of the checks that fail, each prefixed by the check's name."""
    found = []
    for check in checks:
        message = check(outputs)
        if message is not None:
            found.append(f"{check.__name__}: {message}")
    return found
