"""Finite discounted MDPs as dense numpy arrays.

State-action pairs are flattened row-major: the pair (x, a) lives at index
``x * n_actions + a``.  Transition matrices therefore have shape
``(n_states * n_actions, n_states)``, policies ``(n_states, n_actions)``,
and occupancy measures are flat vectors of length ``n_states * n_actions``.
Everything downstream (costs, features, the training loop) assumes this
one convention, so it is fixed here and never re-derived.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mdp",
    "Policy",
    "OccupancyMeasure",
    "validate_mdp",
    "uniform_policy",
    "deterministic_policy",
    "state_transition_matrix",
    "occupancy_of_policy",
    "truncated_series_occupancy",
    "flow_residual",
    "value_iteration",
    "make_random_mdp",
    "make_gridworld",
    "make_chain",
    "chain_cost",
    "mdp_to_json",
    "load_mdp",
    "policy_to_json",
    "load_policy",
]


def _sa_index(state, action, n_actions):
    """Flat index of the state-action pair (state, action)."""
    return state * n_actions + action


@dataclass(frozen=True)
class Mdp:
    """Tabular MDP.

    transition[(x, a), x'] is the probability of landing in x' after taking
    a in x.  initial_dist is the start-state distribution.  Instances are
    treated as immutable; none of the solvers mutate them.
    """

    n_states: int
    n_actions: int
    transition: np.ndarray
    discount: float
    initial_dist: np.ndarray

    @property
    def n_pairs(self):
        return self.n_states * self.n_actions


@dataclass(frozen=True)
class Policy:
    """Stationary stochastic policy; probs[x, a] = probability of a in x."""

    probs: np.ndarray


@dataclass(frozen=True)
class OccupancyMeasure:
    """Discounted state-action visitation; total mass is 1/(1 - discount)."""

    mass: np.ndarray

    def total(self):
        return float(self.mass.sum())


_SUM_ATOL = 1e-9


def validate_mdp(mdp):
    """Return a list of human-readable violations (empty list = valid).

    Transition rows and the initial distribution must be finite and
    nonnegative and sum to 1 within 1e-9.
    """
    problems = []
    n, k = mdp.n_states, mdp.n_actions
    if n < 1 or k < 1:
        problems.append(f"need at least one state and one action, got {n}x{k}")
        return problems
    if mdp.transition.shape != (n * k, n):
        problems.append(
            f"transition shape {mdp.transition.shape} != ({n * k}, {n})"
        )
        return problems
    if not (0.0 < mdp.discount < 1.0):
        problems.append(f"discount {mdp.discount} outside (0, 1)")
    if not np.isfinite(mdp.transition).all():
        rows = np.unique(np.nonzero(~np.isfinite(mdp.transition))[0])[:5]
        problems.append(f"non-finite transition entries in rows {rows.tolist()}")
    if np.any(mdp.transition < 0):
        rows = np.unique(np.where(mdp.transition < 0)[0])[:5]
        problems.append(f"negative transition entries in rows {rows.tolist()}")
    row_sums = mdp.transition.sum(axis=1)
    bad = np.where(np.abs(row_sums - 1.0) > _SUM_ATOL)[0]
    if bad.size:
        problems.append(
            f"{bad.size} transition rows do not sum to 1 (first: row "
            f"{int(bad[0])}, sum {float(row_sums[bad[0]])!r})"
        )
    if mdp.initial_dist.shape != (n,):
        problems.append(f"initial_dist shape {mdp.initial_dist.shape} != ({n},)")
    else:
        if not np.isfinite(mdp.initial_dist).all():
            problems.append("initial_dist has non-finite entries")
        if np.any(mdp.initial_dist < 0):
            problems.append("initial_dist has negative entries")
        if abs(mdp.initial_dist.sum() - 1.0) > _SUM_ATOL:
            problems.append(f"initial_dist sums to {float(mdp.initial_dist.sum())!r}")
    return problems


def uniform_policy(mdp):
    probs = np.full((mdp.n_states, mdp.n_actions), 1.0 / mdp.n_actions)
    return Policy(probs)


def deterministic_policy(mdp, actions):
    """Policy taking actions[x] in state x with probability one."""
    probs = np.zeros((mdp.n_states, mdp.n_actions))
    probs[np.arange(mdp.n_states), np.asarray(actions, dtype=int)] = 1.0
    return Policy(probs)


def state_transition_matrix(mdp, policy):
    """State-to-state chain P_pi[x, x'] = sum_a pi(a|x) P[(x,a), x']."""
    t = mdp.transition.reshape(mdp.n_states, mdp.n_actions, mdp.n_states)
    return np.einsum("xa,xay->xy", policy.probs, t)


def occupancy_of_policy(mdp, policy):
    """Discounted occupancy measure of a stationary policy, by linear solve.

    The discounted state visitation d solves (I - g * P_pi^T) d = nu0, and
    the state-action measure is mu(x, a) = d(x) * pi(a|x).  Entries in
    [-1e-12, 0), which can appear through solver round-off, are clamped to
    zero; anything more negative indicates a broken input and raises.
    """
    p_pi = state_transition_matrix(mdp, policy)
    eye = np.eye(mdp.n_states)
    d = np.linalg.solve(eye - mdp.discount * p_pi.T, mdp.initial_dist)
    mu = (d[:, None] * policy.probs).ravel()
    low = mu.min() if mu.size else 0.0
    if low < -1e-12:
        raise RuntimeError(f"occupancy solve produced entry {low!r} < -1e-12")
    np.clip(mu, 0.0, None, out=mu)
    return OccupancyMeasure(mu)


def truncated_series_occupancy(mdp, policy, horizon):
    """Partial sum sum_{t<horizon} g^t * (state-action law at t).

    Brute-force oracle for occupancy_of_policy; the truncation error is
    exactly the series tail, so it is within g^horizon / (1 - g) of the
    exact measure in l1.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    sa = (mdp.initial_dist[:, None] * policy.probs).ravel()
    acc = np.zeros_like(sa)
    scale = 1.0
    for _ in range(horizon):
        acc += scale * sa
        s_next = mdp.transition.T @ sa
        sa = (s_next[:, None] * policy.probs).ravel()
        scale *= mdp.discount
    return OccupancyMeasure(acc)


def _state_marginal(mdp, u):
    """Sum a vector over actions: B^T u, with B the pair-to-state incidence."""
    return np.asarray(u).reshape(mdp.n_states, mdp.n_actions).sum(axis=1)


def _flow_defect(mdp, u):
    """Signed Bellman-flow defect (B - g P)^T u - nu0 of an arbitrary vector."""
    u = np.asarray(u, dtype=float)
    return (
        _state_marginal(mdp, u)
        - mdp.discount * (mdp.transition.T @ u)
        - mdp.initial_dist
    )


def flow_residual(mdp, u):
    """Constraint diagnostics for a candidate measure.

    Returns (negative_mass, flow_gap): the l1 mass of the negative part and
    the l1 norm of the Bellman-flow defect.  Both are zero exactly on the
    feasible set of occupancy measures.
    """
    u = np.asarray(u, dtype=float)
    negative_mass = float(-np.minimum(u, 0.0).sum())
    flow_gap = float(np.abs(_flow_defect(mdp, u)).sum())
    return negative_mass, flow_gap


_MAX_SWEEPS = 1_000_000
_VI_TOLERANCE = 1e-10


def value_iteration(mdp, cost):
    """Minimize expected discounted cost by value iteration.

    Sweeps until the sup-norm Bellman residual drops to the fixed
    `_VI_TOLERANCE` (1e-10); the greedy policy (argmin, ties to the lowest
    action index) is then within 1e-10 * (1 + g) / (1 - g) of optimal.
    Returns (Policy, values).  After a million sweeps it warns and returns
    the greedy policy of the last iterate.
    """
    cost = np.asarray(cost, dtype=float)
    v = np.zeros(mdp.n_states)
    for _ in range(_MAX_SWEEPS):
        q = (cost + mdp.discount * (mdp.transition @ v)).reshape(
            mdp.n_states, mdp.n_actions
        )
        v_next = q.min(axis=1)
        residual = np.abs(v_next - v).max()
        v = v_next
        if residual <= _VI_TOLERANCE:
            break
    else:
        warnings.warn(
            f"value iteration stopped after {_MAX_SWEEPS} sweeps with "
            f"residual {residual!r}"
        )
    q = (cost + mdp.discount * (mdp.transition @ v)).reshape(
        mdp.n_states, mdp.n_actions
    )
    greedy = q.argmin(axis=1)
    return deterministic_policy(mdp, greedy), v


# ---------------------------------------------------------------------------
# generators


def make_random_mdp(n_states, n_actions, discount, seed):
    """Random dense MDP; rows are flat-Dirichlet (exponentials, normalized)."""
    if n_states < 1 or n_actions < 1:
        raise ValueError("need at least one state and one action")
    rng = np.random.default_rng(seed)
    raw = rng.exponential(1.0, size=(n_states * n_actions, n_states))
    transition = raw / raw.sum(axis=1, keepdims=True)
    initial = np.full(n_states, 1.0 / n_states)
    return Mdp(n_states, n_actions, transition, float(discount), initial)


_GRID_MOVES = ((-1, 0), (0, 1), (1, 0), (0, -1))  # N, E, S, W


def make_gridworld(width, height, discount, slip_prob):
    """Gridworld on width x height cells with actions N, E, S, W.

    Moving into a wall keeps the agent in place.  With probability
    slip_prob the chosen action is replaced by a uniformly random one.
    The start distribution is a point mass on the top-left cell.  Returns
    (mdp, cost): unit cost everywhere except the bottom-right goal cell.
    The construction is deterministic.
    """
    if width < 1 or height < 1 or width * height < 2:
        raise ValueError(f"invalid gridworld dimensions {width}x{height}")
    if not (0.0 <= slip_prob < 1.0):
        raise ValueError(f"slip_prob {slip_prob} outside [0, 1)")
    n_states = width * height
    n_actions = 4

    def step(state, action):
        r, c = divmod(state, width)
        dr, dc = _GRID_MOVES[action]
        nr, nc = r + dr, c + dc
        if 0 <= nr < height and 0 <= nc < width:
            return nr * width + nc
        return state

    transition = np.zeros((n_states * n_actions, n_states))
    for x in range(n_states):
        landings = [step(x, a) for a in range(n_actions)]
        for a in range(n_actions):
            row = transition[_sa_index(x, a, n_actions)]
            row[landings[a]] += 1.0 - slip_prob
            for other in landings:
                row[other] += slip_prob / n_actions
    initial = np.zeros(n_states)
    initial[0] = 1.0
    mdp = Mdp(n_states, n_actions, transition, float(discount), initial)
    return mdp, _gridworld_cost(width, height)


def _gridworld_cost(width, height):
    """Unit cost everywhere except the bottom-right goal cell (cost 0)."""
    n_states = width * height
    cost = np.ones(n_states * 4)
    goal = n_states - 1
    cost[goal * 4 : (goal + 1) * 4] = 0.0
    return cost


def make_chain(discount):
    """Two-state toggle chain: action 0 stays put, action 1 switches state.

    Starts in state 0.  Small enough to check everything by hand, so it is
    the default desk instance throughout the test suite.
    """
    transition = np.array(
        [
            [1.0, 0.0],  # (s0, stay)
            [0.0, 1.0],  # (s0, go)
            [0.0, 1.0],  # (s1, stay)
            [1.0, 0.0],  # (s1, go)
        ]
    )
    initial = np.array([1.0, 0.0])
    return Mdp(2, 2, transition, float(discount), initial)


def chain_cost():
    """Cost 1 for acting in state 0, free in state 1."""
    return np.array([1.0, 1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# serialization
#
# json.dump writes Python floats with repr, the shortest string that parses
# back to the identical double, so round trips are bit-exact (17 significant
# digits suffice and repr never needs more).


def mdp_to_json(mdp):
    return {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "discount": mdp.discount,
        "transition": mdp.transition.ravel().tolist(),
        "initial_dist": mdp.initial_dist.tolist(),
    }


def _mdp_from_json(blob):
    n, k = int(blob["n_states"]), int(blob["n_actions"])
    transition = np.array(blob["transition"], dtype=float).reshape(n * k, n)
    initial = np.array(blob["initial_dist"], dtype=float)
    return Mdp(n, k, transition, float(blob["discount"]), initial)


def load_mdp(path):
    """MDP in a JSON file such as a run's mdp.json; other keys are ignored."""
    with open(path) as fh:
        return _mdp_from_json(json.load(fh))


def policy_to_json(policy):
    return {"probs": [list(map(float, row)) for row in policy.probs]}


def _policy_from_json(blob):
    return Policy(np.array(blob["probs"], dtype=float))


def load_policy(path):
    """Policy in a JSON file such as a run's policy.json; other keys are ignored."""
    with open(path) as fh:
        return _policy_from_json(json.load(fh))
