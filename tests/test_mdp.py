"""Core MDP model: validation, occupancy solves, forward solvers, generators.

Derived constants used below (two-state toggle chain, discount 1/2,
start state 0, action 0 stays, action 1 switches):
  - always-stay occupancy: mass 2 on (s0, stay), zero elsewhere
    (geometric series sum 1/(1-1/2) = 2);
  - always-go occupancy: the state alternates s0, s1, s0, ..., so
    mu(s0, go) = sum of (1/4)^t = 4/3 and mu(s1, go) = (1/2)*(4/3) = 2/3;
  - with cost 1 on state-0 pairs and 0 on state-1 pairs the optimal
    policy pays once to leave s0 and then stays: value(s0) = 1.
All three were cross-checked against the truncated power series at
horizon 60 before being frozen here.
"""

import json

import numpy as np
import pytest

from occupal import (
    ExperimentConfig,
    Mdp,
    Policy,
    chain_cost,
    deterministic_policy,
    flow_residual,
    load_mdp,
    load_policy,
    make_chain,
    make_gridworld,
    make_random_mdp,
    occupancy_of_policy,
    sample_trajectories,
    state_transition_matrix,
    truncated_series_occupancy,
    uniform_policy,
    validate_mdp,
    value_iteration,
)
from occupal.mdp import _flow_defect, _sa_index, mdp_to_json
from occupal.pipeline import STAGES, run_stages

CHAIN = make_chain(0.5)
STAY = deterministic_policy(CHAIN, [0, 0])
GO = deterministic_policy(CHAIN, [1, 1])


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_chain():
    assert validate_mdp(CHAIN) == []


def test_validate_reports_bad_transition_row():
    transition = CHAIN.transition.copy()
    transition[2] = [0.45, 0.45]
    bad = Mdp(2, 2, transition, 0.5, CHAIN.initial_dist)
    problems = validate_mdp(bad)
    assert any("row 2" in p for p in problems)


def test_validate_reports_initial_dist_sum():
    bad = Mdp(2, 2, CHAIN.transition, 0.5, np.array([0.5, 0.4]))
    problems = validate_mdp(bad)
    assert any("initial_dist sums to 0.9" in p for p in problems)


def test_validate_reports_negative_entries():
    bad = Mdp(2, 2, CHAIN.transition, 0.5, np.array([1.5, -0.5]))
    assert any("negative" in p for p in validate_mdp(bad))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_validate_reports_non_finite_entries(value):
    transition = CHAIN.transition.copy()
    transition[1, 0] = value
    bad = Mdp(2, 2, transition, 0.5, CHAIN.initial_dist)
    assert "non-finite transition entries in rows [1]" in validate_mdp(bad)
    bad = Mdp(2, 2, CHAIN.transition, 0.5, np.array([value, 0.0]))
    assert "initial_dist has non-finite entries" in validate_mdp(bad)


def test_discount_must_be_in_open_interval():
    for gamma in (0.0, 1.0, -0.2, 1.3):
        bad = Mdp(2, 2, CHAIN.transition, gamma, CHAIN.initial_dist)
        assert any("discount" in p for p in validate_mdp(bad))


# ---------------------------------------------------------------------------
# occupancy measures


def test_always_stay_occupancy():
    mu = occupancy_of_policy(CHAIN, STAY)
    expected = np.zeros(4)
    expected[_sa_index(0, 0, 2)] = 2.0
    assert np.abs(mu.mass - expected).max() < 1e-12


def test_always_go_occupancy():
    mu = occupancy_of_policy(CHAIN, GO)
    expected = np.zeros(4)
    expected[_sa_index(0, 1, 2)] = 4.0 / 3.0
    expected[_sa_index(1, 1, 2)] = 2.0 / 3.0
    assert np.abs(mu.mass - expected).max() < 1e-12


def test_total_mass_is_inverse_gap():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n, k = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        gamma = float(rng.uniform(0.2, 0.95))
        mdp = make_random_mdp(n, k, gamma, seed=int(rng.integers(2**31)))
        probs = rng.exponential(1.0, (n, k))
        policy = Policy(probs / probs.sum(axis=1, keepdims=True))
        mu = occupancy_of_policy(mdp, policy)
        assert abs(mu.total() - 1.0 / (1.0 - gamma)) < 1e-8
        assert mu.mass.min() >= 0.0


def test_occupancy_satisfies_flow_constraints():
    rng = np.random.default_rng(1)
    for _ in range(10):
        mdp = make_random_mdp(6, 3, 0.8, seed=int(rng.integers(2**31)))
        mu = occupancy_of_policy(mdp, uniform_policy(mdp))
        neg, gap = flow_residual(mdp, mu.mass)
        assert neg <= 1e-8 and gap <= 1e-8


def test_truncated_series_single_term():
    mu = truncated_series_occupancy(CHAIN, STAY, horizon=1)
    assert mu.mass[_sa_index(0, 0, 2)] == pytest.approx(1.0, abs=1e-15)
    assert mu.total() == pytest.approx(1.0, abs=1e-15)


def test_series_matches_solve_at_long_horizon():
    for policy in (STAY, GO):
        exact = occupancy_of_policy(CHAIN, policy)
        series = truncated_series_occupancy(CHAIN, policy, horizon=60)
        assert np.abs(exact.mass - series.mass).sum() < 1e-15


def test_series_tail_bound_float():
    """l1 gap between solve and H-term series is at most the geometric tail.

    In exact arithmetic the gap equals the tail, so the float comparison
    carries a small relative slack; the exact-arithmetic twin of this test
    (test_rational.py) asserts the equality with no slack at all.
    """
    rng = np.random.default_rng(2)
    for _ in range(100):
        n, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        gamma = float(rng.uniform(0.3, 0.9))
        mdp = make_random_mdp(n, k, gamma, seed=int(rng.integers(2**31)))
        probs = rng.exponential(1.0, (n, k))
        policy = Policy(probs / probs.sum(axis=1, keepdims=True))
        exact = occupancy_of_policy(mdp, policy)
        for horizon in (5, 20):
            series = truncated_series_occupancy(mdp, policy, horizon)
            gap = np.abs(exact.mass - series.mass).sum()
            bound = gamma**horizon / (1.0 - gamma)
            assert gap <= bound * (1.0 + 1e-9) + 1e-12


def test_doubling_horizon_shrinks_gap_geometrically():
    mdp = make_random_mdp(5, 2, 0.7, seed=9)
    policy = uniform_policy(mdp)
    exact = occupancy_of_policy(mdp, policy)
    for horizon in (4, 8, 16):
        gap = np.abs(
            exact.mass - truncated_series_occupancy(mdp, policy, horizon).mass
        ).sum()
        gap2 = np.abs(
            exact.mass - truncated_series_occupancy(mdp, policy, 2 * horizon).mass
        ).sum()
        assert gap2 <= gap * 0.7**horizon * (1.0 + 1e-9) + 1e-15


# ---------------------------------------------------------------------------
# flow residuals


def test_flow_residual_of_zero_vector():
    neg, gap = flow_residual(CHAIN, np.zeros(4))
    assert neg == 0.0
    assert gap == pytest.approx(1.0, abs=1e-15)


def test_flow_residual_of_perturbed_occupancy():
    """Perturbing one entry by +0.1 changes the defect by 0.1*(e - g*P_row)."""
    mdp = make_random_mdp(4, 2, 0.6, seed=3)
    mu = occupancy_of_policy(mdp, uniform_policy(mdp)).mass
    bumped = mu.copy()
    bumped[3] += 0.1
    incidence = np.kron(np.eye(4), np.ones(2))
    flow_matrix = incidence - 0.6 * mdp.transition.T
    oracle = np.abs(flow_matrix @ bumped - mdp.initial_dist).sum()
    _, gap = flow_residual(mdp, bumped)
    assert gap == pytest.approx(oracle, abs=1e-12)
    defect = _flow_defect(mdp, bumped)
    assert np.abs(defect - (flow_matrix @ bumped - mdp.initial_dist)).max() < 1e-12


# ---------------------------------------------------------------------------
# returns and value iteration


def test_expected_return_all_ones_cost():
    mu = occupancy_of_policy(CHAIN, GO)
    assert mu.mass @ np.ones(4) == pytest.approx(2.0, abs=1e-10)


def test_expected_return_zero_cost():
    mu = occupancy_of_policy(CHAIN, GO)
    assert mu.mass @ np.zeros(4) == 0.0


def test_expected_return_indicator_cost():
    indicator = np.zeros(4)
    indicator[_sa_index(0, 0, 2)] = 1.0
    mu = occupancy_of_policy(CHAIN, STAY)
    assert mu.mass @ indicator == pytest.approx(2.0, abs=1e-10)


def test_expected_return_matches_monte_carlo():
    """Inner product <mu, c> vs 10k truncated rollouts, within 3 SEs.

    The horizon-40 truncation contributes at most g^40/(1-g) ~ 2e-5 extra,
    folded into the tolerance.
    """
    rng = np.random.default_rng(4)
    horizon = 40
    for trial in range(10):
        mdp = make_random_mdp(5, 3, 0.7, seed=100 + trial)
        probs = rng.exponential(1.0, (5, 3))
        policy = Policy(probs / probs.sum(axis=1, keepdims=True))
        cost = rng.uniform(0.0, 1.0, 15)
        exact = occupancy_of_policy(mdp, policy).mass @ cost
        batch = sample_trajectories(mdp, policy, 10_000, horizon, seed=200 + trial)
        flat = batch[:, :, 0] * 3 + batch[:, :, 1]
        weights = 0.7 ** np.arange(horizon)
        returns = cost[flat] @ weights
        standard_error = returns.std(ddof=1) / np.sqrt(returns.size)
        truncation = 0.7**horizon / 0.3
        assert abs(returns.mean() - exact) <= 3.0 * standard_error + truncation


def test_value_iteration_zero_cost():
    policy, values = value_iteration(CHAIN, np.zeros(4))
    assert np.array_equal(policy.probs, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert np.abs(values).max() == 0.0


def test_value_iteration_chain_cost():
    policy, values = value_iteration(CHAIN, chain_cost())
    # optimal play: pay 1 to leave s0, then stay at s1 for free
    assert policy.probs[0, 1] == 1.0
    assert policy.probs[1, 0] == 1.0
    assert values[0] == pytest.approx(1.0, abs=1e-9)
    assert values[1] == pytest.approx(0.0, abs=1e-9)


def test_value_iteration_matches_policy_evaluation():
    """Returned value == exact linear-solve evaluation of returned policy."""
    for seed in range(5):
        mdp = make_random_mdp(5, 3, 0.85, seed=seed)
        cost = np.random.default_rng(seed).uniform(0.0, 1.0, 15)
        policy, values = value_iteration(mdp, cost)
        p_pi = state_transition_matrix(mdp, policy)
        c_pi = (cost.reshape(5, 3) * policy.probs).sum(axis=1)
        exact = np.linalg.solve(np.eye(5) - 0.85 * p_pi, c_pi)
        assert np.abs(values - exact).max() < 1e-9


def test_value_iteration_bellman_residual():
    mdp = make_random_mdp(6, 2, 0.9, seed=11)
    cost = np.random.default_rng(11).uniform(0.0, 1.0, 12)
    _, values = value_iteration(mdp, cost)
    q = cost + 0.9 * (mdp.transition @ values)
    residual = np.abs(values - q.reshape(6, 2).min(axis=1)).max()
    assert residual <= 1e-10


# ---------------------------------------------------------------------------
# generators


def test_gridworld_two_cells():
    mdp, cost = make_gridworld(2, 1, 0.9, 0.0)
    assert mdp.n_states == 2 and mdp.n_actions == 4
    assert np.all(mdp.transition.max(axis=1) == 1.0)  # one-hot rows
    assert validate_mdp(mdp) == []
    assert cost[:4].tolist() == [1.0, 1.0, 1.0, 1.0]
    assert cost[4:].tolist() == [0.0, 0.0, 0.0, 0.0]


def test_gridworld_slip_mass():
    """With slip 0.2 the intended successor keeps 0.8 + 0.2/4 when distinct."""
    mdp, _ = make_gridworld(3, 3, 0.9, 0.2)
    # from the center cell (state 4) all four moves reach distinct cells
    for action, landing in enumerate((1, 5, 7, 3)):
        row = mdp.transition[_sa_index(4, action, 4)]
        assert row[landing] == pytest.approx(0.85, abs=1e-12)
    assert validate_mdp(mdp) == []


def test_gridworld_start_and_goal():
    mdp, cost = make_gridworld(4, 4, 0.9, 0.1)
    assert mdp.initial_dist[0] == 1.0
    assert cost[15 * 4 :].tolist() == [0.0] * 4
    assert cost[: 15 * 4].min() == 1.0


def test_gridworld_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        make_gridworld(1, 1, 0.9, 0.0)
    with pytest.raises(ValueError):
        make_gridworld(2, 2, 0.9, 1.0)


def test_random_mdp_single_state():
    mdp = make_random_mdp(1, 1, 0.5, seed=0)
    assert mdp.transition.tolist() == [[1.0]]


def test_random_mdp_deterministic_and_valid():
    a = make_random_mdp(10, 3, 0.9, seed=7)
    b = make_random_mdp(10, 3, 0.9, seed=7)
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.initial_dist, b.initial_dist)
    assert validate_mdp(a) == []
    c = make_random_mdp(10, 3, 0.9, seed=8)
    assert not np.array_equal(a.transition, c.transition)


# ---------------------------------------------------------------------------
# serialization


@pytest.fixture(scope="module")
def run_artifacts(tmp_path_factory):
    """One pipeline run's directory and in-memory state."""
    out_dir = tmp_path_factory.mktemp("run")
    config = ExperimentConfig.from_json({
        "environment": {"kind": "random", "n_states": 7, "n_actions": 3,
                        "discount": 0.875},
        "basis": {"kind": "state-action-indicator"},
        "features": {"d": 3},
        "expert": {"m": 20},
        "sgd": {"rho": 2.0, "lam": 5.0, "eta": 0.01, "iterations": 100},
        "out_dir": str(out_dir),
        "master_seed": 21,
    })
    names = ("mdp.json", "expert_policy.json", "policy.json")
    state = run_stages(config, [name for name, _, _ in STAGES], names)
    return out_dir, state


def test_mdp_json_round_trip_is_bit_exact(run_artifacts):
    """load_mdp reads a run's mdp.json into the run's MDP, bit for bit."""
    out_dir, state = run_artifacts
    path = out_dir / "mdp.json"
    mdp = load_mdp(path)
    assert (mdp.n_states, mdp.n_actions) == (7, 3)
    assert np.array_equal(mdp.transition, state["mdp"].transition)
    assert np.array_equal(mdp.initial_dist, state["mdp"].initial_dist)
    assert mdp.discount == state["mdp"].discount
    # serializing the loaded copy, with the run's seeds, reproduces the
    # file byte for byte
    blob = mdp_to_json(mdp)
    blob.update(master_seed=21, stage_seed=state["seeds"]["environment"])
    text = json.dumps(blob, sort_keys=True) + "\n"
    assert path.read_text() == text


def test_policy_json_round_trip(run_artifacts):
    """load_policy reads a run's policy files into the run's policies."""
    out_dir, state = run_artifacts
    for name, key in (("expert_policy.json", "expert_policy"),
                      ("policy.json", "trained_policy")):
        loaded = load_policy(out_dir / name)
        assert np.array_equal(loaded.probs, state[key].probs)
