"""The exact solvers and the regret guarantee arithmetic.

exact_al_solve minimizes the l1 feature-matching gap over the occupancy
polytope with a revised simplex method that starts from a deterministic
policy's vertex; subgradient_solve reaches the same optimum by column
generation over deterministic policies' measures and certifies it with
the bounds its pricing solves give.  Both are checked against each
other, against hand-solvable instances, and against brute sampling of
the polytope, and their certificates are checked for honesty.
"""

import math

import numpy as np
import pytest

from occupal import (
    BoundInputs,
    ExactSolution,
    Policy,
    SimplexError,
    exact_al_solve,
    feature_expectation,
    deterministic_policy,
    flow_residual,
    l1_feature_gap,
    make_chain,
    make_gridworld,
    make_random_mdp,
    occupancy_of_policy,
    region_indicator_basis,
    regret_report,
    state_action_indicator_basis,
    subgradient_solve,
    value_iteration,
)
from occupal import baseline
from occupal.baseline import _l1_program, _revised_simplex, _warm_start_basis
from occupal.features import CostBasis

CHAIN = make_chain(0.5)


def _expert_gridworld(width):
    """A gridworld, a 4-block basis and the expert's own feature expectation."""
    mdp, cost = make_gridworld(width, width, 0.9, 0.1)
    basis = region_indicator_basis(mdp, 4)
    expert, _ = value_iteration(mdp, cost)
    return mdp, basis, feature_expectation(occupancy_of_policy(mdp, expert), basis)


def _dense_instance(seed):
    """Demo 03's recipe: a 3x3 random MDP with a dense 4-column basis."""
    rng = np.random.default_rng(seed)
    mdp = make_random_mdp(3, 3, 0.8, seed=seed)
    psi = rng.uniform(0.0, 1.0, (mdp.n_pairs, 4))
    return mdp, CostBasis(psi / psi.max()), rng.uniform(-0.3, 1.5 / 0.2, 4)


def _random_40x4():
    """A 40-state, 4-action random MDP with a dense 8-column basis."""
    mdp = make_random_mdp(40, 4, 0.9, seed=5)
    rng = np.random.default_rng(5)
    psi = rng.uniform(0.0, 1.0, (mdp.n_pairs, 8))
    return mdp, CostBasis(psi / psi.max()), rng.uniform(0.0, 10.0, 8)


_BAD_TARGETS = [
    (1, [1.0, 1.0, 1.0]), (2, [2.0]), (1, [[2.0]]), (1, [np.nan]), (2, [1.0, np.inf]),
]


# ---------------------------------------------------------------------------
# the simplex core


def test_simplex_solves_hand_lp():
    # min -x1 - 2 x2  s.t.  x1 + x2 + s = 1, all vars >= 0  ->  x2 = 1
    costs = np.array([-1.0, -2.0, 0.0])
    a_eq = np.array([[1.0, 1.0, 1.0]])
    b_eq = np.array([1.0])
    x, value, basis, duals = _revised_simplex(costs, a_eq, b_eq, [2])  # start at the slack
    assert value == pytest.approx(-2.0, abs=1e-12)
    assert np.abs(x - [0.0, 1.0, 0.0]).max() < 1e-12
    assert list(basis) == [1] and duals == pytest.approx([-2.0], abs=1e-12)


def test_simplex_detects_unboundedness():
    # x1 unconstrained by the single row, with negative cost
    a_eq = np.array([[0.0, 1.0]])
    b_eq = np.array([1.0])
    with pytest.raises(SimplexError, match="unbounded"):
        _revised_simplex(np.array([-1.0, 0.0]), a_eq, b_eq, [1])


@pytest.mark.parametrize("bland_from_start", [False, True])
def test_simplex_terminates_on_a_cycling_example(monkeypatch, bland_from_start):
    # Beale's example: Dantzig pivoting that breaks ratio ties by lowest
    # index cycles on it from the slack basis; Bland's rule cannot
    if bland_from_start:
        monkeypatch.setattr(baseline, "_DEGENERATE_RUN", 0)
    costs = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
    a_eq = np.array([
        [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
        [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
    ])
    x, value, _, _ = _revised_simplex(costs, a_eq, np.array([0.0, 0.0, 1.0]), [0, 1, 2])
    assert value == pytest.approx(-1.25, abs=1e-12)
    assert np.abs(a_eq @ x - [0.0, 0.0, 1.0]).max() < 1e-12
    assert x.min() >= 0.0


def test_simplex_rejects_a_bad_starting_basis():
    costs = np.array([1.0, 1.0, 0.0])
    a_eq = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
    b_eq = np.array([1.0, 1.0])
    with pytest.raises(SimplexError, match="singular"):
        _revised_simplex(costs, a_eq, b_eq, [0, 1])
    with pytest.raises(SimplexError, match="not primal feasible"):
        _revised_simplex(costs, a_eq, b_eq, [0, 2])  # x3 = 1 - 2 < 0


def test_warm_start_basis_is_feasible_and_nonsingular():
    rng = np.random.default_rng(36)
    for trial in range(9):
        mdp = make_random_mdp(
            int(rng.integers(2, 9)), [1, 2, 4][trial % 3],
            float(rng.uniform(0.3, 0.95)), seed=200 + trial,
        )
        if trial % 2:
            psi = rng.uniform(0.0, 1.0, (mdp.n_pairs, int(rng.integers(1, 6))))
            basis = CostBasis(psi / psi.max())
        else:
            basis = region_indicator_basis(mdp, int(rng.integers(1, mdp.n_states + 1)))
        target = rng.uniform(-0.5, 2.0 / (1.0 - mdp.discount), basis.n_costs)
        _, a_eq, b_eq = _l1_program(mdp, basis.psi, target)
        n_rows = mdp.n_states + basis.n_costs
        assert a_eq.shape == (n_rows, mdp.n_pairs + 2 * basis.n_costs)
        start = _warm_start_basis(mdp, basis.psi, target)
        assert start.shape == (n_rows,) and np.unique(start).size == n_rows
        # one pair column per state: a deterministic policy
        states = start[: mdp.n_states] // mdp.n_actions
        assert np.array_equal(states, np.arange(mdp.n_states))
        b_mat = a_eq[:, start]
        assert np.linalg.cond(b_mat) < 1e8
        assert np.linalg.solve(b_mat, b_eq).min() >= -1e-12


# ---------------------------------------------------------------------------
# exact_al_solve


def test_reachable_target_is_matched_exactly():
    expert = occupancy_of_policy(CHAIN, deterministic_policy(CHAIN, [1, 1]))
    basis = state_action_indicator_basis(CHAIN)
    solution = exact_al_solve(CHAIN, basis, feature_expectation(expert, basis))
    assert isinstance(solution, ExactSolution)
    assert solution.objective < 1e-9
    assert np.abs(solution.mu_star.mass - expert.mass).max() < 1e-8
    assert solution.method == "lp-simplex"


def test_infeasible_target_has_known_gap():
    """Target (1.8, 0.9) sums to 2.7; occupancies have mass 2 -> gap 0.7."""
    basis = region_indicator_basis(CHAIN, 2)
    solution = exact_al_solve(CHAIN, basis, np.array([1.8, 0.9]))
    assert solution.objective == pytest.approx(0.7, abs=1e-10)
    s0_mass = solution.mu_star.mass[:2].sum()
    assert 1.1 - 1e-9 <= s0_mass <= 1.8 + 1e-9  # the optimal face


def test_solution_is_a_valid_occupancy_measure():
    rng = np.random.default_rng(31)
    for seed in range(5):
        mdp = make_random_mdp(4, 3, 0.8, seed=seed)
        basis = region_indicator_basis(mdp, 2)
        target = rng.uniform(0.0, 3.0, 2)
        solution = exact_al_solve(mdp, basis, target)
        neg, flow_gap = flow_residual(mdp, solution.mu_star.mass)
        assert neg <= 1e-9
        assert flow_gap <= 1e-7
        assert solution.mu_star.mass.sum() == pytest.approx(5.0, abs=1e-7)  # 1/(1-g)


def test_lp_optimum_beats_every_policy():
    rng = np.random.default_rng(32)
    mdp = make_random_mdp(3, 2, 0.7, seed=33)
    basis = state_action_indicator_basis(mdp)
    target = rng.uniform(0.0, 2.0, mdp.n_pairs)
    solution = exact_al_solve(mdp, basis, target)

    def gap_of(policy):
        mu = occupancy_of_policy(mdp, policy)
        return l1_feature_gap(feature_expectation(mu, basis), target)

    for code in range(2**3):  # all 8 deterministic policies
        actions = [(code >> s) & 1 for s in range(3)]
        assert solution.objective <= gap_of(deterministic_policy(mdp, actions)) + 1e-9
    for _ in range(2_000):
        probs = rng.uniform(0.01, 1.0, (3, 2))
        assert solution.objective <= gap_of(
            Policy(probs / probs.sum(axis=1, keepdims=True))
        ) + 1e-9


@pytest.mark.parametrize(
    "width,n_blocks,discount,slip",
    [(9, 3, 0.9, 0.1), (10, 5, 0.9, 0.1), (12, 4, 0.9, 0.1), (16, 4, 0.9, 0.1),
     # half, then nearly all, of the starting basic values lie below 1e-9
     (16, 3, 0.5, 0.3), (16, 7, 0.5, 0.0)],
)
def test_expert_target_on_gridworlds(width, n_blocks, discount, slip):
    # the expert's own feature expectation is attainable, so the gap is zero
    mdp, cost = make_gridworld(width, width, discount, slip)
    basis = region_indicator_basis(mdp, n_blocks)
    expert, _ = value_iteration(mdp, cost)
    target = feature_expectation(occupancy_of_policy(mdp, expert), basis)
    solution = exact_al_solve(mdp, basis, target)
    assert solution.objective <= 1e-9
    neg, flow_gap = flow_residual(mdp, solution.mu_star.mass)
    assert neg == 0.0
    assert flow_gap <= 1e-8


@pytest.mark.parametrize("n_blocks,target", _BAD_TARGETS)
def test_exact_solver_validates_the_target(n_blocks, target):
    basis = region_indicator_basis(CHAIN, n_blocks)
    with pytest.raises(ValueError, match="target"):
        exact_al_solve(CHAIN, basis, np.array(target))


def test_exact_solver_rejects_oversized_instances():
    mdp = make_random_mdp(65, 64, 0.9, seed=34)  # 4160 pairs > 4096
    basis = region_indicator_basis(mdp, 4)
    with pytest.raises(ValueError, match="pairs"):
        exact_al_solve(mdp, basis, np.zeros(4))


# ---------------------------------------------------------------------------
# the iterative solver agrees


def test_subgradient_solver_matches_simplex():
    rng = np.random.default_rng(35)
    worst = 0.0
    for trial in range(12):
        mdp = make_random_mdp(
            int(rng.integers(2, 5)), int(rng.integers(2, 4)),
            float(rng.uniform(0.4, 0.9)), seed=100 + trial,
        )
        n_blocks = int(rng.integers(1, mdp.n_states + 1))
        basis = region_indicator_basis(mdp, n_blocks)
        target = rng.uniform(0.0, 2.0 / (1.0 - mdp.discount), n_blocks)
        lp = exact_al_solve(mdp, basis, target)
        sub = subgradient_solve(mdp, basis, target)
        assert sub.method == "column-generation"
        worst = max(worst, abs(lp.objective - sub.objective))
        assert abs(lp.objective - sub.objective) <= 1e-4
        # the iterative solution is itself a genuine occupancy measure
        neg, flow_gap = flow_residual(mdp, sub.mu_star.mass)
        assert neg <= 1e-12 and flow_gap <= 1e-8
    assert worst <= 1e-4


def test_subgradient_solver_on_known_instance():
    basis = region_indicator_basis(CHAIN, 2)
    sub = subgradient_solve(CHAIN, basis, np.array([1.8, 0.9]))
    assert sub.objective == pytest.approx(0.7, abs=1e-6)


def _priced_and_value_iteration_costs(mdp, cost):
    """<mu, cost> of the priced policy and of value iteration's policy."""
    _, mu = baseline._optimal_occupancy_for_cost(mdp, cost)
    expert, _ = value_iteration(mdp, cost)
    return float(mu.mass @ cost), float(occupancy_of_policy(mdp, expert).mass @ cost)


def test_pricing_raises_when_policy_iteration_hits_its_cap(monkeypatch):
    """An unconverged pricing policy would give a lower bound that need not
    hold, so running out of rounds must fail, not certify."""
    mdp, cost = make_gridworld(4, 4, 0.9, 0.1)
    basis = region_indicator_basis(mdp, 4)
    target = feature_expectation(
        occupancy_of_policy(mdp, value_iteration(mdp, cost)[0]), basis
    )
    # the default cap converges; ties on the symmetric gridworld may pick
    # other actions than value iteration's, but never a costlier policy
    priced, vi = _priced_and_value_iteration_costs(mdp, cost)
    assert abs(priced - vi) <= 1e-12 * max(1.0, abs(priced))
    # allow a single round
    monkeypatch.setattr(baseline, "_POLICY_ITERATION_SLACK", 1 - mdp.n_states)
    with pytest.raises(RuntimeError, match=f"after 1 rounds on a cost of {mdp.n_pairs} entries"):
        baseline._optimal_occupancy_for_cost(mdp, cost)
    with pytest.raises(RuntimeError, match="policy iteration still improving"):
        subgradient_solve(mdp, basis, target)


@pytest.mark.parametrize("width", [4, 10, 16, 24])
@pytest.mark.parametrize("n_blocks", [4, 8])
def test_pricing_converges_on_region_costs(width, n_blocks):
    """Policy iteration converges within its cap on the region-basis costs
    Psi w that column generation prices, and is never worse than value
    iteration's policy."""
    mdp, _ = make_gridworld(width, width, 0.9, 0.1)
    psi = region_indicator_basis(mdp, n_blocks).psi
    rng = np.random.default_rng(100 * width + n_blocks)
    for _ in range(3):
        cost = psi @ rng.uniform(-1.0, 1.0, n_blocks)
        priced, vi = _priced_and_value_iteration_costs(mdp, cost)
        assert priced <= vi + 1e-12 * max(1.0, abs(priced))


@pytest.mark.parametrize("seed", range(6))
def test_pricing_converges_on_random_mdps(seed):
    mdp = make_random_mdp(30, 5, 0.95, seed=seed)
    cost = np.random.default_rng(seed).uniform(-1.0, 1.0, mdp.n_pairs)
    priced, vi = _priced_and_value_iteration_costs(mdp, cost)
    assert priced <= vi + 1e-12 * max(1.0, abs(priced))


@pytest.mark.parametrize("shape", [(1, 200), (200, 1)])
def test_pricing_converges_on_a_long_strip_without_slip(shape):
    """Costs that depend only on the state tie every action of a state, and
    without slip an improvement moves one cell per round: the goal cost
    needs about 140 rounds on a 200-cell strip, past any fixed cap of 64.
    Pricing must converge, and so must the exact solve that prices its
    sign probe."""
    mdp, goal_cost = make_gridworld(*shape, 0.9, 0.0)
    basis = region_indicator_basis(mdp, 2)
    expert = occupancy_of_policy(mdp, value_iteration(mdp, goal_cost)[0])
    target = feature_expectation(expert, basis)
    for cost in (goal_cost, basis.psi @ np.array([1.0, -1.0])):
        priced, vi = _priced_and_value_iteration_costs(mdp, cost)
        assert priced <= vi + 1e-12 * max(1.0, abs(priced))
    lp = exact_al_solve(mdp, basis, target)
    assert lp.objective <= 1e-9
    neg, flow_gap = flow_residual(mdp, lp.mu_star.mass)
    assert neg <= 1e-12 and flow_gap <= 1e-8


def test_subgradient_solver_on_dense_bases():
    # dense bases can put the optimum strictly inside a kink face that no
    # deterministic policy touches; a mixture of policies must reach it
    rng = np.random.default_rng(77)
    for trial in range(2):
        mdp = make_random_mdp(6, 3, 0.8, seed=500 + trial)
        psi = rng.uniform(0.0, 1.0, (mdp.n_pairs, 5))
        basis = CostBasis(psi / psi.max())
        target = rng.uniform(-0.5, 2.0 / (1.0 - mdp.discount), 5)
        lp = exact_al_solve(mdp, basis, target)
        sub = subgradient_solve(mdp, basis, target)
        assert abs(lp.objective - sub.objective) <= 1e-4
        neg, flow_gap = flow_residual(mdp, sub.mu_star.mass)
        assert neg <= 1e-12 and flow_gap <= 1e-8


@pytest.mark.parametrize(
    "instance",
    [lambda: _expert_gridworld(10), lambda: _expert_gridworld(4),
     lambda: _dense_instance(17)],
    ids=["gridworld-10x10", "gridworld-4x4", "dense-seed-17"],
)
def test_subgradient_solver_reaches_hard_optima(instance):
    # the gridworlds' optima are zero-gap faces that the first sign-cell
    # probe does not reach; seed 17's optimum mixes actions
    mdp, basis, target = instance()
    lp = exact_al_solve(mdp, basis, target)
    sub = subgradient_solve(mdp, basis, target)
    assert abs(lp.objective - sub.objective) <= 1e-4
    neg, flow_gap = flow_residual(mdp, sub.mu_star.mass)
    assert neg <= 1e-12 and flow_gap <= 1e-8


@pytest.mark.parametrize(
    "instance", [lambda: _expert_gridworld(16), _random_40x4],
    ids=["gridworld-16x16", "random-40x4"],
)
def test_subgradient_solver_certifies_larger_instances(instance):
    # the smoothed descent this solver once ended with left these 1.1e-4
    # and 6.0e-3 above the optimum, uncertified
    mdp, basis, target = instance()
    lp = exact_al_solve(mdp, basis, target)
    sub = subgradient_solve(mdp, basis, target)
    assert sub.certified
    assert abs(lp.objective - sub.objective) <= 1e-9 * max(1.0, lp.objective)
    assert sub.lower_bound <= lp.objective + 1e-9
    neg, flow_gap = flow_residual(mdp, sub.mu_star.mass)
    assert neg <= 1e-12 and flow_gap <= 1e-8


@pytest.mark.parametrize("n_blocks,target", _BAD_TARGETS)
def test_subgradient_solver_validates_the_target(n_blocks, target):
    basis = region_indicator_basis(CHAIN, n_blocks)
    with pytest.raises(ValueError, match="target"):
        subgradient_solve(CHAIN, basis, np.array(target))


# ---------------------------------------------------------------------------
# certificates


def test_simplex_solution_is_certified():
    basis = region_indicator_basis(CHAIN, 2)
    solution = exact_al_solve(CHAIN, basis, np.array([1.8, 0.9]))
    assert solution.lower_bound == solution.objective
    assert solution.certified


def test_polish_certifies_a_deterministic_optimum():
    # acceptance criterion 09's first instance, drawn the same way
    rng = np.random.default_rng(909)
    n_states, n_actions = int(rng.integers(2, 11)), int(rng.integers(1, 5))
    gamma = float(rng.uniform(0.3, 0.95))
    mdp = make_random_mdp(n_states, n_actions, gamma, seed=9000)
    basis = region_indicator_basis(mdp, int(rng.integers(1, n_states + 1)))
    target = rng.uniform(-0.5, 2.0 / (1.0 - gamma), basis.n_costs)
    lp = exact_al_solve(mdp, basis, target)
    sub = subgradient_solve(mdp, basis, target)
    assert sub.certified
    assert sub.lower_bound <= lp.objective + 1e-9
    assert abs(lp.objective - sub.objective) <= 1e-9 * max(1.0, lp.objective)


@pytest.mark.parametrize("seed", [27, 11, 0, 3])
def test_mixed_optimum_is_certified(seed):
    # every deterministic policy is strictly worse than these optima, so
    # only a mixture of policies reaches them and only a pricing bound at a
    # non-sign weight certifies them
    mdp, basis, target = _dense_instance(seed)
    lp = exact_al_solve(mdp, basis, target)
    sub = subgradient_solve(mdp, basis, target)
    assert sub.lower_bound <= lp.objective + 1e-9
    assert sub.certified
    assert abs(lp.objective - sub.objective) <= 1e-9 * max(1.0, lp.objective)


def test_missing_lower_bound_is_not_certified():
    exact = ExactSolution(mu_star=np.zeros(4), objective=0.0, method="lp-simplex")
    assert exact.lower_bound is None and not exact.certified


# ---------------------------------------------------------------------------
# regret guarantee arithmetic


def _inputs(epsilon=0.1, v1=0.0, v2=0.0):
    return BoundInputs(
        epsilon=epsilon,
        lam=1.0 / epsilon,
        rho=2.0,
        d=3,
        n_costs=2,
        gamma=0.5,
        psi_inf_norm=1.0,
        phi_one_norm=4.0,
        comparator_v1=v1,
        comparator_v2=v2,
    )


def test_regret_report_terms_by_hand():
    exact = ExactSolution(mu_star=np.zeros(4), objective=0.7, method="lp-simplex")
    report = regret_report(0.9, exact, _inputs(epsilon=0.1, v1=0.05, v2=0.15))
    assert report.lhs == 0.9
    assert report.comparator_gap == 0.7
    # (4 psi_inf / (1-g) + 1/eps) * (v1 + v2) = (8 + 10) * 0.2
    assert report.violation_term == pytest.approx(3.6, rel=1e-12)
    # (2 psi_inf / (1-g)) * (psi_inf * phi_1 * rho * sqrt(d) + n_c/(1-g)) * eps
    expected_approx = 4.0 * (4.0 * 2.0 * math.sqrt(3.0) + 4.0) * 0.1
    assert report.approximation_term == pytest.approx(expected_approx, rel=1e-12)
    assert report.epsilon_term == 0.1
    assert report.rhs == pytest.approx(
        0.7 + 3.6 + expected_approx + 0.1, rel=1e-12
    )
    assert report.holds  # rhs well above 0.9


def test_regret_report_accepts_evaluation_tuple():
    exact = ExactSolution(mu_star=np.zeros(4), objective=0.5, method="lp-simplex")
    as_tuple = regret_report(("ignored-mu", 1.25), exact, _inputs())
    as_float = regret_report(1.25, exact, _inputs())
    assert as_tuple.lhs == as_float.lhs == 1.25


def test_feasible_comparator_drops_violation_term():
    exact = ExactSolution(mu_star=np.zeros(4), objective=0.7, method="lp-simplex")
    report = regret_report(0.7, exact, _inputs(v1=0.0, v2=0.0))
    assert report.violation_term == 0.0


def test_vanishing_epsilon_leaves_only_comparator_gap():
    exact = ExactSolution(mu_star=np.zeros(4), objective=0.7, method="lp-simplex")
    report = regret_report(0.7, exact, _inputs(epsilon=1e-9))
    assert report.rhs == pytest.approx(0.7, abs=1e-6)
    assert report.holds


def test_holds_flag_flips_when_lhs_exceeds_rhs():
    exact = ExactSolution(mu_star=np.zeros(4), objective=0.0, method="lp-simplex")
    inputs = _inputs(epsilon=1e-9)
    assert not regret_report(1.0, exact, inputs).holds
    assert regret_report(0.0, exact, inputs).holds
