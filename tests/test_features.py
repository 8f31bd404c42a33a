"""Cost basis, feature matrix, worst-case gap, and sampling constants.

Chain-derived constants (discount 1/2): an occupancy measure always totals
2, so an all-ones basis column pairs to 2 and the always-stay measure pairs
to 2 against the indicator of (s0, stay).  Both were verified against the
horizon-60 truncated series before freezing.
"""

import numpy as np
import pytest

from occupal import (
    CostBasis,
    SubgradientEstimator,
    brute_force_sup_gap,
    build_feature_matrix,
    deterministic_policy,
    feature_expectation,
    flow_feature_rows,
    flow_residual,
    l1_feature_gap,
    load_basis,
    load_features,
    make_chain,
    make_random_mdp,
    occupancy_of_policy,
    region_indicator_basis,
    sa_index,
    sampling_constants,
    save_basis,
    save_features,
    state_action_indicator_basis,
    uniform_policy,
    validate_basis,
)

CHAIN = make_chain(0.5)


# ---------------------------------------------------------------------------
# bases


def test_indicator_basis_is_identity():
    basis = state_action_indicator_basis(CHAIN)
    assert basis.n_costs == 4
    assert np.array_equal(basis.psi, np.eye(4))
    assert validate_basis(basis, CHAIN) == []


def test_region_basis_partitions_states():
    basis = region_indicator_basis(CHAIN, 2)
    assert basis.n_costs == 2
    assert basis.psi[:, 0].tolist() == [1.0, 1.0, 0.0, 0.0]
    assert basis.psi[:, 1].tolist() == [0.0, 0.0, 1.0, 1.0]
    # every pair covered exactly once
    assert np.array_equal(basis.psi.sum(axis=1), np.ones(4))


def test_region_basis_bad_block_count():
    with pytest.raises(ValueError):
        region_indicator_basis(CHAIN, 3)


def test_validate_basis_flags_oversized_and_signed():
    oversized = CostBasis(np.full((4, 1), 1.5))
    assert any("exceed sup-norm" in p for p in validate_basis(oversized))
    signed = CostBasis(np.array([[1.0], [-0.5], [0.0], [0.0]]))
    assert validate_basis(signed) == []
    assert validate_basis(CostBasis(np.eye(4))) == []


# ---------------------------------------------------------------------------
# feature expectations and the worst-case gap


def test_feature_expectation_all_ones():
    basis = CostBasis(np.ones((4, 1)))
    mu = occupancy_of_policy(CHAIN, uniform_policy(CHAIN))
    assert feature_expectation(mu, basis)[0] == pytest.approx(2.0, abs=1e-10)


def test_feature_expectation_zero_measure():
    basis = state_action_indicator_basis(CHAIN)
    assert np.all(feature_expectation(np.zeros(4), basis) == 0.0)


def test_feature_expectation_chain_indicator():
    psi = np.zeros((4, 1))
    psi[sa_index(0, 0, 2), 0] = 1.0
    stay = deterministic_policy(CHAIN, [0, 0])
    mu = occupancy_of_policy(CHAIN, stay)
    assert feature_expectation(mu, CostBasis(psi))[0] == pytest.approx(2.0, abs=1e-10)


def test_feature_expectation_inf_norm_bound():
    rng = np.random.default_rng(0)
    for _ in range(10):
        mdp = make_random_mdp(5, 2, 0.75, seed=int(rng.integers(2**31)))
        basis = CostBasis(rng.uniform(0.0, 1.0, (10, 3)))
        mu = occupancy_of_policy(mdp, uniform_policy(mdp))
        fe = feature_expectation(mu, basis)
        assert np.abs(fe).max() <= 4.0 + 1e-9


def test_l1_gap_arithmetic():
    assert l1_feature_gap(np.zeros(2), np.zeros(2)) == 0.0
    assert l1_feature_gap(np.array([0.5, 0.0]), np.array([0.0, 0.3])) == pytest.approx(
        0.8, abs=1e-15
    )


def test_brute_force_gap_small_cases():
    assert brute_force_sup_gap(np.array([0.5, 0.0]), np.array([0.0, 0.3])) == (
        pytest.approx(0.8, abs=1e-15)
    )
    assert brute_force_sup_gap(np.zeros(3), np.zeros(3)) == 0.0


def test_brute_force_gap_guard():
    with pytest.raises(ValueError):
        brute_force_sup_gap(np.zeros(21), np.zeros(21))


def test_l1_gap_equals_sign_enumeration():
    """The worst linear cost with bounded weights is a sign vector, so the
    sup over the whole class collapses to the l1 distance; checked exactly
    against enumeration of all 2^n sign patterns.
    """
    rng = np.random.default_rng(1)
    for _ in range(300):
        n_costs = int(rng.integers(1, 9))
        fe_a = rng.normal(0.0, 2.0, n_costs)
        fe_b = rng.normal(0.0, 2.0, n_costs)
        assert abs(l1_feature_gap(fe_a, fe_b) - brute_force_sup_gap(fe_a, fe_b)) <= 1e-12


# ---------------------------------------------------------------------------
# feature matrix construction


def test_feature_matrix_single_column_chain():
    phi = build_feature_matrix(CHAIN, 1, seed=0)
    assert phi.d == 1
    column = phi.phi[:, 0]
    assert column.min() > 0.0
    assert column.sum() == pytest.approx(2.0, abs=1e-10)


def test_feature_matrix_invariants():
    rng = np.random.default_rng(2)
    for _ in range(5):
        mdp = make_random_mdp(6, 3, 0.8, seed=int(rng.integers(2**31)))
        phi = build_feature_matrix(mdp, 4, seed=int(rng.integers(2**31)))
        assert phi.phi.min() > 0.0
        column_sums = np.abs(phi.phi).sum(axis=0)
        assert np.abs(column_sums - 5.0).max() < 1e-8  # induced 1-norm = 1/(1-g)


def test_feature_matrix_unit_vector_near_feasible():
    """Each column is an occupancy mixed with beta of uniform mass, so the
    flow defect of a unit-vector candidate is at most 2 beta.
    """
    beta = 1e-3
    phi = build_feature_matrix(CHAIN, 3, seed=4, beta=beta)
    for i in range(3):
        theta = np.zeros(3)
        theta[i] = 1.0
        neg, gap = flow_residual(CHAIN, phi.phi @ theta)
        assert neg == 0.0
        assert gap <= 2.0 * beta + 1e-12


def test_feature_matrix_beta_zero_is_exact_occupancy():
    phi = build_feature_matrix(CHAIN, 2, seed=9, beta=0.0)
    for i in range(2):
        neg, gap = flow_residual(CHAIN, phi.phi[:, i])
        assert neg <= 1e-12 and gap <= 1e-9


def test_feature_matrix_deterministic():
    a = build_feature_matrix(CHAIN, 3, seed=11)
    b = build_feature_matrix(CHAIN, 3, seed=11)
    assert np.array_equal(a.phi, b.phi)
    c = build_feature_matrix(CHAIN, 3, seed=12)
    assert not np.array_equal(a.phi, c.phi)


def test_flow_feature_rows_match_dense_assembly():
    mdp = make_random_mdp(5, 2, 0.7, seed=3)
    phi = build_feature_matrix(mdp, 3, seed=3)
    incidence = np.kron(np.eye(5), np.ones(2))
    dense = (incidence - 0.7 * mdp.transition.T) @ phi.phi
    assert np.abs(flow_feature_rows(phi.phi, mdp) - dense).max() < 1e-12


# ---------------------------------------------------------------------------
# sampling constants


def test_norm_scheme_row_ratio_is_constant():
    """With q1 proportional to row norms, every ratio ||row||/q1 equals the
    normalizer, so c1 is exactly the sum of row norms.
    """
    mdp = make_random_mdp(4, 2, 0.6, seed=5)
    phi = build_feature_matrix(mdp, 3, seed=5)
    basis = state_action_indicator_basis(mdp)
    constants = sampling_constants(phi, mdp, basis, lam=1.0, scheme="norm")
    row_norms = np.sqrt((phi.phi**2).sum(axis=1))
    assert constants.c1 == pytest.approx(row_norms.sum(), rel=1e-9)
    assert constants.q1.min() > 0.0
    assert constants.q1.sum() == pytest.approx(1.0, abs=1e-12)
    assert constants.q2.sum() == pytest.approx(1.0, abs=1e-12)


def test_uniform_scheme_c1_is_count_times_max():
    mdp = make_random_mdp(4, 2, 0.6, seed=6)
    phi = build_feature_matrix(mdp, 3, seed=6)
    basis = state_action_indicator_basis(mdp)
    constants = sampling_constants(phi, mdp, basis, lam=1.0, scheme="uniform")
    row_norms = np.sqrt((phi.phi**2).sum(axis=1))
    assert constants.c1 == pytest.approx(8.0 * row_norms.max(), rel=1e-9)


def test_k_formula_assembly():
    mdp = make_random_mdp(5, 2, 0.7, seed=7)
    phi = build_feature_matrix(mdp, 3, seed=7)
    basis = region_indicator_basis(mdp, 3)
    lam = 2.5
    constants = sampling_constants(phi, mdp, basis, lam, scheme="norm")
    spectral = np.linalg.norm(phi.phi, ord=2)
    psi_col_norms = np.sqrt((basis.psi**2).sum(axis=0)).sum()
    expected = spectral * psi_col_norms + lam * (constants.c1 + constants.c2)
    assert constants.k == pytest.approx(expected, rel=1e-12)


def test_k_bounds_sampled_gradient_norms():
    """No draw of the one-sample estimate may exceed k (chain, d=2, lam=1)."""
    phi = build_feature_matrix(CHAIN, 2, seed=8)
    basis = state_action_indicator_basis(CHAIN)
    constants = sampling_constants(phi, CHAIN, basis, lam=1.0, scheme="norm")
    mu = occupancy_of_policy(CHAIN, uniform_policy(CHAIN))
    target = feature_expectation(mu, basis)
    estimator = SubgradientEstimator(phi, basis, CHAIN, target, constants)
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100_000):
        theta = rng.normal(0.0, 1.0, 2)
        g = estimator.sample(theta, rng)
        worst = max(worst, float(np.sqrt(g @ g)))
    assert worst <= constants.k * (1.0 + 1e-12)


def test_sampling_constants_rejects_unknown_scheme():
    phi = build_feature_matrix(CHAIN, 2, seed=10)
    basis = state_action_indicator_basis(CHAIN)
    with pytest.raises(ValueError):
        sampling_constants(phi, CHAIN, basis, lam=1.0, scheme="fancy")


# ---------------------------------------------------------------------------
# serialization


def test_basis_round_trip(tmp_path):
    basis = region_indicator_basis(CHAIN, 2)
    path = tmp_path / "basis.json"
    save_basis(path, basis)
    assert np.array_equal(load_basis(path).psi, basis.psi)


def test_features_round_trip(tmp_path):
    phi = build_feature_matrix(CHAIN, 3, seed=13)
    path = tmp_path / "phi.json"
    save_features(path, phi)
    loaded = load_features(path)
    assert np.array_equal(loaded.phi, phi.phi)
    assert loaded.beta == phi.beta
