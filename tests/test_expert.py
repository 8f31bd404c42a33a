"""Expert rollouts, the truncated Monte Carlo estimator, and sample sizing.

Frozen derived values:
  - sample bound at n_costs=1, discount 1/2, accuracy 1/2, confidence 1/2:
    ceil(32 * log(8) / (0.5 * 0.25)) = ceil(532.34...) = 533;
  - deterministic chain under always-stay at horizon 60, discount 1/2,
    against the (s0, stay) indicator: sum of 0.5^t for t < 60, which is
    2 - 2^-59 and rounds to 2.0 in double precision.
"""

import math

import numpy as np
import pytest

from occupal import (
    CostBasis,
    Policy,
    default_horizon,
    deterministic_policy,
    empirical_feature_expectation,
    hoeffding_sample_size,
    load_trajectories,
    make_chain,
    make_gridworld,
    make_random_mdp,
    sample_trajectories,
    save_trajectories,
    state_action_indicator_basis,
)
from occupal.expert import estimator_from_json, estimator_to_json

CHAIN = make_chain(0.5)
STAY = deterministic_policy(CHAIN, [0, 0])


# ---------------------------------------------------------------------------
# sample sizing


def test_hoeffding_known_value():
    assert hoeffding_sample_size(1, 0.5, 0.5, 0.5) == 533


def test_hoeffding_log_additivity():
    """Dividing the confidence by e adds exactly 32 n^2/((1-g) eps^2)."""
    base = hoeffding_sample_size(2, 0.6, 0.4, 0.3)
    tighter = hoeffding_sample_size(2, 0.6, 0.4, 0.3 / math.e)
    increment = 32.0 * 4 / (0.4 * 0.16)
    assert abs((tighter - base) - increment) <= 1.0  # ceilings differ by < 1


def test_hoeffding_quadruples_when_accuracy_halves():
    raw = 32.0 * math.log(8.0) / (0.5 * 0.25)
    assert hoeffding_sample_size(1, 0.5, 0.25, 0.5) == math.ceil(4.0 * raw)


def test_hoeffding_rejects_bad_inputs():
    for eps, delta in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
        with pytest.raises(ValueError):
            hoeffding_sample_size(1, 0.5, eps, delta)


def test_default_horizon_meets_tail_target():
    for gamma in (0.3, 0.5, 0.9, 0.99):
        horizon = default_horizon(gamma)
        assert gamma**horizon / (1.0 - gamma) <= 1e-9
        assert gamma ** (horizon - 1) / (1.0 - gamma) > 1e-9 or horizon == 1


# ---------------------------------------------------------------------------
# trajectory sampling


def test_deterministic_chain_rollouts():
    batch = sample_trajectories(CHAIN, STAY, m=7, horizon=5, seed=0)
    assert batch.shape == (7, 5, 2)
    assert np.all(batch == 0)  # every step is (s0, stay)


def test_same_seed_same_batch():
    mdp = make_random_mdp(5, 3, 0.8, seed=1)
    policy = Policy(np.full((5, 3), 1.0 / 3.0))
    a = sample_trajectories(mdp, policy, m=50, horizon=9, seed=42)
    b = sample_trajectories(mdp, policy, m=50, horizon=9, seed=42)
    assert np.array_equal(a, b)
    c = sample_trajectories(mdp, policy, m=50, horizon=9, seed=43)
    assert not np.array_equal(a, c)


def test_initial_state_frequencies_match_start_distribution():
    mdp = make_random_mdp(4, 2, 0.7, seed=2)
    policy = Policy(np.full((4, 2), 0.5))
    batch = sample_trajectories(mdp, policy, m=10_000, horizon=2, seed=3)
    first = batch[:, 0, 0]
    for state in range(4):
        p = mdp.initial_dist[state]
        observed = float((first == state).mean())
        standard_error = math.sqrt(p * (1.0 - p) / 10_000)
        assert abs(observed - p) <= 3.0 * standard_error + 1e-12


def test_indices_stay_in_range():
    mdp = make_random_mdp(6, 3, 0.8, seed=4)
    policy = Policy(np.full((6, 3), 1.0 / 3.0))
    batch = sample_trajectories(mdp, policy, m=200, horizon=15, seed=5)
    assert batch[:, :, 0].min() >= 0 and batch[:, :, 0].max() < 6
    assert batch[:, :, 1].min() >= 0 and batch[:, :, 1].max() < 3


# ---------------------------------------------------------------------------
# the estimator


def test_chain_indicator_estimate_at_horizon_60():
    batch = sample_trajectories(CHAIN, STAY, m=3, horizon=60, seed=6)
    psi = np.zeros((4, 1))
    psi[0, 0] = 1.0
    est = empirical_feature_expectation(batch, CostBasis(psi), 0.5, 2)
    assert est.values[0] == pytest.approx(2.0, abs=1e-15)
    assert est.m == 3 and est.horizon == 60
    assert est.truncation_bound == pytest.approx(0.5**60 / 0.5, rel=1e-12)


def test_all_ones_basis_is_batch_independent():
    mdp = make_random_mdp(5, 2, 0.7, seed=7)
    policy = Policy(np.full((5, 2), 0.5))
    geometric = float(np.sum(0.7 ** np.arange(25)))
    for seed in (8, 9):
        batch = sample_trajectories(mdp, policy, m=20, horizon=25, seed=seed)
        est = empirical_feature_expectation(batch, CostBasis(np.ones((10, 1))), 0.7, 2)
        assert est.values[0] == pytest.approx(geometric, rel=1e-13)


def test_estimate_magnitude_envelope():
    """No entry can exceed the truncated geometric sum when |psi| <= 1."""
    mdp = make_random_mdp(4, 3, 0.85, seed=10)
    policy = Policy(np.full((4, 3), 1.0 / 3.0))
    rng = np.random.default_rng(11)
    basis = CostBasis(rng.uniform(0.0, 1.0, (12, 5)))
    batch = sample_trajectories(mdp, policy, m=40, horizon=30, seed=12)
    est = empirical_feature_expectation(batch, basis, 0.85, 3)
    envelope = (1.0 - 0.85**30) / 0.15
    assert np.abs(est.values).max() <= envelope + 1e-12


def test_variance_halves_when_sample_quadruples():
    """Monte Carlo scaling: std of the estimate at 4m is half that at m,
    within 20% over 50 repetitions.
    """
    mdp = make_random_mdp(4, 2, 0.6, seed=13)
    policy = Policy(np.full((4, 2), 0.5))
    psi = np.zeros((8, 1))
    psi[0, 0] = 1.0
    basis = CostBasis(psi)
    small, large = [], []
    for rep in range(50):
        batch = sample_trajectories(mdp, policy, m=100, horizon=15, seed=1000 + rep)
        small.append(empirical_feature_expectation(batch, basis, 0.6, 2).values[0])
        batch = sample_trajectories(mdp, policy, m=400, horizon=15, seed=5000 + rep)
        large.append(empirical_feature_expectation(batch, basis, 0.6, 2).values[0])
    ratio = np.std(large, ddof=1) / np.std(small, ddof=1)
    assert 0.4 <= ratio <= 0.6


# ---------------------------------------------------------------------------
# persistence


def test_trajectory_file_round_trip(tmp_path):
    mdp = make_random_mdp(5, 2, 0.7, seed=14)
    policy = Policy(np.full((5, 2), 0.5))
    batch = sample_trajectories(mdp, policy, m=12, horizon=6, seed=15)
    path = tmp_path / "batch.txt"
    save_trajectories(path, batch, header="stage_seed=15")
    text = path.read_text()
    assert text.startswith("# stage_seed=15\n")
    assert np.array_equal(load_trajectories(path), batch)


def _reference_save(path, batch, header=None):
    """The per-token writer that save_trajectories must match byte for byte."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(f"# {header}\n")
        for traj in np.asarray(batch, dtype=np.int64):
            fh.write(" ".join(f"{s}:{a}" for s, a in traj))
            fh.write("\n")


def _reference_batches():
    grid, _ = make_gridworld(12, 12, 0.9, 0.1)  # states up to 143, actions up to 3
    uniform = Policy(np.full((grid.n_states, grid.n_actions), 0.25))
    yield sample_trajectories(grid, uniform, m=30, horizon=400, seed=17), "stage_seed=17"
    yield sample_trajectories(grid, uniform, m=1, horizon=1, seed=18), None
    mdp = make_random_mdp(5, 3, 0.7, seed=19)
    policy = Policy(np.full((5, 3), 1.0 / 3.0))
    yield sample_trajectories(mdp, policy, m=9, horizon=7, seed=20), None
    # sparse, multi-digit pairs that no sampler draws
    yield np.array([[[0, 0], [143, 3], [1000, 2]], [[99, 1], [10, 0], [0, 3]]]), "x"


def test_trajectory_writer_matches_reference_bytes(tmp_path):
    for k, (batch, header) in enumerate(_reference_batches()):
        expected, actual = tmp_path / f"ref{k}.txt", tmp_path / f"new{k}.txt"
        _reference_save(expected, batch, header=header)
        save_trajectories(actual, batch, header=header)
        assert actual.read_bytes() == expected.read_bytes(), k
        assert np.array_equal(load_trajectories(actual), batch), k


def test_trajectory_writer_rejects_bad_batches(tmp_path):
    for batch in (np.zeros((3, 2)), np.zeros((2, 3, 3)), [[[0, -1]]]):
        with pytest.raises(ValueError):
            save_trajectories(tmp_path / "bad.txt", batch)


@pytest.mark.parametrize(
    "text",
    [
        "0:1:2 3\n",
        "0:1 x:0\n",
        "0::1\n",
        "0:1,1:0\n",
        "-1:0\n",
        "0:1 1:0 5\n",
        "1234567890123456789:0\n",  # past int64
        "# only a comment\n\n# and another\n",
        "",
    ],
)
def test_trajectory_loader_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_trajectories(path)


def test_trajectory_loader_accepts_comments_blanks_tabs_and_crlf(tmp_path):
    path = tmp_path / "loose.txt"
    path.write_bytes(
        b"# header\r\n0:1 12:3\r\n\r\n  # between\r\n143:0\t\t7:2  \r\n"
    )
    assert load_trajectories(path).tolist() == [[[0, 1], [12, 3]], [[143, 0], [7, 2]]]


def test_trajectory_loader_rejects_ragged_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0:1 1:0\n0:1\n")
    with pytest.raises(ValueError):
        load_trajectories(path)


def test_estimator_json_round_trip():
    batch = sample_trajectories(CHAIN, STAY, m=4, horizon=10, seed=16)
    basis = state_action_indicator_basis(CHAIN)
    est = empirical_feature_expectation(batch, basis, 0.5, 2)
    clone = estimator_from_json(estimator_to_json(est))
    assert np.array_equal(clone.values, est.values)
    assert (clone.m, clone.horizon) == (est.m, est.horizon)
    assert clone.truncation_bound == est.truncation_bound
