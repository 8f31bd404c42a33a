"""Exact-arithmetic occupancy oracle.

The float solver can only be trusted to ~1e-15 in l1, which is far coarser
than the geometric tail at long horizons (at discount 1/2 the horizon-60
tail is ~1.7e-18).  These tests pin down the sharp facts in Fraction
arithmetic: the l1 gap between the linear-solve occupancy and the
truncated series is *exactly* the tail sum_{t>=H} g^t, the solve conserves
mass exactly, and converting an instance whose probabilities sit on
power-of-two denominators to float64 loses nothing.
"""

from fractions import Fraction

import numpy as np

from occupal.mdp import occupancy_of_policy
from occupal.rational import (
    _to_float_mdp,
    _to_float_policy,
    exact_occupancy,
    exact_series_occupancy,
    random_rational_mdp,
    random_rational_policy,
    series_tail_gaps,
)


def test_exact_occupancy_mass_and_flow():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rmdp = random_rational_mdp(rng, 5, 2)
        policy = random_rational_policy(rng, rmdp)
        mu = exact_occupancy(rmdp, policy)
        assert sum(mu) == Fraction(1, 1) / (1 - rmdp.gamma)
        assert all(entry >= 0 for entry in mu)


def test_series_gap_equals_tail_exactly():
    """||solve - series_H||_1 == g^H/(1-g) as Fractions, no tolerance.

    Each power-series term is a probability distribution scaled by g^t, so
    the dropped tail has l1 mass exactly sum_{t>=H} g^t; the equality (not
    just the bound) is what makes the horizon-60 criterion checkable.
    """
    rng = np.random.default_rng(1)
    horizons = (5, 20, 60)
    for _ in range(30):
        rmdp = random_rational_mdp(rng, 4, 2)
        policy = random_rational_policy(rng, rmdp)
        gaps = series_tail_gaps(rmdp, policy, horizons)
        for horizon in horizons:
            tail = rmdp.gamma**horizon / (1 - rmdp.gamma)
            assert gaps[horizon] == tail


def test_series_checkpoints_are_consistent():
    rng = np.random.default_rng(2)
    rmdp = random_rational_mdp(rng, 3, 2)
    policy = random_rational_policy(rng, rmdp)
    partials = exact_series_occupancy(rmdp, policy, (1, 2, 8))
    assert sum(partials[1]) == 1
    assert sum(partials[2]) == 1 + rmdp.gamma
    geometric = sum(rmdp.gamma**t for t in range(8))
    assert sum(partials[8]) == geometric


def test_float_conversion_is_exact_and_solver_agrees():
    """Power-of-two denominators embed into float64 without rounding, so
    the float linear solve can be compared directly against the Fractions.
    """
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        rmdp = random_rational_mdp(rng, 5, 3)
        policy = random_rational_policy(rng, rmdp)
        mdp = _to_float_mdp(rmdp)
        float_policy = _to_float_policy(policy)
        # conversion is exact entry by entry
        weights = np.array(rmdp.trans_weights, dtype=float) / rmdp.trans_denom
        assert np.array_equal(mdp.transition, weights.reshape(15, 5))
        exact = exact_occupancy(rmdp, policy)
        solved = occupancy_of_policy(mdp, float_policy)
        gap = sum(abs(float(e) - s) for e, s in zip(exact, solved.mass))
        worst = max(worst, gap)
    assert worst < 5e-15


def test_rational_generators_are_deterministic():
    a = random_rational_mdp(np.random.default_rng(7), 4, 2)
    b = random_rational_mdp(np.random.default_rng(7), 4, 2)
    assert a.trans_weights == b.trans_weights
    assert a.init_weights == b.init_weights
