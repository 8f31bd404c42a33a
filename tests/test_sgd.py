"""Surrogate loss, subgradients, the training loop, and the certified schedule.

The engineered convergence instance: on the two-state chain with identity
features and per-state cost columns, the target (1.8, 0.9) sums to 2.7 while
every occupancy measure has mass 2, so no feasible point fits it.  The
matching gap of a feasible measure with state masses (a, 2 - a) is
|a - 1.8| + |1.1 - a|, constantly 0.7 on a in [1.1, 1.8] and larger outside,
and with penalty weight 5 (above the exact-penalty threshold 4) the
penalized minimum over the radius-2.1 ball is 0.7.  Training must land
within 10% of it.
"""

import math
import tracemalloc

import numpy as np
import pytest

from occupal import sgd
from occupal import (
    LossBreakdown,
    SgdConfig,
    SubgradientEstimator,
    build_feature_matrix,
    certified_schedule,
    deterministic_policy,
    exact_subgradient,
    flow_feature_rows,
    hoeffding_sample_size,
    make_chain,
    make_gridworld,
    make_random_mdp,
    occupancy_of_policy,
    policy_from_vector,
    project_l2_ball,
    region_indicator_basis,
    run_sgd_al,
    sampling_constants,
    state_action_indicator_basis,
    surrogate_loss,
    value_iteration,
)

CHAIN = make_chain(0.5)
CHAIN_BASIS = region_indicator_basis(CHAIN, 2)  # one indicator per state
CHAIN_PHI = np.eye(4)


def _random_instance(seed, n_states=3, n_actions=2, d=3):
    mdp = make_random_mdp(n_states, n_actions, 0.7, seed=seed)
    phi = build_feature_matrix(mdp, d, seed=seed + 1)
    basis = state_action_indicator_basis(mdp)
    return mdp, phi, basis


# ---------------------------------------------------------------------------
# the loss


def test_loss_at_zero():
    target = np.array([1.8, 0.9])
    loss = surrogate_loss(np.zeros(4), CHAIN_PHI, CHAIN_BASIS, CHAIN, target, 5.0)
    assert loss.objective == pytest.approx(2.7, abs=1e-15)
    assert loss.v1 == 0.0
    # flow defect of the zero vector is exactly ||nu0||_1 = 1
    assert loss.v2 == pytest.approx(1.0, abs=1e-15)
    assert loss.total == pytest.approx(2.7 + 5.0, abs=1e-14)


def test_loss_vanishes_on_exactly_representable_occupancy():
    mdp = make_random_mdp(4, 2, 0.8, seed=11)
    phi = build_feature_matrix(mdp, 3, seed=12, beta=0.0)  # columns are occupancies
    basis = state_action_indicator_basis(mdp)
    target = basis.psi.T @ phi.phi[:, 0]
    loss = surrogate_loss(np.array([1.0, 0.0, 0.0]), phi, basis, mdp, target, 7.0)
    assert loss.total < 1e-12
    assert loss.objective < 1e-12
    assert loss.v1 < 1e-12 and loss.v2 < 1e-12


def test_loss_matches_dense_recompute():
    rng = np.random.default_rng(13)
    mdp, phi, basis = _random_instance(14)
    flow = flow_feature_rows(phi.phi, mdp)
    target = rng.normal(0.0, 1.0, basis.psi.shape[1])
    for _ in range(25):
        theta = rng.normal(0.0, 2.0, 3)
        lam = float(rng.uniform(0.0, 5.0))
        loss = surrogate_loss(theta, phi, basis, mdp, target, lam)
        u = phi.phi @ theta
        objective = np.abs(basis.psi.T @ u - target).sum()
        v1 = np.clip(-u, 0.0, None).sum()
        v2 = np.abs(flow @ theta - mdp.initial_dist).sum()
        assert loss.objective == pytest.approx(objective, abs=1e-12)
        assert loss.v1 == pytest.approx(v1, abs=1e-12)
        assert loss.v2 == pytest.approx(v2, abs=1e-12)
        assert loss.total == pytest.approx(objective + lam * (v1 + v2), abs=1e-11)
        assert isinstance(loss, LossBreakdown) and loss.lam == lam


# ---------------------------------------------------------------------------
# exact subgradient


def test_subgradient_at_zero_hand_assembled():
    target = np.array([1.8, 0.9])
    lam = 5.0
    g = exact_subgradient(np.zeros(4), CHAIN_PHI, CHAIN_BASIS, CHAIN, target, lam)
    # at theta = 0: residual signs are -sign(target), flow signs -sign(nu0),
    # and no coordinate of Phi theta is strictly negative
    expected = CHAIN_PHI.T @ (CHAIN_BASIS.psi @ -np.sign(target))
    flow = flow_feature_rows(CHAIN_PHI, CHAIN)
    expected = expected + lam * (flow.T @ -np.sign(CHAIN.initial_dist))
    assert np.abs(g - expected).max() < 1e-14


def test_subgradient_matches_central_differences():
    rng = np.random.default_rng(15)
    mdp, phi, basis = _random_instance(16)
    target = rng.normal(0.0, 1.0, basis.psi.shape[1])
    flow = flow_feature_rows(phi.phi, mdp)
    h = 1e-7
    checked = 0
    while checked < 50:
        theta = rng.normal(0.0, 1.5, 3)
        lam = float(rng.uniform(0.5, 4.0))
        u = phi.phi @ theta
        margins = [
            np.abs(basis.psi.T @ u - target).min(),
            np.abs(flow @ theta - mdp.initial_dist).min(),
            np.abs(u).min(),
        ]
        if min(margins) < 1e-3:  # too close to a kink for finite differences
            continue
        g = exact_subgradient(theta, phi, basis, mdp, target, lam)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            hi = surrogate_loss(theta + e, phi, basis, mdp, target, lam).total
            lo = surrogate_loss(theta - e, phi, basis, mdp, target, lam).total
            assert g[j] == pytest.approx((hi - lo) / (2 * h), abs=1e-6)
        checked += 1


def test_subgradient_affine_in_penalty_weight():
    rng = np.random.default_rng(17)
    mdp, phi, basis = _random_instance(18)
    target = rng.normal(0.0, 1.0, basis.psi.shape[1])
    for _ in range(20):
        theta = rng.normal(0.0, 1.0, 3)
        lam = float(rng.uniform(0.1, 3.0))
        g0 = exact_subgradient(theta, phi, basis, mdp, target, 0.0)
        g1 = exact_subgradient(theta, phi, basis, mdp, target, lam)
        g2 = exact_subgradient(theta, phi, basis, mdp, target, 2 * lam)
        assert np.abs(g2 - (2.0 * g1 - g0)).max() < 1e-12


def test_subgradient_inequality():
    """L(b) >= L(a) + g(a) . (b - a): the returned vector is a true subgradient."""
    rng = np.random.default_rng(19)
    mdp, phi, basis = _random_instance(20)
    target = rng.normal(0.0, 1.0, basis.psi.shape[1])
    lam = 2.5
    for _ in range(100):
        a = rng.normal(0.0, 2.0, 3)
        b = rng.normal(0.0, 2.0, 3)
        la = surrogate_loss(a, phi, basis, mdp, target, lam).total
        lb = surrogate_loss(b, phi, basis, mdp, target, lam).total
        g = exact_subgradient(a, phi, basis, mdp, target, lam)
        assert lb >= la + float(g @ (b - a)) - 1e-8


# ---------------------------------------------------------------------------
# stochastic estimates


def test_estimate_is_unbiased_exhaustively():
    rng = np.random.default_rng(21)
    for inst_seed in (22, 23):
        mdp, phi, basis = _random_instance(inst_seed)
        target = rng.normal(0.0, 1.0, basis.psi.shape[1])
        lam = float(rng.uniform(0.5, 3.0))
        constants = sampling_constants(phi, mdp, basis, lam)
        estimator = SubgradientEstimator(phi, basis, mdp, target, constants)
        for _ in range(10):
            theta = rng.normal(0.0, 1.5, 3)
            mean = np.zeros(3)
            for xa in range(mdp.n_pairs):
                for y in range(mdp.n_states):
                    g = estimator.estimate(theta, xa, y)
                    mean += constants.q1[xa] * constants.q2[y] * g
            exact = exact_subgradient(theta, phi, basis, mdp, target, lam)
            assert np.abs(mean - exact).max() < 1e-10


def test_zero_penalty_estimate_is_deterministic():
    rng = np.random.default_rng(24)
    mdp, phi, basis = _random_instance(25)
    target = rng.normal(0.0, 1.0, basis.psi.shape[1])
    constants = sampling_constants(phi, mdp, basis, 0.0)
    estimator = SubgradientEstimator(phi, basis, mdp, target, constants)
    theta = rng.normal(0.0, 1.0, 3)
    exact = exact_subgradient(theta, phi, basis, mdp, target, 0.0)
    for xa in range(mdp.n_pairs):
        for y in range(mdp.n_states):
            g = estimator.estimate(theta, xa, y)
            assert np.abs(g - exact).max() < 1e-14


def test_stochastic_draws_average_to_exact():
    rng = np.random.default_rng(26)
    mdp, phi, basis = _random_instance(27)
    target = rng.normal(0.0, 1.0, basis.psi.shape[1])
    lam = 2.0
    constants = sampling_constants(phi, mdp, basis, lam)
    estimator = SubgradientEstimator(phi, basis, mdp, target, constants)
    theta = rng.normal(0.0, 1.0, 3)
    draws = np.array([estimator.sample(theta, rng) for _ in range(20_000)])
    exact = exact_subgradient(theta, phi, basis, mdp, target, lam)
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert (np.abs(draws.mean(axis=0) - exact) <= 4.0 * se + 1e-12).all()


def test_estimate_norm_never_exceeds_k():
    rng = np.random.default_rng(28)
    mdp, phi, basis = _random_instance(29)
    target = rng.normal(0.0, 1.0, basis.psi.shape[1])
    lam = 3.0
    constants = sampling_constants(phi, mdp, basis, lam)
    estimator = SubgradientEstimator(phi, basis, mdp, target, constants)
    for _ in range(2000):
        theta = project_l2_ball(rng.normal(0.0, 2.0, 3), 2.0)
        g = estimator.sample(theta, rng)
        assert math.sqrt(float(g @ g)) <= constants.k * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# projection


def test_projection_examples():
    inside = np.array([0.3, -0.4])
    out = project_l2_ball(inside, 1.0)
    assert np.array_equal(out, inside) and out is not inside
    far = np.array([3.0, 4.0])
    assert np.abs(project_l2_ball(far, 1.0) - [0.6, 0.8]).max() < 1e-15


def test_projection_is_nearest_point():
    rng = np.random.default_rng(30)
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        rho = float(rng.uniform(0.5, 3.0))
        theta = rng.normal(0.0, 3.0, dim)
        p = project_l2_ball(theta, rho)
        assert math.sqrt(float(p @ p)) <= rho * (1 + 1e-12)
        dist = np.linalg.norm(p - theta)
        ball = rng.normal(0.0, 1.0, (10_000, dim))
        ball /= np.linalg.norm(ball, axis=1, keepdims=True)
        ball *= rho * rng.random((10_000, 1)) ** (1.0 / dim)
        assert (np.linalg.norm(ball - theta, axis=1) >= dist - 1e-9).all()


# ---------------------------------------------------------------------------
# the training loop


def _chain_setup(lam=5.0):
    target = np.array([1.8, 0.9])
    constants = sampling_constants(CHAIN_PHI, CHAIN, CHAIN_BASIS, lam)
    return target, constants


def test_single_step_unrolls_by_hand():
    """With T = 1 the averaged iterate is the projected first step from zero."""
    target, constants = _chain_setup()
    eta, rho, seed = 0.05, 2.1, 123
    cfg = SgdConfig(rho=rho, lam=5.0, eta=eta, iterations=1, seed=seed)
    trace, policy = run_sgd_al(cfg, CHAIN_PHI, CHAIN_BASIS, CHAIN, target, constants)

    rng = np.random.default_rng(seed)
    u1, u2 = rng.random((1, 2))[0]
    cum1, cum2 = np.cumsum(constants.q1), np.cumsum(constants.q2)
    pair = min(int(np.searchsorted(cum1, u1, side="right")), 3)
    state = min(int(np.searchsorted(cum2, u2, side="right")), 1)
    estimator = SubgradientEstimator(CHAIN_PHI, CHAIN_BASIS, CHAIN, target, constants)
    g = estimator.estimate(np.zeros(4), pair, state)
    expected = project_l2_ball(-eta * g, rho)
    assert np.abs(trace.theta_avg - expected).max() < 1e-12
    loss = surrogate_loss(expected, CHAIN_PHI, CHAIN_BASIS, CHAIN, target, 5.0)
    assert trace.loss_total[0] == pytest.approx(loss.total, abs=1e-10)
    assert trace.grad_norm[0] == pytest.approx(np.linalg.norm(g), abs=1e-10)
    assert np.array_equal(trace.iteration, [1])
    assert policy.probs.shape == (2, 2)


def test_training_is_reproducible_bit_for_bit():
    target, constants = _chain_setup()
    cfg = SgdConfig(rho=2.1, lam=5.0, eta=1e-3, iterations=500, seed=7)
    t1, p1 = run_sgd_al(cfg, CHAIN_PHI, CHAIN_BASIS, CHAIN, target, constants)
    t2, p2 = run_sgd_al(cfg, CHAIN_PHI, CHAIN_BASIS, CHAIN, target, constants)
    assert np.array_equal(t1.theta_avg, t2.theta_avg)
    assert np.array_equal(t1.loss_total, t2.loss_total)
    assert np.array_equal(t1.grad_norm, t2.grad_norm)
    assert np.array_equal(p1.probs, p2.probs)


def test_trace_internal_consistency():
    target, constants = _chain_setup()
    cfg = SgdConfig(rho=2.1, lam=5.0, eta=1e-3, iterations=400, seed=8)
    trace, _ = run_sgd_al(cfg, CHAIN_PHI, CHAIN_BASIS, CHAIN, target, constants)
    recomputed = trace.loss_objective + 5.0 * (trace.v1 + trace.v2)
    assert np.abs(trace.loss_total - recomputed).max() < 1e-12
    assert float(trace.theta_avg @ trace.theta_avg) <= 2.1**2 * (1 + 1e-12)
    assert (trace.grad_norm <= constants.k * (1.0 + 1e-9)).all()
    assert (trace.v1 >= 0).all() and (trace.v2 >= 0).all()


def _reference_sgd(config, phi, basis, mdp, target, constants):
    """The training loop without the step memo, the norm bound or chunks.

    A straight loop that forms each estimate from scratch, forms
    theta . theta at every step and records the loss of every new iterate
    as it goes; run_sgd_al must match it bit for bit.  Returns the trace
    columns, theta_avg, the first estimate with its (pair, state) draw, and
    the number of projected steps.
    """
    phi_arr = np.asarray(phi.phi if hasattr(phi, "phi") else phi)
    n_pairs, dim = phi_arr.shape
    lam, eta, rho, T = config.lam, config.eta, config.rho, config.iterations
    a_mat = basis.psi.T @ phi_arr
    a_t = np.ascontiguousarray(a_mat.T)
    flow_rows = flow_feature_rows(phi_arr, mdp)
    nu0 = mdp.initial_dist
    t2 = (lam / constants.q2)[:, None] * flow_rows
    t3 = (lam / constants.q1)[:, None] * phi_arr
    cum1, cum2 = np.cumsum(constants.q1), np.cumsum(constants.q2)
    draws = np.random.default_rng(config.seed).random((T, 2))
    pair_idx = np.minimum(np.searchsorted(cum1, draws[:, 0], side="right"), n_pairs - 1)
    state_idx = np.minimum(
        np.searchsorted(cum2, draws[:, 1], side="right"), mdp.n_states - 1
    )
    theta, theta_sum = np.zeros(dim), np.zeros(dim)
    cols = {
        name: np.empty(T) for name in ("total", "objective", "v1", "v2", "grad_norm")
    }
    first, projected = None, 0
    for t in range(T):
        g = a_t @ np.sign(a_mat @ theta - target)
        y = state_idx[t]
        s2 = np.sign(float(flow_rows[y] @ theta) - nu0[y])
        if s2 != 0.0:
            g = g + s2 * t2[y]
        xa = pair_idx[t]
        if float(phi_arr[xa] @ theta) < 0.0:
            g = g - t3[xa]
        if first is None:
            first = g
        gn = math.sqrt(float(g @ g))
        theta = theta - eta * g
        nrm_sq = float(theta @ theta)
        if nrm_sq > rho * rho:
            theta = theta * (rho / math.sqrt(nrm_sq))
            projected += 1
        theta_sum += theta
        obj = float(np.abs(a_mat @ theta - target).sum())
        v1 = float(-np.minimum(phi_arr @ theta, 0.0).sum())
        v2 = float(np.abs(flow_rows @ theta - nu0).sum())
        cols["objective"][t] = obj
        cols["v1"][t] = v1
        cols["v2"][t] = v2
        cols["total"][t] = obj + lam * (v1 + v2)
        cols["grad_norm"][t] = gn
    draw = (int(pair_idx[0]), int(state_idx[0]))
    return cols, theta_sum / T, first, draw, projected


def _chain_instance():
    target, constants = _chain_setup()
    return CHAIN_PHI, CHAIN_BASIS, CHAIN, target, constants, 5.0


def _gridworld_setup():
    mdp, cost = make_gridworld(4, 4, 0.9, 0.1)
    basis = region_indicator_basis(mdp, 4)
    phi = build_feature_matrix(mdp, 6, seed=31)
    expert, _ = value_iteration(mdp, cost)
    target = basis.psi.T @ occupancy_of_policy(mdp, expert).mass
    lam = 10.0
    return phi, basis, mdp, target, sampling_constants(phi, mdp, basis, lam), lam


def _wide_setup():
    mdp = make_random_mdp(80, 4, 0.9, seed=44)
    phi = build_feature_matrix(mdp, 6, seed=45)
    basis = state_action_indicator_basis(mdp)
    target = basis.psi.T @ occupancy_of_policy(mdp, deterministic_policy(
        mdp, np.zeros(mdp.n_states, dtype=int))).mass
    lam = 3.0
    return phi, basis, mdp, target, sampling_constants(phi, mdp, basis, lam), lam


_SETUPS = {"chain": _chain_instance, "gridworld": _gridworld_setup, "wide": _wide_setup}


@pytest.mark.parametrize("instance, rho, eta, iterations, seed, projects", [
    pytest.param("gridworld", 0.5, 2e-4, 9_000, 41, True, id="gridworld"),
    pytest.param("chain", 2.1, 2e-3, 9_000, 42, False, id="chain"),
    pytest.param("wide", 0.5, 1e-3, 500, 46, False, id="wide"),
    pytest.param("gridworld", 0.5, 2e-4, 6_000, 47, True, id="gridworld-memo"),
    pytest.param("wide", 0.1, 3e-3, 600, 48, True, id="wide-memo"),
])
def test_training_matches_reference_loop_bit_for_bit(
    instance, rho, eta, iterations, seed, projects
):
    """Chunked recording, the step memo and the norm bound change no bit of
    the run.

    Each run spans more than one chunk of steps and ends inside a chunk.
    The wide instance has more state-action pairs than a chunk has steps,
    so its losses are evaluated one iterate at a time.  The runs marked
    `projects` take projected and unprojected steps, so the norm bound is
    compared on either side of rho.
    """
    phi, basis, mdp, target, constants, lam = _SETUPS[instance]()
    cfg = SgdConfig(rho=rho, lam=lam, eta=eta, iterations=iterations, seed=seed)
    trace, policy = run_sgd_al(cfg, phi, basis, mdp, target, constants)
    cols, theta_avg, first, (pair, state), projected = _reference_sgd(
        cfg, phi, basis, mdp, target, constants
    )
    if projects:
        assert 0 < projected < cfg.iterations
    assert np.array_equal(trace.loss_total, cols["total"])
    assert np.array_equal(trace.loss_objective, cols["objective"])
    assert np.array_equal(trace.v1, cols["v1"])
    assert np.array_equal(trace.v2, cols["v2"])
    assert np.array_equal(trace.grad_norm, cols["grad_norm"])
    assert np.array_equal(trace.theta_avg, theta_avg)
    phi_arr = np.asarray(phi.phi if hasattr(phi, "phi") else phi)
    expected_policy = policy_from_vector(phi_arr @ theta_avg, mdp)
    assert np.array_equal(policy.probs, expected_policy.probs)
    # the public estimator is the loop's estimator
    estimator = SubgradientEstimator(phi, basis, mdp, target, constants)
    g = estimator.estimate(np.zeros(phi_arr.shape[1]), pair, state)
    assert np.array_equal(g, first)


@pytest.mark.parametrize("width, n", [(4, 10), (10, 163)])
def test_row_products_match_per_iterate_products_bit_for_bit(width, n):
    """Row i of the stacked product is m @ iterates[i], bit for bit, for the
    loss matrices with fewer rows than there are iterates and with more."""
    mdp, _ = make_gridworld(width, width, 0.9, 0.1)
    basis = region_indicator_basis(mdp, 4)
    phi = build_feature_matrix(mdp, 6, seed=width)
    estimator = SubgradientEstimator(
        phi, basis, mdp, np.zeros(4), sampling_constants(phi, mdp, basis, 10.0)
    )
    # a slice of a buffer, as the training loop passes its chunk's iterates
    iterates = np.random.default_rng(n).normal(size=(n + 1, 6))[1:]
    fewer_rows = set()
    for m in (estimator.a_mat, estimator.flow, estimator.phi):
        out = sgd._row_products(iterates, m)
        assert out.flags.c_contiguous
        assert out.tobytes() == np.stack([m @ theta for theta in iterates]).tobytes()
        fewer_rows.add(m.shape[0] < n)
    assert fewer_rows == {True, False}


def test_step_memo_stays_at_its_cap(monkeypatch):
    """Keys that rarely repeat fill the memo to its cap and no further.

    On the wide instance most of 3,000 steps bring a new key.  The traced
    peak of the run exceeds that of a run whose memo holds one entry by
    well under 1 MB; without a cap the memo would hold several MB.
    """
    phi, basis, mdp, target, constants, lam = _wide_setup()
    cfg = SgdConfig(rho=0.5, lam=lam, eta=1e-3, iterations=3_000, seed=49)
    kernels, misses = [], []
    init, build = SubgradientEstimator.__init__, SubgradientEstimator._from_signs

    def recorded(self, *args):
        init(self, *args)
        kernels.append(self)

    def counted(self, *args):
        misses.append(1)
        return build(self, *args)

    monkeypatch.setattr(SubgradientEstimator, "__init__", recorded)
    monkeypatch.setattr(SubgradientEstimator, "_from_signs", counted)

    def traced_peak():
        tracemalloc.start()
        try:
            run_sgd_al(cfg, phi, basis, mdp, target, constants)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    capped = traced_peak()
    assert len(misses) > 2_000
    assert 1 < len(kernels[0]._memo) == kernels[0]._memo_cap
    monkeypatch.setattr(sgd, "_MEMO_ELEMENTS", 0)
    single = traced_peak()
    assert capped - single < 512 * 1024


def test_trace_never_records_negative_zero():
    phi, basis, mdp, target, constants, lam = _gridworld_setup()
    cfg = SgdConfig(rho=2.0, lam=lam, eta=2e-4, iterations=3_000, seed=43)
    trace, _ = run_sgd_al(cfg, phi, basis, mdp, target, constants)
    assert (trace.v1 == 0.0).any()  # rows with no negative mass occur
    assert not np.signbit(trace.v1).any()


def test_nonfinite_or_misshapen_target_is_rejected():
    target, constants = _chain_setup()
    cfg = SgdConfig(rho=2.1, lam=5.0, eta=1e-3, iterations=10, seed=0)
    for values in ([1.8, np.nan], [1.8, np.inf], [1.8, 0.9, 0.0]):
        bad = np.array(values)
        with pytest.raises(ValueError, match="target"):
            run_sgd_al(cfg, CHAIN_PHI, CHAIN_BASIS, CHAIN, bad, constants)
        with pytest.raises(ValueError, match="target"):
            SubgradientEstimator(CHAIN_PHI, CHAIN_BASIS, CHAIN, bad, constants)


def test_nan_step_is_caught_by_the_norm_guard():
    """A step so large that the iterate overflows makes the next estimate NaN."""
    target, constants = _chain_setup()
    cfg = SgdConfig(rho=2.1, lam=5.0, eta=1e308, iterations=10, seed=0)
    last = SgdConfig(rho=2.1, lam=5.0, eta=1e308, iterations=1, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="at step 2"):
            run_sgd_al(cfg, CHAIN_PHI, CHAIN_BASIS, CHAIN, target, constants)
        with pytest.raises(RuntimeError, match="iterate 1 is not finite"):
            run_sgd_al(last, CHAIN_PHI, CHAIN_BASIS, CHAIN, target, constants)


def test_nan_step_bypasses_a_memo_holding_its_draw_codes():
    """An iterate that overflowed is never looked up in the step memo.

    With Phi = 3 I the first step overflows.  At theta = 0 the drawn state
    1 (nu0 = 0) has a zero flow residual and every pair a zero measure,
    so the memo's first entry holds the draw codes that NaN comparisons
    give at step 2.  The NaN guard must still stop the run there.
    """
    phi = 3.0 * CHAIN_PHI
    target = np.array([1.8, 0.9])
    constants = sampling_constants(phi, CHAIN, CHAIN_BASIS, 5.0)
    seed = 1
    u2 = np.random.default_rng(seed).random((1, 2))[0, 1]
    assert np.searchsorted(np.cumsum(constants.q2), u2, side="right") == 1
    cfg = SgdConfig(rho=2.1, lam=5.0, eta=1e308, iterations=10, seed=seed)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="at step 2"):
            run_sgd_al(cfg, phi, CHAIN_BASIS, CHAIN, target, constants)


def test_mismatched_penalty_weight_is_rejected():
    target, constants = _chain_setup(lam=2.0)
    cfg = SgdConfig(rho=2.1, lam=3.0, eta=1e-3, iterations=10, seed=0)
    with pytest.raises(ValueError, match="lam"):
        run_sgd_al(cfg, CHAIN_PHI, CHAIN_BASIS, CHAIN, target, constants)


def test_config_validation():
    with pytest.raises(ValueError):
        SgdConfig(rho=0.0, lam=1.0, eta=0.1, iterations=10, seed=0)
    with pytest.raises(ValueError):
        SgdConfig(rho=1.0, lam=-1.0, eta=0.1, iterations=10, seed=0)
    with pytest.raises(ValueError):
        SgdConfig(rho=1.0, lam=1.0, eta=0.0, iterations=10, seed=0)
    with pytest.raises(ValueError):
        SgdConfig(rho=1.0, lam=1.0, eta=0.1, iterations=0, seed=0)
    for nan_field in ("rho", "lam", "eta"):
        fields = dict(rho=1.0, lam=1.0, eta=0.1, iterations=10, seed=0)
        fields[nan_field] = math.nan
        with pytest.raises(ValueError, match=nan_field):
            SgdConfig(**fields)


def test_convergence_within_ten_percent_and_monotone_in_budget():
    """Median loss lands within 10% of the known optimum and improves with T.

    The optimum of the penalized loss on this instance is 0.7 (module
    docstring); the always-switch occupancy attains it, so 0.7 is also
    checked as an upper bound reachable inside the ball.
    """
    target, constants = _chain_setup()
    rho = 2.1
    mu_go = occupancy_of_policy(CHAIN, deterministic_policy(CHAIN, [1, 1])).mass
    attained = surrogate_loss(mu_go, CHAIN_PHI, CHAIN_BASIS, CHAIN, target, 5.0)
    assert attained.total == pytest.approx(0.7, abs=1e-12)
    assert math.sqrt(float(mu_go @ mu_go)) <= rho

    medians = []
    for iterations in (1_000, 10_000, 50_000):
        eta = rho / (constants.k * math.sqrt(iterations))
        losses = []
        for seed in range(5):
            cfg = SgdConfig(rho=rho, lam=5.0, eta=eta, iterations=iterations, seed=seed)
            trace, _ = run_sgd_al(
                cfg, CHAIN_PHI, CHAIN_BASIS, CHAIN, target, constants
            )
            losses.append(
                surrogate_loss(
                    trace.theta_avg, CHAIN_PHI, CHAIN_BASIS, CHAIN, target, 5.0
                ).total
            )
        medians.append(float(np.median(losses)))
        assert max(losses) <= 1.5 * 0.7  # no seed diverges

    assert medians[0] > medians[1] + 0.01
    assert medians[1] > medians[2] + 0.01
    assert medians[2] <= 1.1 * 0.7


# ---------------------------------------------------------------------------
# the certified schedule


def test_schedule_component_identities():
    sched = certified_schedule(0.5, 0.5, 1.0, 1, 1, 0.5, k=3.0)
    assert sched.lam == 2.0  # exactly 1 / epsilon
    assert sched.sample_size == hoeffding_sample_size(1, 0.5, 0.5, 0.5) == 533
    assert sched.eta == pytest.approx(1.0 / (3.0 * math.sqrt(sched.iterations)), rel=1e-15)
    assert sched.epsilon == 0.5 and sched.delta == 0.5 and sched.rho == 1.0

    t = sched.iterations
    noise = math.sqrt(10.0 * math.log(4.0))
    delta_at = 3.0 + noise + math.sqrt(5.0 * math.log(1.0 + t))
    assert sched.delta_bound == pytest.approx(delta_at, rel=1e-12)
    factor = (4.0 / 0.25) * (2.0 / (2.0 * 0.5) + 1.0) ** 2
    # the iteration count is a fixed point of its own lower bound
    assert t == max(1, math.ceil(factor * delta_at**2))
    assert sched.delta_bound > 3.0


def test_schedule_iterations_quadruple_with_radius():
    s1 = certified_schedule(0.5, 0.5, 1.0, 1, 1, 0.5, k=3.0)
    s2 = certified_schedule(0.5, 0.5, 2.0, 1, 1, 0.5, k=3.0)
    ratio = s2.iterations / s1.iterations
    assert 4.0 <= ratio <= 5.0  # leading factor has rho^2; the rest grows in log rho


def test_schedule_rejects_bad_inputs():
    for eps, delta in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-1, 0.5)):
        with pytest.raises(ValueError):
            certified_schedule(eps, delta, 1.0, 2, 1, 0.5, k=1.0)
    with pytest.raises(ValueError):
        certified_schedule(0.5, 0.5, 0.0, 2, 1, 0.5, k=1.0)
    with pytest.raises(ValueError):
        certified_schedule(0.5, 0.5, 1.0, 0, 1, 0.5, k=1.0)
    with pytest.raises(ValueError):
        certified_schedule(0.5, 0.5, 1.0, 2, 1, 0.5, k=0.0)


@pytest.mark.parametrize("rho,k", [(math.nan, 3.0), (1.0, math.nan)])
def test_schedule_rejects_nan_inputs(rho, k):
    with pytest.raises(ValueError, match="need rho > 0, d >= 1, k > 0"):
        certified_schedule(0.5, 0.5, rho, 2, 1, 0.5, k=k)
