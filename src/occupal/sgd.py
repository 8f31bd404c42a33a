"""Projected stochastic subgradient descent on the penalized matching loss.

The loss is L(theta) = ||Psi^T Phi theta - target||_1 + lam * V1 + lam * V2,
with V1 the l1 mass of the negative part of Phi theta and V2 the l1 flow
defect of Phi theta.  Each step draws one state-action pair and one state
to estimate the two penalty sums, giving an unbiased subgradient whose l2
norm never exceeds the constant K carried by SamplingConstants; the loop
asserts that bound at every step.  Iterates are projected onto the l2 ball
of radius rho and their running mean is the returned solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expert import hoeffding_sample_size
from .extraction import policy_from_vector
from .features import FeatureMatrix, _vector_of, flow_feature_rows

__all__ = [
    "SgdConfig",
    "LossBreakdown",
    "TrainingTrace",
    "Schedule",
    "project_l2_ball",
    "surrogate_loss",
    "exact_subgradient",
    "subgradient_estimate",
    "stochastic_subgradient",
    "run_sgd_al",
    "certified_schedule",
]


@dataclass(frozen=True)
class SgdConfig:
    """Training hyperparameters.

    epsilon/delta are optional bookkeeping: when present they declare the
    accuracy pair this schedule was derived for (see certified_schedule).
    """

    rho: float
    lam: float
    eta: float
    iterations: int
    seed: int
    batch_size: int = 1
    epsilon: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class LossBreakdown:
    objective: float
    v1: float
    v2: float
    lam: float
    total: float


@dataclass(frozen=True)
class TrainingTrace:
    """Per-iteration records plus the final averaged iterate.

    loss_* and the violation columns describe the iterate produced by each
    step; grad_norm is the norm of the estimate that produced it.
    """

    iteration: np.ndarray
    loss_total: np.ndarray
    loss_objective: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    grad_norm: np.ndarray
    theta_avg: np.ndarray


@dataclass(frozen=True)
class Schedule:
    """Hyperparameters certifying the (epsilon, delta) regret guarantee.

    delta_bound is the gradient-range constant from the headline statement;
    delta_proof_bound is the analogous constant reconstructed from the
    appendix derivation, which differs (both are reported, the statement
    form is what sizes `iterations`).
    """

    lam: float
    sample_size: int
    iterations: int
    eta: float
    delta_bound: float
    delta_proof_bound: float
    epsilon: float
    delta: float
    rho: float


def project_l2_ball(theta, rho):
    """Euclidean projection onto the centered l2 ball of radius rho."""
    theta = np.asarray(theta, dtype=float)
    norm = math.sqrt(float(theta @ theta))
    if norm <= rho:
        return theta.copy()
    return theta * (rho / norm)


def _phi_array(phi):
    return phi.phi if isinstance(phi, FeatureMatrix) else np.asarray(phi)


def surrogate_loss(theta, phi, basis, mdp, target, lam):
    """Loss breakdown at theta; total = objective + lam * (v1 + v2)."""
    phi_arr = _phi_array(phi)
    theta = np.asarray(theta, dtype=float)
    u = phi_arr @ theta
    objective = float(np.abs(basis.psi.T @ u - _vector_of(target)).sum())
    v1 = float(-np.minimum(u, 0.0).sum() + 0.0)
    v2 = float(
        np.abs(flow_feature_rows(phi_arr, mdp) @ theta - mdp.initial_dist).sum()
    )
    return LossBreakdown(objective, v1, v2, float(lam), objective + lam * (v1 + v2))


def exact_subgradient(theta, phi, basis, mdp, target, lam):
    """Deterministic subgradient of the surrogate loss (sign(0) = 0)."""
    phi_arr = _phi_array(phi)
    theta = np.asarray(theta, dtype=float)
    u = phi_arr @ theta
    g = phi_arr.T @ (basis.psi @ np.sign(basis.psi.T @ u - _vector_of(target)))
    flow_rows = flow_feature_rows(phi_arr, mdp)
    g = g + lam * (flow_rows.T @ np.sign(flow_rows @ theta - mdp.initial_dist))
    # subgradient of the negative-part penalty: -row on strictly negative rows
    g = g - lam * (phi_arr.T @ (u < 0.0).astype(float))
    return g


def subgradient_estimate(
    theta, phi, basis, mdp, target, lam, constants, pair_index, state_index
):
    """Single-draw estimate given the sampled pair and state indices.

    Averaging this over pair_index ~ q1 and state_index ~ q2 reproduces
    exact_subgradient; the estimate's l2 norm is at most constants.k.
    """
    phi_arr = _phi_array(phi)
    theta = np.asarray(theta, dtype=float)
    g = phi_arr.T @ (
        basis.psi @ np.sign(basis.psi.T @ (phi_arr @ theta) - _vector_of(target))
    )
    y = int(state_index)
    k = mdp.n_actions
    flow_col = phi_arr[y * k : (y + 1) * k].sum(axis=0) - mdp.discount * (
        mdp.transition[:, y] @ phi_arr
    )
    s2 = np.sign(float(flow_col @ theta) - mdp.initial_dist[y])
    if s2 != 0.0:
        g = g + (lam * s2 / constants.q2[y]) * flow_col
    xa = int(pair_index)
    if float(phi_arr[xa] @ theta) < 0.0:
        g = g - (lam / constants.q1[xa]) * phi_arr[xa]
    return g


def stochastic_subgradient(theta, phi, basis, mdp, target, lam, constants, rng):
    """Draw (pair, state) from (q1, q2) and return the subgradient estimate."""
    cum1 = np.cumsum(constants.q1)
    cum2 = np.cumsum(constants.q2)
    u1, u2 = rng.random(2)
    pair = min(int(np.searchsorted(cum1, u1, side="right")), constants.q1.size - 1)
    state = min(int(np.searchsorted(cum2, u2, side="right")), constants.q2.size - 1)
    return subgradient_estimate(
        theta, phi, basis, mdp, target, lam, constants, pair, state
    )


def run_sgd_al(config, phi, basis, mdp, target, constants):
    """Averaged projected stochastic subgradient descent.

    Starts from theta = 0; step t draws (pair, state), forms the estimate
    at the current iterate, takes the projected step, and records the loss
    of the new iterate.  Returns the trace (whose theta_avg is the mean of
    iterates 1..T) and the policy extracted from Phi theta_avg.
    """
    if abs(constants.lam - config.lam) > 1e-12 * max(1.0, config.lam):
        raise ValueError(
            f"constants built for lam={constants.lam}, config has {config.lam}"
        )
    phi_arr = _phi_array(phi)
    n_pairs, dim = phi_arr.shape
    n_states = mdp.n_states
    target_vals = _vector_of(target)
    lam, eta, rho = config.lam, config.eta, config.rho
    batch = config.batch_size
    T = config.iterations

    a_mat = basis.psi.T @ phi_arr  # (n_c, d)
    a_t = np.ascontiguousarray(a_mat.T)
    flow_rows = flow_feature_rows(phi_arr, mdp)  # (S, d)
    nu0 = mdp.initial_dist
    t2 = (lam / constants.q2)[:, None] * flow_rows
    t3 = (lam / constants.q1)[:, None] * phi_arr
    cum1 = np.cumsum(constants.q1)
    cum2 = np.cumsum(constants.q2)
    k_limit = constants.k * (1.0 + 1e-9)
    rho_sq = rho * rho

    theta = np.zeros(dim)
    theta_sum = np.zeros(dim)
    loss_total = np.empty(T)
    loss_objective = np.empty(T)
    v1_col = np.empty(T)
    v2_col = np.empty(T)
    grad_norm = np.empty(T)

    rng = np.random.default_rng(config.seed)
    chunk = 1 << 16
    for start in range(0, T, chunk):
        stop = min(start + chunk, T)
        block = stop - start
        draws = rng.random((block, 2 * batch))
        pair_idx = np.minimum(
            np.searchsorted(cum1, draws[:, :batch], side="right"), n_pairs - 1
        )
        state_idx = np.minimum(
            np.searchsorted(cum2, draws[:, batch:], side="right"), n_states - 1
        )
        for i in range(block):
            t = start + i
            g = a_t @ np.sign(a_mat @ theta - target_vals)
            if batch == 1:
                y = state_idx[i, 0]
                s2 = np.sign(float(flow_rows[y] @ theta) - nu0[y])
                if s2 != 0.0:
                    g = g + s2 * t2[y]
                xa = pair_idx[i, 0]
                if float(phi_arr[xa] @ theta) < 0.0:
                    g = g - t3[xa]
            else:
                ys = state_idx[i]
                s2 = np.sign(flow_rows[ys] @ theta - nu0[ys])
                pen = s2 @ t2[ys]
                xs = pair_idx[i]
                neg = (phi_arr[xs] @ theta) < 0.0
                if neg.any():
                    pen = pen - t3[xs[neg]].sum(axis=0)
                g = g + pen / batch
            gn = math.sqrt(float(g @ g))
            if gn > k_limit:
                raise RuntimeError(
                    f"subgradient norm {gn} exceeded K={constants.k} at step {t + 1}"
                )
            theta = theta - eta * g
            nrm_sq = float(theta @ theta)
            if nrm_sq > rho_sq:
                theta = theta * (rho / math.sqrt(nrm_sq))
            theta_sum += theta

            obj = float(np.abs(a_mat @ theta - target_vals).sum())
            v1 = float(-np.minimum(phi_arr @ theta, 0.0).sum())
            v2 = float(np.abs(flow_rows @ theta - nu0).sum())
            loss_objective[t] = obj
            v1_col[t] = v1
            v2_col[t] = v2
            loss_total[t] = obj + lam * (v1 + v2)
            grad_norm[t] = gn

    theta_avg = theta_sum / T
    trace = TrainingTrace(
        iteration=np.arange(1, T + 1),
        loss_total=loss_total,
        loss_objective=loss_objective,
        v1=v1_col,
        v2=v2_col,
        grad_norm=grad_norm,
        theta_avg=theta_avg,
    )
    return trace, policy_from_vector(phi_arr @ theta_avg, mdp)


def certified_schedule(epsilon, delta, rho, d, n_costs, gamma, k, psi_inf_norm=1.0):
    """Hyperparameters meeting the regret guarantee at accuracy (epsilon, delta).

    lam = 1/epsilon; the sample size is the Hoeffding requirement; the
    iteration count is the smallest T consistent with its own lower bound
    (the bound depends on T through a log, so it is resolved by monotone
    fixed-point iteration from T = 1); eta = rho / (k sqrt(T)).  Nominal
    values are astronomically conservative at tight accuracies; they are
    meant for the guarantee, not as practical defaults.
    """
    if not (0.0 < epsilon < 1.0) or not (0.0 < delta < 1.0):
        raise ValueError(f"accuracy pair ({epsilon}, {delta}) outside (0, 1)^2")
    if rho <= 0 or d < 1 or k <= 0:
        raise ValueError("need rho > 0, d >= 1, k > 0")
    lam = 1.0 / epsilon
    m = hoeffding_sample_size(n_costs, gamma, epsilon, delta)
    factor = (4.0 * rho**2 / epsilon**2) * (
        2.0 * psi_inf_norm / (lam * (1.0 - gamma)) + 1.0
    ) ** 2
    noise = math.sqrt(10.0 * math.log(2.0 / delta))

    def delta_at(t):
        return k + noise + math.sqrt(5.0 * d * math.log(1.0 + rho**2 * t / d))

    t_iter = 1
    for _ in range(500):
        t_next = math.ceil(factor * delta_at(t_iter) ** 2)
        if t_next > 1 << 62:
            raise ValueError("iteration bound overflows; loosen epsilon or delta")
        if t_next <= t_iter:
            break
        t_iter = t_next
    else:
        raise RuntimeError("iteration fixed point did not settle in 500 rounds")

    delta_bound = delta_at(t_iter)
    # appendix-style constant: solve the derived high-probability term for
    # an equivalent K-plus-noise scale at this T
    proof_tail = math.sqrt(
        (1.0 + 4.0 * rho**2 * t_iter)
        * (2.0 * math.log(2.0 / delta) + d * math.log(1.0 + rho**2 * t_iter / d))
        / (rho**2 * t_iter)
    )
    eta = rho / (k * math.sqrt(t_iter))
    return Schedule(
        lam=lam,
        sample_size=m,
        iterations=t_iter,
        eta=eta,
        delta_bound=delta_bound,
        delta_proof_bound=k + proof_tail,
        epsilon=float(epsilon),
        delta=float(delta),
        rho=float(rho),
    )
