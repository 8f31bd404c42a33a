"""Projected stochastic subgradient descent on the penalized matching loss.

The loss is L(theta) = ||Psi^T Phi theta - target||_1 + lam * V1 + lam * V2,
with V1 the l1 mass of the negative part of Phi theta and V2 the l1 flow
defect of Phi theta.  Each step draws one state-action pair and one state
to estimate the two penalty sums, giving an unbiased subgradient whose l2
norm never exceeds the constant K carried by SamplingConstants; the loop
asserts that bound at every step.  Iterates are projected onto the l2 ball
of radius rho and their running mean is the returned solution.

SubgradientEstimator is that estimator for one problem instance, built
once: it draws the (pair, state) indices, forms the estimate at given
indices and samples both in one call.  The training loop draws and steps
with it, and the unbiasedness and norm checks build one per instance, so
they test the code that trains.  It takes lam, q1 and q2 from the
SamplingConstants, so K bounds every estimate it forms.  An estimate
depends on the iterate only through a few signs (of the cost residuals,
of each drawn state's flow residual, of each drawn pair's measure), and
a run meets few distinct sign keys, so the training step memoises each
key's (norm, step) and forms an estimate only for a new key.  The loop forms
theta . theta only when an upper bound on the iterate's norm reaches rho.
The loop keeps the iterates of each chunk of steps in a fixed buffer,
adds them to the running sum and records their losses once per chunk,
bit for bit equal to the sum and the losses formed after each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expert import hoeffding_sample_size
from .extraction import policy_from_vector
from .features import _phi_array, _target_vector, _vector_of, flow_feature_rows

__all__ = [
    "SgdConfig",
    "LossBreakdown",
    "TrainingTrace",
    "Schedule",
    "project_l2_ball",
    "surrogate_loss",
    "exact_subgradient",
    "SubgradientEstimator",
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
        # negated comparisons so that NaN is rejected too
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not self.lam >= 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not self.eta > 0:
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

    delta_bound is the gradient-range constant from the headline statement,
    which sizes `iterations`.
    """

    lam: float
    sample_size: int
    iterations: int
    eta: float
    delta_bound: float
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


# Bound on the floats the step memo holds, counting each entry as its sign
# key, its step and 40 floats' worth of Python objects: about 256 KB.
_MEMO_ELEMENTS = 1 << 15


class SubgradientEstimator:
    """The stochastic subgradient estimator of one problem instance.

    Built once from (Phi, Psi, target) and the SamplingConstants' lam, q1
    and q2: A = Psi^T Phi, the flow rows of Phi, the cumulative sums of q1
    and q2, and the penalty rows t2 = lam/q2 * flow and t3 = lam/q1 * Phi,
    each scaled by 1/batch.  Each estimate averages `batch` (pair, state)
    draws, and its l2 norm is at most constants.k.

    `draw` is the inverse-CDF draw of the indices, `estimate` the estimate
    at given indices, and `sample` the two together.  `_signs` finds every
    sign an estimate branches on and `_from_signs` forms the estimate from
    them; `estimate` and the memoised `step` are built on these two alone.
    `losses` evaluates stored iterates in a way that reproduces the
    one-at-a-time loss bit for bit.
    """

    def __init__(self, phi, basis, mdp, target, constants, batch=1, eta=1.0):
        phi_arr = _phi_array(phi)
        self.target = _target_vector(basis, target)
        self.a_mat = basis.psi.T @ phi_arr  # (n_c, d)
        self.a_t = np.ascontiguousarray(self.a_mat.T)
        self.phi = phi_arr
        self.flow = flow_feature_rows(phi_arr, mdp)  # (S, d)
        self.nu0 = mdp.initial_dist
        self.batch = batch
        self.cum1 = np.cumsum(constants.q1)
        self.cum2 = np.cumsum(constants.q2)
        scale = constants.lam / batch
        # per-row lists: indexing a list is cheaper than indexing an array
        self.flow_rows = list(self.flow)
        self.nu0_list = self.nu0.tolist()
        self.t2_rows = list((scale / constants.q2)[:, None] * self.flow)
        self.phi_rows = list(phi_arr)
        self.t3_rows = list((scale / constants.q1)[:, None] * phi_arr)
        self.eta = eta
        self._memo = {}
        self._memo_cap = max(
            1, _MEMO_ELEMENTS // (basis.n_costs + self.a_t.shape[0] + 40)
        )

    def _signs(self, theta, pairs, states):
        """(sign(A theta - target), key): everything an estimate reads of theta.

        The key holds the bytes of the cost-residual signs, then a code per
        drawn state (y for a positive flow residual, ~y for a negative one,
        None for zero) and per drawn pair (xa for a negative measure, None
        otherwise), in draw order.
        """
        # ndarray.dot calls the same BLAS routines as @ with half the call
        # overhead on operands this small
        cost_signs = np.sign(self.a_mat.dot(theta) - self.target)
        key = [cost_signs.tobytes()]
        flow_rows, nu0 = self.flow_rows, self.nu0_list
        for y in states:
            r = float(flow_rows[y].dot(theta)) - nu0[y]
            key.append(y if r > 0.0 else ~y if r < 0.0 else None)
        phi_rows = self.phi_rows
        for xa in pairs:
            key.append(xa if float(phi_rows[xa].dot(theta)) < 0.0 else None)
        return cost_signs, tuple(key)

    def _from_signs(self, cost_signs, key, n_states):
        """The estimate whose signs _signs returned for n_states drawn states."""
        g = self.a_t.dot(cost_signs)
        t2_rows, t3_rows = self.t2_rows, self.t3_rows
        for code in key[1 : 1 + n_states]:
            if code is None:
                continue
            if code >= 0:
                g += t2_rows[code]
            else:
                g -= t2_rows[~code]
        for code in key[1 + n_states :]:
            if code is not None:
                g -= t3_rows[code]
        return g

    def draw(self, rng, n):
        """(pairs, states): n lists of batch indices each, drawn from q1 and q2.

        Consumes rng.random((n, 2 * batch)); the first batch columns pick
        the pairs and the rest the states, by inverse CDF.
        """
        u = rng.random((n, 2 * self.batch))
        pairs = np.minimum(
            np.searchsorted(self.cum1, u[:, : self.batch], side="right"),
            self.cum1.size - 1,
        )
        states = np.minimum(
            np.searchsorted(self.cum2, u[:, self.batch :], side="right"),
            self.cum2.size - 1,
        )
        return pairs.tolist(), states.tolist()

    def estimate(self, theta, pairs, states):
        """Estimate at theta from one batch of drawn pairs and states.

        The penalty rows carry the 1/batch factor, so this is the mean of
        the single-draw estimates.  Averaging the single-draw estimate over
        pair ~ q1 and state ~ q2 reproduces exact_subgradient.
        """
        theta = np.asarray(theta, dtype=float)
        cost_signs, key = self._signs(theta, pairs, states)
        return self._from_signs(cost_signs, key, len(states))

    def sample(self, theta, rng):
        """Estimate at theta from one draw; consumes rng.random((1, 2 * batch))."""
        pairs, states = self.draw(rng, 1)
        return self.estimate(theta, pairs[0], states[0])

    def step(self, theta, pairs, states, memoise):
        """(||g||, eta * g) for the estimate g at theta.

        With memoise, the pair is formed once per sign key while the memo
        has room and reused after, so every value is one that estimate and
        the unmemoised step compute.  Callers pass memoise=False for an
        iterate that is not finite: its key must not meet a stored one.
        """
        cost_signs, key = self._signs(theta, pairs, states)
        hit = self._memo.get(key) if memoise else None
        if hit is None:
            g = self._from_signs(cost_signs, key, len(states))
            hit = (math.sqrt(g.dot(g)), self.eta * g)
            if memoise and len(self._memo) < self._memo_cap:
                self._memo[key] = hit
        return hit

    def losses(self, iterates):
        """(objective, v1, v2) of each row of a C-contiguous (n, d) array."""
        residual = _row_products(iterates, self.a_mat) - self.target
        objective = np.abs(residual).sum(axis=1)
        v1 = -np.minimum(_row_products(iterates, self.phi), 0.0).sum(axis=1) + 0.0
        v2 = np.abs(_row_products(iterates, self.flow) - self.nu0).sum(axis=1)
        return objective, v1, v2


def _row_products(iterates, m):
    """(n, rows of m) array whose row i equals m @ iterates[i] bit for bit.

    A single iterates @ m.T (gemm) rounds differently from the per-iterate
    product.  One matrix-vector product per row of m, iterates @ m[j], does
    not, and takes fewer calls when m has fewer rows than there are
    iterates; otherwise each iterate gets its own m @ iterates[i].  The
    result is C-contiguous, so sums along axis 1 add in the per-vector order.
    """
    out = np.empty((iterates.shape[0], m.shape[0]))
    if m.shape[0] < iterates.shape[0]:
        for j, row in enumerate(m):
            out[:, j] = iterates @ row
    else:
        for i, theta in enumerate(iterates):
            out[i] = m @ theta
    return out


# Bound on steps per chunk times state-action pairs, the size of the
# (chunk, n_pairs) array that a chunk's loss recording holds: 512 KB.
_CHUNK_ELEMENTS = 1 << 16


def run_sgd_al(config, phi, basis, mdp, target, constants):
    """Averaged projected stochastic subgradient descent.

    Starts from theta = 0; step t draws (pair, state), forms the estimate
    at the current iterate and takes the projected step.  The draws of a
    chunk of steps come from one call of the estimator's `draw`, and the
    loss of each new iterate is recorded once per chunk from the stored
    iterates.  Returns the trace (whose theta_avg is the mean of iterates
    1..T) and the policy extracted from Phi theta_avg.

    Each step takes (norm, eta * estimate) from the estimator's memoised
    step, keyed by the signs the estimate branches on, so every value is
    one that the unmemoised step computes.
    """
    if abs(constants.lam - config.lam) > 1e-12 * max(1.0, config.lam):
        raise ValueError(
            f"constants built for lam={constants.lam}, config has {config.lam}"
        )
    lam, eta, rho = config.lam, config.eta, config.rho
    T = config.iterations
    kernel = SubgradientEstimator(
        phi, basis, mdp, target, constants, config.batch_size, eta
    )
    step = kernel.step
    phi_arr = kernel.phi
    n_pairs, dim = phi_arr.shape
    k_limit = constants.k * (1.0 + 1e-9)
    rho_sq = rho * rho
    chunk = max(1, _CHUNK_ELEMENTS // n_pairs)
    inf = math.inf
    # The rounding of a step (the update, eta * norm, the bound's own sums)
    # and of a dot product is a few dim ulps, below this slack, so
    # bound < rho implies that theta . theta <= rho^2 as computed.
    slack = 1.0 + max(1e-12, 16.0 * dim * np.finfo(float).eps)

    theta = np.zeros(dim)
    theta_sum = np.zeros(dim)
    # row 0: the running sum before the chunk; rows 1..: the chunk's iterates
    iterates = np.empty((min(chunk, T) + 1, dim))
    bound = 0.0  # upper bound on ||theta||; inf or NaN once theta overflows
    loss_total = np.empty(T)
    loss_objective = np.empty(T)
    v1_col = np.empty(T)
    v2_col = np.empty(T)
    grad_norm = np.empty(T)

    rng = np.random.default_rng(config.seed)
    for start in range(0, T, chunk):
        stop = min(start + chunk, T)
        block = stop - start
        pair_idx, state_idx = kernel.draw(rng, block)
        iterates[0] = theta_sum
        norms = []
        for t, (pairs, states) in enumerate(zip(pair_idx, state_idx), start + 1):
            gn, eta_g = step(theta, pairs, states, bound < inf)
            if not gn <= k_limit:  # also catches a NaN estimate
                raise RuntimeError(
                    f"subgradient norm {gn} exceeded K={constants.k} at step {t}"
                )
            theta = theta - eta_g
            bound = (bound + eta * gn) * slack
            if not bound < rho:
                nrm_sq = theta.dot(theta)
                if nrm_sq > rho_sq:
                    theta = theta * (rho / math.sqrt(nrm_sq))
                bound = math.sqrt(nrm_sq) * slack  # projecting only shrinks theta
            iterates[t - start] = theta
            norms.append(gn)
        # accumulate adds row after row, in the order of theta_sum += theta
        theta_sum = np.add.accumulate(iterates[: block + 1])[-1]
        obj, v1, v2 = kernel.losses(iterates[1 : block + 1])
        loss_objective[start:stop] = obj
        v1_col[start:stop] = v1
        v2_col[start:stop] = v2
        loss_total[start:stop] = obj + lam * (v1 + v2)
        grad_norm[start:stop] = norms

    if not np.isfinite(theta_sum).all():  # the last step has no next-step guard
        raise RuntimeError(f"iterate {T} is not finite")
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


def certified_schedule(epsilon, delta, rho, d, n_costs, gamma, k):
    """Hyperparameters meeting the regret guarantee at accuracy (epsilon, delta).

    lam = 1/epsilon; the sample size is the Hoeffding requirement; the
    iteration count is the smallest T consistent with its own lower bound
    (the bound depends on T through a log, so it is resolved by monotone
    fixed-point iteration from T = 1); eta = rho / (k sqrt(T)).  Nominal
    values are astronomically conservative at tight accuracies; they are
    meant for the guarantee, not as practical defaults.  The bound takes
    ||psi||_inf = 1, the largest entry validate_basis admits.
    """
    if not (0.0 < epsilon < 1.0) or not (0.0 < delta < 1.0):
        raise ValueError(f"accuracy pair ({epsilon}, {delta}) outside (0, 1)^2")
    if not (rho > 0 and d >= 1 and k > 0):  # NaN fails every comparison
        raise ValueError("need rho > 0, d >= 1, k > 0")
    lam = 1.0 / epsilon
    m = hoeffding_sample_size(n_costs, gamma, epsilon, delta)
    factor = (4.0 * rho**2 / epsilon**2) * (
        2.0 / (lam * (1.0 - gamma)) + 1.0
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

    eta = rho / (k * math.sqrt(t_iter))
    return Schedule(
        lam=lam,
        sample_size=m,
        iterations=t_iter,
        eta=eta,
        delta_bound=delta_at(t_iter),
        epsilon=float(epsilon),
        delta=float(delta),
        rho=float(rho),
    )
