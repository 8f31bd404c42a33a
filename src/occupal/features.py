"""Linear cost classes and positive feature matrices.

Costs live in the span of a small basis Psi = [psi_1 | ... | psi_nc] with
sup-norm-bounded mixing weights; matching feature expectations against this
class reduces the worst-case cost gap to an l1 distance, which is what both
the training loss and the exact baseline optimize.  Feature matrices Phi
compress the occupancy variable: columns are entrywise-positive measures of
total mass 1/(1 - g), built by mixing random-policy occupancies with a
uniform measure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mdp import OccupancyMeasure, Policy, occupancy_of_policy

__all__ = [
    "CostBasis",
    "FeatureMatrix",
    "SamplingConstants",
    "validate_basis",
    "state_action_indicator_basis",
    "region_indicator_basis",
    "feature_expectation",
    "l1_feature_gap",
    "brute_force_sup_gap",
    "build_feature_matrix",
    "flow_feature_rows",
    "sampling_constants",
    "save_basis",
    "load_basis",
    "save_features",
    "load_features",
]


@dataclass(frozen=True)
class CostBasis:
    """Cost basis matrix; column i is the vector psi_i over state-actions."""

    psi: np.ndarray

    @property
    def n_costs(self):
        return self.psi.shape[1]


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature matrix Phi (n_pairs x d) plus its construction metadata."""

    phi: np.ndarray
    beta: float
    seed: int | None = None

    @property
    def d(self):
        return self.phi.shape[1]


@dataclass(frozen=True)
class SamplingConstants:
    """Sampling distributions and norm constants for the stochastic step.

    q1 is over state-action pairs and q2 over states, each proportional to
    the l2 norms of the rows it draws from; c1 and c2 are the worst ratios
    of row norm to sampling probability, and k bounds the l2 norm of every
    subgradient estimate drawn with these distributions at the penalty
    weight `lam`.
    """

    q1: np.ndarray
    q2: np.ndarray
    c1: float
    c2: float
    k: float
    lam: float


def validate_basis(basis, mdp=None):
    """List of problems (empty list = valid).

    Psi must be 2-d and finite, with one row per state-action pair of `mdp`
    (when given) and every entry in [-1, 1], the range certified_schedule
    and brute_force_sup_gap assume.  Signed entries are legal.
    """
    problems = []
    psi = basis.psi
    if psi.ndim != 2 or psi.shape[1] < 1:
        problems.append(f"psi must be 2-d with >= 1 column, got {psi.shape}")
        return problems
    if mdp is not None and psi.shape[0] != mdp.n_pairs:
        problems.append(f"psi has {psi.shape[0]} rows, MDP has {mdp.n_pairs} pairs")
    if not np.all(np.isfinite(psi)):
        problems.append("psi has non-finite entries")
        return problems
    over = np.abs(psi).max(axis=0) > 1.0 + 1e-12
    if np.any(over):
        problems.append(
            f"columns {np.where(over)[0].tolist()} exceed sup-norm 1"
        )
    return problems


def state_action_indicator_basis(mdp):
    """One indicator column per state-action pair (the identity basis)."""
    return CostBasis(np.eye(mdp.n_pairs))


def region_indicator_basis(mdp, n_blocks):
    """Indicator columns over n_blocks contiguous blocks of states.

    Block i covers states [i*S/n, (i+1)*S/n); every action inherits its
    state's block.  On a gridworld whose states are numbered row-major this
    partitions the grid into horizontal bands.
    """
    if not (1 <= n_blocks <= mdp.n_states):
        raise ValueError(f"n_blocks {n_blocks} outside 1..{mdp.n_states}")
    edges = [(i * mdp.n_states) // n_blocks for i in range(n_blocks + 1)]
    psi = np.zeros((mdp.n_pairs, n_blocks))
    for i in range(n_blocks):
        for x in range(edges[i], edges[i + 1]):
            psi[x * mdp.n_actions : (x + 1) * mdp.n_actions, i] = 1.0
    return CostBasis(psi)


def _vector_of(mu):
    if isinstance(mu, OccupancyMeasure):
        return mu.mass
    values = getattr(mu, "values", None)
    if values is not None:
        return np.asarray(values, dtype=float)
    return np.asarray(mu, dtype=float)


def _target_vector(basis, target):
    """The target as a float vector; raises ValueError unless it has one
    finite entry per basis column."""
    b_target = _vector_of(target)
    if b_target.shape != (basis.n_costs,) or not np.all(np.isfinite(b_target)):
        raise ValueError(
            f"target must be {basis.n_costs} finite numbers, got {b_target!r}"
        )
    return b_target


def _phi_array(phi):
    """The Phi array of a FeatureMatrix or of an array-like."""
    return phi.phi if isinstance(phi, FeatureMatrix) else np.asarray(phi)


def feature_expectation(mu, basis):
    """Feature expectation Psi^T mu as a flat vector of length n_costs."""
    return basis.psi.T @ _vector_of(mu)


def l1_feature_gap(fe_a, fe_b):
    """l1 distance of two feature expectations.

    Equals the supremum over the induced cost class of the expected-cost
    difference (see brute_force_sup_gap for the enumeration oracle).
    """
    return float(np.abs(_vector_of(fe_a) - _vector_of(fe_b)).sum())


_MAX_BRUTE_FORCE_COSTS = 20


def brute_force_sup_gap(fe_a, fe_b):
    """Worst-case cost gap by enumerating all sup-norm-ball sign vertices.

    The supremum over {sum_i w_i psi_i : ||w||_inf <= 1} of the expected
    cost difference is attained at a vertex w in {-1, +1}^n_c, so checking
    all 2^n_c of them is exact.  Raises ValueError for n_c > 20.
    """
    gap = _vector_of(fe_a) - _vector_of(fe_b)
    n = gap.size
    if n > _MAX_BRUTE_FORCE_COSTS:
        raise ValueError(f"refusing brute force over 2^{n} sign vectors")
    best = -np.inf
    total = 1 << n
    chunk = 1 << min(n, 16)
    bits = np.arange(n)
    for start in range(0, total, chunk):
        rows = np.arange(start, min(start + chunk, total))[:, None]
        signs = ((rows >> bits) & 1) * 2.0 - 1.0
        best = max(best, float((signs @ gap).max()))
    return best


def build_feature_matrix(mdp, d, seed, beta=1.0e-3):
    """Feature matrix from d random stationary policies.

    Column i is (1 - beta) * mu_i + beta * uniform, where mu_i is the
    occupancy measure of a flat-Dirichlet random policy and the uniform
    vector carries total mass 1/(1 - g).  Both parts have that exact mass,
    so every column sum -- hence the induced 1-norm -- equals 1/(1 - g),
    and the beta mixing keeps all entries strictly positive.  beta = 0 is
    allowed as a diagnostic variant whose columns are exact occupancy
    measures; it forfeits the strict-positivity guarantee.
    """
    if d < 1:
        raise ValueError(f"need d >= 1 feature columns, got {d}")
    if not (0.0 <= beta < 1.0):
        raise ValueError(f"beta {beta} outside [0, 1)")
    rng = np.random.default_rng(seed)
    mass = 1.0 / (1.0 - mdp.discount)
    uniform = np.full(mdp.n_pairs, mass / mdp.n_pairs)
    columns = []
    for _ in range(d):
        raw = rng.exponential(1.0, size=(mdp.n_states, mdp.n_actions))
        policy = Policy(raw / raw.sum(axis=1, keepdims=True))
        mu = occupancy_of_policy(mdp, policy).mass
        columns.append((1.0 - beta) * mu + beta * uniform)
    return FeatureMatrix(np.column_stack(columns), float(beta), seed)


def flow_feature_rows(phi, mdp):
    """Rows (B - g P)^T Phi, one per state: the flow image of the features."""
    phi = _phi_array(phi)
    summed = phi.reshape(mdp.n_states, mdp.n_actions, -1).sum(axis=1)
    return summed - mdp.discount * (mdp.transition.T @ phi)


def _floored(weights):
    n = weights.size
    total = weights.sum()
    q = np.full(n, 1.0 / n) if total <= 0.0 else weights / total
    q = np.maximum(q, 1.0e-12 / n)
    return q / q.sum()


def sampling_constants(phi, mdp, basis, lam):
    """Build q1, q2 and the constants (C1, C2, K) they induce.

    q1 draws each state-action pair proportionally to the l2 norm of its
    row of Phi, and q2 each state proportionally to the l2 norm of its flow
    row, which makes each worst ratio the sum of those norms, the least
    that any distribution gives.  Probabilities are floored at 1e-12 /
    support size and renormalized, so they stay strictly positive.
    """
    if lam < 0:
        raise ValueError(f"penalty weight must be >= 0, got {lam}")
    phi_arr = _phi_array(phi)
    row_norms = np.linalg.norm(phi_arr, axis=1)
    flow_norms = np.linalg.norm(flow_feature_rows(phi_arr, mdp), axis=1)
    q1 = _floored(row_norms)
    q2 = _floored(flow_norms)
    c1 = float((row_norms / q1).max())
    c2 = float((flow_norms / q2).max())
    spectral = float(np.linalg.norm(phi_arr, ord=2))
    psi_col_norms = float(np.linalg.norm(basis.psi, axis=0).sum())
    k = spectral * psi_col_norms + lam * (c1 + c2)
    return SamplingConstants(q1, q2, c1, c2, k, float(lam))


# ---------------------------------------------------------------------------
# serialization (column-major layouts, see README)


def _basis_to_json(basis):
    psi = basis.psi
    return {
        "rows": psi.shape[0],
        "cols": psi.shape[1],
        "data_colmajor": psi.ravel(order="F").tolist(),
    }


def _basis_from_json(blob):
    rows, cols = int(blob["rows"]), int(blob["cols"])
    psi = np.array(blob["data_colmajor"], dtype=float).reshape(
        (rows, cols), order="F"
    )
    return CostBasis(psi)


def save_basis(path, basis):
    with open(path, "w") as fh:
        json.dump(_basis_to_json(basis), fh)


def load_basis(path):
    with open(path) as fh:
        return _basis_from_json(json.load(fh))


def _features_to_json(features):
    phi = features.phi
    return {
        "rows": phi.shape[0],
        "cols": phi.shape[1],
        "beta": features.beta,
        "seed": features.seed,
        "data_colmajor": phi.ravel(order="F").tolist(),
    }


def _features_from_json(blob):
    rows, cols = int(blob["rows"]), int(blob["cols"])
    phi = np.array(blob["data_colmajor"], dtype=float).reshape(
        (rows, cols), order="F"
    )
    seed = blob.get("seed")
    return FeatureMatrix(phi, float(blob["beta"]), seed)


def save_features(path, features):
    with open(path, "w") as fh:
        json.dump(_features_to_json(features), fh)


def load_features(path):
    with open(path) as fh:
        return _features_from_json(json.load(fh))
