"""Expert demonstrations and the truncated feature-expectation estimator.

Trajectories are rolled out to a finite horizon H and the estimator
averages the discounted feature sums; the truncation bias is at most
g^H / (1 - g) per coordinate, and the default horizon pushes that below
1e-9.  Sample-size requirements come from Hoeffding's inequality applied
per coordinate.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmpiricalFeatureExpectation",
    "default_horizon",
    "hoeffding_sample_size",
    "sample_trajectories",
    "empirical_feature_expectation",
    "save_trajectories",
    "load_trajectories",
    "estimator_to_json",
    "estimator_from_json",
    "save_estimator",
    "load_estimator",
]


@dataclass(frozen=True)
class EmpiricalFeatureExpectation:
    """Monte Carlo estimate of the expert's discounted feature expectation."""

    values: np.ndarray
    m: int
    horizon: int
    truncation_bound: float


def default_horizon(gamma, tail=1.0e-9):
    """Smallest H with series tail g^H / (1 - g) <= `tail`."""
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"discount {gamma} outside (0, 1)")
    return max(1, math.ceil(math.log(tail * (1.0 - gamma)) / math.log(gamma)))


def hoeffding_sample_size(n_costs, gamma, epsilon, delta):
    """Trajectories needed for the per-coordinate estimator guarantee.

    ceil(32 n_c^2 log(4 n_c / delta) / ((1 - g) eps^2)); with this many
    rollouts, a two-sided Hoeffding bound on the range 1/(1 - g) keeps
    each coordinate within eps / (8 n_c sqrt(1 - g)) of its mean except
    with probability delta / (2 n_c).
    """
    if n_costs < 1:
        raise ValueError(f"need n_costs >= 1, got {n_costs}")
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"discount {gamma} outside (0, 1)")
    if not (0.0 < epsilon < 1.0) or not (0.0 < delta < 1.0):
        raise ValueError(f"bad accuracy pair ({epsilon}, {delta})")
    return math.ceil(
        32.0 * n_costs**2 * math.log(4.0 * n_costs / delta)
        / ((1.0 - gamma) * epsilon**2)
    )


def _inverse_cdf_rows(cumulative, row_indices, draws):
    # First column whose cumulative weight exceeds the draw; the last
    # column is pinned at 1.0 upstream so a hit always exists.
    return (cumulative[row_indices] > draws[:, None]).argmax(axis=1)


def sample_trajectories(mdp, policy, m, horizon, seed):
    """Roll out m independent trajectories of fixed length `horizon`.

    Returns an int array of shape (m, horizon, 2) holding (state, action).
    Each rollout consumes its own RNG stream spawned from (seed, rollout
    index), so the batch can be generated in parallel chunks without
    changing the result; the stepping itself is vectorized across rollouts.
    """
    if m < 1 or horizon < 1:
        raise ValueError(f"need m >= 1 and horizon >= 1, got ({m}, {horizon})")
    streams = np.random.SeedSequence(seed).spawn(m)
    uniforms = np.empty((m, 2 * horizon + 1))
    for k, ss in enumerate(streams):
        uniforms[k] = np.random.default_rng(ss).random(2 * horizon + 1)

    cum_init = np.cumsum(mdp.initial_dist)
    cum_init[-1] = 1.0
    cum_policy = np.cumsum(policy.probs, axis=1)
    cum_policy[:, -1] = 1.0
    cum_trans = np.cumsum(mdp.transition, axis=1)
    cum_trans[:, -1] = 1.0

    out = np.empty((m, horizon, 2), dtype=np.int64)
    states = np.searchsorted(cum_init, uniforms[:, 0], side="right")
    states = np.minimum(states, mdp.n_states - 1)
    for t in range(horizon):
        actions = _inverse_cdf_rows(cum_policy, states, uniforms[:, 1 + 2 * t])
        out[:, t, 0] = states
        out[:, t, 1] = actions
        pair_rows = states * mdp.n_actions + actions
        states = _inverse_cdf_rows(cum_trans, pair_rows, uniforms[:, 2 + 2 * t])
    return out


def empirical_feature_expectation(trajectories, basis, discount, n_actions):
    """Average discounted feature sum over a batch of trajectories.

    `trajectories` is the (m, H, 2) array from sample_trajectories (or a
    list of equal-length trajectories).  Entries of the estimate never
    exceed (1 - g^H) / (1 - g) in magnitude for a sup-norm-bounded basis.
    """
    batch = np.asarray(trajectories, dtype=np.int64)
    if batch.ndim != 3 or batch.shape[2] != 2:
        raise ValueError(f"expected shape (m, H, 2), got {batch.shape}")
    m, horizon = batch.shape[0], batch.shape[1]
    flat = batch[:, :, 0] * n_actions + batch[:, :, 1]
    weights = discount ** np.arange(horizon)
    values = np.einsum("mhc,h->c", basis.psi[flat], weights) / m
    tail = discount**horizon / (1.0 - discount)
    return EmpiricalFeatureExpectation(values, int(m), int(horizon), float(tail))


# ---------------------------------------------------------------------------
# persistence: one trajectory per line, space-separated "state:action" tokens

# One trajectory line.  Eighteen digits at most, so that every index fits an
# int64: np.fromstring saturates an overflowing integer instead of failing.
_TRAJECTORY_LINE = re.compile(rb"\d{1,18}:\d{1,18}(?:[ \t]+\d{1,18}:\d{1,18})*")


def save_trajectories(path, trajectories, header=None):
    """Write a batch of trajectories as text, one rollout per line.

    Each line holds the rollout's steps as `state:action` tokens in
    nonnegative decimal, separated by single spaces.  A `header` becomes a
    first line `# header`.  The batch is the (m, H, 2) array from
    sample_trajectories (or a list of equal-length trajectories).
    """
    batch = np.asarray(trajectories, dtype=np.int64)
    if batch.ndim != 3 or batch.shape[2] != 2:
        raise ValueError(f"expected shape (m, H, 2), got {batch.shape}")
    if batch.size and batch.min() < 0:
        raise ValueError("trajectory indices must be nonnegative")
    # Format each (state, action) pair that occurs once, then gather the
    # tokens by pair index; only the per-row join runs in Python.  The table
    # has at most n_states * n_actions entries, as many as a basis has rows.
    n_actions = int(batch[:, :, 1].max(initial=0)) + 1
    pairs = batch[:, :, 0] * n_actions + batch[:, :, 1]
    tokens = np.empty(int(pairs.max(initial=-1)) + 1, dtype=object)
    for k in np.flatnonzero(np.bincount(pairs.ravel())).tolist():
        tokens[k] = f"{k // n_actions}:{k % n_actions}"
    body = "".join(" ".join(row) + "\n" for row in tokens[pairs].tolist())
    with open(path, "w") as fh:
        if header is not None:
            fh.write(f"# {header}\n")
        fh.write(body)


def load_trajectories(path):
    """Read a file written by save_trajectories into an (m, H, 2) int64 array.

    Accepted: lines of nonnegative decimal `state:action` tokens (at most 18
    digits each) separated by spaces or tabs, all lines with the same number
    of tokens; blank lines and lines starting with `#` are skipped, and
    leading or trailing whitespace and `\\r\\n` line ends are ignored.
    Raises ValueError for a file with no trajectory, a malformed token or
    lines of different lengths.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    rows = [
        line
        for line in map(bytes.strip, text.splitlines())
        if line and not line.startswith(b"#")
    ]
    if not rows:
        raise ValueError(f"no trajectories in {path}")
    for number, line in enumerate(rows, 1):
        if _TRAJECTORY_LINE.fullmatch(line) is None:
            raise ValueError(
                f"malformed trajectory {number} in {path}: {line[:60]!r}"
            )
    lengths = {line.count(b":") for line in rows}
    if len(lengths) != 1:
        raise ValueError(f"mixed trajectory lengths {sorted(lengths)} in {path}")
    values = np.fromstring(
        b" ".join(rows).replace(b":", b" "), dtype=np.int64, sep=" "
    )
    return values.reshape(len(rows), -1, 2)


def estimator_to_json(est):
    return {
        "values": est.values.tolist(),
        "m": est.m,
        "horizon": est.horizon,
        "truncation_bound": est.truncation_bound,
    }


def estimator_from_json(blob):
    return EmpiricalFeatureExpectation(
        np.array(blob["values"], dtype=float),
        int(blob["m"]),
        int(blob["horizon"]),
        float(blob["truncation_bound"]),
    )


def save_estimator(path, est):
    with open(path, "w") as fh:
        json.dump(estimator_to_json(est), fh)


def load_estimator(path):
    with open(path) as fh:
        return estimator_from_json(json.load(fh))
