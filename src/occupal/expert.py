"""Expert demonstrations and the truncated feature-expectation estimator.

Trajectories are rolled out to a finite horizon H and the estimator
averages the discounted feature sums; the truncation bias is at most
g^H / (1 - g) per coordinate, and the default horizon pushes that below
1e-9.  Sample-size requirements come from Hoeffding's inequality applied
per coordinate.
"""

from __future__ import annotations

import math
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
]


@dataclass(frozen=True)
class EmpiricalFeatureExpectation:
    """Monte Carlo estimate of the expert's discounted feature expectation."""

    values: np.ndarray
    m: int
    horizon: int
    truncation_bound: float


_HORIZON_TAIL = 1.0e-9


def default_horizon(gamma):
    """Smallest H with series tail g^H / (1 - g) <= 1e-9."""
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"discount {gamma} outside (0, 1)")
    return max(1, math.ceil(math.log(_HORIZON_TAIL * (1.0 - gamma)) / math.log(gamma)))


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


def _support_table(cumulative):
    """The columns at which each cumulative row rises above all before it.

    Returns (values, columns), each of shape (width, n_rows): slot j of a
    row holds its j-th rising column and that column's cumulative weight,
    and rows with fewer rising columns are padded with weight 2.  The first
    column whose weight exceeds a draw u in [0, 1) exceeds every column
    before it, so it is the first rising column above u, and its slot is
    the number of rising weights <= u.  The last column is pinned at 1.0,
    so every row's last rising weight is >= 1 and that slot always exists.
    fmax skips NaN weights, which never exceed a draw.
    """
    before = np.zeros_like(cumulative)
    before[:, 1:] = cumulative[:, :-1]
    np.fmax.accumulate(before, axis=1, out=before)
    rows, cols = np.nonzero(cumulative > before)
    counts = np.bincount(rows, minlength=len(cumulative))
    slots = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    values = np.full((int(counts.max()), len(cumulative)), 2.0)
    columns = np.zeros(values.shape, dtype=np.int64)
    values[slots, rows] = cumulative[rows, cols]
    columns[slots, rows] = cols
    return values, columns


def _draw(table, rows, draws):
    """First column of each given row whose cumulative weight exceeds its draw."""
    values, columns = table
    slots = np.zeros(len(rows), dtype=np.int64)
    for level in values[:-1]:  # the last slot is never <= a draw
        slots += level.take(rows) <= draws
    return columns.ravel().take(slots * columns.shape[1] + rows)


def sample_trajectories(mdp, policy, m, horizon, seed):
    """Roll out m independent trajectories of fixed length `horizon`.

    Returns an int array of shape (m, horizon, 2) holding (state, action).
    Rollout k reads row k of one stream, default_rng(seed).random((m, 2H +
    1)): its start state from draw 0, step t's action and next state from
    draws 1 + 2t and 2 + 2t.  The first k rows do not depend on m, and a
    PCG64 generator advanced by k (2H + 1) draws yields rows k onwards, so
    the batch can be generated in parallel chunks without changing the
    result.  All rollouts step together.  A step draws the first action
    (next state) whose cumulative probability exceeds its uniform draw,
    searching only the support table of each policy (transition) row: the
    columns where the row's cumulative weight rises, one per greedy policy
    row and at most four per gridworld transition row.
    """
    if m < 1 or horizon < 1:
        raise ValueError(f"need m >= 1 and horizon >= 1, got ({m}, {horizon})")
    probs = np.asarray(policy.probs)
    if probs.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(
            f"policy shape {probs.shape} != ({mdp.n_states}, {mdp.n_actions})"
        )
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        raise ValueError("policy probabilities must be finite and nonnegative")
    # uniforms[j], a view with no copy, is draw j of every rollout.
    uniforms = np.random.default_rng(seed).random((m, 2 * horizon + 1)).T

    cum_init = np.cumsum(mdp.initial_dist)
    cum_init[-1] = 1.0
    cum_policy = np.cumsum(probs, axis=1)
    cum_policy[:, -1] = 1.0
    cum_trans = np.cumsum(mdp.transition, axis=1)
    cum_trans[:, -1] = 1.0
    policy_table = _support_table(cum_policy)
    trans_table = _support_table(cum_trans)

    out = np.empty((m, horizon, 2), dtype=np.int64)
    states = np.searchsorted(cum_init, uniforms[0], side="right")
    states = np.minimum(states, mdp.n_states - 1)
    for t in range(horizon):
        actions = _draw(policy_table, states, uniforms[1 + 2 * t])
        out[:, t, 0] = states
        out[:, t, 1] = actions
        pair_rows = states * mdp.n_actions + actions
        states = _draw(trans_table, pair_rows, uniforms[2 + 2 * t])
    return out


def empirical_feature_expectation(trajectories, basis, discount, n_actions):
    """Average discounted feature sum over a batch of trajectories.

    `trajectories` is the (m, H, 2) array from sample_trajectories (or a
    list of equal-length trajectories).  Entries of the estimate never
    exceed (1 - g^H) / (1 - g) in magnitude for a sup-norm-bounded basis.
    Raises ValueError for an empty batch (m = 0), an action outside
    [0, n_actions), a negative state, or a pair index s * n_actions + a
    past the basis's rows.
    """
    batch = np.asarray(trajectories, dtype=np.int64)
    if batch.ndim != 3 or batch.shape[2] != 2:
        raise ValueError(f"expected shape (m, H, 2), got {batch.shape}")
    m, horizon = batch.shape[0], batch.shape[1]
    if m == 0:
        raise ValueError("an estimate needs at least one trajectory, got m = 0")
    n_rows = basis.psi.shape[0]
    if batch.size:
        # Read as unsigned, a negative index is huge: one max checks both ends.
        unsigned = batch.view(np.uint64)
        if unsigned[:, :, 1].max() >= n_actions:
            raise ValueError(f"trajectory holds an action outside [0, {n_actions})")
        if unsigned[:, :, 0].max() >= n_rows:
            raise ValueError(f"trajectory holds a negative state or one >= {n_rows} basis rows")
    flat = batch[:, :, 0] * n_actions + batch[:, :, 1]
    if batch.size and flat.max() >= n_rows:
        raise ValueError(f"trajectory pair index {flat.max()} >= {n_rows} basis rows")
    # Each pair's discounted visits, then one product with psi: the
    # temporaries grow with m * H, not m * H * n_costs.
    weights = np.broadcast_to(discount ** np.arange(horizon), flat.shape)
    counts = np.bincount(flat.ravel(), weights.ravel(), minlength=n_rows)
    values = basis.psi.T @ counts / m
    tail = discount**horizon / (1.0 - discount)
    return EmpiricalFeatureExpectation(values, int(m), int(horizon), float(tail))


# ---------------------------------------------------------------------------
# persistence: one trajectory per line, space-separated "state:action" tokens

# The loader reads each byte of a block of rows as its class.  A digit's
# class is its value, so classes below _COLON are digits; inside a stripped
# row, a byte that is not a digit, a colon, a space or a tab is _OTHER.
_COLON, _BLANK, _EOL, _OTHER = range(10, 14)
_CLASS_OF = {
    **{ord(str(value)): value for value in range(10)},
    **dict.fromkeys(b" \t", _BLANK),
    ord("\n"): _EOL,
    ord(":"): _COLON,
}
_BYTE_CLASSES = bytes(_CLASS_OF.get(byte, _OTHER) for byte in range(256))
_COMMENT = ord("#")
# The temporaries of a block take about 25 bytes per byte of the block, so
# each stays under 128 KB.  On a 4.4 MB file, 32 KB and 64 KB blocks were
# 10% faster but raised the process's peak resident set by 2-3 MB, and so
# does the first call of np.unique (1.5 MB), which the loader avoids.
_BLOCK_BYTES = 1 << 14
# At most eighteen digits per index, so that every index fits an int64.
_MAX_DIGITS = 18


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

    The file's rows are its lines (split at \\n, \\r or \\r\\n) with the
    whitespace at their ends stripped; empty rows and rows starting with `#`
    are skipped.  Every other row must hold nonnegative decimal
    `state:action` tokens (at most 18 digits each) separated by spaces or
    tabs, and all rows the same number of tokens.  Raises ValueError for a
    file with no row, a malformed row, reported by its number among the
    kept rows, or rows of different lengths.

    The rows are checked and parsed in numpy, in blocks of whole rows of
    about 16 KB, so that the temporary arrays stay small next to the result.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    rows = [row for row in map(bytes.strip, text.splitlines()) if row and row[0] != _COMMENT]
    if not rows:
        raise ValueError(f"no trajectories in {path}")
    # Each token holds one colon, so twice the colons bound the indices.
    values = np.empty(2 * text.count(b":"), dtype=np.int64)
    n_values = 0
    lengths = set()
    # A block holds the rows that end in the same _BLOCK_BYTES of the rows
    # joined by b"\n": whole rows, and about that many bytes.
    ends = np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)) + 1)
    bounds = [0, *(np.flatnonzero(np.diff(ends // _BLOCK_BYTES)) + 1).tolist(), len(rows)]
    for first, last in zip(bounds[:-1], bounds[1:]):
        numbers, tokens = _parse_block(rows[first:last], first, path)
        values[n_values : n_values + numbers.size] = numbers
        n_values += numbers.size
        lengths.update(tokens.tolist())
    # Checked after every block, so that a malformed row is reported first.
    if len(lengths) != 1:
        raise ValueError(f"mixed trajectory lengths {sorted(lengths)} in {path}")
    return values[:n_values].reshape(len(rows), -1, 2)


def _parse_block(rows, rows_before, path):
    """Check and parse a block of stripped, nonempty rows.

    The block is the rows joined by b"\\n", with one more before the first
    and after the last.  A row is valid if it holds only digits, colons and
    blanks; every colon sits between two digits; every digit run has at
    most 18 digits; and the bytes after the digit runs alternate colon, not
    colon.  That is the grammar `D:D([ \\t]+D:D)*` with D = [0-9]{1,18}.
    Valid rows hold an even number of runs, so the alternation restarts at
    each row after them and the first row that breaks a rule is the first
    malformed row.  Returns the block's indices and each row's number of
    tokens.
    """
    text = b"\n".join([b"", *rows, b""])
    block = np.frombuffer(text.translate(_BYTE_CLASSES), dtype=np.uint8)
    eols = np.flatnonzero(block == _EOL)
    edges = np.flatnonzero(np.diff(block < _COLON))
    edges += 1
    starts, stops = edges[0::2], edges[1::2]
    widths = stops - starts
    pairs = block[stops] == _COLON
    pairs[1::2] ^= True
    colons = np.flatnonzero(block == _COLON)
    bad = np.concatenate(
        [
            np.flatnonzero(block == _OTHER),
            starts[(widths > _MAX_DIGITS) | ~pairs],
            colons[(block[colons - 1] >= _COLON) | (block[colons + 1] >= _COLON)],
        ]
    )
    if bad.size:
        row = np.searchsorted(eols, bad.min()) - 1
        raise ValueError(
            f"malformed trajectory {rows_before + row + 1} in {path}: {rows[row][:60]!r}"
        )

    numbers = block[starts].astype(np.int64)
    for k in range(1, int(widths.max(initial=0))):
        longer = np.flatnonzero(widths > k)
        numbers[longer] = numbers[longer] * 10 + block[starts[longer] + k]
    return numbers, np.diff(np.searchsorted(colons, eols))


def estimator_to_json(est):
    return {
        "values": est.values.tolist(),
        "m": est.m,
        "horizon": est.horizon,
        "truncation_bound": est.truncation_bound,
    }

