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


# numpy's SeedSequence (pool of four 32-bit words) and PCG64 constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# Draws per block of _pcg64_doubles, rows times streams: 128 KB per array.
# For 5,000 streams of 439 draws, 2^13 and 2^15 were 20-30% slower.
_BLOCK_DRAWS = 1 << 14


def _spawned_uniforms(seed, m, n):
    """Draws 0..n-1 of every child stream of SeedSequence(seed).spawn(m).

    Returns an (n, m) float64 array whose column k equals
    default_rng(SeedSequence(seed).spawn(m)[k]).random(n) bit for bit.  A
    child's entropy is the run entropy padded to four words, then its
    spawn key k.  With at most four words of run entropy the pool mixes
    to the parent's pool first, so only the mixing of k and the child's
    generate_state vary with k; they and the PCG64 streams run on arrays
    over all m children.  Other seeds (sequences, None, integers >= 2^128)
    and m >= 2^32 build the m generators one by one.
    """
    root = np.random.SeedSequence(seed)
    if not (isinstance(seed, (int, np.integer)) and int(seed) < 1 << 128 and m < 1 << 32):
        out = np.empty((n, m))
        for k, child in enumerate(root.spawn(m)):
            out[:, k] = np.random.default_rng(child).random(n)
        return out

    u32 = np.uint32
    keys = np.arange(m, dtype=u32)
    # hashmix(k) into each pool word, after the 16 hashmix calls of the
    # parent's pool: mix(pool[j], hashmix(k)) with the hash constant below.
    pool = []
    for j, word in enumerate(root.pool.tolist()):
        const = _INIT_A * pow(_MULT_A, 16 + j, 1 << 32) & _MASK32
        hashed = (keys ^ u32(const)) * u32(const * _MULT_A & _MASK32)
        hashed ^= hashed >> u32(16)
        mixed = u32(_MIX_L * word & _MASK32) - u32(_MIX_R) * hashed
        mixed ^= mixed >> u32(16)
        pool.append(mixed)
    # generate_state(4, uint64): eight words, pool cycled, little-endian pairs.
    words = []
    for i in range(8):
        const = _INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32
        word = (pool[i % 4] ^ u32(const)) * u32(const * _MULT_B & _MASK32)
        word ^= word >> u32(16)
        words.append(word.astype(np.uint64))
    shift = np.uint64(32)
    init_hi, init_lo, seq_hi, seq_lo = (
        words[2 * i] | words[2 * i + 1] << shift for i in range(4)
    )
    return _pcg64_doubles(init_hi, init_lo, seq_hi, seq_lo, n)


def _pcg64_doubles(init_hi, init_lo, seq_hi, seq_lo, n):
    """PCG64 (XSL-RR) random() draws of streams seeded with (initstate, initseq).

    Each argument holds the high or low 64 bits of one 128-bit word per
    stream.  As numpy does, the increment is 2 initseq + 1, the state
    step(step(0) + initstate), and each draw steps the state and outputs
    it.  Step j of a state s is M^j s + (M^(j-1) + ... + 1) inc, so a block
    of draws comes from the state before it in one array pass.
    """
    u64 = np.uint64
    m = init_hi.size
    # Made before the temporaries: made after them, it raised the peak
    # resident set of a benchmark run by 0.5-1.0 MB.
    out = np.empty((n, m))
    inc = (seq_hi << u64(1) | seq_lo >> u64(63), seq_lo << u64(1) | u64(1))
    lo = inc[1] + init_lo
    state = _mul_add((inc[0] + init_hi + (lo < init_lo), lo), _u128(_PCG_MULT), inc)

    rows = max(1, min(n, _BLOCK_DRAWS // m))
    powers, sums = [1], [0]
    for _ in range(rows):
        powers.append(powers[-1] * _PCG_MULT & _MASK128)
        sums.append((sums[-1] * _PCG_MULT + 1) & _MASK128)
    shifts = _mul_add(inc, _u128(sums[1:]), (u64(0), u64(0)))
    block = _mul_add(state, _u128(powers[1:]), shifts)
    jump, jump_shift = _u128(powers[-1]), (shifts[0][-1], shifts[1][-1])

    c11, c58, c63 = u64(11), u64(58), u64(63)
    for start in range(0, n, rows):
        if start:
            block = _mul_add(block, jump, jump_shift)
        hi, lo = block[0][: n - start], block[1][: n - start]
        rot = hi >> c58
        x = hi ^ lo
        x = x >> rot | x << (-rot & c63)
        np.multiply(x >> c11, 2.0**-53, out=out[start : start + rows])
    return out


def _u128(value):
    """The (high, low) uint64 halves of a Python int, or of a list of them
    as columns."""
    if isinstance(value, int):
        return np.uint64(value >> 64), np.uint64(value & _MASK64)
    hi = np.array([v >> 64 for v in value], dtype=np.uint64)
    lo = np.array([v & _MASK64 for v in value], dtype=np.uint64)
    return hi[:, None], lo[:, None]


def _mul_add(x, mult, add):
    """x * mult + add mod 2^128, each a (high, low) pair of uint64 halves.

    The high half of x's low half times mult's low half is summed from
    32-bit partial products.
    """
    (hi, lo), (mult_hi, mult_lo), (add_hi, add_lo) = x, mult, add
    c32, mask32 = np.uint64(32), np.uint64(_MASK32)
    part_hi, part_lo = mult_lo >> c32, mult_lo & mask32
    a_hi, a_lo = lo >> c32, lo & mask32
    low = a_lo * part_lo
    mid = a_hi * part_lo
    mid += low >> c32
    cross = a_lo * part_hi
    cross += mid & mask32
    new_hi = a_hi * part_hi
    new_hi += mid >> c32
    new_hi += cross >> c32
    new_hi += hi * mult_lo
    new_hi += lo * mult_hi
    new_hi += add_hi
    new_lo = lo * mult_lo
    new_lo += add_lo
    new_hi += new_lo < add_lo
    return new_hi, new_lo


def sample_trajectories(mdp, policy, m, horizon, seed):
    """Roll out m independent trajectories of fixed length `horizon`.

    Returns an int array of shape (m, horizon, 2) holding (state, action).
    Each rollout consumes its own RNG stream spawned from (seed, rollout
    index), so the batch can be generated in parallel chunks without
    changing the result; the stepping itself is vectorized across rollouts.
    The m streams are computed together on arrays (_spawned_uniforms).
    A step draws the first action (next state) whose cumulative probability
    exceeds a uniform draw, searching only the support table of each
    policy (transition) row: the columns where the row's cumulative weight
    rises, one per greedy policy row and at most four per gridworld
    transition row.
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
    uniforms = _spawned_uniforms(seed, m, 2 * horizon + 1)

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
    weights = discount ** np.arange(horizon)
    # take gathers the same rows as psi[flat], about twice as fast.
    values = np.einsum("mhc,h->c", basis.psi.take(flat, axis=0), weights) / m
    tail = discount**horizon / (1.0 - discount)
    return EmpiricalFeatureExpectation(values, int(m), int(horizon), float(tail))


# ---------------------------------------------------------------------------
# persistence: one trajectory per line, space-separated "state:action" tokens

# The loader reads a file in blocks of whole lines and classifies its bytes.
# Class order matters: every class above _EOL needs the slower edge and
# comment pass.  \v and \f are whitespace that bytes.strip removes at a
# line's ends but that may not separate tokens.
_DIGIT, _COLON, _BLANK, _EOL, _EDGE, _HASH, _OTHER = range(7)
_CLASS_OF = {
    **dict.fromkeys(b"0123456789", _DIGIT),
    **dict.fromkeys(b" \t", _BLANK),
    **dict.fromkeys(b"\n\r", _EOL),
    **dict.fromkeys(b"\v\f", _EDGE),
    ord(":"): _COLON,
    ord("#"): _HASH,
}
_BYTE_CLASSES = bytes(_CLASS_OF.get(byte, _OTHER) for byte in range(256))
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

    Accepted: lines of nonnegative decimal `state:action` tokens (at most 18
    digits each) separated by spaces or tabs, all lines with the same number
    of tokens; blank lines and lines starting with `#` are skipped, and
    leading or trailing whitespace and `\\r\\n` line ends are ignored.
    Raises ValueError for a file with no trajectory, a malformed token or
    lines of different lengths; a malformed token is reported with the
    number of its trajectory line (comments and blank lines not counted).

    The file is checked and parsed in numpy, in blocks of whole lines of
    about 16 KB, so that the temporary arrays stay small next to the result.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    raw = np.frombuffer(text, dtype=np.uint8)
    classes = np.frombuffer(text.translate(_BYTE_CLASSES), dtype=np.uint8)
    # Ends of line, with one before the first byte and one after the last,
    # so that every line, the last included, lies between two.
    ends = np.concatenate([[-1], np.flatnonzero(classes == _EOL), [raw.size]])

    # Each token holds one colon, so twice the colons bound the indices.
    values = np.empty(2 * text.count(b":"), dtype=np.int64)
    n_values = n_rows = 0
    lengths = set()
    # Each block ends at the first end of line past a multiple of
    # _BLOCK_BYTES, so it holds whole lines and about that many bytes.
    marks = np.arange(_BLOCK_BYTES, raw.size, _BLOCK_BYTES)
    bounds = sorted({0, *np.searchsorted(ends, marks).tolist(), ends.size - 1})
    for first, last in zip(bounds[:-1], bounds[1:]):
        lo, hi = ends[first], ends[last]
        block = np.empty(hi - lo + 1, dtype=np.uint8)
        block[0] = block[-1] = _EOL
        block[1:-1] = classes[lo + 1 : hi]
        numbers, tokens = _parse_block(raw, lo, block, ends[first : last + 1] - lo, n_rows, path)
        values[n_values : n_values + numbers.size] = numbers
        n_values += numbers.size
        n_rows += tokens.size
        lengths.update(tokens.tolist())
    if n_rows == 0:
        raise ValueError(f"no trajectories in {path}")
    if len(lengths) != 1:
        raise ValueError(f"mixed trajectory lengths {sorted(lengths)} in {path}")
    return values[:n_values].reshape(n_rows, -1, 2)


def _parse_block(raw, offset, block, eols, rows_before, path):
    """Check and parse one block of lines.

    `block` holds the classes of raw[offset + 1 : offset + len(block) - 1]
    between two end-of-line marks, and `eols` the positions of its ends of
    line, those two included.  Once comments and edge whitespace are
    blanked, a line is valid if it holds only digits, colons and blanks;
    every colon sits between two digits; every digit run has at most 18
    digits; and the bytes after the digit runs alternate colon, not colon.
    That is the grammar `D:D([ \\t]+D:D)*` with D = [0-9]{1,18}.  Valid
    lines hold an even number of runs, so the alternation restarts at each
    line after them and the first line that breaks a rule is the first
    malformed line.  Returns the block's indices and its number of tokens
    per trajectory.
    """
    if block.max() > _EOL:
        _mark_edges_and_comments(raw, offset, block, eols)
    edges = np.flatnonzero(np.diff(block == _DIGIT))
    edges += 1
    starts, stops = edges[0::2], edges[1::2]
    widths = stops - starts
    pairs = block[stops] == _COLON
    pairs[1::2] ^= True
    colons = np.flatnonzero(block == _COLON)
    bad = np.concatenate(
        [
            np.flatnonzero(block > _EOL),
            starts[(widths > _MAX_DIGITS) | ~pairs],
            colons[(block[colons - 1] != _DIGIT) | (block[colons + 1] != _DIGIT)],
        ]
    )
    if bad.size:
        first = bad.min()
        line = np.searchsorted(eols, first)
        head = block[: eols[line - 1]]
        solid = np.flatnonzero((head != _BLANK) & (head != _EOL))
        number = rows_before + np.count_nonzero(np.bincount(np.searchsorted(eols, solid))) + 1
        text = raw[offset + eols[line - 1] + 1 : offset + eols[line]].tobytes().strip()
        raise ValueError(f"malformed trajectory {number} in {path}: {text[:60]!r}")

    numbers = raw[offset + starts].astype(np.int64)
    numbers -= 48
    for k in range(1, int(widths.max(initial=0))):
        longer = np.flatnonzero(widths > k)
        numbers[longer] = numbers[longer] * 10 + (raw[offset + starts[longer] + k] - 48)
    tokens = np.diff(np.searchsorted(colons, eols))
    return numbers, tokens[tokens > 0]


def _mark_edges_and_comments(raw, offset, block, eols):
    """Blank out comment lines and edge whitespace, in place.

    Only lines holding `#`, \\v or \\f need this.  bytes.strip decides
    what a line keeps: a comment line keeps a first byte `#`, and a \\v or
    \\f that it keeps is marked `other`.
    """
    marked = np.flatnonzero(block > _EOL)
    for line in np.flatnonzero(np.bincount(np.searchsorted(eols, marked))).tolist():
        lo, hi = eols[line - 1] + 1, eols[line]
        text = raw[offset + lo : offset + hi].tobytes()
        kept = text.strip()
        if kept.startswith(b"#"):
            block[lo:hi] = _BLANK
            continue
        head = lo + len(text) - len(text.lstrip())
        tail = head + len(kept)
        block[lo:head] = _BLANK
        block[tail:hi] = _BLANK
        inner = block[head:tail]
        inner[inner == _EDGE] = _OTHER


def estimator_to_json(est):
    return {
        "values": est.values.tolist(),
        "m": est.m,
        "horizon": est.horizon,
        "truncation_bound": est.truncation_bound,
    }

