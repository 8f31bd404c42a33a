"""Expert rollouts, the truncated Monte Carlo estimator, and sample sizing.

Frozen derived values:
  - sample bound at n_costs=1, discount 1/2, accuracy 1/2, confidence 1/2:
    ceil(32 * log(8) / (0.5 * 0.25)) = ceil(532.34...) = 533;
  - deterministic chain under always-stay at horizon 60, discount 1/2,
    against the (s0, stay) indicator: sum of 0.5^t for t < 60, which is
    2 - 2^-59 and rounds to 2.0 in double precision.
"""

import math
import re

import numpy as np
import pytest

from occupal import (
    CostBasis,
    Mdp,
    Policy,
    default_horizon,
    deterministic_policy,
    empirical_feature_expectation,
    hoeffding_sample_size,
    load_trajectories,
    make_chain,
    make_gridworld,
    make_random_mdp,
    region_indicator_basis,
    sample_trajectories,
    save_trajectories,
    state_action_indicator_basis,
    value_iteration,
)
from occupal import expert
from occupal.expert import _draw, _support_table

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


def _reference_sample(mdp, policy, m, horizon, seed):
    """The dense inverse-CDF sampler that sample_trajectories must match bit
    for bit: every step compares each draw with its whole cumulative row."""
    uniforms = np.random.default_rng(seed).random((m, 2 * horizon + 1))
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
        actions = (cum_policy[states] > uniforms[:, 1 + 2 * t, None]).argmax(axis=1)
        out[:, t, 0] = states
        out[:, t, 1] = actions
        pair_rows = states * mdp.n_actions + actions
        states = (cum_trans[pair_rows] > uniforms[:, 2 + 2 * t, None]).argmax(axis=1)
    return out


# Ten weights of 0.1 sum to 0.9999999999999999 in floating point, so a draw
# just below 1 falls past them onto the zero-mass last column, pinned at 1.
_SHORT_ROW = np.array([0.1] * 10 + [0.0])


def _pinned_column_mdp():
    transition = np.zeros((22, 2))
    transition[:, 0] = 0.5
    transition[:, 1] = 0.5
    transition[0] = [1.0, 0.0]  # (state 0, action 0) stays in state 0
    return Mdp(2, 11, transition, 0.9, np.array([0.5, 0.5]))


def _sampler_cases():
    small, cost = make_gridworld(4, 4, 0.9, 0.1)
    yield "4x4-expert", small, value_iteration(small, cost)[0], 500, 219
    large, _ = make_gridworld(12, 12, 0.9, 0.1)
    uniform = Policy(np.full((large.n_states, large.n_actions), 0.25))
    yield "12x12-uniform", large, uniform, 300, 120
    dense = make_random_mdp(30, 5, 0.9, seed=21)
    weights = np.random.default_rng(22).exponential(size=(30, 5))
    yield "dense-random", dense, Policy(weights / weights.sum(axis=1, keepdims=True)), 400, 60
    pinned = _pinned_column_mdp()
    yield "pinned-column", pinned, Policy(np.tile(_SHORT_ROW, (2, 1))), 400, 40


@pytest.mark.parametrize("case", list(_sampler_cases()), ids=lambda case: case[0])
def test_sampler_matches_dense_reference_bit_for_bit(case):
    _, mdp, policy, m, horizon = case
    for seed in (23, 24):
        expected = _reference_sample(mdp, policy, m, horizon, seed)
        assert np.array_equal(sample_trajectories(mdp, policy, m, horizon, seed), expected)


def test_prefix_and_advanced_chunk_reproduce_rows_of_the_full_batch():
    """The first k rollouts do not depend on m, and a generator advanced by
    k * (2H + 1) draws yields rollouts k onwards: a batch can be generated
    in chunks."""
    grid, cost = make_gridworld(4, 4, 0.9, 0.1)
    policy, horizon, seed = value_iteration(grid, cost)[0], 30, 27
    full = sample_trajectories(grid, policy, 120, horizon, seed)
    prefix = sample_trajectories(grid, policy, 45, horizon, seed)
    assert np.array_equal(prefix, full[:45])
    chunk_start, chunk_size = 45, 50
    bits = np.random.default_rng(seed).bit_generator
    bits.advance(chunk_start * (2 * horizon + 1))
    chunk = sample_trajectories(grid, policy, chunk_size, horizon, np.random.Generator(bits))
    assert np.array_equal(chunk, full[chunk_start : chunk_start + chunk_size])


def test_support_table_matches_dense_search_at_the_edges():
    """Draws on every cumulative weight, just below each, 0 and just below
    1, including those that land on the pinned zero-mass column."""
    rows = np.vstack([_SHORT_ROW, [0.0, 0.0, 0.5, 0.0, 0.5, 0, 0, 0, 0, 0, 0],
                      np.eye(11)[3], np.eye(11)[10], np.full(11, 1.0 / 11)])
    cumulative = np.cumsum(rows, axis=1)
    cumulative[:, -1] = 1.0
    draws = np.unique(np.concatenate(
        [cumulative.ravel(), np.nextafter(cumulative.ravel(), 0.0), [0.0]]))
    draws = draws[draws < 1.0]
    assert np.nextafter(1.0, 0.0) in draws and cumulative[0, -2] < 1.0
    table = _support_table(cumulative)
    for row in range(len(rows)):
        index = np.full(draws.size, row)
        expected = (cumulative[index] > draws[:, None]).argmax(axis=1)
        assert np.array_equal(_draw(table, index, draws), expected), row
    assert np.array_equal(_draw(table, np.zeros(1, dtype=np.int64),
                                np.array([np.nextafter(1.0, 0.0)])), [10])


def test_sampler_rejects_bad_policies():
    grid, _ = make_gridworld(4, 4, 0.9, 0.1)
    good = np.full((16, 4), 0.25)
    nan, negative = good.copy(), good.copy()
    nan[3, 1] = np.nan
    negative[5] = [1.5, -0.5, 0.0, 0.0]
    for probs in (np.full((3, 4), 0.25), np.full((16, 5), 0.2), nan, negative):
        with pytest.raises(ValueError):
            sample_trajectories(grid, Policy(probs), m=2, horizon=3, seed=0)


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


@pytest.mark.parametrize(
    "batch",
    [[[[0, 4], [1, 0]]], [[[-1, 0]]], [[[16, 0]]], [[[0, -1]]], [[[2**62, 0]]]],
    ids=["action-4", "state-minus-1", "state-16", "action-minus-1", "state-2^62"],
)
def test_estimator_rejects_indices_outside_the_mdp(batch):
    grid, _ = make_gridworld(4, 4, 0.9, 0.1)
    basis = state_action_indicator_basis(grid)
    with pytest.raises(ValueError):
        empirical_feature_expectation(batch, basis, 0.9, grid.n_actions)
    edge = empirical_feature_expectation([[[15, 3], [0, 0]]], basis, 0.9, 4)
    assert edge.values[63] == 1.0 and edge.values[0] == 0.9


def test_estimate_matches_fsum_within_summation_bound():
    """Each coordinate is within n u sum|terms| / m of the correctly rounded
    sum of its m * H terms g^h psi[pair, c], with u the unit roundoff."""
    grid, _ = make_gridworld(4, 4, 0.9, 0.1)
    uniform = Policy(np.full((16, 4), 0.25))
    batch = sample_trajectories(grid, uniform, m=300, horizon=50, seed=13)
    flat = batch[:, :, 0] * 4 + batch[:, :, 1]
    weights = 0.9 ** np.arange(50)
    dense = CostBasis(np.random.default_rng(14).uniform(-1.0, 1.0, (64, 5)))
    for basis in (dense, region_indicator_basis(grid, 4)):
        est = empirical_feature_expectation(batch, basis, 0.9, 4)
        terms = weights * basis.psi[flat].transpose(2, 0, 1)  # (c, m, H)
        n = flat.size + basis.psi.shape[0]
        for c, column in enumerate(terms):
            exact = math.fsum(column.ravel().tolist()) / 300
            bound = n * 2.0**-53 * np.abs(column).sum() / 300
            assert abs(est.values[c] - exact) <= bound, c


def test_estimator_rejects_an_empty_batch():
    grid, _ = make_gridworld(4, 4, 0.9, 0.1)
    basis = state_action_indicator_basis(grid)
    for horizon in (0, 219):
        with pytest.raises(ValueError, match="m = 0"):
            empirical_feature_expectation(
                np.zeros((0, horizon, 2), dtype=np.int64), basis, 0.9, grid.n_actions
            )


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


# The regex loader that load_trajectories must match in what it accepts,
# what it returns and what it reports.
_REFERENCE_LINE = re.compile(rb"\d{1,18}:\d{1,18}(?:[ \t]+\d{1,18}:\d{1,18})*")


def _reference_load(path):
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
        if _REFERENCE_LINE.fullmatch(line) is None:
            raise ValueError(f"malformed trajectory {number} in {path}: {line[:60]!r}")
    lengths = {line.count(b":") for line in rows}
    if len(lengths) != 1:
        raise ValueError(f"mixed trajectory lengths {sorted(lengths)} in {path}")
    numbers = [int(n) for line in rows for n in re.findall(rb"\d+", line)]
    return np.array(numbers, dtype=np.int64).reshape(len(rows), -1, 2)


_NOISE = [b"0", b"7", b"12", b"00", b":", b" ", b"\t", b"\n", b"\r", b"\r\n", b"#",
          b"\v", b"\f", b"x", b"-", b"\x00", b"\xff", b"3:4"]


def _fuzz_file(rng):
    """Byte soup, or lines of tokens with stray bytes, odd whitespace, long
    numbers, comments and mixed line ends; one file in eight holds hundreds
    of lines and may hold one bad line somewhere in it."""
    pick = lambda options: options[int(rng.integers(len(options)))]  # noqa: E731
    kind = int(rng.integers(8))
    if kind == 0:
        return b"".join(pick(_NOISE) for _ in range(int(rng.integers(40))))
    n_lines = int(rng.integers(260, 520)) if kind == 1 else int(rng.integers(8))
    width, lines = int(rng.integers(1, 5)), []
    for _ in range(n_lines):
        roll = rng.random()
        if roll < 0.08:
            lines.append(b"#" + b"".join(pick(_NOISE) for _ in range(int(rng.integers(8)))))
            continue
        if roll < 0.12:
            lines.append(b"".join(pick([b" ", b"\t", b"\v", b"\f"]) for _ in range(int(rng.integers(4)))))
            continue
        tokens = []
        for _ in range(width if rng.random() < 0.9 else int(rng.integers(1, 5))):
            digits = int(rng.integers(1, 21)) if rng.random() < 0.1 else 0
            state = (bytes(rng.integers(48, 58, digits).astype(np.uint8)) if digits
                     else str(rng.integers(150)).encode())
            tokens.append(state + b":" + str(rng.integers(4)).encode())
            tokens.append(pick([b" ", b"  ", b"\t", b" \t"]) if rng.random() < 0.97
                          else pick([b"\v", b"", b",", b" \f "]))
        line = b"".join(tokens[:-1] if rng.random() < 0.5 else tokens)
        line = pick([b"", b"", b" ", b"\t ", b"\v", b"\f \v"]) + line + pick(
            [b"", b"", b" ", b"\t", b"\f", b" \v "])
        if kind != 1 and line and rng.random() < 0.15:
            at = int(rng.integers(len(line)))
            line = line[:at] + pick(_NOISE) + line[at + 1 :]
        lines.append(line)
    if kind == 1 and rng.random() < 0.5:
        at = int(rng.integers(len(lines)))
        lines[at] += pick([b" 1", b":", b"x", b" #"])
    text = b"".join(line + pick([b"\n", b"\r\n", b"\r", b"\n\n"]) for line in lines)
    return text.rstrip(b"\r\n") if rng.random() < 0.3 else text


def _outcome(load, path):
    try:
        return load(path)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("block_bytes", [None, 48], ids=["default-blocks", "48-byte-blocks"])
def test_trajectory_loader_matches_reference_on_fuzz_corpus(tmp_path, monkeypatch, block_bytes):
    """With 48-byte blocks every multi-line file spans several blocks."""
    if block_bytes is not None:
        monkeypatch.setattr(expert, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(25)
    path = tmp_path / "fuzz.txt"
    accepted = 0
    for k in range(800):
        path.write_bytes(_fuzz_file(rng))
        expected, actual = _outcome(_reference_load, path), _outcome(load_trajectories, path)
        if isinstance(expected, str):
            assert actual == expected, (k, path.read_bytes()[:200])
        else:
            accepted += 1
            assert isinstance(actual, np.ndarray), (k, actual)
            assert actual.dtype == np.int64 and actual.shape == expected.shape, k
            assert np.array_equal(actual, expected), k
    assert 80 <= accepted <= 720  # both outcomes are well represented


def test_trajectory_loader_names_a_bad_line_in_a_later_block(tmp_path):
    """A file of several blocks with a bad line past the first one; comment
    and blank lines are not counted in the reported trajectory number."""
    rng = np.random.default_rng(26)
    rows = [" ".join(f"{s}:{a}" for s, a in zip(rng.integers(0, 150, 40), rng.integers(0, 4, 40)))
            for _ in range(500)]
    rows[349] = rows[349][:-1] + "x"
    text = "# header\n" + "\n".join(rows[:100]) + "\n\n# middle\n" + "\n".join(rows[100:]) + "\n"
    assert expert._BLOCK_BYTES < text.index("x") < len(text) - expert._BLOCK_BYTES
    path = tmp_path / "late.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"malformed trajectory 350 in .*: b'{rows[349][:60]}'"):
        load_trajectories(path)
    rows[349] = rows[349][:-1] + "2"
    path.write_text("\n".join(rows) + "\n")
    assert np.array_equal(load_trajectories(path), _reference_load(path))

