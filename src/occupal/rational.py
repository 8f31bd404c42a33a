"""Exact-arithmetic occupancy computations for desk-scale verification.

The truncated-series tail identity is an equality: the l1 distance between
the exact occupancy measure and the horizon-H partial sum is exactly
sum_{t>=H} g^t, because the state-action law at every step has unit mass.
Checking that identity at H = 60 means certifying a gap of order 1e-18,
far below float64 resolution, so this module redoes both computations over
exact rationals: transition rows are integer weights over a power-of-two
denominator (hence also exactly representable as float64), the linear
solve is fraction-free Bareiss elimination over the integers, and the
series is an integer recursion with one common denominator per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .mdp import Mdp

__all__ = [
    "RationalMdp",
    "RationalPolicy",
    "random_rational_mdp",
    "random_rational_policy",
    "exact_occupancy",
    "exact_series_occupancy",
    "series_tail_gaps",
]


@dataclass(frozen=True)
class RationalMdp:
    """Tabular MDP with rational data: rows are integer weights / denom."""

    n_states: int
    n_actions: int
    trans_weights: tuple  # (n_states * n_actions) rows of integer tuples
    trans_denom: int
    gamma: Fraction
    init_weights: tuple
    init_denom: int


@dataclass(frozen=True)
class RationalPolicy:
    probs_weights: tuple  # n_states rows of integer tuples
    denom: int


# Discount 1/2, which properties.series_tail_gap's bound assumes, and
# power-of-two denominators, which keep the float64 twins exact.
_GAMMA = Fraction(1, 2)
_TRANS_DENOM = 64
_POLICY_DENOM = 16


def random_rational_mdp(rng, n_states, n_actions):
    """Random MDP with discount 1/2 whose transition rows are exact
    multinomial(64)/64 weights and whose start weights are over 16."""
    rows = []
    uniform = np.full(n_states, 1.0 / n_states)
    for _ in range(n_states * n_actions):
        rows.append(tuple(int(w) for w in rng.multinomial(_TRANS_DENOM, uniform)))
    init = tuple(int(w) for w in rng.multinomial(16, uniform))
    return RationalMdp(n_states, n_actions, tuple(rows), _TRANS_DENOM, _GAMMA, init, 16)


def random_rational_policy(rng, rmdp):
    """Random policy whose rows are exact multinomial(16)/16 weights."""
    uniform = np.full(rmdp.n_actions, 1.0 / rmdp.n_actions)
    rows = tuple(
        tuple(int(w) for w in rng.multinomial(_POLICY_DENOM, uniform))
        for _ in range(rmdp.n_states)
    )
    return RationalPolicy(rows, _POLICY_DENOM)


def _chain_weights(rmdp, policy):
    """Integer weights of the state chain P_pi; true values are ints/(Dp*Dpi)."""
    n, k = rmdp.n_states, rmdp.n_actions
    chain = [[0] * n for _ in range(n)]
    for x in range(n):
        pol_row = policy.probs_weights[x]
        for a in range(k):
            w = pol_row[a]
            if w:
                trow = rmdp.trans_weights[x * k + a]
                crow = chain[x]
                for y in range(n):
                    if trow[y]:
                        crow[y] += w * trow[y]
    return chain


def _bareiss_solve(a_rows, b):
    """Solve the integer system A x = b exactly; returns a list of Fractions.

    Fraction-free Bareiss elimination with row swaps keeps every
    intermediate an integer (a minor of the augmented matrix), so there is
    no gcd cost until the final back substitution.
    """
    n = len(a_rows)
    m = [list(row) + [bi] for row, bi in zip(a_rows, b)]
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    break
            else:
                raise ZeroDivisionError("singular system in exact solve")
        pivot = m[col][col]
        for r in range(col + 1, n):
            head = m[r][col]
            row = m[r]
            prow = m[col]
            for c in range(col + 1, n + 1):
                row[c] = (row[c] * pivot - head * prow[c]) // prev
            row[col] = 0
        prev = pivot
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(m[i][n])
        for j in range(i + 1, n):
            acc -= m[i][j] * x[j]
        x[i] = acc / m[i][i]
    return x


def exact_occupancy(rmdp, policy):
    """Exact occupancy measure as Fractions, via the flow linear solve."""
    n, k = rmdp.n_states, rmdp.n_actions
    chain = _chain_weights(rmdp, policy)
    gn, gd = rmdp.gamma.numerator, rmdp.gamma.denominator
    scale = gd * rmdp.trans_denom * policy.denom
    # (I - gamma P_pi^T) d = nu0, scaled through by gd * Dp * Dpi.
    a_rows = [
        [
            (scale if x == y else 0) - gn * chain[y][x]
            for y in range(n)
        ]
        for x in range(n)
    ]
    b = [scale * w for w in rmdp.init_weights]
    d_scaled = _bareiss_solve(a_rows, b)  # equals init_denom * d
    mu = []
    for x in range(n):
        dx = d_scaled[x] / rmdp.init_denom
        for a in range(k):
            mu.append(dx * Fraction(policy.probs_weights[x][a], policy.denom))
    return mu


def exact_series_occupancy(rmdp, policy, horizons):
    """Exact partial sums sum_{t<H} g^t law_t for each H in horizons.

    The law at step t is carried as an integer vector over the common
    denominator Dn * Dpi * (Dp * Dpi)^t, and the running sum is rescaled by
    gd * Dp * Dpi per step, so the whole recursion is integer arithmetic.
    """
    horizons = sorted(set(int(h) for h in horizons))
    if horizons[0] < 1:
        raise ValueError("horizons must be >= 1")
    n, k = rmdp.n_states, rmdp.n_actions
    gn, gd = rmdp.gamma.numerator, rmdp.gamma.denominator
    # v holds the step law numerators; acc the discounted partial sum.
    v = [
        rmdp.init_weights[x] * policy.probs_weights[x][a]
        for x in range(n)
        for a in range(k)
    ]
    acc = list(v)
    acc_denom = Fraction(1, rmdp.init_denom * policy.denom)
    step_scale = gd * rmdp.trans_denom * policy.denom
    gn_pow = 1
    out = {}
    t = 1
    for horizon in horizons:
        while t < horizon:
            s_next = [0] * n
            for i in range(n * k):
                vi = v[i]
                if vi:
                    trow = rmdp.trans_weights[i]
                    for y in range(n):
                        if trow[y]:
                            s_next[y] += vi * trow[y]
            v = [
                s_next[x] * policy.probs_weights[x][a]
                for x in range(n)
                for a in range(k)
            ]
            gn_pow *= gn
            acc = [ai * step_scale + gn_pow * vi for ai, vi in zip(acc, v)]
            acc_denom /= step_scale
            t += 1
        out[horizon] = [ai * acc_denom for ai in acc]
    return out


def series_tail_gaps(rmdp, policy, horizons):
    """Exact l1 gaps ||solve - series_H||_1 for each requested horizon."""
    mu = exact_occupancy(rmdp, policy)
    partials = exact_series_occupancy(rmdp, policy, horizons)
    return {
        h: sum(abs(m - p) for m, p in zip(mu, partial))
        for h, partial in partials.items()
    }


def _to_float_mdp(rmdp):
    """Float64 twin; exact when the denominators are powers of two."""
    n, k = rmdp.n_states, rmdp.n_actions
    transition = np.array(rmdp.trans_weights, dtype=float) / rmdp.trans_denom
    init = np.array(rmdp.init_weights, dtype=float) / rmdp.init_denom
    return Mdp(n, k, transition.reshape(n * k, n), float(rmdp.gamma), init)


def _to_float_policy(policy):
    from .mdp import Policy

    return Policy(np.array(policy.probs_weights, dtype=float) / policy.denom)
