"""Exact counting of sweep-covers on truncation-free infinite star trees.

Everything here works in unbounded Python integers; scientific notation is a
display concern for callers.  The central quantity is ``p_count(delta,
gamma, n)``, the number of sweep-covers of size n on the infinite tree of
delta-stars joined by gamma-edge paths: coefficient n of one power series,
solved from its algebraic equation one coefficient at a time at
O(min(delta, n) * n^2) big-integer multiplies, plus O(delta * min(delta, n))
for the Stirling rows, with no recursion and no cache.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, exp, inf, log
from operator import mul


class InvalidParamsError(ValueError):
    """A size, degree or range parameter is out of bounds (CLI exit 3)."""


def _nonsingleton_rows(n_max: int, m_max: int) -> list[list[int] | None]:
    """``R[n][m]`` = count_nonsingleton(n, m) for n_max - m_max <= n <= n_max and m <= m_max
    (earlier rows are None), by the associated Stirling recurrence
    R(n, m) = m*R(n-1, m) + (n-1)*R(n-2, m-1)."""
    rows = [[1] + [0] * m_max, [0] * (m_max + 1)]
    for n in range(2, n_max + 1):
        a, b = rows[n - 1], rows[n - 2]
        rows.append([0] + [m * a[m] + (n - 1) * b[m - 1] for m in range(1, m_max + 1)])
        if n - 2 < n_max - m_max:
            rows[n - 2] = None
    return rows


def count_nonsingleton(n: int, m: int) -> int:
    """Partitions of n elements into exactly m blocks, each of size >= 2."""
    if n < 0 or m < 0 or 2 * m > n:
        return 0
    return _nonsingleton_rows(n, m)[n][m]


def raney(p: int, r: int, k: int) -> int:
    """Raney number r/(kp+r) * binom(kp+r, k), an integer for p, r >= 1 and k >= 0."""
    if p < 1 or r < 1 or k < 0:
        raise InvalidParamsError(f"bad Raney parameters p={p}, r={r}, k={k}")
    return r * comb(k * p + r, k) // (k * p + r)


def catalan(k: int) -> int:
    return raney(2, 1, k)


def _check_params(delta: int, gamma: int, n: int | None = None) -> None:
    """Reject a bad delta or gamma, and a bad n when the caller was given one."""
    if delta < 2 or gamma < 0 or (n is not None and n < 1):
        given = f"delta={delta}, gamma={gamma}" + ("" if n is None else f", n={n}")
        raise InvalidParamsError(f"bad parameters {given}")


def series_coefficients(delta: int, gamma: int, n_max: int) -> list[int]:
    """Coefficients [P(1), ..., P(n_max)] of the counting generating function.

    P solves P = gamma*x + sum_{l=0..delta} C(delta, l) * Q_{delta-l}(x) * P^l,
    where Q_m(x) = sum_r count_nonsingleton(m, r) * x^r: a star's l singleton
    children each head a copy of the whole tree, and the other delta - l
    children split into non-singleton blocks.  As delta >= 2, coefficient n
    of the right side needs only coefficients of P below n, so the truncated
    powers P^1..P^min(delta, n_max) grow one coefficient at a time.
    """
    if n_max < 1:
        raise InvalidParamsError(f"n_max must be >= 1, got {n_max}")
    _check_params(delta, gamma)
    # P^l starts at x^l, so no term with l or r above n_max reaches x^n_max.
    top = min(delta, n_max)
    R = _nonsingleton_rows(delta, top)
    # (l, r, coefficient of x^r * P^l on the right side)
    terms = [
        (l, r, comb(delta, l) * R[delta - l][r])
        for l in range(top + 1)
        for r in range(min(delta - l, top) + 1)
        if R[delta - l][r]
    ]
    # powers[l][k] is the coefficient of x^k in P(x)^l
    powers = [[1] + [0] * n_max] + [[0] * (n_max + 1) for _ in range(top)]
    P = powers[1]
    P[1] = gamma
    back = [0]  # [0, P[n-1], ..., P[1]]: map pairs P[k] with powers[l-1][n-k], no slice
    for n in range(1, n_max + 1):
        for l in range(2, top + 1):
            powers[l][n] = sum(map(mul, back, powers[l - 1]))
        P[n] += sum(w * powers[l][n - r] for l, r, w in terms if r <= n)
        back.insert(1, P[n])
    return P[1:]


def p_count(delta: int, gamma: int, n: int) -> int:
    """Number of sweep-covers of size n on the infinite (delta, gamma) tree:
    the last of ``series_coefficients(delta, gamma, n)``.  n = 1 gives gamma + 1.
    """
    _check_params(delta, gamma, n)
    return series_coefficients(delta, gamma, n)[-1]


def p_table(
    delta_range: tuple[int, int], n_range: tuple[int, int], gamma: int
) -> dict[int, list[int]]:
    """Full-precision grid of p_count values, keyed by delta."""
    d_lo, d_hi = delta_range
    n_lo, n_hi = n_range
    if d_lo < 2 or d_hi < d_lo or n_lo < 1 or n_hi < n_lo or gamma < 0:
        raise InvalidParamsError(
            f"bad ranges delta={delta_range}, n={n_range}, gamma={gamma}"
        )
    return {d: series_coefficients(d, gamma, n_hi)[n_lo - 1 :] for d in range(d_lo, d_hi + 1)}


# -- bound and growth reports ------------------------------------------


BoundRow = namedtuple("BoundRow", "n p_value raney_value inequality_holds")


def raney_bound_report(
    delta: int, gamma: int, n_range: tuple[int, int]
) -> list[BoundRow]:
    """Per-n comparison of p_count against C_{delta,1}(n+1).

    Purely observational: each row records whether p_count >= the Raney
    value; nothing is asserted.
    """
    n_lo, n_hi = n_range
    if n_lo < 1 or n_hi < n_lo:
        raise InvalidParamsError(f"bad n range {n_range}")
    rows = []
    for n, p in enumerate(series_coefficients(delta, gamma, n_hi)[n_lo - 1 :], n_lo):
        c = raney(delta, 1, n + 1)
        rows.append(BoundRow(n=n, p_value=p, raney_value=c, inequality_holds=p >= c))
    return rows


# ratio is the float p_n / p_{n-1}, or None in the first row
GrowthRow = namedtuple("GrowthRow", "n p_value ratio nth_root")


def growth_report(delta: int, gamma: int, n_max: int) -> list[GrowthRow]:
    """Exact counts with consecutive ratios and n-th roots for eyeballing growth;
    each ratio is p_n / p_{n-1} correctly rounded, as float(Fraction(...)) gives,
    and a ratio or n-th root past float range is `math.inf`."""
    if n_max < 2:
        raise InvalidParamsError(f"n_max must be >= 2, got {n_max}")
    rows = []
    prev: int | None = None
    for n, p in enumerate(series_coefficients(delta, gamma, n_max), 1):
        try:
            ratio = p / prev if prev else None
        except OverflowError:
            ratio = inf
        try:
            # exp/log rather than p ** (1/n), which converts p to a float
            nth_root = exp(log(p) / n)
        except OverflowError:
            nth_root = inf
        rows.append(GrowthRow(n=n, p_value=p, ratio=ratio, nth_root=nth_root))
        prev = p
    return rows
