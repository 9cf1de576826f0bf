import time
import tracemalloc
from fractions import Fraction
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from sweepcover.cli import main
from sweepcover.counting import (
    InvalidParamsError,
    catalan,
    count_nonsingleton,
    growth_report,
    p_count,
    p_table,
    raney,
    raney_bound_report,
    series_coefficients,
)
from sweepcover.enumeration import find_sweep_covers, set_partitions
from sweepcover.tree import IldSpec, build_ild_truncated

# Paper-reported grid for gamma = 0; exactly printed integers only.
EXACT_TABLE = {
    2: [1, 1, 2, 5, 14, 42, 132, 429],
    3: [1, 3, 10, 39, 174, 846, 4332, 22959],
    4: [1, 7, 34, 221, 1614, 12394, 99556, 827045],
    5: [1, 15, 100, 1035, 11376, 132930, 1630860, 20606355],
    6: [1, 31, 276, 4511, 70986, 1232752, 22295588],
    7: [1, 63, 742, 19215, 418698, 10810254],
    8: [1, 127, 1982, 81565, 2409926, 93612646],
    9: [1, 255, 5320, 347115, 13769616],
}


def stirling2(s, j):
    """Stirling numbers of the second kind, from sum_i (-1)^i C(j,i) (j-i)^s / j!."""
    return sum((-1) ** i * comb(j, i) * (j - i) ** s for i in range(j + 1)) // factorial(j)


class TestNonsingletonCount:
    def test_small_values(self):
        assert count_nonsingleton(2, 1) == 1
        assert count_nonsingleton(4, 2) == 3
        assert count_nonsingleton(3, 2) == 0

    def test_zero_when_pigeonhole_fails(self):
        for n in range(10):
            for m in range(n // 2 + 1, 6):
                assert count_nonsingleton(n, m) == 0
        assert count_nonsingleton(0, 0) == 1
        for n, m in [(-1, 0), (-2, -1), (4, -1), (1, 0)]:
            assert count_nonsingleton(n, m) == 0

    def test_against_enumeration_and_alternating_sum(self):
        for n in range(1, 9):
            items = [str(i) for i in range(n)]
            for m in range(0, n + 1):
                by_count = sum(
                    1
                    for p in set_partitions(items, n)
                    if len(p) == m and all(len(b) >= 2 for b in p)
                )
                alternating = sum(
                    comb(n, s) * (-1) ** (n - s) * stirling2(s, s + m - n)
                    for s in range(max(n - m, 0), n + 1)
                )
                assert count_nonsingleton(n, m) == by_count == alternating, (n, m)


class TestRaney:
    def test_k_zero_is_one(self):
        for p in range(1, 5):
            for r in range(1, 5):
                assert raney(p, r, 0) == 1

    def test_known_values(self):
        assert raney(2, 1, 3) == 5
        assert raney(3, 1, 2) == 3

    def test_catalan_equivalence(self):
        segner = [1]
        for n in range(1, 21):
            segner.append(sum(segner[i] * segner[n - 1 - i] for i in range(n)))
        for k in range(21):
            assert catalan(k) == raney(2, 1, k) == segner[k]

    def test_integrality(self):
        for p in range(1, 7):
            for r in range(1, 7):
                for k in range(31):
                    value = raney(p, r, k)
                    assert value * (k * p + r) == r * comb(k * p + r, k)

    def test_bad_params(self):
        with pytest.raises(InvalidParamsError):
            raney(0, 1, 2)


class TestPCount:
    def test_base_case_is_gamma_plus_one(self):
        assert p_count(5, 3, 1) == 4
        assert p_count(2, 0, 1) == 1
        assert p_count(2, 5, 1) == 6

    @pytest.mark.parametrize("delta,row", sorted(EXACT_TABLE.items()))
    def test_paper_table_rows(self, delta, row):
        assert [p_count(delta, 0, n) for n in range(1, len(row) + 1)] == row

    def test_spot_cells(self):
        assert p_count(2, 0, 4) == 5
        assert p_count(3, 0, 2) == 3
        assert p_count(4, 0, 4) == 221
        assert p_count(9, 0, 4) == 347115

    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_matches_search_on_truncated_tree(self, delta):
        # IldSpec.gamma counts path edges, p_count's gamma counts path nodes;
        # n + 1 star levels hold every size-n cover of the infinite tree.
        for gamma in range(3):
            for n in range(1, (4 if delta == 4 else 5) + 1):
                tree = build_ild_truncated(IldSpec(delta, gamma, n + 1))
                assert p_count(delta, gamma + 1, n) == len(find_sweep_covers(tree, n))

    def test_catalan_row_beyond_brute_force(self):
        assert p_count(2, 0, 1000) == catalan(999)
        assert series_coefficients(2, 0, 1000) == [catalan(n - 1) for n in range(1, 1001)]

    def test_bad_params(self):
        with pytest.raises(InvalidParamsError):
            p_count(1, 0, 2)
        with pytest.raises(InvalidParamsError):
            p_count(2, 0, 0)


def test_p_table_matches_rows():
    table = p_table((2, 3), (1, 3), 0)
    assert table == {2: [1, 1, 2], 3: [1, 3, 10]}
    assert p_table((9, 9), (4, 4), 0) == {9: [347115]}
    assert p_table((2, 2), (1, 1), 5) == {2: [6]}


def test_series_coefficients():
    assert series_coefficients(2, 0, 5) == [1, 1, 2, 5, 14]
    assert series_coefficients(3, 0, 4) == [1, 3, 10, 39]
    assert series_coefficients(7, 4, 1) == [5]


def test_raney_bound_report_is_self_consistent():
    rows = raney_bound_report(2, 0, (1, 3))
    assert [r.p_value for r in rows] == [1, 1, 2]
    assert [r.raney_value for r in rows] == [catalan(2), catalan(3), catalan(4)]
    # the stated inequality does not survive the paper's own table at small n
    assert [r.inequality_holds for r in rows] == [False, False, False]
    rows3 = raney_bound_report(3, 0, (2, 2))
    assert rows3[0].p_value == 3 and rows3[0].raney_value == 12
    assert rows3[0].inequality_holds is False


@pytest.mark.parametrize("n_range", [(0, 3), (3, 2)])
def test_raney_bound_report_rejects_a_bad_n_range(n_range):
    with pytest.raises(InvalidParamsError, match=r"^bad n range \(\d, \d\)$"):
        raney_bound_report(2, 0, n_range)


@pytest.mark.parametrize("n_max", [1, 0])
def test_growth_report_needs_two_rows(n_max):
    with pytest.raises(InvalidParamsError, match=f"^n_max must be >= 2, got {n_max}$"):
        growth_report(2, 0, n_max)


def test_growth_report():
    rows = growth_report(2, 0, 5)
    assert [r.p_value for r in rows] == [1, 1, 2, 5, 14]
    assert rows[0].ratio is None
    assert [r.ratio for r in rows[1:]] == [1.0, 2.0, 2.5, 2.8]
    assert all(type(r.ratio) is float for r in rows[1:])
    assert growth_report(2, 5, 2)[0].p_value == 6
    assert growth_report(3, 0, 3)[-1].p_value == 10


def test_growth_ratios_are_correctly_rounded_at_large_n():
    # Counts of hundreds of digits: each ratio is the exact quotient rounded
    # once to a float, as the exact rational would round.
    rows = growth_report(3, 0, 600)
    assert len(str(rows[-1].p_value)) > 300
    for prev, row in zip(rows, rows[1:]):
        assert row.ratio == float(Fraction(row.p_value, prev.p_value)), row.n


def untruncated_series(delta, gamma, n_max):
    """The series solve without truncation: every (l, r) term, every power P^2..P^delta."""
    R = [[count_nonsingleton(n, m) for m in range(delta + 1)] for n in range(delta + 1)]
    terms = [
        (l, r, comb(delta, l) * R[delta - l][r])
        for l in range(delta + 1)
        for r in range(delta - l + 1)
        if R[delta - l][r]
    ]
    powers = [[1] + [0] * n_max] + [[0] * (n_max + 1) for _ in range(delta)]
    P = powers[1]
    P[1] = gamma
    for n in range(1, n_max + 1):
        for l in range(2, delta + 1):
            powers[l][n] = sum(map(mul, P[1:n], powers[l - 1][n - 1 : 0 : -1]))
        P[n] += sum(w * powers[l][n - r] for l, r, w in terms if r <= n)
    return P[1:]


@settings(max_examples=150, deadline=None)
@given(
    delta=st.integers(2, 30),
    gamma=st.integers(0, 3),
    n_max=st.integers(1, 40),
)
def test_truncated_solve_equals_untruncated(delta, gamma, n_max):
    # Only terms and powers with l, r <= min(delta, n_max) reach x^n_max.
    assert series_coefficients(delta, gamma, n_max) == untruncated_series(delta, gamma, n_max)


def delta3_closed_form(gamma, n):
    """p_n at delta = 3 by Lagrange inversion of x = P(1 - P^2) / (gamma + 1 + 3P),
    the equation P = (gamma + 1)x + 3xP + P^3 solved for x."""
    total = sum(
        comb(n, n - 1 - 2 * m) * 3 ** (n - 1 - 2 * m) * (gamma + 1) ** (2 * m + 1) * comb(n + m - 1, m)
        for m in range((n - 1) // 2 + 1)
    )
    assert total % n == 0
    return total // n


def test_solve_matches_closed_forms_beyond_brute_force():
    # At delta = 2 the equation is P = (gamma + 1)x + P^2, whose coefficients
    # are Catalan numbers scaled by (gamma + 1)^n.
    n_max = 300
    for gamma in range(6):
        assert series_coefficients(2, gamma, n_max) == [
            (gamma + 1) ** n * comb(2 * n - 2, n - 1) // n for n in range(1, n_max + 1)
        ]
        assert series_coefficients(3, gamma, n_max) == [
            delta3_closed_form(gamma, n) for n in range(1, n_max + 1)
        ]


def test_solve_cost_does_not_follow_delta_squared():
    start = time.perf_counter()
    assert p_count(10**4, 0, 2) == 2 ** (10**4 - 1) - 1
    assert time.perf_counter() - start < 1.0
    # Holding all 10^4 Stirling rows would take about 6 MB; only the last
    # three are needed.
    tracemalloc.start()
    try:
        p_count(10**4, 0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_count_at_delta_800_is_quick(capsys):
    delta = 800
    # Coefficient 3 of the series by hand: the (l, r) terms with l + r = 3.
    p2 = 2 ** (delta - 1) - 1
    want = (
        count_nonsingleton(delta, 3)
        + delta * (count_nonsingleton(delta - 1, 2) + p2)
        + comb(delta, 2)
    )
    start = time.perf_counter()
    code = main(["count", "--delta", str(delta), "--n", "3"])
    elapsed = time.perf_counter() - start
    assert (code, capsys.readouterr().out) == (0, f"{want}\n")
    assert elapsed < 0.5
