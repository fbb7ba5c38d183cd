"""Closed q-formulas against their exhaustive oracles."""

import random
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclicsieve import genfunc, selftest
from cyclicsieve.genfunc import (
    DiagonalSpec,
    alternating_list,
    avl_q_bruteforce,
    avl_q_closed,
    bw_q,
    carlitz_q_catalan,
    cdp_count,
    cdp_q_bruteforce,
    cdp_q_bruteforce_widths,
    cdp_q_closed,
    cdp_q_wide,
    cmp_q,
    cmp_q_bruteforce,
    dyck_q_bruteforce,
    gen_q_ballot,
    h_bruteforce,
    h_bruteforce_lists,
    h_closed,
    lr_count,
)
from cyclicsieve.paths import area_to_path, enumerate_cdp, enumerate_words, maj
from cyclicsieve.qpoly import (
    ONE,
    ZERO,
    ExactDivisionError,
    IntPolynomial,
    divisors,
    eval_at_unity,
    mod_cyclic,
    q_binomial,
)


def poly(*coeffs):
    return IntPolynomial(coeffs)


class TestDiagonalSpec:
    def test_empty_list_is_alternating(self):
        assert DiagonalSpec((3, 2)).is_alternating()

    def test_single_diagonal(self):
        assert DiagonalSpec((2, 1), (0,)).is_alternating()
        assert not DiagonalSpec((2, 1), (1,)).is_alternating()  # target on the diagonal
        assert DiagonalSpec((2, 1), (-3,)).is_alternating()

    def test_zig_zag_requirement(self):
        assert DiagonalSpec((4, 4), (1, -2, 1)).is_alternating()
        assert not DiagonalSpec((4, 3), (1, -2, 1)).is_alternating()  # target on d_3
        assert not DiagonalSpec((4, 3), (1, 2, 3)).is_alternating()

    def test_target_side(self):
        # ends with an upward comparison, so the target must be left of d_2
        assert DiagonalSpec((4, 3), (-1, 3)).is_alternating()
        assert not DiagonalSpec((4, 3), (-1, 1)).is_alternating()

    def test_rejects_negative_target(self):
        with pytest.raises(ValueError):
            DiagonalSpec((-1, 2))


class TestHBruteforce:
    def test_no_diagonals(self):
        assert h_bruteforce(DiagonalSpec((2, 1))) == poly(1, 1, 1)

    def test_leading_zero_diagonal_is_free(self):
        for ds in [(), (1,), (-1, 2), (4,)]:
            with_zero = h_bruteforce(DiagonalSpec((3, 2), (0,) + ds))
            without = h_bruteforce(DiagonalSpec((3, 2), ds))
            assert with_zero == without

    def test_every_path_touches_the_end_diagonal(self):
        assert h_bruteforce(DiagonalSpec((2, 1), (1,))) == poly(1, 1, 1)

    def test_guard(self):
        with pytest.raises(ValueError):
            h_bruteforce(DiagonalSpec((15, 1)))

    def test_dominated_diagonal_removal(self):
        # Inserting d_k < d_{k+1} < d_{k+2} in the middle changes nothing.
        rng = random.Random(7)
        for _ in range(40):
            x, y = rng.randint(1, 5), rng.randint(1, 5)
            lo = rng.randint(-4, 0)
            hi = rng.randint(lo + 2, 6)
            mid = rng.randint(lo + 1, hi - 1)
            base = DiagonalSpec((x, y), (lo, hi))
            padded = DiagonalSpec((x, y), (lo, mid, hi))
            assert h_bruteforce(base) == h_bruteforce(padded)


def h_reference(spec: DiagonalSpec) -> IntPolynomial:
    """One walk for one list: the maj histogram of the words whose walk visits the diagonals in order."""
    exponents = []
    for word in enumerate_words(spec.target, "01"):
        heights = list(accumulate((1 if b == "0" else -1 for b in word), initial=0))
        at = 0
        for d in spec.diagonals:
            while at < len(heights) and heights[at] != d:
                at += 1
            at += 1
        if at <= len(heights):
            exponents.append(maj(word))
    return histogram(exponents)


def histogram(exponents) -> IntPolynomial:
    counts = Counter(exponents)
    return IntPolynomial([counts[e] for e in range(max(counts, default=-1) + 1)])


class TestHBruteforceLists:
    def test_each_list_equals_its_own_walk_on_every_alternating_target(self):
        configs = [spec for *_, spec in selftest.alternating_configs(5)]
        for target in sorted({spec.target for spec in configs}):
            lists = [spec.diagonals for spec in configs if spec.target == target]
            assert h_bruteforce_lists(target, lists) == [h_reference(DiagonalSpec(target, ds)) for ds in lists], target

    def test_lists_off_the_walk_repeats_and_the_empty_list(self):
        rng = random.Random(11)
        for _ in range(100):
            target = (rng.randint(0, 5), rng.randint(0, 5))
            lists = [tuple(rng.randint(-7, 7) for _ in range(rng.randint(0, 4))) for _ in range(4)] + [(), (0, 0)]
            assert h_bruteforce_lists(target, lists) == [h_reference(DiagonalSpec(target, ds)) for ds in lists], target

    def test_single_list_form(self):
        spec = DiagonalSpec((4, 3), (2, -3, 2))
        assert h_bruteforce(spec) == h_bruteforce_lists(spec.target, [spec.diagonals])[0] == h_reference(spec)

    def test_guard(self):
        with pytest.raises(ValueError, match="brute-force guard"):
            h_bruteforce_lists((1, 15), [()])


class TestHClosed:
    def test_ell_zero_counts_everything(self):
        for n in range(1, 6):
            for side in ("left", "right"):
                assert h_closed(n, 1, 3, 0, side) == q_binomial(2 * n - 1, n - 1)

    def test_agrees_with_bruteforce_delta_four(self):
        n, delta = 4, 4
        for gamma in (1, 2, 3):
            for ell in range(4):
                for side in ("right", "left"):
                    first = gamma if side == "right" else gamma - delta
                    second = gamma - delta if side == "right" else gamma
                    spec = DiagonalSpec((n, n - 1), alternating_list(first, second, ell))
                    assert h_closed(n, gamma, delta, ell, side) == h_bruteforce(spec), (
                        gamma,
                        ell,
                        side,
                    )

    def test_agrees_on_alternating_grid(self):
        for n in range(1, 5):
            for delta in range(2, 7):
                for gamma in range(1, delta):
                    for ell in range(5):
                        for side in ("right", "left"):
                            first = gamma if side == "right" else gamma - delta
                            second = gamma - delta if side == "right" else gamma
                            spec = DiagonalSpec((n, n - 1), alternating_list(first, second, ell))
                            if spec.is_alternating():
                                assert h_closed(n, gamma, delta, ell, side) == h_bruteforce(spec)

    def test_requires_delta_above_gamma(self):
        with pytest.raises(ValueError):
            h_closed(3, 2, 2, 1, "left")


class TestLrCount:
    def test_ell_zero(self):
        for side in ("left", "right"):
            assert lr_count(4, 3, 0, 2, side) == q_binomial(7, 3)

    def test_right_single_touch_matches_bruteforce(self):
        n = w = 3
        for j in (1, 2, 3):
            spec = DiagonalSpec((n, n - 1), (j + 1,))
            assert lr_count(n, w, 1, j, "right") == h_bruteforce(spec)

    def test_left_single_touch_matches_bruteforce(self):
        n = w = 3
        for j in (1, 2, 3):
            spec = DiagonalSpec((n, n - 1), (j + 1 - (w + 2),))
            assert lr_count(n, w, 1, j, "left") == h_bruteforce(spec)

    def test_double_touch_vanishes_for_wide_strips(self):
        for n in range(1, 6):
            for w in range(n, n + 3):
                for j in range(1, w + 1):
                    assert lr_count(n, w, 2, j, "left") == ZERO
                    assert lr_count(n, w, 2, j, "right") == ZERO

    def test_matches_bruteforce_on_translated_grid(self):
        for n in range(1, 5):
            for w in range(1, 5):
                for j in range(1, w + 1):
                    for ell in range(5):
                        left = DiagonalSpec((n, n - 1), alternating_list(j + 1 - (w + 2), j + 1, ell))
                        right = DiagonalSpec((n, n - 1), alternating_list(j + 1, j + 1 - (w + 2), ell))
                        assert lr_count(n, w, ell, j, "left") == h_bruteforce(left), (n, w, j, ell)
                        assert lr_count(n, w, ell, j, "right") == h_bruteforce(right), (n, w, j, ell)

    def test_rejects_bad_j(self):
        with pytest.raises(ValueError):
            lr_count(3, 2, 1, 3, "left")


class TestGenQBallot:
    def test_x_zero_has_no_paths(self):
        assert gen_q_ballot(0, 4, 2) == ZERO

    def test_single_avoiding_path(self):
        assert gen_q_ballot(1, 2, 1) == ONE

    def test_two_avoiding_paths(self):
        assert gen_q_ballot(2, 3, 1) == poly(1, 1)

    def test_matches_direct_count(self):
        # Exhaustive check: walks from (x, 0) to (i, j) that avoid x = y.
        from itertools import combinations

        from cyclicsieve.paths import maj

        for x in range(1, 4):
            for i in range(x, 6):
                for j in range(0, i):  # endpoint off the diagonal
                    total = {}
                    steps = (i - x) + j
                    for ups in combinations(range(steps), j):
                        word = ["0"] * steps
                        for u in ups:
                            word[u] = "1"
                        cx, cy = x, 0
                        ok = cx != cy
                        for b in word:
                            cx, cy = (cx + 1, cy) if b == "0" else (cx, cy + 1)
                            if cx == cy:
                                ok = False
                                break
                        if ok:
                            m = maj("".join(word))
                            total[m] = total.get(m, 0) + 1
                    expected = IntPolynomial(
                        [total.get(d, 0) for d in range(max(total, default=0) + 1)]
                    )
                    assert gen_q_ballot(x, i, j) == expected, (x, i, j)


class TestCdpPolynomials:
    def test_two_by_two(self):
        assert cdp_q_closed(2, 2) == cdp_q_bruteforce(2, 2) == poly(1, 1, 2)

    def test_closed_equals_bruteforce_small_grid(self):
        for n in range(1, 6):
            for w in range(1, n + 3):
                assert cdp_q_closed(n, w) == cdp_q_bruteforce(n, w)

    def test_wide_three_term_formula(self):
        for n in range(1, 8):
            assert cdp_q_wide(n, n) == cdp_q_closed(n, n)
        for n in range(1, 5):
            for w in range(n, n + 3):
                assert cdp_q_wide(n, w) == cdp_q_closed(n, w)

    def test_counts(self):
        assert cdp_q_closed(3, 3)(1) == 18
        assert cdp_count(3, 3) == 18
        assert cdp_count(2, 1) == 1
        assert cdp_count(4, 4) == 82

    def test_single_cell(self):
        assert cdp_q_bruteforce(1, 1) == ONE

    def test_coefficients_are_nonnegative(self):
        for n in range(1, 6):
            for w in range(1, n + 2):
                assert all(c >= 0 for c in cdp_q_closed(n, w).coeffs)
                assert all(c >= 0 for c in avl_q_closed(n, w).coeffs)

    def test_bruteforce_guard(self):
        with pytest.raises(ValueError):
            cdp_q_bruteforce(9, 8)
        with pytest.raises(ValueError):
            cdp_q_bruteforce_widths(9, 8)

    def test_widths_equal_one_walk_per_width(self):
        # The per-width reference walks CDP(n, w) and builds each lattice word at width w.
        for n in range(1, 12):
            widths = cdp_q_bruteforce_widths(n, 12 - n)
            assert len(widths) == 12 - n
            for w, q_count in enumerate(widths, start=1):
                assert q_count == histogram(maj(area_to_path(a).bits) for a in enumerate_cdp(n, w)), (n, w)
            assert cdp_q_bruteforce_widths(n, 6 - n // 2) == widths[:6 - n // 2]
            assert cdp_q_bruteforce(n, 12 - n) == widths[-1]


def transfer_trace(w: int, d: int) -> int:
    """tr(T^d) for the w x w 0/1 matrix with T[a][b] = 1 iff b <= a + 1.

    An area sequence of CDP(n, w) is a closed walk of length n in T, and one
    fixed by the k-th shift repeats its first gcd(n, k) values, so this
    counts the fixed points with no enumeration.
    """
    t = [[int(b <= a + 1) for b in range(w)] for a in range(w)]
    power = [[int(a == b) for b in range(w)] for a in range(w)]
    for _ in range(d):
        power = [[sum(power[a][c] * t[c][b] for c in range(w)) for b in range(w)] for a in range(w)]
    return sum(power[a][a] for a in range(w))


class TestSievingPastEnumeration:
    @pytest.mark.parametrize("n,w", [(36, 9), (60, 8)])
    def test_closed_form_against_transfer_matrix(self, n, w):
        f = cdp_q_closed(n, w)
        assert f(1) == cdp_count(n, w) == transfer_trace(w, n)
        for d in divisors(n):
            assert eval_at_unity(f, n // d) == transfer_trace(w, d), d

    def test_transfer_matrix_counts_enumerated_paths(self):
        for n in range(1, 7):
            for w in range(1, n + 3):
                assert transfer_trace(w, n) == sum(1 for _ in enumerate_cdp(n, w)), (n, w)


def cdp_double_sum(n: int, w: int) -> IntPolynomial:
    """The double sum over s and j, one shifted binomial pair per (s, j)."""
    delta = w + 2
    s_max = (2 * n) // delta + 1
    total: list[int] = []
    for s in range(-s_max, s_max + 1):
        for j in range(1, w + 1):
            exponent = s * s * delta + s * (j + 1)
            for col, sign in ((n - 1 - delta * s, 1), (n + j + delta * s, -1)):
                if 0 <= col <= 2 * n - 1:
                    coeffs = q_binomial(2 * n - 1, col).coeffs
                    end = exponent + len(coeffs)
                    total.extend([0] * (end - len(total)))
                    for i, c in enumerate(coeffs):
                        total[exponent + i] += sign * c
    return IntPolynomial(total)


class TestClosedFormVisitsOnlyInRangeColumns:
    def test_equals_double_sum(self):
        for n in range(1, 13):
            for w in range(1, 3 * n + 1):
                assert cdp_q_closed(n, w) == cdp_double_sum(n, w), (n, w)

    def test_equals_double_sum_at_wide_width(self):
        assert cdp_q_closed(40, 500) == cdp_double_sum(40, 500)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every (top, k) that genfunc passes to q_binomial, in order."""
        log = []
        real = genfunc.q_binomial
        monkeypatch.setattr(genfunc, "q_binomial", lambda top, k: (log.append((top, k)), real(top, k))[1])
        return log

    def test_closed_counts_leave_the_q_binomial_memo_alone(self):
        q_binomial.cache_clear()
        q_binomial(9, 4)
        before = q_binomial.cache_info().currsize
        for n, w in [(12, 3), (9, 1), (8, 8), (30, 4), (5, 10**6)]:
            cdp_q_closed(n, w)
            avl_q_closed(n, w)
        for n in range(12):
            bw_q(n)
        assert q_binomial.cache_info().currsize == before

    def test_cdp_sums_only_terms_in_range(self, monkeypatch):
        real = genfunc._binomial_sum
        seen = []
        monkeypatch.setattr(genfunc, "_binomial_sum", lambda top, terms: real(top, seen.extend(terms) or seen))
        for n, w in [(12, 3), (8, 8), (5, 1000)]:
            seen.clear()
            cdp_q_closed(n, w)
            assert seen and all(0 <= k <= 2 * n - 1 for _, _, k in seen), (n, w)
        # The s = 0 column is one term, times w; then four j at s = 0 and four at s = -1.
        assert len(seen) == 9

    def test_oracles_call_only_columns_in_range(self, calls):
        # h_closed and cdp_q_wide keep their own arithmetic, and their own range check.
        assert selftest.crit_6_h_machinery(12) == (True, "930 alternating configurations, closed == brute force")
        assert calls and all(0 <= k <= top for top, k in calls)
        calls.clear()
        for n in range(1, 10):
            for w in [*range(n, 2 * n + 3), 1000]:
                cdp_q_wide(n, w)
        assert calls and all(0 <= k <= top for top, k in calls)


def reference_binomial_sum(top: int, terms: list[tuple[int, int, int]]) -> IntPolynomial:
    """Sum of c q^e [top, k]_q, one q_binomial row and one polynomial addition per term."""
    total = ZERO
    for c, e, k in terms:
        total = total + c * q_binomial(top, k).shift(e)
    return total


@st.composite
def binomial_sums(draw):
    top = draw(st.integers(0, 40))
    term = st.tuples(st.integers(-5, 5), st.integers(0, 60), st.integers(-3, top + 3))
    return top, draw(st.lists(term, max_size=8))


def packed(coeffs, width):
    return b"".join(c.to_bytes(width, "little") for c in coeffs)


class TestBinomialSum:
    @given(binomial_sums())
    @example((0, []))
    @example((40, []))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_sum_of_q_binomial_rows(self, case):
        top, terms = case
        assert genfunc._binomial_sum(top, terms) == reference_binomial_sum(top, terms)

    def test_single_rows_and_cancellation(self):
        for top in range(12):
            for k in range(top + 1):
                assert genfunc._binomial_sum(top, [(1, 0, k)]) == q_binomial(top, k)
                assert genfunc._binomial_sum(top, [(3, 2, k), (-3, 2, top - k)]) == ZERO

    @pytest.mark.parametrize("c", [5, -5])
    def test_coefficient_at_the_width_bound(self, c):
        # [1, 0] = [1, 1] = 1 = C(1, 0), so 26 terms reach the bound 130 itself: eight
        # bits, and the slot needs a ninth for the sign.
        assert genfunc._binomial_sum(1, [(c, 0, 0), (c, 0, 1)] * 13) == IntPolynomial([26 * c])

    def test_ratio_walks_a_row(self):
        # [7, 2] from [7, 1] = 1 + q + ... + q^6: times 1 - q^6, over 1 - q^2.
        row = genfunc._packed_ratio(packed([1] * 7, 2), 6, 2, 2)
        assert row == packed(q_binomial(7, 2).coeffs, 2)

    @pytest.mark.parametrize("coeffs, shift, k", [([1], 1, 2), ([0, 1], 1, 2), ([2, 0, 1], 2, 3), ([1] * 7, 5, 2)])
    def test_ratio_refuses_a_product_it_does_not_divide(self, coeffs, shift, k):
        # coeffs (1 - q^shift) leaves a remainder mod 1 - q^k in each case.  For 1 - q
        # a block of the prefix sum falls below zero; for q - q^2 every block stays
        # at or above zero, and the remainder shows in the bytes above the degree.
        product = IntPolynomial(coeffs) * (ONE - IntPolynomial.monomial(1, shift))
        with pytest.raises(ExactDivisionError):
            product.exact_div(ONE - IntPolynomial.monomial(1, k))
        with pytest.raises(ExactDivisionError):
            genfunc._packed_ratio(packed(coeffs, 2), shift, k, 2)


def restated_cdp_sum(n: int, w: int) -> IntPolynomial:
    """The re-indexed double sum with first column n + delta*s."""
    delta = w + 2
    s_max = (2 * n) // delta + 1
    total = ZERO
    for s in range(-s_max, s_max + 1):
        for j in range(1, w + 1):
            term = q_binomial(2 * n - 1, n + delta * s) - q_binomial(2 * n - 1, n + j + delta * s)
            if not term.is_zero():
                total = total + term.shift(s * s * delta + s * (j + 1))
    return total


def test_restated_sum_equals_closed_form():
    for n in range(1, 6):
        for w in range(1, n + 2):
            assert restated_cdp_sum(n, w) == cdp_q_closed(n, w)


class TestAvlPolynomials:
    def test_blocked_strip(self):
        assert avl_q_closed(2, 1) == ZERO
        assert avl_q_bruteforce(2, 1) == ZERO

    def test_count_three_two(self):
        assert avl_q_closed(3, 2)(1) == 8

    def test_closed_equals_bruteforce(self):
        for n in range(1, 7):
            for w in range(1, n + 2):
                assert avl_q_closed(n, w) == avl_q_bruteforce(n, w)


class TestBinaryWordPolynomials:
    def test_small_values(self):
        assert bw_q(1) == poly(2)
        assert bw_q(2, "A") == poly(2, 2)
        assert bw_q(2, "B") == poly(2, 2)

    def test_three_forms_identical(self):
        for n in range(13):
            assert bw_q(n, "A") == bw_q(n, "B") == bw_q(n, "C")

    def test_rejects_unknown_form(self):
        with pytest.raises(ValueError):
            bw_q(3, "D")


class TestMobiusPolynomial:
    def test_size_two(self):
        assert cmp_q(2) == poly(1, 1)

    def test_closed_equals_bruteforce(self):
        for n in range(1, 17):
            assert cmp_q(n) == cmp_q_bruteforce(n), n

    def test_value_at_one(self):
        for n in range(1, 11):
            assert cmp_q(n)(1) == 2 ** (n - 1)

    def test_folding_congruence(self):
        for n in range(1, 11):
            assert mod_cyclic(cmp_q(n) * 2, n) == mod_cyclic(bw_q(n), n)


class TestCarlitz:
    def test_small(self):
        assert carlitz_q_catalan(1) == ONE
        assert carlitz_q_catalan(2) == poly(1, 0, 1)

    def test_matches_dyck_bruteforce(self):
        for n in range(1, 8):
            assert carlitz_q_catalan(n) == dyck_q_bruteforce(n)
