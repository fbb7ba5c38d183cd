"""Exact polynomial kernel: q-analogues, cyclotomics, root-of-unity evaluation."""

import functools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicsieve.genfunc import cdp_q_closed
from cyclicsieve.qpoly import (
    ONE,
    ZERO,
    ExactDivisionError,
    IntPolynomial,
    NonConstant,
    cyclotomic,
    divisors,
    eval_at_unity,
    mod_cyclic,
    q_binomial,
    q_factorial,
    q_int,
    q_lucas_eval,
    q_multinomial,
    _exact_div_one_minus_q_power,
)
from reference import poly, q_binomial_by_division


@functools.cache
def pascal_binomial(n, k):
    """Reference: the division-free q-Pascal recurrence [n,k] = [n-1,k-1] + q^k [n-1,k]."""
    if not 0 <= k <= n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    return pascal_binomial(n - 1, k - 1) + pascal_binomial(n - 1, k).shift(k)


class TestIntPolynomial:
    def test_canonical_form(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial([0, 0]).is_zero()
        assert ZERO.degree() == -1
        assert poly(5).degree() == 0

    def test_arithmetic_is_exact(self):
        f = poly(1, 2, 1)
        g = poly(1, 1)
        assert g * g == f
        assert f - g * g == ZERO
        assert f.exact_div(g) == g
        assert (f + 3)(10) == f(10) + 3
        assert (-f) + f == ZERO

    def test_exact_division_rejects_non_divisors(self):
        with pytest.raises(ExactDivisionError):
            poly(1, 1, 1).exact_div(poly(1, 1))

    def test_mod_monic_requires_monic(self):
        with pytest.raises(ValueError):
            poly(1, 1).mod_monic(poly(1, 2))

    def test_huge_coefficients_survive(self):
        big = 2 ** 200
        f = poly(big) * poly(big)
        assert f.constant_value() == big * big

    def test_json_round_trip_uses_decimal_strings(self):
        f = poly(-1, 0, 2 ** 100)
        data = f.to_json()
        assert data[0] == "-1" and data[2] == str(2 ** 100)
        assert IntPolynomial.from_json(data) == f

    @given(st.lists(st.integers(-5, 5), max_size=6), st.lists(st.integers(-5, 5), max_size=6))
    def test_product_evaluates_like_integers(self, a, b):
        f, g = IntPolynomial(a), IntPolynomial(b)
        assert (f * g)(3) == f(3) * g(3)
        assert (f + g)(3) == f(3) + g(3)


class TestQInt:
    def test_zero_is_empty_sum(self):
        assert q_int(0) == ZERO

    def test_one(self):
        assert q_int(1) == ONE

    def test_four(self):
        assert q_int(4) == poly(1, 1, 1, 1)


class TestQBinomial:
    def test_four_choose_two(self):
        assert q_binomial(4, 2) == poly(1, 1, 2, 1, 1)

    def test_out_of_range_is_zero(self):
        assert q_binomial(5, -1) == ZERO
        assert q_binomial(3, 4) == ZERO
        assert q_binomial(-2, -3) == ZERO

    def test_k_zero_is_one(self):
        assert all(q_binomial(n, 0) == ONE for n in range(10))

    def test_specializes_to_binomials(self):
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k)(1) == comb(n, k)

    def test_symmetry(self):
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)

    def test_both_pascal_identities(self):
        q = IntPolynomial([0, 1])
        for n in range(1, 13):
            for k in range(n + 1):
                left = q_binomial(n, k)
                assert left == q_binomial(n - 1, k).shift(k) + q_binomial(n - 1, k - 1)
                assert left == q_binomial(n - 1, k) + q_binomial(n - 1, k - 1).shift(n - k)
        assert q == poly(0, 1)

    def test_division_route_agrees_with_recurrence(self):
        for n in range(21):
            for k in range(n + 1):
                assert q_binomial_by_division(n, k) == q_binomial(n, k)

    def test_row_ratio_equals_q_pascal(self):
        for n in range(41):
            for k in range(-1, n + 2):
                assert q_binomial(n, k) == pascal_binomial(n, k), (n, k)

    def test_exact_division_by_one_minus_q_power(self):
        assert _exact_div_one_minus_q_power([1, 0, 0, -1], 3) == [1]
        assert _exact_div_one_minus_q_power([1, 1, 0, -1, -1], 3) == [1, 1]
        assert _exact_div_one_minus_q_power([], 2) == []

    def test_inexact_division_raises(self):
        with pytest.raises(ExactDivisionError):
            _exact_div_one_minus_q_power([1, 1, 1], 2)
        with pytest.raises(ExactDivisionError):
            _exact_div_one_minus_q_power([1, 0, -2], 2)
        with pytest.raises(ExactDivisionError):
            _exact_div_one_minus_q_power([5], 3)

    def test_memo_holds_only_requested_rows(self):
        q_binomial.cache_clear()
        cdp_q_closed(60, 8)
        assert q_binomial.cache_info().currsize <= 2 * 60

    def test_factorial_is_maj_over_permutations(self):
        assert q_factorial(3) == poly(1, 2, 2, 1)


class TestQMultinomial:
    def test_two_singletons(self):
        assert q_multinomial((1, 1)) == poly(1, 1)

    def test_content_two_one(self):
        # words 112, 121, 211 have major index 0, 2, 1
        assert q_multinomial((2, 1)) == poly(1, 1, 1)

    def test_single_block_is_one(self):
        assert q_multinomial((7,)) == ONE

    def test_rejects_empty_content(self):
        with pytest.raises(ValueError):
            q_multinomial(())

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(lambda mu: sum(mu) <= 7))
    @settings(max_examples=50, deadline=None)
    def test_matches_exhaustive_major_index(self, mu):
        from cyclicsieve.paths import enumerate_words, maj

        words = list(enumerate_words(mu, range(1, len(mu) + 1)))
        counts = {}
        for word in words:
            text = "".join(str(c) for c in word)
            m = maj(text)
            counts[m] = counts.get(m, 0) + 1
        expected = IntPolynomial([counts.get(i, 0) for i in range(max(counts, default=0) + 1)])
        assert q_multinomial(mu) == expected


@functools.cache
def cyclotomic_by_division(m):
    """Reference: q^m - 1 divided exactly by Phi_d for every proper divisor d of m."""
    num = IntPolynomial.monomial(1, m) - 1
    for d in divisors(m)[:-1]:
        num = num.exact_div(cyclotomic_by_division(d))
    return num


class TestCyclotomic:
    def test_first(self):
        assert cyclotomic(1) == poly(-1, 1)

    def test_fourth(self):
        assert cyclotomic(4) == poly(1, 0, 1)

    def test_sixth(self):
        assert cyclotomic(6) == poly(1, -1, 1)

    def test_product_over_divisors(self):
        for m in range(1, 61):
            product = ONE
            for d in divisors(m):
                product = product * cyclotomic(d)
            assert product == IntPolynomial.monomial(1, m) - 1

    def test_moebius_product_matches_recursive_division(self):
        for m in [*range(1, 401), *divisors(5040)]:
            assert cyclotomic(m) == cyclotomic_by_division(m), m


class TestEvalAtUnity:
    def test_binomial_at_minus_one(self):
        assert eval_at_unity(q_binomial(4, 2), 2) == 2

    def test_power_at_its_own_order(self):
        assert eval_at_unity(IntPolynomial.monomial(1, 5), 5) == 1

    def test_full_geometric_sum_vanishes(self):
        for n in range(2, 12):
            assert eval_at_unity(q_int(n), n) == 0

    def test_order_one_evaluates_at_one(self):
        f = poly(3, -1, 4)
        assert eval_at_unity(f, 1) == f(1)

    def test_nonconstant_marker(self):
        result = eval_at_unity(poly(0, 1), 4)  # q mod q^2+1 is q
        assert isinstance(result, NonConstant)
        assert result.remainder == poly(0, 1)

    def test_fold_first_equals_direct_reduction(self):
        rng = random.Random(20191)
        nonconstant = 0
        for _ in range(25):
            f = IntPolynomial(rng.randint(-9, 9) for _ in range(rng.randint(0, 201)))
            for m in range(1, 41):
                direct = f.mod_monic(cyclotomic(m))
                expected = direct.constant_value() if direct.is_constant() else NonConstant(direct)
                assert eval_at_unity(f, m) == expected, (f, m)
                nonconstant += isinstance(expected, NonConstant)
        assert nonconstant > 0


class TestQLucas:
    def test_four_two_two(self):
        assert q_lucas_eval(4, 2, 2) == 2

    def test_six_three_three_both_routes(self):
        # Both independent routes give 2 here.
        assert q_lucas_eval(6, 3, 3) == 2
        assert eval_at_unity(q_binomial(6, 3), 3) == 2

    def test_order_one_is_binomial(self):
        for n in range(8):
            for k in range(n + 1):
                assert q_lucas_eval(n, k, 1) == comb(n, k)

    def test_agrees_with_reduction_everywhere(self):
        for n in range(0, 13):
            for k in range(0, n + 1):
                for m in range(1, 13):
                    assert q_lucas_eval(n, k, m) == eval_at_unity(q_binomial(n, k), m)


class TestModCyclic:
    def test_fold_pairs(self):
        assert mod_cyclic(poly(1, 1, 1, 1), 2) == (2, 2)

    def test_fold_binomial(self):
        assert mod_cyclic(q_binomial(4, 2), 4) == (2, 1, 2, 1)

    def test_zero(self):
        assert mod_cyclic(ZERO, 3) == (0, 0, 0)


def test_newton_style_binomial_sum_identity():
    # sum_k q^binom(k,2) [n,k]_q equals prod_j (1 + q^j) for n <= 14.
    for n in range(15):
        total = ZERO
        for k in range(n + 1):
            total = total + q_binomial(n, k).shift(k * (k - 1) // 2)
        product = ONE
        for j in range(n):
            product = product * (IntPolynomial.monomial(1, j) + 1)
        assert total == product
