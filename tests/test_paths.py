"""Path objects: area sequences, lattice words, enumerators, statistics."""

import inspect
from collections import Counter
from itertools import accumulate, product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclicsieve.actions import CyclicAction, orbit_decompose, word_rotate
from cyclicsieve.genfunc import cdp_count
from cyclicsieve.paths import (
    _bounded_walks,
    AreaSequence,
    LatticeWord,
    MobiusWord,
    area_to_path,
    cdp_necklaces,
    cdp_values,
    enumerate_avl,
    enumerate_balanced,
    enumerate_cdp,
    enumerate_cmp,
    enumerate_dyck,
    enumerate_words,
    inv_zero_one,
    maj,
    transpose_word,
    validate_area_sequence,
    zeros_run_vector,
)
from reference import avoids_diagonals, mobius_lattice_word, path_to_area

FIG_AREA = (2, 3, 4, 4, 4, 3, 2, 2)
FIG_WORD = "0111010100100101"


class TestValidation:
    def test_worked_example(self):
        assert validate_area_sequence((3, 4, 2, 3, 2, 3), 6)

    def test_step_condition(self):
        assert not validate_area_sequence((0, 2), 3)

    def test_width_bound(self):
        assert not validate_area_sequence((1, 1), 1)

    def test_wraparound_is_checked(self):
        assert not validate_area_sequence((2, 0), 3)
        assert validate_area_sequence((1, 0), 3)

    def test_constructor_enforces_validity(self):
        with pytest.raises(ValueError):
            AreaSequence((0, 2), 3)


class TestEnumeration:
    def test_two_by_two(self):
        got = [a.values for a in enumerate_cdp(2, 2)]
        assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_height_one(self):
        for w in range(1, 7):
            assert sum(1 for _ in enumerate_cdp(1, w)) == w

    def test_three_by_three_is_eighteen(self):
        assert sum(1 for _ in enumerate_cdp(3, 3)) == 18

    def test_lexicographic_order(self):
        values = [a.values for a in enumerate_cdp(3, 3)]
        assert values == sorted(values)

    def test_width_zero_is_empty(self):
        assert list(enumerate_cdp(3, 0)) == []

    def test_is_a_generator(self):
        assert inspect.isgeneratorfunction(enumerate_cdp)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_filtered_product(self, n):
        # Reference: every tuple in range(w)^n, in lexicographic order,
        # kept when the public validator accepts it.
        for w in range(1, n + 3):
            want = [v for v in product(range(w), repeat=n) if validate_area_sequence(v, w)]
            assert list(cdp_values(n, w)) == want
            got = list(enumerate_cdp(n, w))
            assert [a.values for a in got] == want
            assert all(a == AreaSequence(a.values, w) for a in got)


class TestNecklaces:
    """cdp_necklaces against its oracle, the orbit walk over cdp_values."""

    @staticmethod
    def walked(n, w):
        dec = orbit_decompose(list(cdp_values(n, w)), CyclicAction(n, lambda v: word_rotate(v, 1)))
        return [(orbit[0], len(orbit)) for orbit in dec.orbits]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_the_orbit_walk_in_order(self, n):
        for w in range(1, n + 3):
            assert list(cdp_necklaces(n, w)) == self.walked(n, w), (n, w)

    def test_nine_by_nine(self):
        got = list(cdp_necklaces(9, 9))
        assert len(got) == 15_172
        assert got == self.walked(9, 9)

    def test_small_cells_by_hand(self):
        assert list(cdp_necklaces(2, 2)) == [((0, 0), 1), ((0, 1), 2), ((1, 1), 1)]
        # Every word of {0,1}^3 keeps the rule at width 2.
        assert list(cdp_necklaces(3, 2)) == [((0, 0, 0), 1), ((0, 0, 1), 3), ((0, 1, 1), 3), ((1, 1, 1), 1)]

    def test_height_one(self):
        for w in range(1, 7):
            assert list(cdp_necklaces(1, w)) == [((a,), 1) for a in range(w)]

    def test_width_one(self):
        for n in range(1, 8):
            assert list(cdp_necklaces(n, 1)) == [((0,) * n, 1)]

    def test_width_zero_and_height_zero_are_empty(self):
        for n in range(0, 6):
            assert list(cdp_necklaces(n, 0)) == []
        assert list(cdp_necklaces(0, 3)) == []

    def test_wide_cells(self):
        # w >= n + 1: every value up to w - 1 is reachable, none saturates.
        for n in range(1, 6):
            for w in (n + 1, n + 3, n + 5):
                got = list(cdp_necklaces(n, w))
                assert got == self.walked(n, w), (n, w)
                assert max(max(x) for x, _ in got) == w - 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_least_rotation_exact_period_increasing(self, n):
        for w in range(1, n + 2):
            got = list(cdp_necklaces(n, w))
            assert [x for x, _ in got] == sorted({x for x, _ in got})
            for x, p in got:
                assert validate_area_sequence(x, w)
                assert x == min(x[i:] + x[:i] for i in range(n))
                assert p == min(d for d in range(1, n + 1) if x[d:] + x[:d] == x)

    def test_is_a_generator(self):
        assert inspect.isgeneratorfunction(cdp_necklaces)


class TestAreaSequenceBoundary:
    @pytest.mark.parametrize(
        "values, width",
        [((0, 2), 3), ((2, 0), 3), ((1, 1), 1), ((), 3), ((0,), 0), ((-1, 0), 3), ((3,), 3)],
    )
    def test_rejects_invalid_input(self, values, width):
        with pytest.raises(ValueError):
            AreaSequence(values, width)

    def test_accepts_any_sequence_type(self):
        assert AreaSequence([1, 0], 3).values == (1, 0)


class TestWordEncoding:
    def test_figure_example(self):
        word = area_to_path(AreaSequence(FIG_AREA, 8))
        assert word.start == 6
        assert word.bits == FIG_WORD

    def test_all_zero_area_is_alternating_word(self):
        for n in range(1, 7):
            word = area_to_path(AreaSequence((0,) * n, n))
            assert word.start == n
            assert word.bits == "01" * n

    def test_round_trip_on_cdp_4_4(self):
        for a in enumerate_cdp(4, 4):
            assert path_to_area(area_to_path(a)) == a

    def test_round_trip_all_small_widths(self):
        for n in range(1, 7):
            for w in range(1, 7):
                for a in enumerate_cdp(n, w):
                    assert path_to_area(area_to_path(a)) == a

    def test_word_count_matches_area_count(self):
        # Independent word-side enumeration: every (start, word) pair that
        # stays strictly between the diagonals, across all small cells.
        for n in range(1, 7):
            for w in range(1, 7):
                words = 0
                for bits in enumerate_balanced(n):
                    if not bits.endswith("1"):
                        continue
                    for start in range(1, w + 1):
                        try:
                            LatticeWord(start, bits, w)
                        except ValueError:
                            continue
                        words += 1
                assert words == sum(1 for _ in enumerate_cdp(n, w))

    def test_rejects_diagonal_touch(self):
        with pytest.raises(ValueError):
            LatticeWord(1, "1001", 1)  # dips to the upper diagonal

    def test_rejects_missing_final_north(self):
        with pytest.raises(ValueError):
            LatticeWord(1, "0110", 2)


class TestStatistics:
    def test_maj_figure_word(self):
        assert maj(FIG_WORD) == 43

    def test_maj_trivial(self):
        assert maj("0000") == 0
        assert maj("10") == 1

    def test_maj_equals_the_positional_definition(self):
        def positional(word):
            return sum(i for i in range(1, len(word)) if word[i - 1] > word[i])

        for length in range(15):
            for letters in product("01", repeat=length):
                bits = "".join(letters)
                assert maj(bits) == positional(bits), bits
        for word in [(1, 0, 1, 0), (2, 3, 1, 1, 0), "123", "3121", "1203", "0110x", ""]:
            assert maj(word) == positional(word), word
        for letters in product("123", repeat=5):
            assert maj("".join(letters)) == maj(tuple(letters)) == positional(letters)

    def test_inv_examples(self):
        assert inv_zero_one("0011") == 4
        assert inv_zero_one("1001") == 2
        assert inv_zero_one("0101") == 3

    def test_inv_from_zero_run_vector(self):
        for n in range(1, 7):
            for bits in enumerate_balanced(n):
                if not bits.endswith("1"):
                    continue
                z = zeros_run_vector(bits)
                assert inv_zero_one(bits) == sum((n - i) * z[i] for i in range(n))

    def test_mobius_concatenation_maj_congruence(self):
        for n in range(1, 13):
            for v in range(2 ** n):
                bits = format(v, f"0{n}b")
                both = bits + transpose_word(bits)
                assert (maj(both) - maj(bits) - maj(transpose_word(bits))) % n == 0


# Every cell CDP(k*m, m) with k*m <= 8.
KM_CELLS = [(n // m, m) for n in range(1, 9) for m in range(1, n + 1) if n % m == 0]


@pytest.mark.parametrize("k, m", KM_CELLS)
def test_cdp_km_m_counts_the_cyclic_tuples_of_dyck_paths_with_peak_inequalities(k, m):
    # |CDP(k*m, m)| is the number of cyclic 2k-tuples (P_1, ..., P_2k) of Dyck
    # paths of size m with h_l(P_j) + h_f(P_(j+1)) >= m, indices cyclic: h_f is
    # the height of the first peak (the leading run of east steps) and h_l that
    # of the last (the trailing run of north steps).  Paths with the same
    # (h_f, h_l) are counted together, with their multiplicity.
    peaks = Counter((len(p) - len(p.lstrip("0")), len(p) - len(p.rstrip("1"))) for p in enumerate_dyck(m))
    tuples = sum(
        prod(peaks[h] for h in t)
        for t in product(peaks, repeat=2 * k)
        if all(t[j - 1][1] + t[j][0] >= m for j in range(2 * k))
    )
    assert tuples == cdp_count(k * m, m) == sum(1 for _ in cdp_values(k * m, m))


def test_km_cells_hold_48184_paths_in_all():
    assert len(KM_CELLS) == 20
    assert sum(cdp_count(k * m, m) for k, m in KM_CELLS) == 48184


class TestMobius:
    def test_size_one(self):
        words = list(enumerate_cmp(1))
        assert len(words) == 1
        assert words[0].half == "0"
        assert words[0].full_bits() == "01"

    def test_counts_are_powers_of_two(self):
        for n in range(1, 9):
            assert sum(1 for _ in enumerate_cmp(n)) == 2 ** (n - 1)

    def test_forced_bits(self):
        for word in enumerate_cmp(4):
            full = word.full_bits()
            assert full[3] == "0" and full[7] == "1"

    def test_half_determines_complemented_second_half(self):
        for word in enumerate_cmp(5):
            full = word.full_bits()
            for i in range(5):
                assert full[i] != full[5 + i]

    def test_subset_of_circular_paths(self):
        for n in range(1, 9):
            area_set = set(enumerate_cdp(n, n))
            for word in enumerate_cmp(n):
                assert path_to_area(mobius_lattice_word(word)) in area_set

    def test_every_element_is_a_valid_lattice_word_to_the_cli_bound(self):
        # enumerate_cmp no longer walks its elements; LatticeWord raises on an invalid one.
        for n in range(1, 13):
            words = [mobius_lattice_word(word) for word in enumerate_cmp(n)]
            assert len(words) == 2 ** (n - 1)
            assert all(isinstance(x, LatticeWord) and x.width == n and len(x.bits) == 2 * n for x in words)

    def test_rejects_bad_half(self):
        with pytest.raises(ValueError):
            MobiusWord("01")


class TestWordEnumerator:
    def test_every_word_once_in_order(self):
        # Over two letters the order is lexicographic; over more, each letter's positions are chosen in turn.
        assert list(enumerate_words((2, 1), "ab")) == ["aab", "aba", "baa"]
        words = list(enumerate_words((1, 1, 2), (1, 2, 3)))
        assert len(words) == len(set(words)) == 12
        assert words[:3] == [(1, 2, 3, 3), (1, 3, 2, 3), (1, 3, 3, 2)]

    def test_zero_parts_place_no_letter(self):
        # A zero part, wherever it stands, leaves the words and their order as they are without it.
        for content, letters, kept, kept_letters in [
            ((0, 2, 0, 1, 0), "abcde", (2, 1), "bd"),
            ((2, 0, 2), "abc", (2, 2), "ac"),
            ((0, 0, 3), (1, 2, 3), (3,), (3,)),
        ]:
            assert list(enumerate_words(content, letters)) == list(enumerate_words(kept, kept_letters)), content

    def test_many_zero_parts_take_no_recursion_level(self):
        content = (0,) * 1200 + (2,)
        assert list(enumerate_words(content, range(1, 1202))) == [(1201, 1201)]
        assert list(enumerate_words((0,) * 600 + (1,) + (0,) * 600 + (1,), range(1202))) == [(600, 1201), (1201, 600)]


@pytest.fixture(scope="module")
def balanced_words():
    """enumerate_words((n, n), "01") for n = 0..10: the balanced words by another route."""
    return [list(enumerate_words((n, n), "01")) for n in range(11)]


def reference_walks(n: int) -> list[tuple[str, int, int]]:
    """Every balanced 2n-step word with the least and greatest height of its walk, in lexicographic order.

    Built level by level, '0' before '1', from prefixes that can still return to height 0.
    """
    level = [("", 0, 0, 0)]
    for i in range(1, 2 * n + 1):
        level = [
            (p + b, h + s, min(lo, h + s), max(hi, h + s))
            for p, h, lo, hi in level
            for b, s in (("0", 1), ("1", -1))
            if abs(h + s) <= 2 * n - i
        ]
    return [(p, lo, hi) for p, _, lo, hi in level]


class TestBoundedWalk:
    """enumerate_balanced, enumerate_dyck and enumerate_avl are one height-bounded walk."""

    @pytest.mark.parametrize("n", range(10))
    def test_equals_the_level_by_level_walk_for_every_pair_of_bounds(self, n):
        rows = reference_walks(n)
        for low in range(-n - 1, 1):
            for high in range(n + 2):
                expected = [p for p, lo, hi in rows if low <= lo and hi <= high]
                assert list(_bounded_walks(n, low, high)) == expected, (n, low, high)

    def test_equals_the_level_by_level_walk_at_ten(self):
        # All 121 pairs of bounds at n = 10 yield 13.6 million words; these take no bound, one side and asymmetric pairs.
        rows = reference_walks(10)
        for low, high in [(-10, 10), (0, 10), (-10, 0), (-2, 5), (-6, 1), (-1, 1)]:
            expected = [p for p, lo, hi in rows if low <= lo and hi <= high]
            assert list(_bounded_walks(10, low, high)) == expected, (low, high)

    def test_size_zero(self):
        assert list(enumerate_balanced(0)) == [""]
        assert list(enumerate_dyck(0)) == [""]

    @pytest.mark.parametrize("enumerator", [enumerate_balanced, enumerate_dyck])
    def test_rejects_a_negative_size(self, enumerator):
        with pytest.raises(ValueError, match="must be non-negative"):
            list(enumerator(-1))

    @pytest.mark.parametrize("enumerator", [enumerate_balanced, enumerate_dyck, enumerate_avl])
    def test_is_a_generator(self, enumerator):
        assert inspect.isgeneratorfunction(enumerator)

    def test_balanced_equals_the_word_enumerator_in_order(self, balanced_words):
        for n, balanced in enumerate(balanced_words):
            assert list(enumerate_balanced(n)) == balanced, n

    def test_dyck_equals_the_balanced_words_never_below_the_start_in_order(self, balanced_words):
        for n, balanced in enumerate(balanced_words):
            never_below = [b for b in balanced if min(accumulate(1 if c == "0" else -1 for c in b), default=0) >= 0]
            assert list(enumerate_dyck(n)) == never_below, n


class TestAvoidingPaths:
    def test_counts(self):
        assert sum(1 for _ in enumerate_avl(3, 2)) == 8
        assert sum(1 for _ in enumerate_avl(2, 1)) == 0
        assert sum(1 for _ in enumerate_avl(2, 3)) == 6

    def test_equals_the_filtered_balanced_words_in_order(self, balanced_words):
        for n, balanced in enumerate(balanced_words[1:], start=1):
            # A word that avoids the diagonals +-w avoids every wider pair, so
            # the filter for w keeps the words whose least avoided width is <= w.
            least = [next(w for w in range(1, n + 2) if avoids_diagonals(b, w)) for b in balanced]
            for w in range(1, n + 3):
                assert list(enumerate_avl(n, w)) == [b for b, v in zip(balanced, least) if v <= w], (n, w)

    @pytest.mark.parametrize("n, w", [(0, 3), (3, 0), (2, -1)])
    def test_rejects_a_size_below_one(self, n, w):
        with pytest.raises(ValueError, match="must be positive"):
            next(enumerate_avl(n, w))


@st.composite
def area_sequences(draw):
    n = draw(st.integers(1, 8))
    w = draw(st.integers(1, 8))
    values = [draw(st.integers(0, w - 1))]
    for _ in range(n - 1):
        values.append(draw(st.integers(0, min(w - 1, values[-1] + 1))))
    assume(values[0] <= values[-1] + 1)
    return AreaSequence(tuple(values), w)


@given(area_sequences())
@settings(max_examples=200)
def test_word_round_trip_property(a):
    assert path_to_area(area_to_path(a)) == a
