"""Cyclic actions, orbits, fixed points, the orbit polynomial."""

import random
from math import gcd

import pytest

from cyclicsieve.actions import (
    CyclicAction,
    OrbitDecomposition,
    OrbitError,
    area_shift,
    fixed_count,
    mobius_shift,
    orbit_decompose,
    orbit_poly,
    rotation_census,
    twisted_necklaces,
    twisted_shift,
    twisted_shift_bits,
    word_rotate,
    word_shift_two,
)
from cyclicsieve.csp import zrun_rotation_action
from cyclicsieve.paths import AreaSequence, MobiusWord, enumerate_cdp, enumerate_cmp, enumerate_words
from cyclicsieve.qpoly import IntPolynomial, eval_at_unity, q_int


def bw(n):
    return [format(v, f"0{n}b") for v in range(2 ** n)]


class TestAreaShift:
    def test_rotates_right(self):
        a = AreaSequence((3, 4, 2, 3, 2, 3), 6)
        assert area_shift(a).values == (3, 3, 4, 2, 3, 2)

    def test_constant_sequences_are_fixed(self):
        a = AreaSequence((2, 2, 2), 4)
        assert area_shift(a) == a

    def test_order_divides_height(self):
        for a in enumerate_cdp(4, 4):
            b = a
            for _ in range(4):
                b = area_shift(b)
            assert b == a


class TestWordShift:
    def test_two_step_rotation(self):
        assert word_shift_two("0011") == "1100"

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            word_shift_two("011")

    def test_order_divides_half_length(self):
        for n in (3, 4):
            for word in bw(2 * n):
                w = word
                for _ in range(n):
                    w = word_shift_two(w)
                assert w == word

    def test_does_not_preserve_mobius_paths(self):
        full_words = {m.full_bits() for m in enumerate_cmp(3)}
        escaped = [w for w in full_words if word_shift_two(w) not in full_words]
        assert escaped


class TestTwistedShift:
    def test_fixed_word(self):
        assert twisted_shift("101") == "101"

    def test_worked_example(self):
        assert twisted_shift("110010") == "011100"

    def test_order_is_word_length(self):
        for word in bw(8):
            w = word
            for _ in range(8):
                w = twisted_shift(w)
            assert w == word

    def test_preserves_parity(self):
        for n in range(2, 11):
            for word in bw(n):
                assert word.count("1") % 2 == twisted_shift(word).count("1") % 2

    def test_rejects_short_words(self):
        with pytest.raises(ValueError):
            twisted_shift("1")

    def test_necklaces_refuse_short_words(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match="twisted shift needs word length at least 2"):
                list(twisted_necklaces(n))
        assert list(twisted_necklaces(1, odd=True)) == [(1, 1)]

    def test_int_shift_equals_the_word_shift(self):
        for n in range(2, 13):
            for v in range(2 ** n):
                assert format(twisted_shift_bits(v, n), f"0{n}b") == twisted_shift(format(v, f"0{n}b")), (n, v)


class TestMobiusShift:
    def test_worked_example(self):
        image = mobius_shift(MobiusWord("10110110"))
        assert image.half == twisted_shift("10110110")[:-1] + "0"
        assert image.half == "01101100"

    def test_identity_after_n_steps(self):
        for m in enumerate_cmp(6):
            x = m
            for _ in range(6):
                x = mobius_shift(x)
            assert x == m

    def test_is_bijection(self):
        for n in range(1, 9):
            carrier = list(enumerate_cmp(n))
            assert {mobius_shift(m) for m in carrier} == set(carrier)


class TestOrbits:
    def test_worked_zrun_orbits(self):
        carrier = ["0011", "1001", "0101"]
        dec = orbit_decompose(carrier, zrun_rotation_action(2))
        assert set(dec.orbits) == {("0011", "1001"), ("0101",)}

    def test_constant_sequences_are_singletons(self):
        carrier = list(enumerate_cdp(3, 3))
        dec = orbit_decompose(carrier, CyclicAction(3, area_shift))
        singletons = {o[0].values for o in dec.orbits if len(o) == 1}
        assert singletons == {(0, 0, 0), (1, 1, 1), (2, 2, 2)}

    def test_orbit_sizes_divide_order(self):
        carrier = list(enumerate_cdp(6, 3))
        dec = orbit_decompose(carrier, CyclicAction(6, area_shift))
        assert all(6 % s == 0 for s in dec.sizes)
        assert dec.carrier_size() == len(carrier)

    def test_closure_violation_reports_witness(self):
        action = CyclicAction(4, lambda w: word_rotate(w, 1))
        with pytest.raises(OrbitError, match="leaves the carrier"):
            orbit_decompose(["0001"], action)

    def test_rejects_wrong_order(self):
        action = CyclicAction(3, lambda w: word_rotate(w, 1))
        with pytest.raises(OrbitError, match="order"):
            orbit_decompose(bw(4), action)

    def test_walked_orbits_are_kept(self):
        # orbit_decompose calls the generator once per element and hands
        # over the orbits it walked; reading them calls it no more.
        calls = []
        action = CyclicAction(6, lambda x: (calls.append(x), area_shift(x))[1])
        carrier = list(enumerate_cdp(6, 3))
        dec = orbit_decompose(carrier, action)
        assert len(calls) == len(carrier)
        assert sum(len(o) for o in dec.orbits) == len(carrier)
        assert len(calls) == len(carrier)
        assert dec.necklaces == tuple(o[0] for o in dec.orbits)

    def test_orbits_hold_the_carriers_own_elements(self):
        # area_shift builds a new AreaSequence; the walk keeps the carrier's object, not that copy.
        carrier = list(enumerate_cdp(6, 3))
        own = {id(x) for x in carrier}
        dec = orbit_decompose(carrier, CyclicAction(6, area_shift))
        assert all(id(x) in own for orbit in dec.orbits for x in orbit)
        assert sum(map(len, dec.orbits)) == len(carrier)

    def test_repeated_elements_are_walked_once(self):
        carrier = list(enumerate_cdp(5, 3))
        repeated = carrier + [AreaSequence(tuple(a.values), a.width) for a in carrier[::3]] + carrier[1::4]
        random.Random(3).shuffle(repeated)
        dec = orbit_decompose(repeated, CyclicAction(5, area_shift))
        assert dec == orbit_decompose(carrier, CyclicAction(5, area_shift))
        assert dec.orbits == orbit_decompose(carrier, CyclicAction(5, area_shift)).orbits

    def test_equality_does_not_depend_on_reading_the_orbits(self):
        carrier = list(enumerate_cdp(6, 3))
        action = CyclicAction(6, area_shift)
        walked = orbit_decompose(carrier, action)
        unread = OrbitDecomposition(action, walked.necklaces, walked.sizes)
        assert unread == walked
        assert unread.orbits == walked.orbits
        assert unread == walked


def sorted_reference_orbits(carrier, action):
    """Orbits found by walking the sorted carrier: each starts at its minimum."""
    seen = set()
    orbits = []
    for x in sorted(set(carrier)):
        if x in seen:
            continue
        orbit = [x]
        y = action.generator(x)
        while y != x:
            orbit.append(y)
            y = action.generator(y)
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return tuple(orbits)


INSTANCES = {
    "cdp": lambda: (list(enumerate_cdp(6, 4)), CyclicAction(6, area_shift)),
    "cdp-square": lambda: (list(enumerate_cdp(5, 5)), CyclicAction(5, area_shift)),
    "cmp": lambda: (list(enumerate_cmp(7)), CyclicAction(7, mobius_shift)),
    "bw": lambda: (bw(8), CyclicAction(8, twisted_shift)),
    "words": lambda: (list(enumerate_words((2, 2, 2), (1, 2, 3))), CyclicAction(6, lambda t: word_rotate(t, 1))),
}


class TestOrbitDecomposeReference:
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_equals_sorted_reference(self, name):
        carrier, action = INSTANCES[name]()
        assert orbit_decompose(carrier, action).orbits == sorted_reference_orbits(carrier, action)

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_carrier_order_does_not_matter(self, name):
        carrier, action = INSTANCES[name]()
        shuffled = carrier[::-1] + carrier[: len(carrier) // 2]
        random.Random(7).shuffle(shuffled)
        assert orbit_decompose(shuffled, action) == orbit_decompose(carrier, action)

    def test_leaving_the_carrier_raises(self):
        carrier = [a for a in enumerate_cdp(4, 3) if a.values != (1, 0, 0, 0)]
        with pytest.raises(OrbitError, match="leaves the carrier"):
            orbit_decompose(carrier, CyclicAction(4, area_shift))

    def test_non_bijection_raises(self):
        collapse = {"a": "c", "b": "c", "c": "a"}
        for carrier in (["a", "b", "c"], ["c", "b", "a"], ["b", "a", "c"]):
            with pytest.raises(OrbitError, match="not a bijection"):
                orbit_decompose(carrier, CyclicAction(2, collapse.__getitem__))

    def test_orbit_size_must_divide_order(self):
        with pytest.raises(OrbitError, match="does not divide"):
            orbit_decompose(["01", "10"], CyclicAction(3, lambda w: word_rotate(w, 1)))


class TestRotationCensus:
    def test_counts_each_word_by_its_orbit_size(self):
        for n in range(1, 9):
            for step in (1, 2) if n <= 6 else (1,):
                words = bw(step * n)
                action = CyclicAction(n, lambda x: word_rotate(x, step))
                sizes = orbit_decompose(words, action).sizes
                walked = {s: s * sizes.count(s) for s in set(sizes)}
                assert rotation_census(words, n, step) == walked, (n, step)

    def test_tuples_and_an_empty_list(self):
        assert rotation_census([(0, 1, 0, 1), (1, 1, 1, 1), (0, 0, 1, 1)], 4) == {2: 1, 1: 1, 4: 1}
        assert rotation_census([], 6, 2) == {}


class TestFixedCount:
    def test_cdp_half_shift(self):
        carrier = list(enumerate_cdp(4, 4))
        assert fixed_count(carrier, CyclicAction(4, area_shift), 2) == 10

    def test_twisted_shift_rule(self):
        carrier = bw(6)
        action = CyclicAction(6, twisted_shift)
        assert fixed_count(carrier, action, 2) == 4
        assert fixed_count(carrier, action, 3) == 0

    def test_depends_only_on_gcd(self):
        carrier = bw(6)
        action = CyclicAction(6, twisted_shift)
        for k in range(1, 7):
            assert fixed_count(carrier, action, k) == fixed_count(carrier, action, gcd(k, 6))

    def test_burnside(self):
        for n, w in [(4, 4), (6, 3)]:
            carrier = list(enumerate_cdp(n, w))
            action = CyclicAction(n, area_shift)
            dec = orbit_decompose(carrier, action)
            assert sum(fixed_count(carrier, action, k) for k in range(1, n + 1)) == n * len(dec.orbits)


class TestOrbitPoly:
    def test_single_fixed_point(self):
        dec = orbit_decompose(["x"], CyclicAction(1, lambda x: x))
        assert orbit_poly(dec) == IntPolynomial([1])

    def test_single_free_orbit(self):
        for n in range(1, 8):
            base = "1" + "0" * (n - 1)
            carrier = [word_rotate(base, k) for k in range(n)]
            dec = orbit_decompose(carrier, CyclicAction(n, lambda w: word_rotate(w, 1)))
            assert orbit_poly(dec) == q_int(n)

    def test_evaluations_count_fixed_points(self):
        # Root-of-unity values of the orbit polynomial are fixed-point counts.
        for n in range(1, 9):
            carrier = bw(n)
            action = CyclicAction(n, lambda w: word_rotate(w, 1))
            dec = orbit_decompose(carrier, action)
            f = orbit_poly(dec)
            for m in (d for d in range(1, n + 1) if n % d == 0):
                assert eval_at_unity(f, m) == fixed_count(carrier, action, n // m)

    def test_rejects_non_dividing_orbit(self):
        dec = OrbitDecomposition(CyclicAction(3, lambda w: word_rotate(w, 1)), ("01",), (2,))
        with pytest.raises(OrbitError):
            orbit_poly(dec)
