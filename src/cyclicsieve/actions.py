"""Cyclic group actions, orbit decomposition, fixed points, orbit polynomial.

The four actions of interest:

* area_shift: rotate the area sequence of a circular Dyck path one step
  to the right (the generator of the C_n action on CDP(n, w)); on the
  plain area tuples of paths.cdp_values this is word_rotate(t, 1).
* word_shift_two: rotate a binary word of even length two steps to the
  right (order n on words of length 2n).
* twisted_shift: move the last two bits of a length-n binary word to the
  front, complemented; applying it n times is the identity.
  twisted_shift_bits is the same map on the word read as an n-bit int.
* mobius_shift: the action induced by twisted_shift on circular Mobius
  paths through the odd-parity-word bijection.

OrbitDecomposition is the one orbit type: each orbit's least element and
size, from a census that never walks the carrier (twisted_necklaces,
paths.cdp_necklaces) or from orbit_decompose, which walks it and keeps
the orbits; orbit_poly and every sieving check read only the sizes.
It and CyclicAction are frozen records (record.record): the orbits walked
on first read are cached in the instance dict, outside the field tuple
that equality and hashing read.

A generator that leaves its carrier, is not a bijection of it, or has an
orbit whose size does not divide the order is a kernel bug, reported as
OrbitError and never as a verdict.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import gcd
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .paths import AreaSequence, MobiusWord
from .qpoly import IntPolynomial, divisors
from .record import record


class OrbitError(AssertionError):
    """An action is not a bijection of its carrier with every orbit size
    dividing its order, or an orbit census says otherwise: a kernel bug."""


def area_shift(a: AreaSequence) -> AreaSequence:
    """Rotate the area values one step to the right.

    A rotation of a valid cyclic sequence is valid, so it is not checked again.
    """
    v = a.values
    return AreaSequence._trusted((v[-1],) + v[:-1], a.width)


def word_rotate(bits: Sequence, steps: int) -> Sequence:
    """Rotate a word (a string or a tuple) `steps` positions to the right."""
    if not bits:
        return bits
    steps %= len(bits)
    if steps == 0:
        return bits
    return bits[-steps:] + bits[:-steps]


def word_shift_two(bits: str) -> str:
    """Rotate an even-length binary word two steps to the right."""
    if len(bits) % 2 != 0:
        raise ValueError("word must have even length")
    return word_rotate(bits, 2)


def twisted_shift(bits: str) -> str:
    """(b_1, ..., b_n) -> (1-b_{n-1}, 1-b_n, b_1, ..., b_{n-2}); needs n >= 2."""
    n = len(bits)
    if n < 2:
        raise ValueError("twisted shift needs word length at least 2")
    flip = {"0": "1", "1": "0"}
    return flip[bits[-2]] + flip[bits[-1]] + bits[:-2]


def twisted_shift_bits(v: int, n: int) -> int:
    """twisted_shift on the n-bit int whose binary digits, top bit first, are b_1 ... b_n; needs n >= 2."""
    return (v >> 2) | (((v & 3) ^ 3) << (n - 2))


def twisted_necklaces(n: int, odd: bool = False) -> Iterator[tuple[int, int]]:
    """(least element, size) of each twisted-shift orbit on the n-bit ints, least elements increasing.

    With `odd`, only the ints with an odd number of 1 bits, which the shift
    keeps among themselves; at n = 1 that is the one int 1, fixed (the
    Mobius shift of the single path of size 1).  The ints are passed once
    in increasing order, so the first one not yet seen is the least of its
    orbit, which is then walked with twisted_shift_bits and marked seen.
    Raises OrbitError if a step reaches a seen int before the orbit closes
    (the step is not a bijection) or if an orbit size does not divide n,
    and ValueError, as twisted_shift does, for n < 2 without `odd`.
    """
    if n < 2 and not odd:
        raise ValueError("twisted shift needs word length at least 2")
    if n == 1:
        yield 1, 1
        return
    seen = bytearray(1 << n)
    for v in range(1 << n):
        if seen[v] or (odd and not v.bit_count() & 1):
            continue
        seen[v] = 1
        size = 1
        y = twisted_shift_bits(v, n)
        while y != v:
            if seen[y]:
                raise OrbitError(f"twisted shift is not a bijection near {y:0{n}b}")
            seen[y] = 1
            size += 1
            y = twisted_shift_bits(y, n)
        if n % size != 0:
            raise OrbitError(f"orbit size {size} does not divide {n}")
        yield v, size


def mobius_shift(m: MobiusWord) -> MobiusWord:
    """Conjugate of twisted_shift under the odd-parity-word bijection.

    The half-word (h_1 ... h_{n-1}, 0) corresponds to the odd-parity word
    (h_1 ... h_{n-1}, p); the twisted shift preserves parity, so mapping
    back (drop the last bit, restore the trailing 0) is well defined.
    """
    n = m.size
    if n == 1:
        return m
    head = m.half[:-1]
    parity_bit = "0" if head.count("1") % 2 == 1 else "1"
    shifted = twisted_shift(head + parity_bit)
    return MobiusWord(shifted[:-1] + "0")


def rotation_census(words: Iterable[Sequence], n: int, step: int = 1) -> dict[int, int]:
    """Number of words of each orbit size under rotation by `step` letters, of order n.

    A word of length step * n returns to itself after d rotations exactly
    when word[step*d:] == word[:-step*d]; its orbit size, its least period,
    is the least such d dividing n, else n.  Each word is read once.
    """
    shifts = [step * d for d in divisors(n)[:-1]]
    census: dict[int, int] = {}  # keyed by the period in letters
    for x in words:
        for period in shifts:
            if x[period:] == x[:-period]:
                break
        else:
            period = step * n
        census[period] = census.get(period, 0) + 1
    return {period // step: count for period, count in census.items()}


@record
class CyclicAction:
    """A generator of a cyclic group of stated order acting on a finite carrier.

    orbit_decompose checks, on a given carrier, that the generator is a
    bijection of it whose order divides `order`.
    """

    order: int
    generator: Callable[[Hashable], Hashable]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")

    def apply_power(self, x: Hashable, k: int) -> Hashable:
        k %= self.order
        for _ in range(k):
            x = self.generator(x)
        return x


@record
class OrbitDecomposition:
    """The orbits of a carrier under an action: each orbit's least element
    (its necklace) and its size, in increasing order of the necklace.

    Sieving reads only `sizes`, so a census that finds the necklaces
    without walking the carrier builds one directly.  `orbits` lists each
    orbit from its necklace by the action's generator, walked on first
    read; it raises OrbitError unless each orbit returns to its necklace
    after exactly its size steps and each necklace is its orbit's least
    element, above the one before.  orbit_decompose returns one that
    already holds the orbits it walked.  Equality reads the action, the
    necklaces and the sizes, never whether `orbits` was read.
    """

    action: CyclicAction
    necklaces: tuple[Hashable, ...]
    sizes: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.action.order

    @cached_property
    def orbits(self) -> tuple[tuple[Hashable, ...], ...]:
        step = self.action.generator
        orbits = []
        for x, size in zip(self.necklaces, self.sizes):
            orbit = [x]
            for _ in range(size - 1):
                orbit.append(step(orbit[-1]))
            if x in orbit[1:] or step(orbit[-1]) != x:
                raise OrbitError(f"orbit of {x!r} does not close after exactly {size} steps")
            if min(orbit) != x or (orbits and not orbits[-1][0] < x):
                raise OrbitError(f"necklace {x!r} is not its orbit's least element above the necklace before it")
            orbits.append(tuple(orbit))
        return tuple(orbits)

    def carrier_size(self) -> int:
        return sum(self.sizes)

    def census(self) -> dict[int, int]:
        """Number of elements in orbits of each size."""
        return {s: s * count for s, count in Counter(self.sizes).items()}


def orbit_decompose(carrier: Sequence[Hashable], action: CyclicAction) -> OrbitDecomposition:
    """Orbits under the action, each listed from its minimal element.

    The carrier is walked in its given order, so an error witness does not
    depend on set order; each orbit is then rotated to start at its minimum
    and the orbits are ordered by that minimum, which needs no sort of the
    carrier.  One index, `remaining`, maps each element not yet walked to
    itself; each step pops the generator's output from it, so every orbit
    holds the carrier's own elements (a repeated one is walked once) and
    the generator's copy is dropped.  Raises OrbitError (with a witness) if
    the generator leaves the carrier or is not a bijection on it, or if an
    orbit size does not divide the order (that is, g^order is not the
    identity on the carrier).
    """
    remaining = dict(zip(carrier, carrier))
    orbits = []
    for x in carrier:
        if x not in remaining:
            continue
        orbit = [remaining.pop(x)]
        y = action.generator(x)
        while y != x:
            try:
                orbit.append(remaining.pop(y))
            except KeyError:
                if y in carrier:
                    raise OrbitError(f"generator is not a bijection near {y!r}") from None
                raise OrbitError(f"generator leaves the carrier at {y!r}") from None
            y = action.generator(y)
        if action.order % len(orbit) != 0:
            raise OrbitError(f"orbit size {len(orbit)} does not divide order {action.order}")
        i = orbit.index(min(orbit))
        orbits.append(tuple(orbit[i:] + orbit[:i]))
    orbits.sort(key=itemgetter(0))
    dec = OrbitDecomposition(action, tuple(o[0] for o in orbits), tuple(len(o) for o in orbits))
    dec.__dict__["orbits"] = tuple(orbits)  # the walk's own orbits, so `orbits` is not walked again
    return dec


def fixed_count(carrier: Sequence[Hashable], action: CyclicAction, k: int) -> int:
    """Number of carrier elements fixed by the k-th power of the generator.

    Depends only on gcd(k, order): g^k and g^gcd(k, order) generate the
    same subgroup, hence have the same fixed-point set.
    """
    d = gcd(k, action.order)
    return sum(1 for x in carrier if action.apply_power(x, d) == x)


def census_spread(census: dict[int, int], n: int) -> list[int]:
    """c n/s at each multiple of n/s below n, for each orbit size s with c elements; OrbitError unless s | n."""
    spread = [0] * n
    for s, c in census.items():
        if n % s != 0:
            raise OrbitError(f"orbit size {s} does not divide {n}")
        for ell in range(0, n, n // s):
            spread[ell] += c * (n // s)
    return spread


def orbit_poly(dec: OrbitDecomposition) -> IntPolynomial:
    """Coefficient of q^l counts the orbits whose stabilizer order divides l.

    This is the canonical sieving polynomial of the action: evaluating it
    at a primitive (n/gcd(n,k))-th root of unity gives the number of fixed
    points of the k-th generator power, n = dec.order; n times it is census_spread.
    """
    return IntPolynomial(c // dec.order for c in census_spread(dec.census(), dec.order))
