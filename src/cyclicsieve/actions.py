"""Cyclic group actions, orbit decomposition, fixed points, orbit polynomial.

The four actions of interest:

* area_shift: rotate the area sequence of a circular Dyck path one step
  to the right (the generator of the C_n action on CDP(n, w)); on the
  plain area tuples of paths.cdp_values this is word_rotate(t, 1).
* word_shift_two: rotate a binary word of even length two steps to the
  right (order n on words of length 2n).
* twisted_shift: move the last two bits of a length-n binary word to the
  front, complemented; applying it n times is the identity.
* mobius_shift: the action induced by twisted_shift on circular Mobius
  paths through the odd-parity-word bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import itemgetter
from typing import Callable, Hashable, Sequence

from .paths import AreaSequence, MobiusWord
from .qpoly import IntPolynomial

__all__ = [
    "CyclicAction",
    "OrbitDecomposition",
    "Necklaces",
    "area_shift",
    "word_rotate",
    "word_shift_two",
    "twisted_shift",
    "mobius_shift",
    "orbit_decompose",
    "fixed_count",
    "orbit_poly",
]

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class OrbitDecomposition:
    """Partition of a carrier into orbits, ordered by minimal element."""

    order: int
    orbits: tuple[tuple[Hashable, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)

    def carrier_size(self) -> int:
        return sum(self.sizes)

    def to_json(self, serialize=lambda x: x) -> list[dict]:
        return [
            {
                "size": len(o),
                "stabilizer_order": self.order // len(o),
                "elements": [serialize(x) for x in o],
            }
            for o in self.orbits
        ]


@dataclass(frozen=True)
class Necklaces:
    """The orbits of a carrier known before it is walked: each orbit's least
    element (its necklace) and its size, in increasing order of the necklace.

    Sieving reads only `sizes`.  `orbits` walks each orbit from its
    necklace with the action's generator and lists it as orbit_decompose
    does; it raises ValueError if an orbit does not return to its necklace
    after exactly its size steps.
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
                raise ValueError(f"orbit of {x!r} does not close after exactly {size} steps")
            orbits.append(tuple(orbit))
        return tuple(orbits)

    def to_json(self, serialize=lambda x: x) -> list[dict]:
        return OrbitDecomposition(self.order, self.orbits).to_json(serialize)


def orbit_decompose(carrier: Sequence[Hashable], action: CyclicAction) -> OrbitDecomposition:
    """Orbits under the action, each listed from its minimal element.

    The carrier is walked in its given order, so an error witness does not
    depend on set order; each orbit is then rotated to start at its minimum
    and the orbits are ordered by that minimum, which needs no sort of the
    carrier.  Raises ValueError (with a witness) if the generator leaves
    the carrier or is not a bijection on it, or if an orbit size does not
    divide the order (that is, g^order is not the identity on the carrier).
    """
    cset = set(carrier)
    seen: set = set()
    orbits = []
    for x in carrier:
        if x in seen:
            continue
        orbit = [x]
        seen.add(x)
        y = action.generator(x)
        while y != x:
            if y not in cset:
                raise ValueError(f"generator leaves the carrier at {y!r}")
            if y in seen:
                raise ValueError(f"generator is not a bijection near {y!r}")
            orbit.append(y)
            seen.add(y)
            y = action.generator(y)
        if action.order % len(orbit) != 0:
            raise ValueError(f"orbit size {len(orbit)} does not divide order {action.order}")
        i = orbit.index(min(orbit))
        orbits.append(tuple(orbit[i:] + orbit[:i]))
    orbits.sort(key=itemgetter(0))
    return OrbitDecomposition(action.order, tuple(orbits))


def fixed_count(carrier: Sequence[Hashable], action: CyclicAction, k: int) -> int:
    """Number of carrier elements fixed by the k-th power of the generator.

    Depends only on gcd(k, order): g^k and g^gcd(k, order) generate the
    same subgroup, hence have the same fixed-point set.
    """
    d = gcd(k, action.order)
    return sum(1 for x in carrier if action.apply_power(x, d) == x)


def orbit_poly(dec: OrbitDecomposition, n: int) -> IntPolynomial:
    """Coefficient of q^l counts the orbits whose stabilizer order divides l.

    This is the canonical sieving polynomial of the action: evaluating it
    at a primitive (n/gcd(n,k))-th root of unity gives the number of fixed
    points of the k-th generator power.
    """
    if n < 1:
        raise ValueError("n must be positive")
    coeffs = [0] * n
    for size in dec.sizes:
        if n % size != 0:
            raise ValueError(f"orbit size {size} does not divide {n}")
        for ell in range(0, n, n // size):
            coeffs[ell] += 1
    return IntPolynomial(coeffs)
