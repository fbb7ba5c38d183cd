"""The oracles only the tests call (each a direct route to what the package computes another way), and shared helpers."""

import re
from functools import reduce
from math import gcd

from cyclicsieve import csp
from cyclicsieve.actions import CyclicAction
from cyclicsieve.paths import AreaSequence, LatticeWord, MobiusWord
from cyclicsieve.qpoly import ZERO, IntPolynomial, q_factorial


def bw(n):
    return [format(v, f"0{n}b") for v in range(2 ** n)]


def poly(*coeffs):
    return IntPolynomial(coeffs)


def masked(text: str) -> str:
    """Selftest log text with each criterion's timing read as [time]."""
    return re.sub(r"\[\s*\d+\.\d+s\]", "[time]", text)


def area_shift(a: AreaSequence) -> AreaSequence:
    """Rotate the area values one step to the right; the constructor checks the result."""
    v = a.values
    return AreaSequence((v[-1],) + v[:-1], a.width)


def path_to_area(p: LatticeWord) -> AreaSequence:
    """Inverse of paths.area_to_path: the i-th north step at abscissa x gives a_i = w + i - x."""
    x = p.start
    values = []
    for b in p.bits:
        if b == "0":
            x += 1
        else:
            values.append(p.width + len(values) + 1 - x)
    return AreaSequence(tuple(values), p.width)


def mobius_lattice_word(m: MobiusWord) -> LatticeWord:
    """The full word of a Mobius half-word as a LatticeWord of width n, which checks it lies in CDP(n, n)."""
    return LatticeWord(m.size + 1 - m.half.count("0"), m.full_bits(), m.size)


def avoids_diagonals(bits: str, w: int) -> bool:
    """True iff the walk from (0, 0) never touches the diagonals x - y = +-w."""
    d = 0
    for b in bits:
        d += 1 if b == "0" else -1
        if abs(d) == w:
            return False
    return True


def fixed_count(carrier, action: CyclicAction, k: int) -> int:
    """Number of carrier elements fixed by the k-th power of the generator, applied gcd(k, order) times to each.

    g^k and g^gcd(k, order) generate the same subgroup, hence have the same fixed-point set.
    """
    d = gcd(k, action.order) % action.order  # g^order is the identity
    return sum(reduce(lambda y, _: action.generator(y), range(d), x) == x for x in carrier)


def q_binomial_by_division(n: int, k: int) -> IntPolynomial:
    """Gaussian binomial by exact division of q-factorials."""
    if not 0 <= k <= n:
        return ZERO
    return q_factorial(n).exact_div(q_factorial(k) * q_factorial(n - k))


def instance(name: str, n: int, w=None, content=None) -> tuple:
    """Registry target `name` as its carrier (a list), its C_n action and its closed polynomial, for the walking oracles."""
    target = csp.TARGETS[name]
    return list(target.carrier(n, w, content)), CyclicAction(n, target.generator), target.closed(n, w, content)
