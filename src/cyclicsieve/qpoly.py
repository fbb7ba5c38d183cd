"""Exact arithmetic for integer polynomials in the single variable q.

A polynomial is a dense list of arbitrary-precision integer coefficients,
lowest degree first, with no trailing zeros.  The zero polynomial is the
empty coefficient tuple and has degree -1.  Everything here is exact:
there is no floating point anywhere, and evaluation at roots of unity is
done symbolically by reduction modulo cyclotomic polynomials.

The module provides the usual q-analogues ([n]_q, q-factorials, Gaussian
binomials, q-multinomials), cyclotomic polynomials, reduction mod q^n - 1,
and two independent routes for evaluating a Gaussian binomial at a root of
unity (direct cyclotomic reduction, and the q-Lucas decomposition).

Gaussian binomials are built one row at a time, [n,k] from [n,k-1], by a
multiplication by 1 - q^(n-k+1) and an exact division by 1 - q^k; each
step is linear in the degree, and the memo holds only the entries of the
rows that were asked for.  A root-of-unity evaluation of order m first
folds f mod q^m - 1, then reduces that m-term polynomial mod Phi_m;
a non-constant remainder comes back as NonConstant, a frozen record
(record.record).
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import add, sub
from typing import Iterable, Union

from .record import record


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class IntPolynomial:
    """Dense integer-coefficient polynomial in q, in canonical form.

    Canonical form: the highest-index coefficient is nonzero unless the
    polynomial is zero (empty tuple).  Instances are immutable and
    hashable, so they may be shared freely between threads or tasks.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def monomial(cls, coeff: int, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        return cls([0] * exponent + [coeff])

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_constant(self) -> bool:
        return len(self._coeffs) <= 1

    def constant_value(self) -> int:
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError(f"{self!r} is not constant")
        return self._coeffs[0] if self._coeffs else 0

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == (IntPolynomial([other]))._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        o = _as_poly(other)
        a, b = self._coeffs, o._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self._coeffs])

    def __sub__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other: int) -> "IntPolynomial":
        return _as_poly(other) - self

    def __mul__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self._coeffs])
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self._coeffs):
            out = out * x + c
        return out

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by q^k (k must be non-negative)."""
        if k < 0:
            raise ValueError("negative shift")
        if self.is_zero():
            return ZERO
        return IntPolynomial((0,) * k + self._coeffs)

    def divmod_exact_lead(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division requiring each leading quotient to be an exact integer."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._coeffs)
        dc = divisor._coeffs
        dd = len(dc) - 1
        lead = dc[-1]
        quot = [0] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            qc, r = divmod(rem[-1], lead)
            if r != 0:
                raise ExactDivisionError(f"leading coefficient {rem[-1]} not divisible by {lead}")
            pos = len(rem) - 1 - dd
            quot[pos] = qc
            for i, c in enumerate(dc):
                rem[pos + i] -= qc * c
        return IntPolynomial(quot), IntPolynomial(rem)

    def exact_div(self, divisor: Union["IntPolynomial", int]) -> "IntPolynomial":
        """Exact division; raises ExactDivisionError if divisor does not divide."""
        d = _as_poly(divisor)
        q, r = self.divmod_exact_lead(d)
        if not r.is_zero():
            raise ExactDivisionError(f"{d!r} does not divide {self!r}")
        return q

    def mod_monic(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Remainder modulo a monic divisor (leading coefficient 1)."""
        if divisor.is_zero() or divisor._coeffs[-1] != 1:
            raise ValueError("divisor must be monic")
        _, r = self.divmod_exact_lead(divisor)
        return r

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, lowest degree first."""
        return [str(c) for c in self._coeffs]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "IntPolynomial":
        return cls([int(c) for c in data])

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)!r})"


def _as_poly(x: Union[IntPolynomial, int]) -> IntPolynomial:
    if isinstance(x, IntPolynomial):
        return x
    return IntPolynomial([x])


ZERO = IntPolynomial()
ONE = IntPolynomial([1])


@record
class NonConstant:
    """Marker returned by eval_at_unity when the reduction is not constant.

    Carries the remainder modulo the cyclotomic polynomial.  A NonConstant
    result certifies that the polynomial takes different values at
    different primitive m-th roots of unity, so it cannot be a sieving
    polynomial for any action whose relevant evaluation order is m.
    """

    remainder: IntPolynomial


def divisors(m: int) -> list[int]:
    """Positive divisors of m in increasing order."""
    if m < 1:
        raise ValueError("m must be positive")
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def q_int(n: int) -> IntPolynomial:
    """The q-integer 1 + q + ... + q^(n-1); n = 0 gives the zero polynomial."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return IntPolynomial([1] * n)


@functools.cache
def q_factorial(n: int) -> IntPolynomial:
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ONE
    return q_factorial(n - 1) * q_int(n)


@functools.cache
def q_binomial(n: int, k: int) -> IntPolynomial:
    """Gaussian binomial coefficient; zero unless 0 <= k <= n.

    Computed along row n by the ratio [n,k] = [n,k-1] (1 - q^(n-k+1)) / (1 - q^k)
    for 2k <= n, and by the symmetry [n,k] = [n,n-k] above that, memoized.
    """
    if not 0 <= k <= n:
        return ZERO
    if 2 * k > n:
        return q_binomial(n, n - k)
    if k == 0:
        return ONE
    prev = q_binomial(n, k - 1).coeffs
    shift = n - k + 1
    product = list(prev) + [0] * shift
    product[shift:] = map(sub, product[shift:], prev)
    return IntPolynomial(_exact_div_one_minus_q_power(product, k))


def _exact_div_one_minus_q_power(f: list[int], k: int) -> list[int]:
    """Coefficients of f / (1 - q^k), by g_i = f_i + g_(i-k); f is consumed.

    The recurrence runs one block of k coefficients at a time.  Raises
    ExactDivisionError unless the division leaves no remainder, which shows
    as a nonzero coefficient among the top k of g.
    """
    for start in range(k, len(f), k):
        block = f[start:start + k]
        f[start:start + len(block)] = map(add, block, f[start - k:start])
    top = len(f) - k
    if any(f[max(top, 0):]):
        raise ExactDivisionError(f"1 - q^{k} does not divide the polynomial")
    del f[max(top, 0):]
    return f


def q_multinomial(content: Iterable[int]) -> IntPolynomial:
    """q-multinomial [n; content]_q with n the sum of the parts.

    Equals the generating polynomial of the major index over all words
    with the given letter multiplicities.  Computed as a product of
    Gaussian binomials, so it stays division-free.
    """
    mu = list(content)
    if not mu:
        raise ValueError("content must be non-empty")
    if any(m < 0 for m in mu):
        raise ValueError("content parts must be non-negative")
    out = ONE
    remaining = sum(mu)
    for part in mu:
        out = out * q_binomial(remaining, part)
        remaining -= part
    return out


@functools.cache
def cyclotomic(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial: q - 1 for m = 1, else the product over
    e | rad(m) of (1 - q^(m/e))^mu(e).  The factors with mu(e) = 1 are
    multiplied in first, then the others divided out exactly.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return IntPolynomial([-1, 1])
    primes = [p for p in divisors(m) if len(divisors(p)) == 2]
    squarefree = [e for r in range(len(primes) + 1) for e in itertools.combinations(primes, r)]
    coeffs = [1]
    for k in (m // math.prod(e) for e in squarefree if len(e) % 2 == 0):
        coeffs = list(map(sub, coeffs + [0] * k, [0] * k + coeffs))
    for k in (m // math.prod(e) for e in squarefree if len(e) % 2):
        coeffs = _exact_div_one_minus_q_power(coeffs, k)
    return IntPolynomial(coeffs)


def eval_at_unity(f: IntPolynomial, m: int) -> Union[int, NonConstant]:
    """Value of f at every primitive m-th root of unity, or NonConstant.

    The reduction r = f mod Phi_m is computed exactly, from f folded mod
    q^m - 1 (a multiple of Phi_m, so the remainder is the same); if r is
    constant, that integer is the common value of f at each primitive m-th
    root.  Otherwise a NonConstant marker carrying r is returned.
    """
    if m < 1:
        raise ValueError("order must be positive")
    if m == 1:
        return f(1)
    r = IntPolynomial(mod_cyclic(f, m)).mod_monic(cyclotomic(m))
    if r.is_constant():
        return r.constant_value()
    return NonConstant(r)


def q_lucas_eval(n: int, k: int, m: int) -> Union[int, NonConstant]:
    """Gaussian binomial at a primitive m-th root of unity via q-Lucas.

    Decomposes [n,k]_q into binom(n//m, k//m) times the Gaussian binomial
    of the remainders, and only the small factor is reduced mod Phi_m.
    Must agree with eval_at_unity(q_binomial(n, k), m) in all cases.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not 0 <= k <= n:
        return 0
    if m == 1:
        return math.comb(n, k)
    outer = math.comb(n // m, k // m)
    if outer == 0:
        return 0
    inner = eval_at_unity(q_binomial(n % m, k % m), m)
    if isinstance(inner, NonConstant):
        return NonConstant(inner.remainder * outer)
    return outer * inner


def mod_cyclic(f: IntPolynomial, n: int) -> tuple[int, ...]:
    """Coefficients of f reduced mod q^n - 1: exponent i folds onto i mod n."""
    if n < 1:
        raise ValueError("n must be positive")
    cs = f.coeffs
    return tuple(sum(cs[r::n]) for r in range(n))
