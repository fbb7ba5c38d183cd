"""Verification engines: cyclic sieving, subset sieving, Lyndon-like families,
orbit-count feasibility, and homomesy.

A carrier under a C_n action and a polynomial f exhibit cyclic sieving
when f evaluated at the k-th power of a primitive n-th root of unity
equals the number of fixed points of the k-th power of the generator, for
every k; subset sieving counts those fixed points inside a subset of the
carrier.  Both read one census, the number of counted elements in orbits
of each size s | n, and one builder, _report, turns f and a census into every
CspReport, by two routes: f at each root of unity (_values_at_unity)
against the elements fixed by g^d (_fixed_points), and n times f folded
mod q^n - 1 against the census itself.  All arithmetic is exact, and a
disagreement between the routes is an internal error, never a result.
Feasibility and Lyndon parameters invert F(d) = sum over j | d of S(j) by
_parts, which finds the first S(d) not a whole number of orbits of size d.

TARGETS and FAMILIES hold the mathematics alone; the flags, bounds,
carrier-size guard and JSON encodings of the command line are in cli.

Target.counted gives each registry target's census.  `cdp` reads it off
its rotation classes (paths.cdp_necklaces), never building CDP(n, w);
`bw` and `cmp` off one pass over the n-bit ints (actions.twisted_necklaces,
which also proves the twisted shift a bijection whose orbit sizes divide
n), never calling the generator.  `words` and `avl` count each word once
by its least period under rotation (actions.rotation_census), one letter
at a time for `words` and two for `avl`, which is subset sieving and so
never builds the balanced words.  orbit_decompose and verify_subset_csp
stay as the walking oracles of these censuses.

A sieving member is a pair (census, f).  Member n of a Lyndon-like family,
a row (target, letters) of FAMILIES, sums Target.counted and Target.closed
over the target's instances at order n, one per member_contents(family, n).

Reports and targets are frozen records (record.record).
Only homomesy_check and lyndon_params build a Fraction, so they alone
import fractions, and a verify, orbits or count request never loads it.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import gcd
from typing import Callable, Hashable, Iterable, Sequence, Union

from .actions import (
    CyclicAction,
    OrbitDecomposition,
    census_spread,
    mobius_shift,
    orbit_decompose,
    orbit_poly,
    rotation_census,
    twisted_necklaces,
    twisted_shift,
    word_rotate,
    word_shift_two,
)
from .genfunc import avl_q_closed, bw_q, cdp_q_closed, cmp_q
from .paths import (
    MobiusWord,
    cdp_necklaces,
    cdp_values,
    enumerate_avl,
    enumerate_balanced,
    enumerate_cmp,
    enumerate_words,
    inv_zero_one,
    word_from_zeros_runs,
    zeros_run_vector,
)
from .qpoly import IntPolynomial, NonConstant, divisors, eval_at_unity, mod_cyclic, q_multinomial
from .record import record


class DualRouteError(AssertionError):
    """The root-of-unity route and the coefficient route disagreed: kernel bug."""


def _values_at_unity(f: IntPolynomial, n: int) -> dict[int, Union[int, NonConstant]]:
    """f at a primitive (n/d)-th root of unity, for each d | n in increasing order."""
    return {d: eval_at_unity(f, n // d) for d in divisors(n)}


def _parts(totals: dict[int, int]) -> tuple[dict[int, int], Union[int, None]]:
    """Invert F(d) = sum over j | d of S(j): S(d) = F(d) - sum of S(j), j | d, j < d.

    `totals` holds F(d) for d in increasing order, and with each d every
    divisor of d.  Also the first d whose S(d) is not a whole number of
    orbits of size d (negative or not a multiple of d), else None.
    """
    parts: dict[int, int] = {}
    bad = None
    for d, total in totals.items():
        parts[d] = total - sum(parts[j] for j in divisors(d)[:-1])
        if bad is None and (parts[d] < 0 or parts[d] % d):
            bad = d
    return parts, bad


# ---------------------------------------------------------------------------
# Cyclic sieving reports
# ---------------------------------------------------------------------------

@record
class CspRow:
    k: int
    gcd: int
    evaluation: Union[int, NonConstant]
    fixed: int
    match: bool


@record
class CspReport:
    order: int
    rows: tuple[CspRow, ...]
    passed: bool
    first_mismatch: Union[int, None]
    warnings: tuple[str, ...] = ()

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _fixed_points(census: dict[int, int], n: int) -> dict[int, int]:
    """Counted elements fixed by g^d, those whose orbit size divides d, for each d | n."""
    return {d: sum(c for s, c in census.items() if d % s == 0) for d in divisors(n)}


def _report(f: IntPolynomial, n: int, census: dict[int, int], warnings: Sequence[str] = ()) -> CspReport:
    """The sieving report of f against a census: counted elements by orbit size s.

    Route one compares f at a primitive (n/d)-th root of unity with the
    elements fixed by g^d, once per d | n, for every k with gcd(k, n) = d.
    Route two: n times f folded mod q^n - 1 must equal the census spread
    over the multiples of n/s, each element weighted n/s (census_spread;
    for a whole carrier, n times orbit_poly).  The verdicts agree for every
    f and census (Reiner, Stanton and White, Prop. 2.1), so a disagreement
    raises DualRouteError; a size not dividing n raises OrbitError.
    """
    values = _values_at_unity(f, n)
    fixed = _fixed_points(census, n)
    rows = []
    first_mismatch = None
    for k in range(1, n + 1):
        d = gcd(k, n)
        ev, fc = values[d], fixed[d]
        ok = not isinstance(ev, NonConstant) and ev == fc
        if not ok and first_mismatch is None:
            first_mismatch = k
        rows.append(CspRow(k, d, ev, fc, ok))
    report = CspReport(n, tuple(rows), first_mismatch is None, first_mismatch, tuple(warnings))
    coefficient_route = [n * c for c in mod_cyclic(f, n)] == census_spread(census, n)
    if coefficient_route != report.passed:
        raise DualRouteError(
            f"root-of-unity route says {report.passed}, coefficient route says {coefficient_route}"
        )
    return report


def verify_csp(orbits: OrbitDecomposition, f: IntPolynomial) -> CspReport:
    """Exact sieving check of a carrier, given by its orbits, against f, with the dual-route guard of _report.

    Only the orbit sizes are read, so elements are first walked by orbit_decompose.
    Its report has no warnings; verify_subset_csp and verify_target pass theirs.
    """
    return _report(f, orbits.order, orbits.census())


def verify_subset_csp(
    subset: Sequence[Hashable],
    superset: Sequence[Hashable],
    action: CyclicAction,
    f: IntPolynomial,
    warnings: Sequence[str] = (),
) -> CspReport:
    """Subset sieving: fixed points are counted inside a subset of the carrier.

    The census counts the subset elements in the superset orbits of each
    size.  One orbit walk over the superset, in its given order and without
    copying it, checks that the generator is a bijection of it whose order
    divides n, else OrbitError with a witness; the subset need not be
    closed, but the walk must meet every subset element, else ValueError.
    """
    sub = set(subset)
    inside = Counter(len(orbit) for orbit in orbit_decompose(superset, action).orbits for x in orbit if x in sub)
    if sum(inside.values()) != len(sub):
        raise ValueError("subset is not contained in the superset")
    return _report(f, action.order, inside, warnings)


# ---------------------------------------------------------------------------
# Orbit-count feasibility (existence of some action with the given polynomial)
# ---------------------------------------------------------------------------

@record
class FeasibilityReport:
    order: int
    s_values: dict[int, int]
    feasible: bool
    diagnosis: str = ""

    def orbit_counts(self) -> dict[int, int]:
        """Number of orbits of each size k | n, when feasible."""
        if not self.feasible:
            raise ValueError("not feasible")
        return {k: s // k for k, s in self.s_values.items()}


def csp_feasibility(f: IntPolynomial, n: int) -> FeasibilityReport:
    """Inverted fixed-point counts S_k, and whether they admit an action.

    f at a primitive (n/k)-th root counts the elements fixed by g^k, that is
    the sum of S_j over j | k, where S_j is the number of elements lying in
    orbits of size exactly j; _parts inverts that sum.  Feasible means
    _parts finds no k with S_k negative or not divisible by k (orbit counts
    must be whole numbers).  A NonConstant evaluation at any divisor order
    is immediately infeasible.
    """
    if n < 1:
        raise ValueError("n must be positive")
    values = _values_at_unity(f, n)
    for d, e in values.items():
        if isinstance(e, NonConstant):
            return FeasibilityReport(n, {}, False, f"non-constant evaluation at order {n // d}")
    s_values, k = _parts(values)
    if k is None:
        return FeasibilityReport(n, s_values, True)
    why = "is negative" if s_values[k] < 0 else f"is not divisible by {k}"
    return FeasibilityReport(n, s_values, False, f"S_{k} = {s_values[k]} {why}")


# ---------------------------------------------------------------------------
# Lyndon-like families
# ---------------------------------------------------------------------------

@record
class LyndonParameters:
    """Solution t_d of |X_n| = sum over d | n of d * t_d, with validity flag.

    When extraction fails the first offending index and its exact rational
    value are recorded; nothing is rounded or guessed.
    """

    t: dict[int, int]
    valid: bool
    failure_index: Union[int, None] = None
    failure_value: Union[Fraction, None] = None


def lyndon_params(sizes: Sequence[int]) -> LyndonParameters:
    """Recover t_1, ..., t_N from |X_1|, ..., |X_N|: d * t_d is _parts of the sizes, up to the first bad d."""
    from fractions import Fraction

    if not sizes:
        raise ValueError("need at least one size")
    parts, bad = _parts(dict(enumerate(sizes, start=1)))
    t = {d: part // d for d, part in parts.items() if bad is None or d < bad}
    return LyndonParameters(t, True) if bad is None else LyndonParameters(t, False, bad, Fraction(parts[bad], bad))


def lyndon_construct(t: Union[LyndonParameters, dict[int, int]], n: int) -> tuple[OrbitDecomposition, IntPolynomial]:
    """Canonical carrier, under its C_n action, and polynomial realizing given Lyndon parameters.

    The carrier is {(d, i, j) : d | n, 1 <= i <= t_d, 1 <= j <= d} and the
    generator advances j cyclically within its block, so each (d, i) block
    is a single orbit of size d.  The polynomial is the orbit polynomial,
    so the carrier exhibits sieving by construction, and the family over n
    is Lyndon-like.

    The carrier is returned as its orbits, with their action, from the one
    orbit_decompose walk that also proves the generator a bijection of it;
    verify_csp and lyndon_check read them without walking again.  Each
    orbit starts at its (d, i, 1) and the orbits come in (d, i) order, so
    listing them in turn gives the carrier in the order above.
    """
    params = t.t if isinstance(t, LyndonParameters) else dict(t)
    if isinstance(t, LyndonParameters) and not t.valid:
        raise ValueError("parameters are not valid Lyndon parameters")
    if any(v < 0 for v in params.values()):
        raise ValueError("Lyndon parameters must be non-negative")
    for d in divisors(n):
        if d not in params:
            raise ValueError(f"missing Lyndon parameter t_{d}")

    carrier = [
        (d, i, j)
        for d in divisors(n)
        for i in range(1, params[d] + 1)
        for j in range(1, d + 1)
    ]

    def generator(x: tuple[int, int, int]) -> tuple[int, int, int]:
        d, i, j = x
        return (d, i, j % d + 1)

    orbits = orbit_decompose(carrier, CyclicAction(n, generator))
    return orbits, orbit_poly(orbits)


@record
class LyndonReport:
    max_n: int
    member_verdicts: tuple[bool, ...]
    relation_failures: tuple[tuple[int, int], ...]  # (n, m) with m | n
    passed: bool


def lyndon_check(family: Sequence[tuple[dict[int, int], IntPolynomial]]) -> LyndonReport:
    """Check a family (X_n, C_n, f_n), n = 1..N, for the Lyndon-like relation.

    Member n is the pair (census, f_n): the census counts the elements of
    X_n in C_n-orbits of each size, as Target.counted gives it.  Every
    member must individually pass the sieving check (_report), and for every
    n <= N and m | n the evaluation of f_n at a primitive m-th root of
    unity must equal f_{n/m}(1) exactly.  Both sides are read off the
    members' sieving rows: row k = n/m of f_n has gcd n/m, so it holds f_n
    at a primitive m-th root, and the last row (k = n) of any member holds
    its value at 1.
    """
    n_max = len(family)
    reports = [_report(f, n, census) for n, (census, f) in enumerate(family, start=1)]
    failures = []
    for n in range(1, n_max + 1):
        for m in divisors(n):
            e = reports[n - 1].rows[n // m - 1].evaluation
            if isinstance(e, NonConstant) or e != reports[n // m - 1].rows[-1].evaluation:
                failures.append((n, m))
    member_verdicts = tuple(r.passed for r in reports)
    passed = all(member_verdicts) and not failures
    return LyndonReport(n_max, member_verdicts, tuple(failures), passed)


# ---------------------------------------------------------------------------
# Homomesy
# ---------------------------------------------------------------------------

@record
class HomomesyReport:
    statistic: str
    global_average: Fraction
    orbit_averages: tuple[Fraction, ...]
    homomesic: bool
    witness_orbit: Union[tuple[Hashable, ...], None]


def homomesy_check(
    carrier: Sequence[Hashable],
    action: CyclicAction,
    statistic: Callable[[Hashable], int],
    name: str = "statistic",
) -> HomomesyReport:
    """Exact-rational comparison of per-orbit averages with the global average."""
    from fractions import Fraction

    carrier = list(carrier)
    if not carrier:
        raise ValueError("carrier must be non-empty")
    dec = orbit_decompose(carrier, action)
    # The orbits partition the carrier's elements, so their sums and sizes
    # also give the global average.
    sums = [sum(statistic(x) for x in orbit) for orbit in dec.orbits]
    total = Fraction(sum(sums), sum(dec.sizes))
    averages = tuple(Fraction(s, len(orbit)) for s, orbit in zip(sums, dec.orbits))
    witness = next((orbit for orbit, avg in zip(dec.orbits, averages) if avg != total), None)
    return HomomesyReport(name, total, averages, witness is None, witness)


def inv_homomesy(n: int, action: str) -> HomomesyReport:
    """homomesy_check of the inversion statistic under action "alpha" or "beta".

    alpha is zrun_rotation_action(n) on balanced_words_ending_in_one(n);
    beta is word_shift_two on every balanced word of length 2n.
    """
    if action == "alpha":
        carrier, act = balanced_words_ending_in_one(n), zrun_rotation_action(n)
    else:
        carrier, act = list(enumerate_balanced(n)), CyclicAction(n, word_shift_two)
    return homomesy_check(carrier, act, inv_zero_one, "inv")


def balanced_words_ending_in_one(n: int) -> list[str]:
    """Balanced words of length 2n that end with a north step."""
    return [b for b in enumerate_balanced(n) if b.endswith("1")]


def zrun_rotation_action(n: int) -> CyclicAction:
    """Rotate the zeros-run vector one step to the right (order n).

    Acts on balanced words of length 2n ending in '1'; this is the word
    form of rotating the tuple (z_1, ..., z_n) of zero-run lengths.
    """

    def generator(bits: str) -> str:
        z = zeros_run_vector(bits)
        return word_from_zeros_runs((z[-1],) + z[:-1])

    return CyclicAction(n, generator)


# ---------------------------------------------------------------------------
# The target registry and ready-made families
# ---------------------------------------------------------------------------

@record
class Target:
    """How to build one sieving instance: carrier, C_n action, closed q-polynomial.

    Each callable takes (n, w, content) and reads what its object needs: n
    is the order of the action, and for `words` it is the word length
    sum(content).  The callables reach the layer functions through this
    module's globals, so a wrapper installed on a module attribute sees
    every call.  A target with `necklaces` lists its orbits without its
    carrier: the callable yields (least element, orbit size) for each
    orbit, in increasing order of the least element.  A target with
    `census` counts its census without finding its orbits:
    census(n, w, content) gives the census and the instance's warnings.
    The `avl` target is subset sieving: its carrier need not be closed
    under the action, so it has a census and no orbits.
    """

    carrier: Callable[..., Iterable[Hashable]]
    generator: Callable[[Hashable], Hashable]
    closed: Callable[..., IntPolynomial]
    necklaces: Union[Callable[..., Iterable[tuple[Hashable, int]]], None] = None
    census: Union[Callable[..., tuple[dict[int, int], tuple[str, ...]]], None] = None

    def instance(self, n: int, w: Union[int, None] = None, content: Union[tuple, None] = None) -> tuple:
        """The carrier as a list, the action and the closed polynomial, for the walking oracles."""
        return list(self.carrier(n, w, content)), CyclicAction(n, self.generator), self.closed(n, w, content)

    def decompose(self, n: int, w: Union[int, None] = None, content: Union[tuple, None] = None) -> OrbitDecomposition:
        """The carrier's orbits, the one place that finds them: off `necklaces`, else by orbit_decompose."""
        action = CyclicAction(n, self.generator)
        if self.necklaces is None:
            return orbit_decompose(list(self.carrier(n, w, content)), action)
        pairs = list(self.necklaces(n, w, content))
        return OrbitDecomposition(action, tuple(x for x, _ in pairs), tuple(s for _, s in pairs))

    def counted(self, n: int, w: Union[int, None] = None, content: Union[tuple, None] = None) -> tuple[dict[int, int], tuple[str, ...]]:
        """The census and warnings that verify and lyndon check read: `census`'s, else all of decompose(), with none."""
        if self.census is not None:
            return self.census(n, w, content)
        return self.decompose(n, w, content).census(), ()


def _rotate(word: Sequence) -> Sequence:
    """One-step right rotation, the generator on area tuples and on words."""
    return word_rotate(word, 1)


def _avoiding_census(n: int, w: int, _) -> tuple[dict[int, int], tuple[str, ...]]:
    """Avoiding words by least period under rotation by two, flagged if w <= n and gcd(n, w) != 1.

    The periods are their orbit sizes in the balanced words, which are never built.  For w > n
    every balanced word avoids, and sieves as all words under rotation do (Reiner, Stanton, White).
    """
    warnings = () if w > n or gcd(n, w) == 1 else (f"coprimality hypothesis not met: gcd({n},{w}) != 1",)
    return rotation_census(enumerate_avl(n, w), n, 2), warnings


TARGETS = {
    "cdp": Target(
        carrier=lambda n, w, _: cdp_values(n, w),
        generator=_rotate,
        closed=lambda n, w, _: cdp_q_closed(n, w),
        necklaces=lambda n, w, _: cdp_necklaces(n, w),
    ),
    "cmp": Target(
        carrier=lambda n, w, _: enumerate_cmp(n),
        generator=mobius_shift,
        closed=lambda n, w, _: cmp_q(n),
        # The half-word of an odd-parity word is the word with its last bit set to 0.
        necklaces=lambda n, w, _: (
            (MobiusWord(format(v, f"0{n}b")[:-1] + "0"), size) for v, size in twisted_necklaces(n, odd=True)
        ),
    ),
    "bw": Target(
        carrier=lambda n, w, _: (format(v, f"0{n}b") for v in range(2 ** n)),
        generator=twisted_shift,
        closed=lambda n, w, _: bw_q(n),
        necklaces=lambda n, w, _: ((format(v, f"0{n}b"), size) for v, size in twisted_necklaces(n)),
    ),
    "avl": Target(
        carrier=lambda n, w, _: enumerate_avl(n, w),
        generator=word_shift_two,
        closed=lambda n, w, _: avl_q_closed(n, w),
        census=_avoiding_census,
    ),
    "words": Target(
        carrier=lambda n, w, mu: enumerate_words(mu, range(1, len(mu) + 1)),
        generator=_rotate,
        closed=lambda n, w, mu: q_multinomial(mu),
        # Each word by its least period, its orbit size under rotation; no orbit is walked.
        census=lambda n, w, mu: (rotation_census(TARGETS["words"].carrier(n, w, mu), n), ()),
    ),
}


def verify_target(name: str, n: int, w: Union[int, None] = None, content: Union[tuple, None] = None) -> CspReport:
    """Sieving report of one registry instance, from its census (Target.counted)."""
    target = TARGETS[name]
    return _report(target.closed(n, w, content), n, *target.counted(n, w, content))


def check_cdp_fixed_points(n: int, w: int, k: int) -> bool:
    """|{a in CDP(n,w) : shifted by k steps equals a}| == |CDP(gcd(n,k), w)|.

    The left side is read off the `cdp` census by _fixed_points, as verify
    reads it; the right side enumerates CDP(gcd(n,k), w).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    d = gcd(n, k)
    census, _ = TARGETS["cdp"].counted(n, w)
    return _fixed_points(census, n)[d] == sum(1 for _ in cdp_values(d, w))


# Each Lyndon-like family: the target its members are instances of, and a word family's letters.
FAMILIES: dict[str, tuple[str, Union[int, None]]] = {
    "cdp": ("cdp", None), "binary-words": ("words", 2), "ternary-words": ("words", 3), "cmp": ("cmp", None),
}


def member_contents(family: str, n: int) -> list:
    """The contents of member n's instances: [None], or each content of n over the letters, zero parts included."""
    _, letters = FAMILIES[family]
    return [None] if letters is None else [mu for mu in product(range(n + 1), repeat=letters) if sum(mu) == n]


def family_members(family: str, w: Union[int, None], max_n: int) -> list:
    """Members n = 1..max_n, each the (census, f) of the disjoint union of the target's instances at
    (n, w, mu), one per mu in member_contents(family, n)."""
    target = TARGETS[FAMILIES[family][0]]
    members = []
    for n in range(1, max_n + 1):
        census, f = Counter(), IntPolynomial()
        for mu in member_contents(family, n):
            census.update(target.counted(n, w, mu)[0])
            f = f + target.closed(n, w, mu)
        members.append((dict(census), f))
    return members
