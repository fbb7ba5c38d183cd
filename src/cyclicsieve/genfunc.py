"""Closed-form q-enumerations and the brute-force oracles they are tested against.

The central quantity is the major-index generating function of north-east
lattice paths that must visit a given list of diagonals in order.  Writing
delta for the distance w + 2 between the two forbidden diagonals of a
circular Dyck path, inclusion-exclusion over alternating visit lists turns
the closed formulas here into the q-count of CDP(n, w).

Every closed formula has an independent exhaustive counterpart in this
module (or in paths) so the two can be compared coefficient by coefficient.
The closed q-counts of CDP(n, w), of the diagonal-avoiding paths, of the
binary words (bw_q form A) and of the Mobius paths (cmp_q) are signed sums
of shifted Gaussian binomials with one top row: each lists its terms
(c, e, k), and one kernel, _binomial_sum, adds c q^e [top, k]_q into one
packed integer.  It walks the rows of its top itself, one live row at a
time, each packed as one integer's bytes, and never calls q_binomial, so
it neither reads nor fills that memo.  Each exhaustive q-count walks its
own carrier and computes its own statistic; one function, _histogram, turns
the Counter of the exponents into a polynomial.  An oracle asked for a family of
parameters walks its carrier once: cdp_q_bruteforce_widths gives
CDP(n, 1..w) from one walk of CDP(n, w), and h_bruteforce_lists every
diagonal list of one target from one walk of its words; cdp_q_bruteforce
and h_bruteforce are one entry of these.  cdp_q_wide (the oracle of
cdp_q_closed for w >= n), h_closed, gen_q_ballot and carlitz_q_catalan
take their rows from q_binomial and keep their own polynomial arithmetic,
so no closed form is checked against code it shares; cdp_q_wide and
h_closed each skip a column outside [0, 2n - 1] themselves, so neither
asks q_binomial for a zero row.
Brute-force guards raise instead of truncating: a silently partial oracle
is worse than none.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from math import comb
from typing import Iterable, Literal, Sequence

from .paths import (
    AreaSequence,
    area_to_path,
    cdp_values,
    enumerate_avl,
    enumerate_cmp,
    enumerate_dyck,
    enumerate_words,
    maj,
    transpose_word,
)
from .qpoly import ONE, ZERO, ExactDivisionError, IntPolynomial, q_binomial, q_int
from .record import record

Side = Literal["left", "right"]

BRUTE_FORCE_TARGET_LIMIT = 14
BRUTE_FORCE_CDP_LIMIT = 16


def _binomial_sum(top: int, terms: Iterable[tuple[int, int, int]]) -> IntPolynomial:
    """Sum of c q^e [top, k]_q over the terms (c, e, k), in packed integers.

    A packed polynomial holds coefficient i in bits [i B, (i + 1) B) of one
    int, or of its little-endian bytes (Kronecker substitution).  B is
    fixed before any row is built: the bits of Sum |c| C(top, top // 2),
    which bounds every coefficient of the sum and of each row, and a sign
    bit, rounded up to whole bytes.  A k outside [0, top] gives a zero
    term and is skipped, and since [top, k] = [top, top - k] the terms are
    grouped by min(k, top - k).  One row is live at a time, walked from
    [top, 0] = 1 up to the largest group by _packed_ratio.  Each term is
    added into one packed total as +-(row << e B), multiplied only when
    |c| != 1, and the total is unpacked once.  No row comes from
    q_binomial, so no oracle shares this arithmetic.
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for c, e, k in terms:
        if 0 <= k <= top:
            groups.setdefault(min(k, top - k), []).append((c, e))
    weight = max(1, sum(abs(c) for group in groups.values() for c, _ in group))
    width = ((weight * comb(top, top // 2)).bit_length() + 8) // 8
    bits = 8 * width
    row, total, end = (1).to_bytes(width, "little"), 0, 0
    for k in range(max(groups, default=-1) + 1):
        if k:
            row = _packed_ratio(row, top - k + 1, k, width)
        if k in groups:
            value = int.from_bytes(row, "little")
            for c, e in groups[k]:
                total += (value if c == 1 else -value if c == -1 else c * value) << e * bits
            end = max(end, max(e for _, e in groups[k]) + len(row) // width)
    return IntPolynomial(_unpack(total, end, width))


def _packed_ratio(row: bytes, shift: int, k: int, width: int) -> bytes:
    """row (1 - q^shift) / (1 - q^k), each packed as little-endian bytes, `width` a coefficient.

    With shift = top - k + 1 this takes [top, k-1] to [top, k].  The
    product f is never built: its block of k coefficients at i is the
    block of row at i less the block at i - shift, each read unsigned by
    from_bytes.  The prefix sum g_i = f_i + g_(i-k) then runs one block at
    a time, in time linear in the row's size, and each block of g is
    written back as unsigned bytes.  Raises ExactDivisionError on a block
    of g below zero or past its bytes, which no quotient with coefficients
    in [0, 2^(8 width - 1)) gives, and on a nonzero byte above the
    quotient's degree, which is a remainder.
    """
    step = k * width
    shifted = bytes(shift * width) + row
    read = int.from_bytes
    blocks: list[bytes] = []
    append = blocks.append
    g = 0
    try:
        for start in range(0, len(shifted), step):
            stop = start + step
            g += read(row[start:stop], "little") - read(shifted[start:stop], "little")
            append(g.to_bytes(step, "little"))
    except OverflowError:
        raise ExactDivisionError(f"1 - q^{k} does not divide the polynomial") from None
    quotient = b"".join(blocks)
    end = len(shifted) - step
    if int.from_bytes(quotient[end:], "little"):
        raise ExactDivisionError(f"1 - q^{k} does not divide the polynomial")
    return quotient[:end]


def _unpack(packed: int, size: int, width: int) -> list[int]:
    """The `size` signed coefficients of a packed polynomial, `width` bytes each.

    Adding 2^(8 width - 1) to every coefficient makes each one a whole
    unsigned slot, so the bytes are read without a borrow.
    """
    half = 1 << 8 * width - 1
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
    data = (packed + bias).to_bytes(size * width, "little")
    return [int.from_bytes(data[i:i + width], "little") - half for i in range(0, size * width, width)]


def _histogram(counts: Counter) -> IntPolynomial:
    """The polynomial whose coefficient of q^e is counts[e]."""
    return IntPolynomial([counts[e] for e in range(max(counts, default=-1) + 1)])


# ---------------------------------------------------------------------------
# Paths visiting prescribed diagonals
# ---------------------------------------------------------------------------

@record
class DiagonalSpec:
    """Target point plus ordered list of diagonals that must be visited.

    Diagonal d stands for the lattice diagonal through (d, 0), that is,
    the set of points with x - y = d.
    """

    target: tuple[int, int]
    diagonals: tuple[int, ...] = ()

    def __post_init__(self):
        if self.target[0] < 0 or self.target[1] < 0:
            raise ValueError("target must lie in the non-negative quadrant")
        object.__setattr__(self, "diagonals", tuple(self.diagonals))

    def is_alternating(self) -> bool:
        """The four-case zig-zag condition; the empty list is alternating.

        The comparisons between consecutive diagonals must strictly
        alternate, starting upward if d_1 <= 0 and downward if d_1 >= 0,
        and the target must lie strictly on the side of the last diagonal
        that the final comparison points away from.
        """
        ds = self.diagonals
        ell = len(ds)
        if ell == 0:
            return True
        t = self.target[0] - self.target[1]
        if ell == 1:
            return t != ds[0]

        def chain_ok(start_up: bool) -> bool:
            up = start_up
            for i in range(ell - 1):
                if up and not ds[i] < ds[i + 1]:
                    return False
                if not up and not ds[i] > ds[i + 1]:
                    return False
                up = not up
            last_was_up = (start_up == (ell % 2 == 0))
            if last_was_up:
                return t < ds[-1]
            return t > ds[-1]

        if ds[0] <= 0 and chain_ok(True):
            return True
        if ds[0] >= 0 and chain_ok(False):
            return True
        return False


_STEP = {"0": 1, "1": -1}


def h_bruteforce_lists(target: tuple[int, int], lists: Sequence[tuple[int, ...]]) -> list[IntPolynomial]:
    """For each diagonal list, the sum of q^maj over NE-walks from (0,0) to the target visiting it in order.

    Exhaustive, from one walk of enumerate_words(target, "01"); the target
    coordinates are capped at BRUTE_FORCE_TARGET_LIMIT.  Each word's maj
    and its diagonals x - y, one character per lattice point (start
    included, offset by y), are computed once.  A walk visits a list in
    order when each diagonal is found after the point where the one before
    it was: the earliest match is greedy, and visits in order are
    monotone.  The walks stay on the diagonals -y..x, so a list that names
    any other is visited by none.
    """
    x, y = target
    if x > BRUTE_FORCE_TARGET_LIMIT or y > BRUTE_FORCE_TARGET_LIMIT:
        raise ValueError(f"brute-force guard: target coordinates must be <= {BRUTE_FORCE_TARGET_LIMIT}")
    keys = [(i, "".join(chr(d + y) for d in ds)) for i, ds in enumerate(lists) if all(-y <= d <= x for d in ds)]
    counts = [Counter() for _ in lists]
    for word in enumerate_words(target, "01"):
        walk = "".join(map(chr, accumulate(map(_STEP.__getitem__, word), initial=y)))
        e = maj(word)
        for i, key in keys:
            at = -1
            for c in key:
                at = walk.find(c, at + 1)
                if at < 0:
                    break
            else:
                counts[i][e] += 1
    return [_histogram(c) for c in counts]


def h_bruteforce(spec: DiagonalSpec) -> IntPolynomial:
    """Sum of q^maj over NE-walks from (0,0) to the target visiting the diagonals: one list of h_bruteforce_lists."""
    return h_bruteforce_lists(spec.target, [spec.diagonals])[0]


def alternating_list(first: int, second: int, ell: int) -> tuple[int, ...]:
    """The list (first, second, first, second, ...) of length ell."""
    return tuple(first if i % 2 == 0 else second for i in range(ell))


def h_closed(n: int, gamma: int, delta: int, ell: int, first_side: Side) -> IntPolynomial:
    """Closed form for the visit generating function with target (n, n-1).

    The visited diagonals alternate between gamma (right) and gamma - delta
    (left), requiring delta > gamma > 0; `first_side` says which one is
    visited first.  All four parity/side cases reduce to a power of q times
    a single Gaussian binomial.  Each case is what repeated application of
    the one-step visit recursion produces; the even-visit columns are
    n-1 -+ delta*t (verified against the exhaustive count, which pins the
    sign).  A column outside [0, 2n - 1] gives zero without a call to
    q_binomial, so the memo holds no zero rows.
    """
    if not delta > gamma > 0:
        raise ValueError("need delta > gamma > 0")
    if ell < 0:
        raise ValueError("ell must be non-negative")
    if first_side == "right":
        t, odd = divmod(ell, 2)
        col = (n - 1 + gamma + delta * t) if odd else (n - 1 - delta * t)
        shift = t * t * delta + t * gamma
    elif first_side == "left":
        t = (ell + 1) // 2
        if ell % 2 == 0:
            col = n - 1 + delta * t
        else:
            col = n - 1 + gamma - delta * t
        shift = t * t * delta - t * gamma
    else:
        raise ValueError(f"unknown side {first_side!r}")
    if not 0 <= col <= 2 * n - 1:
        return ZERO
    return q_binomial(2 * n - 1, col).shift(shift)


def lr_count(n: int, w: int, ell: int, j: int, side: Side) -> IntPolynomial:
    """q-count of width-w strip walks visiting the bounding diagonals ell times.

    Translated to the origin, a walk of CDP(n, w) type starting at
    (w + 1 - j, 0) sees the left forbidden diagonal as j + 1 - (w + 2) and
    the right one as j + 1; `side` names the diagonal visited first.
    Agrees with h_bruteforce on the translated configuration.
    """
    if not 1 <= j <= w:
        raise ValueError("need 1 <= j <= w")
    if ell < 0:
        raise ValueError("ell must be non-negative")
    return h_closed(n, j + 1, w + 2, ell, side)


def gen_q_ballot(x: int, i: int, j: int) -> IntPolynomial:
    """maj generating function of NE-paths (x,0) -> (i,j) avoiding x = y.

    Computes [i+j-x, j]_q - q^x [i+j-x, j-x]_q.  The path interpretation
    requires the endpoint to lie off the diagonal (i > j, or x = 0 where
    both sides vanish); at i = j > 0 the expression is nonzero even though
    no avoiding path exists.
    """
    if not (i >= j >= 0 and x >= 0):
        raise ValueError("need i >= j >= 0 and x >= 0")
    return q_binomial(i + j - x, j) - q_binomial(i + j - x, j - x).shift(x)


# ---------------------------------------------------------------------------
# Circular Dyck path q-enumeration
# ---------------------------------------------------------------------------

def cdp_q_closed(n: int, w: int) -> IntPolynomial:
    """Closed-form q-count of CDP(n, w): the double sum over s and j.

    The term (s, j) is q^(s^2 (w+2) + s (j+1)) times [2n-1, n-1-(w+2)s]_q
    minus [2n-1, n+j+(w+2)s]_q.  The outer sum over s is truncated to
    |(w+2) s| <= 2n; every other term has both Gaussian binomials out of
    range and vanishes.  The first column does not depend on j, and at
    s = 0 neither does the exponent, so that term is added once, times w.
    The second column is in range for an interval of j read off its
    bounds, so no j outside it is visited.  _binomial_sum adds the terms
    of row 2n - 1; cdp_q_wide, its oracle for w >= n, does not call it.
    """
    if n < 1 or w < 1:
        raise ValueError("n and w must be positive")
    delta = w + 2
    top = 2 * n - 1
    s_max = (2 * n) // delta + 1
    terms: list[tuple[int, int, int]] = []
    for s in range(-s_max, s_max + 1):
        # s^2 delta + s (j+1) >= 0 for every s since j + 1 < delta.
        col = n - 1 - delta * s
        if s == 0:
            terms.append((w, 0, col))
        elif 0 <= col <= top:
            terms += ((1, s * s * delta + s * (j + 1), col) for j in range(1, w + 1))
        # 0 <= n + j + delta s <= 2n - 1 for -n - delta s <= j <= n - 1 - delta s.
        j_range = range(max(1, -n - delta * s), min(w, n - 1 - delta * s) + 1)
        terms += ((-1, s * s * delta + s * (j + 1), n + j + delta * s) for j in j_range)
    return _binomial_sum(top, terms)


def cdp_q_wide(n: int, w: int) -> IntPolynomial:
    """Three-term q-count of CDP(n, w), valid when w >= n.

    For w >= n a walk cannot visit both forbidden diagonals, so the
    inclusion-exclusion collapses to one subtraction per diagonal, made
    only for the j whose column is in range.
    """
    if not w >= n >= 1:
        raise ValueError("need w >= n >= 1")
    top = 2 * n - 1
    total = w * q_binomial(top, n - 1)
    # Only columns in [0, top] are nonzero: n + j <= top needs j < n, and
    # n + j - (w + 2) >= 0 needs j >= w + 2 - n; both ranges lie in [1, w].
    for j in range(1, n):
        total = total - q_binomial(top, n + j).shift(j)
    for j in range(w + 2 - n, w + 1):
        total = total - q_binomial(top, n + j - (w + 2))
    return total


def cdp_q_bruteforce_widths(n: int, w: int) -> list[IntPolynomial]:
    """Sum of q^maj over all lattice words of CDP(n, m), for m = 1..w; the independent oracle.

    One walk of cdp_values(n, w).  CDP(n, m) is the part of CDP(n, w) with
    max(a) < m, so each tuple is filed under its least width m = max(a) + 1,
    and its lattice word is built, and validated, at width m: a narrower
    strip than w, so no weaker a check.  The word's steps do not depend on
    the width, only its start does.  Entry m - 1 counts the tuples filed
    under widths 1..m.
    """
    if n + w > BRUTE_FORCE_CDP_LIMIT:
        raise ValueError(f"brute-force guard: need n + w <= {BRUTE_FORCE_CDP_LIMIT}")
    trusted = AreaSequence._trusted
    by_width = [Counter() for _ in range(w + 1)]
    for values in cdp_values(n, w):
        m = max(values) + 1
        by_width[m][maj(area_to_path(trusted(values, m)).bits)] += 1
    out, counts = [], Counter()
    for m in range(1, w + 1):
        counts.update(by_width[m])
        out.append(_histogram(counts))
    return out


def cdp_q_bruteforce(n: int, w: int) -> IntPolynomial:
    """Sum of q^maj over all lattice words of CDP(n, w): the last entry of cdp_q_bruteforce_widths."""
    return cdp_q_bruteforce_widths(n, w)[-1]


def _comb0(n: int, k: int) -> int:
    """Binomial coefficient with the out-of-range convention C(n, k) = 0."""
    if not 0 <= k <= n:
        return 0
    return comb(n, k)


def cdp_count(n: int, w: int) -> int:
    """|CDP(n, w)| = (w+2) * sum_t C(2n-1, n+(w+2)t) - 2^(2n-1)."""
    if n < 1 or w < 1:
        raise ValueError("n and w must be positive")
    delta = w + 2
    t_max = (2 * n) // delta + 1
    total = sum(_comb0(2 * n - 1, n + delta * t) for t in range(-t_max, t_max + 1))
    return delta * total - 2 ** (2 * n - 1)


# ---------------------------------------------------------------------------
# Diagonal-avoiding paths
# ---------------------------------------------------------------------------

def avl_q_closed(n: int, w: int) -> IntPolynomial:
    """Closed maj q-count of 2n-step paths (0,0) -> (n,n) avoiding x - y = +-w.

    The sum over s of q^(2 s^2 w + s w) ([2n, n + 2sw]_q - [2n, n + w + 2sw]_q),
    its terms added by _binomial_sum, which skips the columns out of range.
    """
    if n < 1 or w < 1:
        raise ValueError("n and w must be positive")
    s_max = (2 * n + w) // (2 * w) + 1
    return _binomial_sum(2 * n, (
        (c, 2 * s * s * w + s * w, k)
        for s in range(-s_max, s_max + 1)
        for c, k in ((1, n + 2 * s * w), (-1, n + w + 2 * s * w))
    ))


def avl_q_bruteforce(n: int, w: int) -> IntPolynomial:
    """Exhaustive maj q-count over enumerate_avl(n, w)."""
    if n > 8:
        raise ValueError("brute-force guard: need n <= 8")
    return _histogram(Counter(maj(bits) for bits in enumerate_avl(n, w)))


# ---------------------------------------------------------------------------
# Binary words under the twisted shift, and Mobius paths
# ---------------------------------------------------------------------------

def bw_q(n: int, form: Literal["A", "B", "C"] = "A") -> IntPolynomial:
    """The binary-word q-polynomial, in three deliberately separate forms.

    A: sum_k q^binom(k,2) [n, k]_q
    B: product_{j=0}^{n-1} (1 + q^j)
    C: sum over all binary words b of q^(maj(b) + maj(complement(b)))

    The three forms are identical polynomials; keeping the code paths
    separate makes them mutual oracles.  Form A is summed by the closed
    kernel _binomial_sum, form C by a brute-force histogram (_histogram).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if form == "A":
        return _binomial_sum(n, ((1, k * (k - 1) // 2, k) for k in range(n + 1)))
    if form == "B":
        total = ONE
        for j in range(n):
            total = total * (IntPolynomial.monomial(1, j) + 1)
        return total
    if form == "C":
        words = (format(v, f"0{n}b") if n else "" for v in range(2 ** n))
        return _histogram(Counter(maj(bits) + maj(transpose_word(bits)) for bits in words))
    raise ValueError(f"unknown form {form!r}")


def cmp_q(n: int) -> IntPolynomial:
    """Closed sum of q^maj over the full words of the circular Mobius paths of size n.

    Sum_{k=0}^{n-1} q^(k(k+1)/2 + n floor(k/2)) [n-1, k]_q, added by
    _binomial_sum.  Proof: the full word is b + complement(b) with b_n = 0.
    Its descents are those of b, and n + i for each ascent i of b; there is
    none at n, since b_n = 0.  So maj is the sum of the k positions i < n
    with b_i != b_(i+1), plus n times the number of ascents.  Those
    positions and b_n = 0 fix b, and read from the right its changes
    alternate descent, ascent, ..., so floor(k/2) of them are ascents.  The
    k-subsets of [n-1] have sum generating function q^(k(k+1)/2) [n-1, k]_q.
    cmp_q_bruteforce is its oracle.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _binomial_sum(n - 1, ((1, k * (k + 1) // 2 + n * (k // 2), k) for k in range(n)))


def cmp_q_bruteforce(n: int) -> IntPolynomial:
    """Exhaustive maj q-count over the full words of enumerate_cmp(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    return _histogram(Counter(maj(word.full_bits()) for word in enumerate_cmp(n)))


# ---------------------------------------------------------------------------
# Classical Dyck paths
# ---------------------------------------------------------------------------

def carlitz_q_catalan(n: int) -> IntPolynomial:
    """The Carlitz q-Catalan polynomial [2n, n]_q / [n+1]_q (exact division)."""
    if n < 1:
        raise ValueError("n must be positive")
    return q_binomial(2 * n, n).exact_div(q_int(n + 1))


def dyck_q_bruteforce(n: int) -> IntPolynomial:
    """Exhaustive maj q-count over Dyck paths of size n."""
    if n > 9:
        raise ValueError("brute-force guard: need n <= 9")
    return _histogram(Counter(map(maj, enumerate_dyck(n))))
