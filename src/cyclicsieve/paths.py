"""Circular Dyck paths, Mobius paths, diagonal-avoiding paths, Dyck paths.

Conventions used throughout:

* Binary words are Python strings of '0'/'1', written left to right in the
  order the steps are taken; '0' is an east step, '1' is a north step.
* A circular Dyck path of height n and width w is given by its area
  sequence (a_1, ..., a_n) with 0 <= a_i <= w-1 and a_{i+1} <= a_i + 1,
  indices cyclic.  CDP(n, w) denotes the set of these.
* The same object can be encoded as a lattice word: a start abscissa
  x0 = w - a_n together with a 2n-step balanced word (n east, n north
  steps, the last step north).  The walk starts at (x0, 0), places the
  i-th north step at x = w + i - a_i, and stays strictly between the
  diagonals y = x and y = x - (w + 2).  Note the word has 2n bits for
  every width w; the width enters through x0, the diagonal positions and
  the bound a_i <= w - 1.
* Classical Dyck paths are balanced 2n-step words whose every prefix has
  at least as many east steps as north steps ("east-first" storage).
* The balanced words, the Dyck paths and the diagonal-avoiding words are
  built by one height-bounded walk, _bounded_walks, where the height of a
  prefix is its number of '0's less its number of '1's.  It joins the
  first halves of its words to their second halves, so it costs about
  what it yields.  enumerate_words builds the words of any content, and
  is the walk's independent route.
* AreaSequence, LatticeWord and MobiusWord are ordered frozen
  records (record.record): compared, hashed and sorted by their field
  tuple, and only against their own class.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from .record import record


# ---------------------------------------------------------------------------
# Word statistics
# ---------------------------------------------------------------------------

def maj(bits: str) -> int:
    """Major index: sum of positions i (1-based) with bits[i] > bits[i+1].

    On a '0'/'1' string the descents are the matches of "10", found by
    str.find; any other sequence is compared position by position.
    """
    if isinstance(bits, str) and not bits.strip("01"):
        total = 0
        i = bits.find("10")
        while i >= 0:
            total += i + 1
            i = bits.find("10", i + 1)
        return total
    return sum(i for i in range(1, len(bits)) if bits[i - 1] > bits[i])


def inv_zero_one(bits: str) -> int:
    """Number of pairs i < j with bits[i] = '0' and bits[j] = '1'."""
    zeros = 0
    total = 0
    for b in bits:
        if b == "0":
            zeros += 1
        else:
            total += zeros
    return total


def zeros_run_vector(bits: str) -> tuple[int, ...]:
    """For each '1' in the word, the number of '0's since the previous '1'."""
    out = []
    run = 0
    for b in bits:
        if b == "0":
            run += 1
        else:
            out.append(run)
            run = 0
    return tuple(out)


def word_from_zeros_runs(z: tuple[int, ...]) -> str:
    return "".join("0" * zi + "1" for zi in z)


_SWAP = str.maketrans("01", "10")


def transpose_word(bits: str) -> str:
    """Reflect the path across the main diagonal: swap east and north steps."""
    return bits.translate(_SWAP)


def _count(bits: str) -> tuple[int, int]:
    ones = bits.count("1")
    return len(bits) - ones, ones  # (easts, norths)


# ---------------------------------------------------------------------------
# Area sequences
# ---------------------------------------------------------------------------

def validate_area_sequence(values, w: int) -> bool:
    """True iff values is the area sequence of a circular Dyck path of width w."""
    vals = tuple(values)
    n = len(vals)
    if n < 1 or w < 1:
        return False
    if any(not 0 <= a <= w - 1 for a in vals):
        return False
    return all(vals[(i + 1) % n] <= vals[i] + 1 for i in range(n))


@record(order=True)
class AreaSequence:
    """A circular Dyck path of height len(values) and width `width`.

    The constructor validates its input with validate_area_sequence and
    raises ValueError on an invalid sequence.  Only enumerate_cdp and
    genfunc.cdp_q_bruteforce_widths skip that check, through _trusted,
    because their output is valid by construction.
    """

    values: tuple[int, ...]
    width: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not validate_area_sequence(self.values, self.width):
            raise ValueError(f"not a valid area sequence of width {self.width}: {self.values}")

    @classmethod
    def _trusted(cls, values: tuple[int, ...], width: int) -> AreaSequence:
        """Build without validation; the caller guarantees a valid tuple."""
        a = object.__new__(cls)
        object.__setattr__(a, "values", values)
        object.__setattr__(a, "width", width)
        return a

    @property
    def height(self) -> int:
        return len(self.values)


def cdp_values(n: int, w: int) -> Iterator[tuple[int, ...]]:
    """The area tuples of CDP(n, w), in lexicographic order.

    The prefixes a_1 ... a_i are built level by level with a_{i+1} <=
    min(w-1, a_i + 1).  The cycle closes with max(a_1 - 1, 0) <= a_n, and
    a_n <= a_i + (n - i), so a prefix extends to a path exactly when a_i >=
    a_1 - 1 - (n - i); only those prefixes are kept.  The last level, whose
    bound is a_n >= a_1 - 1, is yielded lazily.  Width 0 yields nothing
    (a_i <= -1 is unsatisfiable).
    """
    if n < 1 or w < 1:
        return
    if n == 1:
        for a in range(w):
            yield (a,)
        return
    level = [(a,) for a in range(w)]
    for i in range(2, n):
        level = [p + (b,) for p in level for b in range(max(p[0] - 1 - (n - i), 0), min(w, p[-1] + 2))]
    for p in level:
        for b in range(max(p[0] - 1, 0), min(w, p[-1] + 2)):
            yield p + (b,)


def cdp_necklaces(n: int, w: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(necklace, period) for each rotation class of CDP(n, w), necklaces increasing.

    The necklace of a class is its lexicographically least rotation, and
    its period is the size of the class.  This is the FKM prenecklace
    recursion (Cattell, Ruskey, Sawada, Serra and Miers, J. Algorithms
    2000) pruned by the CDP rule: a prenecklace a_1 ... a_{t-1} whose
    longest Lyndon prefix has length p extends by a_t in [a_{t-p},
    min(w-1, a_{t-1}+1)], keeping p when a_t = a_{t-p} and taking p = t
    otherwise; a word of length n is a necklace of period p when p | n.
    The rule a_{i+1} <= a_i + 1 is read on prefixes, and every prefix of a
    prenecklace that keeps it is a prenecklace that keeps it, so the
    pruned tree still reaches every necklace that keeps it.  The
    wrap-around condition a_1 <= a_n + 1 needs no test: a necklace is no
    greater than its rotation a_n a_1 ... a_{n-1}, so a_n >= a_1.  Levels
    are built in lexicographic order, as in cdp_values; the last is
    yielded lazily.  Width 0 yields nothing.
    """
    if n < 1 or w < 1:
        return
    level = [((a,), 1) for a in range(w)]
    for t in range(1, n - 1):
        level = [
            (pre + (b,), p if b == pre[t - p] else t + 1)
            for pre, p in level
            for b in range(pre[t - p], min(w, pre[-1] + 2))
        ]
    if n == 1:
        yield from level
        return
    t = n - 1
    for pre, p in level:
        for b in range(pre[t - p], min(w, pre[-1] + 2)):
            period = p if b == pre[t - p] else n
            if n % period == 0:
                yield pre + (b,), period


def enumerate_cdp(n: int, w: int) -> Iterator[AreaSequence]:
    """All of CDP(n, w) as AreaSequence objects, in the order of cdp_values.

    Each tuple of cdp_values is valid by construction, so it is not
    validated again.
    """
    trusted = AreaSequence._trusted
    for values in cdp_values(n, w):
        yield trusted(values, w)


# ---------------------------------------------------------------------------
# Lattice word encoding
# ---------------------------------------------------------------------------

@record(order=True)
class LatticeWord:
    """Start abscissa plus step word for a circular Dyck path of width `width`.

    The walk starts at (start, 0); it must end with a north step, use as
    many east as north steps, and keep 1 <= x - y <= width + 1 at every
    lattice point, which is exactly "strictly between the diagonals
    y = x and y = x - (width + 2)".
    """

    start: int
    bits: str
    width: int

    def __post_init__(self):
        easts, norths = _count(self.bits)
        if norths == 0 or easts != norths:
            raise ValueError("word must be balanced and non-empty")
        if not self.bits.endswith("1"):
            raise ValueError("last step must be north")
        if not 1 <= self.start <= self.width:
            raise ValueError(f"start abscissa {self.start} outside [1, {self.width}]")
        d = self.start
        for b in self.bits:
            d += 1 if b == "0" else -1
            if not 1 <= d <= self.width + 1:
                raise ValueError("path touches a forbidden diagonal")

    @property
    def height(self) -> int:
        return len(self.bits) // 2


def area_to_path(a: AreaSequence) -> LatticeWord:
    """Encode an area sequence as (start, word): north step i at x = w + i - a_i."""
    w = a.width
    n = a.height
    x0 = w - a.values[n - 1]
    xs = [w + i + 1 - a.values[i] for i in range(n)]
    parts = []
    prev = x0
    for x in xs:
        parts.append("0" * (x - prev))
        parts.append("1")
        prev = x
    return LatticeWord(x0, "".join(parts), w)


# ---------------------------------------------------------------------------
# Circular Mobius paths
# ---------------------------------------------------------------------------

@record(order=True)
class MobiusWord:
    """Half-word b_1 ... b_n with b_n = '0'; the full word appends the complement.

    The full 2n-step word satisfies b_{n+i} = 1 - b_i, so it ends with a
    north step, and its start abscissa is pinned by the fact that step n
    is an east step ending on the vertical line x = n + 1.
    """

    half: str

    def __post_init__(self):
        if not self.half or any(c not in "01" for c in self.half):
            raise ValueError("half-word must be a non-empty binary string")
        if not self.half.endswith("0"):
            raise ValueError("half-word must end with '0'")

    @property
    def size(self) -> int:
        return len(self.half)

    def full_bits(self) -> str:
        return self.half + transpose_word(self.half)


def enumerate_cmp(n: int) -> Iterator[MobiusWord]:
    """All circular Mobius paths of size n: 2^(n-1) half-words ending in '0'.

    Every half-word with b_n = 0 expands to a valid element of CDP(n), so
    none is walked here; the tests check each one's LatticeWord.
    """
    if n < 1:
        raise ValueError("n must be positive")
    for v in range(2 ** (n - 1)):
        yield MobiusWord(format(v, f"0{n - 1}b") + "0" if n > 1 else "0")


# ---------------------------------------------------------------------------
# Balanced words: one height-bounded walk
# ---------------------------------------------------------------------------

def _bounded_walks(n: int, low: int, high: int) -> Iterator[str]:
    """Balanced 2n-step words whose height stays in [low, high], in lexicographic order.

    The bounds hold 0.  Each word is a first half, n steps from height 0,
    and a second half, n steps from the height h where the first ends back
    to 0, both inside the bounds.  The first halves are built level by
    level, '0' before '1', keeping each prefix inside the bounds; every one
    ends at some h with |h| <= n, so none is a dead end.  The second halves
    from h are the first halves that end at h read backwards with '0' and
    '1' swapped, which walks the same heights in reverse; they are grouped
    by h and sorted.  Each first half, in lexicographic order, is joined to
    each second half from its h, so the work follows the output and only
    the two lists of at most 2^n halves are held.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    firsts = [("", 0)]
    for _ in range(n):
        firsts = [(p + b, h + s) for p, h in firsts for b, s in (("0", 1), ("1", -1)) if low <= h + s <= high]
    seconds: dict[int, list[str]] = {}
    for p, h in firsts:
        seconds.setdefault(h, []).append(transpose_word(p[::-1]))
    for rests in seconds.values():
        rests.sort()
    for p, h in firsts:
        yield from map(p.__add__, seconds[h])


def enumerate_balanced(n: int) -> Iterator[str]:
    """All balanced words of length 2n (n east, n north steps), in lexicographic order."""
    yield from _bounded_walks(n, -n, n)


def enumerate_dyck(n: int) -> Iterator[str]:
    """All Dyck paths of size n as words, in lexicographic order.

    They are the balanced words whose walk never goes below its start: the
    walks of _bounded_walks(n, 0, n).
    """
    yield from _bounded_walks(n, 0, n)


def enumerate_words(content: Sequence[int], letters: Sequence) -> Iterator:
    """Every word with content[i] copies of letters[i], each exactly once.

    Words over a str alphabet are strings, words over any other alphabet
    are tuples.  The positions of letters[0] are chosen first, in
    lexicographic order, then those of letters[1] among the rest, and so
    on; over two letters that is the lexicographic order of the words.
    """
    build = "".join if isinstance(letters, str) else tuple
    # A zero part places no letter, so it takes no recursion level; the last letter used fills the rest.
    used = [i for i, m in enumerate(content) if m] or [len(content) - 1]

    def place(j: int, word: list, free: Sequence[int]) -> Iterator:
        i = used[j]
        for chosen in combinations(free, content[i]):
            filled = word.copy()
            for p in chosen:
                filled[p] = letters[i]
            if j + 2 == len(used):
                yield build(filled)
            else:
                yield from place(j + 1, filled, [p for p in free if p not in chosen])

    word = [letters[used[-1]]] * sum(content)
    return place(0, word, range(len(word))) if len(used) > 1 else iter([build(word)])


def enumerate_avl(n: int, w: int) -> Iterator[str]:
    """Balanced 2n-step words from (0,0) to (n,n) avoiding x - y = +-w, in lexicographic order.

    The walks of _bounded_walks(n, 1 - w, w - 1): no balanced word that
    touches a diagonal is built.
    """
    if n < 1 or w < 1:
        raise ValueError("n and w must be positive")
    yield from _bounded_walks(n, 1 - w, w - 1)
