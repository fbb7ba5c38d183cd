"""Reference counts for checking cyclicsieve's outputs, built without it.

Nothing here imports cyclicsieve.  Each function computes its answer by a
route other than the program's: the transfer-matrix method (Stanley, EC1
section 4.7) instead of inclusion-exclusion or enumeration, a dynamic
programme over area sequences instead of the closed double sum, and small
brute-force counts written from the definitions.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial, gcd


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


# ---------------------------------------------------------------------------
# Circular Dyck paths by the transfer matrix
# ---------------------------------------------------------------------------

def transfer_traces(w: int, dmax: int) -> list[int]:
    """tr(T^d) for d = 0..dmax, where T is the w x w 0/1 matrix with T[a][b] = 1 iff b <= a+1.

    A closed walk of length d in T is a cyclic area sequence of height d
    and width w, so tr(T^d) = |CDP(d, w)|.  Right-multiplying by T turns
    each row into suffix sums, so each power costs O(w^2).
    """
    m = [[int(i == j) for j in range(w)] for i in range(w)]
    traces = [w]
    for _ in range(dmax):
        nxt = []
        for row in m:
            suffix = [0] * (w + 1)
            for a in range(w - 1, -1, -1):
                suffix[a] = suffix[a + 1] + row[a]
            nxt.append([suffix[max(b - 1, 0)] for b in range(w)])
        m = nxt
        traces.append(sum(m[i][i] for i in range(w)))
    return traces


def cdp_fixed(n: int, w: int) -> dict[int, int]:
    """Fixed points of the k-th rotation of CDP(n, w), keyed by d = gcd(n, k): tr(T^d)."""
    traces = transfer_traces(w, n)
    return {d: traces[d] for d in divisors(n)}


def orbit_census(n: int, fixed: dict[int, int]) -> dict[int, int]:
    """Number of orbits of each size s | n, by Moebius inversion of fixed-point counts.

    fixed[d] is the number of elements fixed by a generator power of order
    n/d, i.e. the elements whose orbit size divides d.
    """
    out = {}
    for s in divisors(n):
        exact = sum(mobius(s // j) * fixed[j] for j in divisors(s))
        if exact < 0 or exact % s:
            raise ValueError(f"fixed counts admit no action: {exact} elements in orbits of size {s}")
        out[s] = exact // s
    return out


def folded_census(n: int, census: dict[int, int]) -> list[int]:
    """Coefficient l (0 <= l < n) counts the orbits whose stabilizer order n/s divides l."""
    return [sum(c for s, c in census.items() if l % (n // s) == 0) for l in range(n)]


def cdp_q_poly(n: int, w: int) -> list[int]:
    """Coefficients of sum over CDP(n, w) of q^maj, lowest degree first.

    The major index of the lattice word of (a_1, ..., a_n) is
    sum over i < n with a_{i+1} <= a_i of (2i - a_i + a_n).  For each value
    c of a_n, a dynamic programme over the current area value carries the
    polynomial packed into one integer, `slot` bits per coefficient.
    """
    slot = 8 * ((n * w.bit_length() + 8) // 8)
    total = 0
    for c in range(w):
        # a_1 <= a_n + 1 closes the cycle; every admissible a_1 starts with q^0.
        row = [1 if a <= c + 1 else 0 for a in range(w)]
        for i in range(1, n):
            # Step a_i -> a_{i+1} = b: a descent (b <= a_i) adds 2i - a_i + c.
            shifted = [v << (slot * (2 * i - a + c)) if v else 0 for a, v in enumerate(row)]
            nxt = [0] * w
            acc = 0
            for b in range(w - 1, -1, -1):
                acc += shifted[b]
                nxt[b] = acc + (row[b - 1] if b >= 1 else 0)
            row = nxt
        total += row[c]
    nbytes = (total.bit_length() + 7) // 8
    raw = total.to_bytes(nbytes, "little")
    step = slot // 8
    coeffs = [int.from_bytes(raw[i:i + step], "little") for i in range(0, nbytes, step)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def fold(coeffs: list[int], n: int) -> list[int]:
    """Coefficients reduced mod q^n - 1."""
    out = [0] * n
    for i, c in enumerate(coeffs):
        out[i % n] += c
    return out


# ---------------------------------------------------------------------------
# Fixed-point rules and brute force for the other verify targets
# ---------------------------------------------------------------------------

def bw_fixed(n: int) -> dict[int, int]:
    """Binary words under the twisted shift: 2^d if n/d is odd, else 0."""
    return {d: 2 ** d if (n // d) % 2 else 0 for d in divisors(n)}


def twist(word: tuple[int, ...]) -> tuple[int, ...]:
    """(b_1, ..., b_n) -> (1 - b_{n-1}, 1 - b_n, b_1, ..., b_{n-2})."""
    return (1 - word[-2], 1 - word[-1]) + word[:-2]


def cmp_fixed(n: int) -> dict[int, int]:
    """Odd-parity words of length n fixed by the d-th power of the twisted shift.

    Circular Moebius paths of size n correspond to the odd-parity binary
    words of length n, and their action to the twisted shift.
    """
    words = []
    for v in range(2 ** n):
        word = tuple((v >> (n - 1 - i)) & 1 for i in range(n))
        if sum(word) % 2 == 1:
            words.append(word)
    out = {}
    for d in divisors(n):
        count = 0
        for word in words:
            y = word
            for _ in range(d):
                y = twist(y)
            count += y == word
        out[d] = count
    return out


def avoiding_words(n: int, w: int) -> list[str]:
    """Balanced 2n-step words ('0' east, '1' north) whose walk from the origin never has |x - y| = w."""
    out = []
    for norths in combinations(range(2 * n), n):
        bits = "".join("1" if i in norths else "0" for i in range(2 * n))
        d = 0
        for b in bits:
            d += 1 if b == "0" else -1
            if abs(d) == w:
                break
        else:
            out.append(bits)
    return out


def avl_fixed(n: int, w: int) -> dict[int, int]:
    """Avoiding words fixed by rotating 2d steps (the d-th power of the two-step shift)."""
    words = avoiding_words(n, w)
    return {d: sum(1 for b in words if b[-2 * d:] + b[:-2 * d] == b) for d in divisors(n)}


def multinomial(parts: list[int]) -> int:
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


def words_fixed(content: list[int]) -> dict[int, int]:
    """Words of the given content fixed by rotation of order n/d: multinomial(d; content * d/n)."""
    n = sum(content)
    out = {}
    for d in divisors(n):
        r = n // d
        out[d] = multinomial([m // r for m in content]) if all(m % r == 0 for m in content) else 0
    return out


def zrun_orbit_count(n: int) -> int:
    """Orbits of rotation on weak compositions of n into n parts (Burnside).

    Balanced words of length 2n ending in a north step are these
    compositions (their zero-run vectors); a rotation by k fixes the
    g-periodic ones, g = gcd(n, k), of which there are C(2g-1, g-1).
    """
    return sum(comb(2 * gcd(n, k) - 1, gcd(n, k) - 1) for k in range(1, n + 1)) // n
