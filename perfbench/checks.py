"""The CLI requests the benchmark sends, and their payload checks against the oracles.

Every check recomputes the expected numbers from `oracles`, never from a
stored copy of an earlier output, and raises CheckError on the first
difference.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from functools import cache
from math import comb, gcd

import oracles


class CheckError(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@cache
def traces(w: int, dmax: int) -> tuple[int, ...]:
    return tuple(oracles.transfer_traces(w, dmax))


@cache
def fixed_counts(target: str, key: tuple) -> dict[int, int]:
    if target == "cdp":
        n, w = key
        return oracles.cdp_fixed(n, w)
    if target == "avl":
        return oracles.avl_fixed(*key)
    if target == "cmp":
        return oracles.cmp_fixed(*key)
    if target == "bw":
        return oracles.bw_fixed(*key)
    if target == "words":
        return oracles.words_fixed(list(key))
    raise ValueError(target)


def strs(values) -> list[str]:
    return [str(v) for v in values]


def trimmed(values: list[int]) -> list[int]:
    out = list(values)
    while out and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# One check per command
# ---------------------------------------------------------------------------

def check_verify(p: dict, target: str, n: int, key: tuple) -> None:
    fixed = fixed_counts(target, key)
    expect(p["target"] == target, "wrong target")
    report = p["report"]
    expect(report["order"] == str(n), "wrong order")
    expect(len(report["rows"]) == n, "wrong number of rows")
    for k, row in enumerate(report["rows"], start=1):
        d = gcd(n, k)
        want = str(fixed[d])
        expect(row["k"] == str(k) and row["gcd"] == str(d), f"row {k}: wrong k or gcd")
        expect(row["fixed_count"] == want, f"row {k}: fixed_count {row['fixed_count']}, oracle {want}")
        expect(row["evaluation"] == want, f"row {k}: evaluation {row['evaluation']}, oracle {want}")
        expect(row["match"] is True, f"row {k}: match is not true")
    expect(report["verdict"] == "pass" and report["first_mismatch"] is None, "verdict is not pass")


def _rotate_right(values: list[int]) -> list[int]:
    return values[-1:] + values[:-1]


def _is_area_sequence(values, n: int, w: int) -> bool:
    return (
        isinstance(values, list)
        and len(values) == n
        and all(isinstance(v, int) and 0 <= v <= w - 1 for v in values)
        and all(values[(i + 1) % n] <= values[i] + 1 for i in range(n))
    )


def check_orbits_cdp(p: dict, n: int, w: int) -> None:
    fixed = fixed_counts("cdp", (n, w))
    census = oracles.orbit_census(n, fixed)
    folded = oracles.folded_census(n, census)
    expect(p["target"] == "cdp" and p["order"] == str(n), "wrong target or order")
    seen = set()
    sizes = Counter()
    for orbit in p["orbits"]:
        elements = orbit["elements"]
        size = orbit["size"]
        expect(size == len(elements) and orbit["stabilizer_order"] * size == n, "orbit size fields disagree")
        for i, a in enumerate(elements):
            expect(_is_area_sequence(a, n, w), f"{a!r} is not an area sequence of CDP({n},{w})")
            expect(_rotate_right(a) == elements[(i + 1) % size], f"orbit of {elements[0]!r} is not a rotation orbit")
            expect(tuple(a) not in seen, f"{a!r} appears twice")
            seen.add(tuple(a))
        sizes[size] += 1
    expect(len(seen) == fixed[n], f"{len(seen)} elements, oracle |CDP({n},{w})| = {fixed[n]}")
    expect(dict(sizes) == {s: c for s, c in census.items() if c}, f"orbit sizes {dict(sizes)}, oracle {census}")
    expect(p["orbit_poly"] == strs(trimmed(folded)), "orbit_poly differs from the Moebius census")
    expect(p["closed_poly_folded"] == strs(folded), "closed_poly_folded differs from the Moebius census")
    expect(p["poly_match"] is True, "poly_match is not true")


def check_count(p: dict, n: int, w: int, with_q: bool) -> None:
    expect(p["count"] == str(traces(w, n)[n]), f"count {p['count']}, oracle tr(T^{n}) = {traces(w, n)[n]}")
    if with_q:
        expect(p["q_poly"] == strs(oracles.cdp_q_poly(n, w)), "q_poly differs from the area-sequence DP")


def check_count_table(p: dict, w: int, max_n: int) -> None:
    tr = traces(w, max_n)
    want = [{"n": str(n), "count": str(tr[n])} for n in range(1, max_n + 1)]
    expect(p["rows"] == want, "count table differs from the transfer-matrix traces")


def check_lyndon_cdp(p: dict, w: int, max_n: int) -> None:
    # tr(T^(n/m)) = |CDP(n/m, w)|, so every member sieves and every relation holds.
    expect(p["family"] == "cdp" and p["max_n"] == str(max_n), "wrong family or max_n")
    expect(p["member_verdicts"] == [True] * max_n, "a member failed its sieving check")
    expect(p["relation_failures"] == [] and p["verdict"] == "pass", "Lyndon relation reported as failing")


def check_homomesy_alpha(p: dict, n: int) -> None:
    average = {"num": str(comb(n + 1, 2)), "den": "1"}
    orbits = oracles.zrun_orbit_count(n)
    expect(p["global_average"] == average, "global average is not C(n+1, 2)")
    expect(len(p["orbit_averages"]) == orbits, f"{len(p['orbit_averages'])} orbits, Burnside says {orbits}")
    expect(all(a == average for a in p["orbit_averages"]), "an orbit average is not C(n+1, 2)")
    expect(p["homomesic"] is True and p["witness_orbit"] is None, "not reported homomesic")


def check_selftest(p: dict, max_n: int) -> None:
    expect(p["max_n"] == str(max_n), "wrong max_n")
    expect([c["id"] for c in p["criteria"]] == list(range(1, 16)), "criteria are not 1..15")
    failing = [c["id"] for c in p["criteria"] if c["passed"] is not True]
    expect(not failing and p["passed"] is True, f"criteria {failing} did not pass")


def check_sieve_cell(cell: dict) -> None:
    """One sieve-scale cell against the trace, the area-sequence DP and the Moebius census."""
    n, w = cell["n"], cell["w"]
    fixed = fixed_counts("cdp", (n, w))
    census = oracles.orbit_census(n, fixed)
    q_poly = oracles.cdp_q_poly(n, w)
    expect(cell["count"] == str(fixed[n]), f"cdp_count {cell['count']}, oracle tr(T^{n}) = {fixed[n]}")
    expect(cell["q_poly"] == strs(q_poly), "cdp_q_closed differs from the area-sequence DP")
    want = {str(d): str(fixed[d]) for d in oracles.divisors(n)}
    expect(cell["evals"] == want, f"eval_at_unity by d: {cell['evals']}, oracle tr(T^d): {want}")
    folded = oracles.folded_census(n, census)
    expect(oracles.fold(q_poly, n) == folded, "the DP polynomial does not fold to the census")
    expect(cell["folded"] == strs(folded), "mod_cyclic differs from the Moebius census")
    s_values = {str(s): str(c * s) for s, c in census.items()}
    expect(cell["feasible"] is True and cell["s_values"] == s_values, f"csp_feasibility S_k {cell['s_values']}, oracle {s_values}")


SELFTEST_LOG_LINE = re.compile(r"PASS criterion +\d+ \[ *[0-9.]+s\] ")


def selftest_stderr_ok(text: str) -> bool:
    """selftest logs one PASS line per criterion to stderr; anything else is a failure."""
    lines = text.splitlines()
    return len(lines) == 15 and all(SELFTEST_LOG_LINE.match(line) for line in lines)


# ---------------------------------------------------------------------------
# The request list of the CLI workloads
# ---------------------------------------------------------------------------

REQUESTS: list[tuple[list[str], object]] = [
    (["verify", "cdp", "--n", "9", "--w", "9"], lambda p: check_verify(p, "cdp", 9, (9, 9))),
    (["verify", "cdp", "--n", "9", "--w", "5"], lambda p: check_verify(p, "cdp", 9, (9, 5))),
    (["verify", "cdp", "--n", "8", "--w", "8"], lambda p: check_verify(p, "cdp", 8, (8, 8))),
    (["verify", "avl", "--n", "9", "--w", "4"], lambda p: check_verify(p, "avl", 9, (9, 4))),
    (["verify", "cmp", "--n", "12"], lambda p: check_verify(p, "cmp", 12, (12,))),
    (["verify", "bw", "--n", "16"], lambda p: check_verify(p, "bw", 16, (16,))),
    (["verify", "words", "--content", "3,3,4"], lambda p: check_verify(p, "words", 10, (3, 3, 4))),
    (["orbits", "cdp", "--n", "8", "--w", "8", "--poly"], lambda p: check_orbits_cdp(p, 8, 8)),
    (["count", "--n", "48", "--w", "8", "--q"], lambda p: check_count(p, 48, 8, True)),
    (["count", "--w", "3", "--max-n", "200"], lambda p: check_count_table(p, 3, 200)),
    (["lyndon", "check", "--family", "cdp", "--w", "3", "--max-n", "10"], lambda p: check_lyndon_cdp(p, 3, 10)),
    (["homomesy", "--n", "7", "--action", "alpha"], lambda p: check_homomesy_alpha(p, 7)),
]

SELFTEST_REQUEST = (["selftest", "--max-n", "12"], lambda p: check_selftest(p, 12))


def check_stdout(check, stdout: bytes) -> None:
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"stdout is not JSON: {exc}")
    try:
        check(payload)
    except (KeyError, TypeError) as exc:
        raise CheckError(f"payload is missing or mistypes {exc}")
