"""The oracles against counts made from the definitions alone, and the checks against altered payloads.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

import json
from collections import Counter
from itertools import permutations, product
from math import gcd
from pathlib import Path

import pytest

import checks
import oracles

# ---------------------------------------------------------------------------
# Definitions, written out by brute force
# ---------------------------------------------------------------------------


def area_sequences(n, w):
    """(a_1..a_n) with 0 <= a_i <= w-1 and a_{i+1} <= a_i + 1, indices cyclic."""
    return [a for a in product(range(w), repeat=n) if all(a[(i + 1) % n] <= a[i] + 1 for i in range(n))]


def lattice_word(a, w):
    """Start at x = w - a_n; the i-th north step (1-based) sits at x = w + i - a_i."""
    x, bits = w - a[-1], ""
    for i, ai in enumerate(a, start=1):
        target = w + i - ai
        bits += "0" * (target - x) + "1"
        x = target
    return bits


def maj(bits):
    return sum(i for i in range(1, len(bits)) if bits[i - 1] == "1" and bits[i] == "0")


def rotate(seq, k):
    k %= len(seq)
    return seq[-k:] + seq[:-k] if k else seq


def orbit_sizes(elements, step):
    """Sizes of the orbits of the map `step` on a finite set."""
    seen, sizes = set(), Counter()
    for x in elements:
        if x in seen:
            continue
        size, y = 0, x
        while True:
            seen.add(y)
            size += 1
            y = step(y)
            if y == x:
                break
        sizes[size] += 1
    return dict(sizes)


def fixed_by_definition(elements, step, n):
    """Elements fixed by step^k, keyed by d = gcd(n, k)."""
    out = {}
    for k in range(1, n + 1):
        d = gcd(n, k)

        def power(x):
            for _ in range(k):
                x = step(x)
            return x

        count = sum(1 for x in elements if power(x) == x)
        assert out.setdefault(d, count) == count
    return out


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

CDP_CELLS = [(n, w) for n in range(1, 7) for w in range(1, 6)]


@pytest.mark.parametrize("n,w", CDP_CELLS)
def test_trace_counts_area_sequences_and_their_fixed_points(n, w):
    seqs = area_sequences(n, w)
    assert oracles.transfer_traces(w, n)[n] == len(seqs)
    assert oracles.cdp_fixed(n, w) == fixed_by_definition(seqs, lambda a: rotate(a, 1), n)


@pytest.mark.parametrize("n,w", CDP_CELLS)
def test_moebius_census_counts_rotation_orbits(n, w):
    seqs = area_sequences(n, w)
    sizes = orbit_sizes(seqs, lambda a: rotate(a, 1))
    census = oracles.orbit_census(n, oracles.cdp_fixed(n, w))
    assert {s: c for s, c in census.items() if c} == sizes
    folded = [sum(c for s, c in sizes.items() if l % (n // s) == 0) for l in range(n)]
    assert oracles.folded_census(n, census) == folded


@pytest.mark.parametrize("n,w", [(n, w) for n in range(1, 7) for w in range(1, 7)])
def test_area_dp_is_the_maj_count_of_lattice_words(n, w):
    coeffs = Counter(maj(lattice_word(a, w)) for a in area_sequences(n, w))
    want = [coeffs[i] for i in range(max(coeffs) + 1)]
    assert oracles.cdp_q_poly(n, w) == want


def test_area_dp_sums_to_the_trace_far_past_enumeration():
    for n, w in [(30, 4), (24, 30), (60, 8)]:
        assert sum(oracles.cdp_q_poly(n, w)) == oracles.transfer_traces(w, n)[n]


def twisted_shift(bits):
    flip = {"0": "1", "1": "0"}
    return flip[bits[-2]] + flip[bits[-1]] + bits[:-2]


@pytest.mark.parametrize("n", range(2, 9))
def test_bw_rule_is_the_twisted_shift_fixed_count(n):
    words = ["".join(p) for p in product("01", repeat=n)]
    assert oracles.bw_fixed(n) == fixed_by_definition(words, twisted_shift, n)


@pytest.mark.parametrize("n", range(2, 9))
def test_cmp_fixed_counts_moebius_half_words(n):
    # A Moebius half-word h ends in 0; it stands for the odd-parity word h[:-1] + p.
    def step(half):
        head = half[:-1]
        parity = "0" if head.count("1") % 2 else "1"
        return twisted_shift(head + parity)[:-1] + "0"

    halves = ["".join(p) + "0" for p in product("01", repeat=n - 1)]
    fixed = oracles.cmp_fixed(n)
    assert fixed == fixed_by_definition(halves, step, n)
    assert fixed[n] == 2 ** (n - 1)


@pytest.mark.parametrize("n,w", [(n, w) for n in range(1, 7) for w in range(1, n + 2)])
def test_avl_fixed_counts_rotated_avoiding_words(n, w):
    def avoids(bits):
        heights = [bits[:i].count("0") - bits[:i].count("1") for i in range(1, 2 * n + 1)]
        return all(abs(h) != w for h in heights)

    words = ["".join(p) for p in product("01", repeat=2 * n) if p.count("1") == n]
    words = [b for b in words if avoids(b)]
    assert sorted(oracles.avoiding_words(n, w)) == sorted(words)
    assert oracles.avl_fixed(n, w) == fixed_by_definition(words, lambda b: rotate(b, 2), n)


@pytest.mark.parametrize("content", [(1,), (2, 2), (2, 1, 1), (3, 3), (2, 2, 2), (4, 2), (3, 3, 2)])
def test_words_fixed_is_the_multinomial_rule(content):
    letters = [i for i, m in enumerate(content) for _ in range(m)]
    words = sorted(set(permutations(letters)))
    assert oracles.words_fixed(list(content)) == fixed_by_definition(words, lambda t: rotate(t, 1), len(letters))


@pytest.mark.parametrize("n", range(1, 7))
def test_burnside_counts_zero_run_rotation_orbits(n):
    def zeros_runs(bits):
        return tuple(len(run) for run in bits.split("1")[:-1])

    words = ["".join(p) for p in product("01", repeat=2 * n) if p.count("1") == n and p[-1] == "1"]
    runs = [zeros_runs(b) for b in words]
    assert sum(orbit_sizes(runs, lambda z: rotate(z, 1)).values()) == oracles.zrun_orbit_count(n)


# ---------------------------------------------------------------------------
# Checks reject a payload with one number altered
# ---------------------------------------------------------------------------


def bump(text):
    return str(int(text) + 1)


def accepted_then_rejected(check, payload, alter):
    check(payload)
    altered = json.loads(json.dumps(payload))
    alter(altered)
    with pytest.raises(checks.CheckError):
        check(altered)


@pytest.mark.parametrize(
    "target,n,w,content,key",
    [("cdp", 6, 3, None, (6, 3)), ("cmp", 6, None, None, (6,)), ("bw", 6, None, None, (6,)),
     ("avl", 5, 2, None, (5, 2)), ("words", 5, None, (2, 2, 1), (2, 2, 1))],
)
def test_verify_check_rejects_an_altered_fixed_count(target, n, w, content, key):
    from cyclicsieve.cli import payload_verify

    payload = payload_verify(target, n, w, content)

    def alter(p):
        row = p["report"]["rows"][n // 2]
        row["fixed_count"] = bump(row["fixed_count"])

    accepted_then_rejected(lambda p: checks.check_verify(p, target, n, key), payload, alter)


@pytest.mark.parametrize("field", ["element", "orbit_poly", "closed_poly_folded"])
def test_orbits_check_rejects_an_altered_number(field):
    from cyclicsieve.cli import payload_orbits

    payload = payload_orbits("cdp", 6, 4, None, True)

    def alter(p):
        if field == "element":
            p["orbits"][3]["elements"][0][2] += 1
        else:
            p[field][1] = bump(p[field][1])

    accepted_then_rejected(lambda p: checks.check_orbits_cdp(p, 6, 4), payload, alter)


def test_count_checks_reject_an_altered_number():
    from cyclicsieve.cli import payload_count, payload_count_table

    def alter_q(p):
        p["q_poly"][7] = bump(p["q_poly"][7])

    accepted_then_rejected(lambda p: checks.check_count(p, 10, 3, True), payload_count(10, 3, True), alter_q)

    def alter_row(p):
        p["rows"][11]["count"] = bump(p["rows"][11]["count"])

    accepted_then_rejected(lambda p: checks.check_count_table(p, 3, 20), payload_count_table(3, 20), alter_row)


def test_homomesy_and_lyndon_checks_reject_an_altered_value():
    from cyclicsieve.cli import payload_homomesy, payload_lyndon_check

    def alter_average(p):
        p["orbit_averages"][2]["num"] = bump(p["orbit_averages"][2]["num"])

    accepted_then_rejected(lambda p: checks.check_homomesy_alpha(p, 5), payload_homomesy(5, "alpha"), alter_average)

    def alter_verdict(p):
        p["member_verdicts"][1] = False

    accepted_then_rejected(lambda p: checks.check_lyndon_cdp(p, 2, 5), payload_lyndon_check("cdp", 2, 5), alter_verdict)


def test_selftest_check_and_log_lines():
    payload = {"max_n": "12", "passed": True, "criteria": [{"id": i, "name": "c", "passed": True, "detail": ""} for i in range(1, 16)]}

    def alter(p):
        p["criteria"][4]["passed"] = False

    accepted_then_rejected(lambda p: checks.check_selftest(p, 12), payload, alter)
    log = "".join(f"PASS criterion {i:2d} [   0.01s] name: detail\n" for i in range(1, 16))
    assert checks.selftest_stderr_ok(log)
    assert not checks.selftest_stderr_ok(log + '{"warning": "corrupted cache entry"}\n')


@pytest.mark.parametrize("field", ["count", "q_poly", "evals", "folded", "s_values"])
def test_sieve_cell_check_rejects_an_altered_number(field):
    import sieve_child

    cell = sieve_child.to_json(12, 3, sieve_child.run_cell(12, 3))

    def alter(c):
        if field == "count":
            c["count"] = bump(c["count"])
        elif field in ("evals", "s_values"):
            c[field]["4"] = bump(c[field]["4"])
        else:
            c[field][5] = bump(c[field][5])

    accepted_then_rejected(checks.check_sieve_cell, cell, alter)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
