"""Verification engines: sieving reports, feasibility, Lyndon families, homomesy."""

import random
from fractions import Fraction
from math import comb, gcd

import pytest

from cyclicsieve import actions, csp, paths, selftest
from cyclicsieve.actions import (
    CyclicAction,
    OrbitDecomposition,
    OrbitError,
    area_shift,
    fixed_count,
    orbit_decompose,
    twisted_necklaces,
    twisted_shift,
    word_rotate,
    word_shift_two,
)
from cyclicsieve.csp import (
    FAMILIES,
    TARGETS,
    Target,
    balanced_words_ending_in_one,
    check_cdp_fixed_points,
    csp_feasibility,
    homomesy_check,
    lyndon_check,
    lyndon_construct,
    lyndon_params,
    verify_csp,
    verify_subset_csp,
    verify_target,
    words_family,
    zrun_rotation_action,
)
from cyclicsieve.genfunc import avl_q_closed, bw_q, cdp_q_closed, cmp_q
from cyclicsieve.paths import cdp_values, enumerate_avl, enumerate_balanced, enumerate_cdp, enumerate_cmp, enumerate_words, inv_zero_one
from cyclicsieve.qpoly import IntPolynomial, NonConstant, divisors, eval_at_unity, q_factorial, q_multinomial


def bw(n):
    return [format(v, f"0{n}b") for v in range(2 ** n)]


class TestVerifyCsp:
    def test_circular_paths_instance(self):
        carrier = list(enumerate_cdp(4, 3))
        report = verify_csp(carrier, CyclicAction(4, area_shift), cdp_q_closed(4, 3))
        assert report.passed
        assert report.first_mismatch is None
        assert len(report.rows) == 4

    def test_binary_words_instance(self):
        report = verify_csp(bw(6), CyclicAction(6, twisted_shift), bw_q(6))
        assert report.passed

    def test_perturbed_polynomial_fails(self):
        f = bw_q(4) + IntPolynomial([0, 1])
        report = verify_csp(bw(4), CyclicAction(4, twisted_shift), f)
        assert not report.passed
        assert report.first_mismatch is not None
        assert report.verdict == "fail"

    def test_rows_constant_on_gcd_classes_when_passing(self):
        carrier = list(enumerate_cdp(6, 3))
        report = verify_csp(carrier, CyclicAction(6, area_shift), cdp_q_closed(6, 3))
        by_gcd = {}
        for row in report.rows:
            by_gcd.setdefault(row.gcd, set()).add((row.evaluation, row.fixed))
        assert all(len(v) == 1 for v in by_gcd.values())

    def test_report_serialization(self):
        report = verify_csp(bw(3), CyclicAction(3, twisted_shift), bw_q(3))
        data = report.to_json()
        assert data["verdict"] == "pass"
        assert data["rows"][0]["evaluation"] == "2"
        assert data["first_mismatch"] is None


class TestVerifySubsetCsp:
    def test_avl_three_two(self):
        subset = list(enumerate_avl(3, 2))
        superset = list(enumerate_avl(3, 4))  # no path reaches +-4: all paths
        report = verify_subset_csp(subset, superset, CyclicAction(3, word_shift_two), avl_q_closed(3, 2))
        assert report.passed

    def test_avl_five_two(self):
        subset = list(enumerate_avl(5, 2))
        superset = list(enumerate_avl(5, 6))
        report = verify_subset_csp(subset, superset, CyclicAction(5, word_shift_two), avl_q_closed(5, 2))
        assert report.passed

    def test_non_coprime_processed_with_warning(self):
        subset = list(enumerate_avl(4, 2))
        superset = list(enumerate_balanced(4))
        report = verify_subset_csp(
            subset,
            superset,
            CyclicAction(4, word_shift_two),
            avl_q_closed(4, 2),
            warnings=["coprimality hypothesis not met: gcd(4,2) != 1"],
        )
        assert report.warnings
        assert isinstance(report.passed, bool)

    def test_rejects_non_subset(self):
        with pytest.raises(ValueError):
            verify_subset_csp(["0011"], ["0101"], CyclicAction(2, word_shift_two), bw_q(0))

    def test_coprimality_hypothesis_is_necessary(self):
        # Every pair with gcd(n, w) > 1 in this range actually fails, so the
        # warning is not decorative.
        from math import gcd

        for n in range(2, 8):
            for w in range(1, n):
                if gcd(n, w) == 1:
                    continue
                subset = list(enumerate_avl(n, w))
                superset = list(enumerate_balanced(n))
                report = verify_subset_csp(
                    subset, superset, CyclicAction(n, word_shift_two), avl_q_closed(n, w)
                )
                assert not report.passed, (n, w)

    def test_mobius_paths_as_subset_instance(self):
        # The Mobius-path polynomial also sieves as a subset of all balanced
        # words under the two-step shift, which does not preserve the subset.
        from cyclicsieve.genfunc import cmp_q
        from cyclicsieve.paths import enumerate_cmp

        for n in range(1, 9):
            superset = list(enumerate_balanced(n))
            subset = [m.full_bits() for m in enumerate_cmp(n)]
            report = verify_subset_csp(
                subset, superset, CyclicAction(n, word_shift_two), cmp_q(n)
            )
            assert report.passed, n


    def test_walks_the_superset_as_given(self, monkeypatch):
        walked = []
        real = csp.orbit_decompose
        monkeypatch.setattr(csp, "orbit_decompose", lambda carrier, action: walked.append(carrier) or real(carrier, action))
        superset = list(enumerate_balanced(5))
        assert verify_subset_csp(list(enumerate_avl(5, 2)), superset, CyclicAction(5, word_shift_two), avl_q_closed(5, 2)).passed
        assert len(walked) == 1 and walked[0] is superset

    def test_subset_with_repeats_or_an_outside_element(self):
        superset = list(enumerate_balanced(3))
        action, f = CyclicAction(3, word_shift_two), avl_q_closed(3, 2)
        subset = list(enumerate_avl(3, 2))
        assert verify_subset_csp(subset + subset[:2], superset, action, f) == verify_subset_csp(subset, superset, action, f)
        with pytest.raises(ValueError, match="not contained"):
            verify_subset_csp(subset + ["0101"], superset, action, f)

    def test_avl_target_never_builds_the_balanced_words(self, monkeypatch):
        # The avoiding words are counted by their periods as they are
        # generated; neither the balanced words nor a superset walk is made.
        walked = verify_subset_csp(list(enumerate_avl(7, 3)), list(enumerate_balanced(7)), CyclicAction(7, word_shift_two), avl_q_closed(7, 3))

        def forbidden(*args):
            raise AssertionError("superset built or walked")

        monkeypatch.setattr(paths, "enumerate_words", forbidden)
        monkeypatch.setattr(csp, "verify_subset_csp", forbidden)
        monkeypatch.setattr(csp, "orbit_decompose", forbidden)
        assert verify_target("avl", 7, 3) == walked


def direct_fixed_counts(subset, action):
    """Rows of fixed counts from g^d applied to each subset element, d = gcd(k, n)."""
    n = action.order
    by_divisor = {d: fixed_count(subset, action, d) for d in divisors(n)}
    return [by_divisor[gcd(k, n)] for k in range(1, n + 1)]


class TestSubsetFixedCountsFromOrbits:
    def test_avoiding_paths(self):
        # The avl target's period census gives the rows of the superset walk, coprime or not.
        for n in range(1, 9):
            superset = list(enumerate_balanced(n))
            action = CyclicAction(n, word_shift_two)
            for w in range(1, n + 2):
                subset = list(enumerate_avl(n, w))
                report = verify_subset_csp(subset, superset, action, avl_q_closed(n, w))
                assert [row.fixed for row in report.rows] == direct_fixed_counts(subset, action), (n, w)
                assert verify_target("avl", n, w).rows == report.rows, (n, w)

    def test_mobius_paths_inside_balanced_words(self):
        for n in range(1, 9):
            action = CyclicAction(n, word_shift_two)
            subset = [m.full_bits() for m in enumerate_cmp(n)]
            report = verify_subset_csp(subset, list(enumerate_balanced(n)), action, cmp_q(n))
            assert [row.fixed for row in report.rows] == direct_fixed_counts(subset, action), n


# (carrier, order, generator, message): a generator that leaves the carrier,
# one that is not a bijection of it, and one whose order does not divide n.
DEFECTS = {
    "leaves": (["0001"], 4, lambda x: word_rotate(x, 1), "leaves the carrier"),
    "collapses": (["a", "b", "c"], 2, {"a": "c", "b": "c", "c": "a"}.__getitem__, "not a bijection"),
    "order": (["01", "10"], 3, lambda x: word_rotate(x, 1), "does not divide"),
}

# The same three defects planted in the block rotation (d, i, j) -> (d, i, j % d + 1).
CONSTRUCT_DEFECTS = {
    "leaves": (lambda order, g: CyclicAction(order, lambda x: (x[0], x[1], x[2] + 1)), "leaves the carrier"),
    "collapses": (lambda order, g: CyclicAction(order, lambda x: (x[0], x[1], 1)), "not a bijection"),
    "order": (lambda order, g: CyclicAction(order + 1, g), "does not divide"),
}


class TestDefectiveActionsAreRejected:
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_subset_sieving(self, defect):
        superset, order, generator, message = DEFECTS[defect]
        with pytest.raises(OrbitError, match=message):
            verify_subset_csp(superset[:1], superset, CyclicAction(order, generator), IntPolynomial([1]))

    @pytest.mark.parametrize("defect", sorted(CONSTRUCT_DEFECTS))
    def test_lyndon_construct(self, defect, monkeypatch):
        build, message = CONSTRUCT_DEFECTS[defect]
        monkeypatch.setattr(csp, "CyclicAction", build)
        with pytest.raises(OrbitError, match=message):
            lyndon_construct({1: 1, 2: 0, 3: 1}, 3)


class TestFeasibility:
    def test_free_orbit_polynomial(self):
        report = csp_feasibility(IntPolynomial([1, 1, 1]), 3)
        assert report.feasible
        assert report.s_values == {1: 0, 3: 3}
        assert report.orbit_counts() == {1: 0, 3: 1}

    def test_negative_value_infeasible(self):
        report = csp_feasibility(IntPolynomial([0, 2]), 2)
        assert not report.feasible
        assert report.s_values[1] == -2

    def test_negative_branch_and_divisibility_hold_together(self):
        f = IntPolynomial([1, 3])  # f(-1) = -2
        report = csp_feasibility(f, 2)
        assert not report.feasible
        f = IntPolynomial([2, 1, 1])  # f(1) = 4, f(-1) = 2: S_1 = 2, S_2 = 2
        assert csp_feasibility(f, 2).feasible
        # For integer polynomials with integer root-of-unity values the
        # divisibility k | S_k turns out to be automatic, so every feasible
        # report has whole orbit counts.
        report = csp_feasibility(IntPolynomial([2, 1, 0, 1]), 4)
        if report.feasible:
            assert all(s % k == 0 for k, s in report.s_values.items())

    def test_nonconstant_evaluation_is_infeasible(self):
        report = csp_feasibility(IntPolynomial([0, 1]), 4)  # plain q at order 4
        assert not report.feasible
        assert "non-constant" in report.diagnosis

    def test_matches_orbit_census(self):
        carrier = list(enumerate_cdp(6, 3))
        action = CyclicAction(6, area_shift)
        report = csp_feasibility(cdp_q_closed(6, 3), 6)
        assert report.feasible
        dec = orbit_decompose(carrier, action)
        for k, count in report.orbit_counts().items():
            assert count == dec.sizes.count(k)


class TestNecklaceRoute:
    """The cdp target's orbits come from paths.cdp_necklaces, never from its carrier."""

    # tests/test_paths.py checks the necklaces themselves to n = 8 and at (9, 9).
    CELLS = [(n, w) for n in range(1, 8) for w in range(1, n + 3)]

    @pytest.mark.parametrize("n, w", CELLS, ids=[f"{n}-{w}" for n, w in CELLS])
    def test_orbits_equal_the_walk_in_order(self, n, w):
        orbits, action, _ = TARGETS["cdp"].orbits(n, w)
        dec = orbit_decompose(list(cdp_values(n, w)), action)
        assert orbits == dec
        assert orbits.sizes == dec.sizes
        assert orbits.orbits == dec.orbits
        assert orbits.to_json(list) == dec.to_json(list)

    def test_other_targets_walk_their_carrier(self):
        walked = [name for name, target in TARGETS.items() if target.necklaces is None and target.census is None]
        assert walked == ["words"]
        carrier, action, f = TARGETS["words"].instance(6, None, (2, 2, 2))
        assert TARGETS["words"].orbits(6, None, (2, 2, 2)) == (orbit_decompose(carrier, action), action, f)

    def test_verify_and_the_family_never_build_the_carrier(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("carrier enumerated")

        walked = {(n, w): verify_csp(*TARGETS["cdp"].instance(n, w)) for n, w in [(6, 3), (8, 8), (7, 2)]}
        monkeypatch.setattr(csp, "cdp_values", forbidden)
        monkeypatch.setattr(csp, "orbit_decompose", forbidden)
        for (n, w), report in walked.items():
            assert verify_target("cdp", n, w) == report
        assert lyndon_check(FAMILIES["cdp"].members(3, 8)).passed

    def test_reports_equal_the_walked_carrier(self):
        for n in range(1, 8):
            for w in range(1, n + 2):
                assert verify_target("cdp", n, w) == verify_csp(*TARGETS["cdp"].instance(n, w)), (n, w)

    def test_a_wrong_size_does_not_close(self):
        action = CyclicAction(4, csp._rotate)
        with pytest.raises(OrbitError, match="does not close"):
            OrbitDecomposition(action, ((0, 0, 1, 1),), (2,)).orbits
        with pytest.raises(OrbitError, match="does not close"):
            OrbitDecomposition(action, ((0, 1, 0, 1),), (4,)).orbits
        assert OrbitDecomposition(action, ((0, 1, 0, 1),), (2,)).orbits == (((0, 1, 0, 1), (1, 0, 1, 0)),)

    def test_necklaces_are_increasing_orbit_minima(self):
        action = CyclicAction(4, csp._rotate)
        with pytest.raises(OrbitError, match="not its orbit's least element"):
            OrbitDecomposition(action, ((1, 0, 1, 0),), (2,)).orbits
        with pytest.raises(OrbitError, match="not its orbit's least element"):
            OrbitDecomposition(action, ((0, 1, 0, 1), (0, 0, 1, 1)), (2, 4)).orbits
        with pytest.raises(OrbitError, match="not its orbit's least element"):
            OrbitDecomposition(action, ((0, 1, 0, 1), (0, 1, 0, 1)), (2, 2)).orbits


class TestTwistedCensus:
    """The bw and cmp targets read their orbits off one pass over n-bit ints."""

    @pytest.mark.parametrize("name, ns", [("bw", range(2, 15)), ("cmp", range(1, 13))], ids=["bw", "cmp"])
    def test_orbits_equal_the_walk_in_order(self, name, ns):
        for n in ns:
            orbits, action, _ = TARGETS[name].orbits(n)
            dec = orbit_decompose(list(TARGETS[name].carrier(n, None, None)), action)
            assert orbits == dec, n
            assert orbits.sizes == dec.sizes, n
            assert orbits.necklaces == tuple(o[0] for o in dec.orbits), n
            assert orbits.orbits == dec.orbits, n

    def test_verify_and_the_family_never_call_the_generator(self, monkeypatch):
        walked = {(name, n): verify_csp(*TARGETS[name].instance(n)) for name, n in [("bw", 12), ("cmp", 10), ("cmp", 1)]}
        family = lyndon_check([TARGETS["cmp"].instance(n) for n in range(1, 9)])

        def forbidden(*args):
            raise AssertionError("generator called")

        monkeypatch.setattr(csp, "orbit_decompose", forbidden)
        for name in ("cmp", "bw"):
            monkeypatch.setitem(TARGETS, name, Target(**{**vars(TARGETS[name]), "generator": forbidden}))
        for (name, n), report in walked.items():
            assert verify_target(name, n) == report
        assert lyndon_check(FAMILIES["cmp"].members(None, 8)) == family

    def test_bw_below_two_bits_is_refused(self):
        for build in (lambda: verify_target("bw", 1), lambda: TARGETS["bw"].orbits(1)):
            with pytest.raises(ValueError, match="twisted shift needs word length at least 2"):
                build()

    def test_a_step_that_is_not_a_bijection_is_refused(self, monkeypatch):
        real = actions.twisted_shift_bits
        monkeypatch.setattr(actions, "twisted_shift_bits", lambda v, n: real(v, n) & ~1)
        with pytest.raises(OrbitError, match="not a bijection"):
            list(twisted_necklaces(6))

    def test_an_orbit_size_that_does_not_divide_n_is_refused(self, monkeypatch):
        cycle = {0: 1, 1: 2, 2: 0}
        monkeypatch.setattr(actions, "twisted_shift_bits", lambda v, n: cycle.get(v, v))
        with pytest.raises(OrbitError, match="orbit size 3 does not divide 4"):
            list(twisted_necklaces(4))


def moebius(n):
    """Number-theoretic Moebius function, the reference inversion below."""
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def moebius_s_values(f, n):
    """S_k = sum over j | k of mu(k/j) f(at a primitive (n/j)-th root), or None if one is not constant."""
    evals = {j: eval_at_unity(f, n // j) for j in divisors(n)}
    if any(isinstance(e, NonConstant) for e in evals.values()):
        return None
    return {k: sum(moebius(k // j) * evals[j] for j in divisors(k)) for k in divisors(n)}


def integer_valued(rng, n):
    """A random polynomial whose values at the n-th roots of unity are integers.

    A signed sum of the orbit polynomials sum over l = 0 (mod n/d) of q^l,
    one per d | n, plus a random multiple of q^n - 1.
    """
    coeffs = [0] * n
    for d in divisors(n):
        c = rng.randint(-3, 3)
        for ell in range(0, n, n // d):
            coeffs[ell] += c
    f = IntPolynomial(coeffs)
    h = IntPolynomial([rng.randint(-2, 2) for _ in range(rng.randint(0, 3))])
    return f + h * (IntPolynomial.monomial(1, n) - 1)


class TestFeasibilityAgainstMoebius:
    def test_random_polynomials(self):
        rng = random.Random(7)
        for n in range(1, 61):
            for f in (integer_valued(rng, n), IntPolynomial([rng.randint(-3, 3) for _ in range(rng.randint(0, 2 * n))])):
                report = csp_feasibility(f, n)
                want = moebius_s_values(f, n)
                if want is None:
                    assert (report.feasible, report.s_values) == (False, {})
                    assert "non-constant" in report.diagnosis
                else:
                    assert report.s_values == want

    def test_cdp_closed_form(self):
        for n in range(1, 61):
            f = cdp_q_closed(n, 1 + n % 6)
            report = csp_feasibility(f, n)
            assert report.feasible
            assert report.s_values == moebius_s_values(f, n)


def lyndon_params_by_recursion(sizes):
    """t_n = (|X_n| - sum over d | n, d < n of d t_d) / n, stopping at the first failure."""
    t = {}
    for n, size in enumerate(sizes, start=1):
        num = size - sum(d * t[d] for d in divisors(n) if d < n)
        if num % n != 0 or num < 0:
            return t, False, n, Fraction(num, n)
        t[n] = num // n
    return t, True, None, None


class TestLyndonParamsAgainstRecursion:
    def test_random_size_lists(self):
        rng = random.Random(11)
        for _ in range(300):
            length = rng.randint(1, 30)
            t = [rng.randint(0, 5) for _ in range(length)]
            sizes = [sum(d * t[d - 1] for d in divisors(n)) for n in range(1, length + 1)]
            if rng.random() < 0.5:
                sizes[rng.randrange(length)] += rng.choice([-7, -1, 1, 2, 5])
            result = lyndon_params(sizes)
            got = (result.t, result.valid, result.failure_index, result.failure_value)
            assert got == lyndon_params_by_recursion(sizes)


class TestLyndonParams:
    def test_binary_lyndon_numbers(self):
        result = lyndon_params([2 ** n for n in range(1, 7)])
        assert result.valid
        assert result.t == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9}

    def test_catalan_fails_at_two(self):
        result = lyndon_params([1, 2, 5])
        assert not result.valid
        assert result.failure_index == 2
        assert result.failure_value == Fraction(1, 2)

    def test_all_ones(self):
        result = lyndon_params([1, 1, 1, 1])
        assert result.valid
        assert result.t == {1: 1, 2: 0, 3: 0, 4: 0}


class TestLyndonConstruct:
    def test_singleton(self):
        for n in (1, 4, 6):
            orbits, action, f = lyndon_construct({d: 1 if d == 1 else 0 for d in range(1, n + 1)}, n)
            assert orbits.orbits == (((1, 1, 1),),)
            assert f == IntPolynomial([1])
            assert verify_csp(orbits, action, f).passed

    def test_binary_profile_at_four(self):
        params = lyndon_params([2, 4, 8, 16])
        orbits, action, f = lyndon_construct(params, 4)
        carrier = [x for orbit in orbits.orbits for x in orbit]
        assert len(carrier) == 16
        assert orbit_decompose(carrier, action) == orbits
        assert sorted(orbits.sizes) == [1, 1, 2, 4, 4, 4]
        assert verify_csp(orbits, action, f).passed
        assert verify_csp(carrier, action, f) == verify_csp(orbits, action, f)

    def test_missing_divisor_rejected(self):
        with pytest.raises(ValueError):
            lyndon_construct({1: 1, 2: 1}, 4)

    def test_carrier_is_walked_once(self, monkeypatch):
        # The one orbit_decompose walk inside lyndon_construct calls the
        # generator once per element; verify_csp and lyndon_check read the
        # orbits it returns and call it no more.
        calls = []

        def counting(order, generator):
            return CyclicAction(order, lambda x: (calls.append(x), generator(x))[1])

        monkeypatch.setattr(csp, "CyclicAction", counting)
        t = {1: 2, 2: 1, 3: 2, 4: 3}
        family = [lyndon_construct(t, n) for n in range(1, 5)]
        size = sum(orbits.carrier_size() for orbits, _, _ in family)
        assert len(calls) == size == 2 + 4 + 8 + 16
        assert all(verify_csp(*member).passed for member in family)
        assert lyndon_check(family).passed
        assert len(calls) == size

    def test_selftest_verifies_each_construction_once(self, monkeypatch):
        reports = []
        real = csp._report
        monkeypatch.setattr(csp, "_report", lambda *args: (reports.append(args[1]), real(*args))[1])
        assert selftest.crit_13_construction(8) == (True, "20 random parameter vectors, all constructions pass to n=8")
        assert len(reports) == 20 * 8  # one report per member n = 1..8 of each of the 20 families

    def test_selftest_names_the_first_failing_construction(self, monkeypatch):
        real = selftest.lyndon_construct

        def perturbed(t, n):
            orbits, action, f = real(t, n)
            return orbits, action, f + IntPolynomial([0, 1]) if n in (3, 5) else f

        monkeypatch.setattr(selftest, "lyndon_construct", perturbed)
        assert selftest.crit_13_construction(8) == (False, "trial 0: construction fails CSP at n=3")


def direct_relation_failures(family):
    """The Lyndon-like relation evaluated afresh per (n, m), apart from the sieving rows."""
    failures = []
    for n in range(1, len(family) + 1):
        values = {d: eval_at_unity(family[n - 1][2], n // d) for d in divisors(n)}
        for m in divisors(n):
            e = values[n // m]
            if isinstance(e, NonConstant) or e != family[n // m - 1][2](1):
                failures.append((n, m))
    return tuple(failures)


def perturbed_cdp_family():
    """The width-2 CDP family to n = 6 with 1 + q added to f_4."""
    family = list(FAMILIES["cdp"].members(2, 6))
    carrier, action, f = family[3]
    family[3] = (carrier, action, f + IntPolynomial([1, 1]))
    return family


class TestLyndonCheck:
    def test_cdp_fixed_width_family(self):
        assert lyndon_check(FAMILIES["cdp"].members(2, 8)).passed

    def test_word_families(self):
        assert lyndon_check(words_family(2, 8)).passed
        assert lyndon_check(words_family(3, 6)).passed

    def test_constant_size_family_of_fixed_points(self):
        # A fixed 3-element set with trivial C_n action: every power fixes
        # everything, so f_n = 3 satisfies the relation for all m | n.
        family = []
        for n in range(1, 7):
            carrier = ["a", "b", "c"]
            family.append((carrier, CyclicAction(n, lambda x: x), IntPolynomial([3])))
        assert lyndon_check(family).passed

    def test_mobius_family_is_not_lyndon_like(self):
        report = lyndon_check(FAMILIES["cmp"].members(None, 4))
        assert not report.passed
        assert (2, 2) in report.relation_failures

    def test_one_evaluation_per_divisor_pair(self, monkeypatch):
        calls = []
        real = csp.eval_at_unity
        monkeypatch.setattr(csp, "eval_at_unity", lambda f, m: calls.append(m) or real(f, m))
        assert lyndon_check(FAMILIES["cdp"].members(3, 10)).passed
        assert len(calls) == sum(len(divisors(n)) for n in range(1, 11)) == 27

    @pytest.mark.parametrize(
        "family", [FAMILIES["cmp"].members(None, 6), perturbed_cdp_family()], ids=["cmp", "cdp-perturbed"]
    )
    def test_relation_failures_match_direct_evaluation(self, family):
        report = lyndon_check(family)
        assert report.relation_failures
        assert report.relation_failures == direct_relation_failures(family)


class TestHomomesy:
    def test_worked_example_n2(self):
        carrier = ["0011", "1001", "0101"]
        report = homomesy_check(carrier, zrun_rotation_action(2), inv_zero_one, "inv")
        assert report.homomesic
        assert set(report.orbit_averages) == {Fraction(3)}

    def test_average_is_triangular_number(self):
        for n in range(1, 7):
            carrier = balanced_words_ending_in_one(n)
            report = homomesy_check(carrier, zrun_rotation_action(n), inv_zero_one, "inv")
            assert report.homomesic
            assert report.global_average == comb(n + 1, 2)

    def test_two_step_shift_is_not_homomesic(self):
        witness = None
        for n in range(2, 7):
            carrier = list(enumerate_balanced(n))
            report = homomesy_check(carrier, CyclicAction(n, word_shift_two), inv_zero_one, "inv")
            if not report.homomesic:
                witness = (n, report.witness_orbit)
                break
        assert witness is not None
        n, orbit = witness
        assert orbit  # a concrete failing orbit is reported

    def test_carrier_is_walked_once(self):
        # The orbits of the one orbit_decompose walk are handed over: the
        # generator is called once per carrier element.
        for n in range(1, 7):
            calls = []
            generator = zrun_rotation_action(n).generator
            action = CyclicAction(n, lambda x: (calls.append(x), generator(x))[1])
            carrier = balanced_words_ending_in_one(n)
            assert homomesy_check(carrier, action, inv_zero_one, "inv").homomesic
            assert sorted(calls) == sorted(carrier), n


class TestWordCsp:
    def test_single_content(self):
        report = verify_target("words", 4, content=(4,))
        assert report.passed

    def test_balanced_binary_content(self):
        assert verify_target("words", 4, content=(2, 2)).passed

    def test_permutations(self):
        report = verify_target("words", 3, content=(1, 1, 1))
        assert report.passed
        assert q_multinomial((1, 1, 1)) == q_factorial(3)

    def test_carrier_size(self):
        assert len(list(enumerate_words((2, 2), (1, 2)))) == 6


class TestDualRoute:
    def test_routes_never_disagree(self):
        # The root-of-unity route and the folded-coefficient route implement
        # the same criterion; on arbitrary polynomials over arbitrary small
        # actions they must reach the same verdict, never a DualRouteError.
        import random

        from cyclicsieve.qpoly import IntPolynomial as P

        from cyclicsieve.qpoly import mod_cyclic

        rng = random.Random(99)
        for _ in range(150):
            n = rng.randint(1, 8)
            t = {d: rng.randint(0, 2) for d in range(1, n + 1)}
            orbits, action, good = lyndon_construct(t, n)
            f = good + P([rng.randint(0, 2) for _ in range(rng.randint(0, n + 2))])
            report = verify_csp(orbits, action, f)  # must not raise DualRouteError
            assert report.passed == (mod_cyclic(f, n) == mod_cyclic(good, n))


    @pytest.mark.parametrize("route", ["mod_cyclic", "eval_at_unity", "_fixed_points"])
    def test_perturbed_route_raises(self, route, monkeypatch):
        # One route changed by one coefficient, one value or one fixed count
        # disagrees with the other on an instance that passes, so the guard
        # must fire: on a whole carrier, on a registry target, and on subset
        # sieving, both the avl census and a superset walk.
        instances = [
            lambda: verify_csp(bw(6), CyclicAction(6, twisted_shift), bw_q(6)),
            lambda: verify_target("cdp", 6, 3),
            lambda: verify_target("avl", 7, 3),
            lambda: verify_subset_csp(
                list(enumerate_avl(5, 2)), list(enumerate_balanced(5)), CyclicAction(5, word_shift_two), avl_q_closed(5, 2)
            ),
        ]
        assert all(report().passed for report in instances)
        real = getattr(csp, route)
        if route == "mod_cyclic":
            monkeypatch.setattr(csp, route, lambda g, n: (real(g, n)[0] + 1,) + real(g, n)[1:])
        elif route == "eval_at_unity":
            monkeypatch.setattr(csp, route, lambda g, m: real(g, m) + (m == 1))
        else:
            monkeypatch.setattr(csp, route, lambda census, n: {d: c + (d == n) for d, c in real(census, n).items()})
        for report in instances:
            with pytest.raises(csp.DualRouteError):
                report()

    def test_rows_read_the_direct_evaluation(self):
        rng = random.Random(5)
        for name, n, w, content in [("cdp", 6, 3, None), ("cmp", 8, None, None), ("bw", 6, None, None), ("words", 6, None, (2, 2, 2))]:
            carrier, action, f = csp.TARGETS[name].instance(n, w, content)
            for g in (f, f + IntPolynomial([rng.randint(-2, 2) for _ in range(n + 2)])):
                for row in verify_csp(carrier, action, g).rows:
                    assert row.evaluation == eval_at_unity(g, n // gcd(row.k, n))


class TestEvaluationIdentity:
    def test_closed_form_at_roots_counts_smaller_instances(self):
        # cdp_q_closed(n, w) at a primitive m-th root equals |CDP(n/m, w)|.
        from cyclicsieve.genfunc import cdp_count
        from cyclicsieve.qpoly import eval_at_unity

        for n in range(1, 9):
            for w in range(1, n + 1):
                f = cdp_q_closed(n, w)
                for m in range(1, n + 1):
                    if n % m == 0:
                        assert eval_at_unity(f, m) == cdp_count(n // m, w)


class TestCensusEquivariance:
    def test_equal_parameters_give_equal_orbit_censuses(self):
        # Two Lyndon-like families with the same parameters: binary words
        # under rotation, and the canonical construction from the binary
        # Lyndon numbers.  Their orbit-size censuses agree at every n.
        params = lyndon_params([2 ** n for n in range(1, 9)])
        for n in range(1, 9):
            words, rotation, _ = words_family(2, n)[-1]
            built, action, _ = lyndon_construct(params, n)
            census_words = sorted(orbit_decompose(list(words), rotation).sizes)
            census_built = sorted(built.sizes)
            assert census_words == census_built


class TestCdpFixedPoints:
    def test_worked_cell(self):
        assert check_cdp_fixed_points(4, 4, 2)
        # both sides are 10
        fixed = [a for a in enumerate_cdp(4, 4) if area_shift(area_shift(a)) == a]
        assert len(fixed) == 10

    def test_full_shift(self):
        for n, w in [(3, 2), (4, 4), (5, 3)]:
            assert check_cdp_fixed_points(n, w, n)

    def test_six_three_four(self):
        assert check_cdp_fixed_points(6, 3, 4)

    def test_class_sizes_count_the_fixed_points(self):
        # The necklace route against g^d applied to each enumerated path.
        for n in range(1, 8):
            action = CyclicAction(n, area_shift)
            for w in range(1, n + 2):
                carrier = list(enumerate_cdp(n, w))
                sizes = [s for _, s in paths.cdp_necklaces(n, w)]
                by_divisor = {d: fixed_count(carrier, action, d) for d in divisors(n)}
                for k in range(1, n + 1):
                    d = gcd(n, k)
                    assert check_cdp_fixed_points(n, w, k), (n, w, k)
                    assert sum(s for s in sizes if d % s == 0) == by_divisor[d], (n, w, k)

    # CDP(6, 3) has 60 necklaces; those at 0, 1, 9 and 22 have periods 1, 6, 3 and 2.
    @pytest.mark.parametrize("index", [0, 1, 9, 22, 59])
    def test_a_dropped_class_fails(self, monkeypatch, index):
        size = list(paths.cdp_necklaces(6, 3))[index][1]
        real = paths.cdp_necklaces

        def dropped(n, w):
            return (c for i, c in enumerate(real(n, w)) if (n, w, i) != (6, 3, index))

        monkeypatch.setattr(csp, "cdp_necklaces", dropped)
        failing = [k for k in range(1, 7) if not check_cdp_fixed_points(6, 3, k)]
        assert failing == [k for k in range(1, 7) if gcd(6, k) % size == 0]
        passed, detail = selftest.crit_5_fixed_points(8)
        assert not passed
        assert detail.startswith("fixed-point count fails at (n,w,k)=(6,3,")
