"""The full verification grid: every shipped identity, exercised end to end.

Each criterion compares a closed formula against an independent exhaustive
computation, or a root-of-unity evaluation against an explicit fixed-point
or orbit count.  Everything is an exact integer or polynomial equality;
there are no tolerances.

`run_all(max_n)` caps each criterion's primary bound at max_n (criteria
whose natural bound is larger keep their own cap), so small values give a
quick smoke run and the default gives the full grid.

The criteria are independent, so `run_all` runs them on every CPU the
process may use: one forked worker per CPU beyond the first, each drawing
criterion indices from one shared pipe until it is empty, the caller
drawing too.  Each runs what it draws by run_criterion, the one place that
times a criterion.  Workers send their results back through a pipe each
with marshal and leave by os._exit.  The log lines are echoed in id order
once the grid is done.  A criterion that raises is run again in the caller,
so its exception reaches the caller as in a serial loop, after the lines of
the lower ids; a worker that dies raises WorkerError.  With one CPU, no
os.fork or a second thread running, the caller drains the pipe alone.
"""

from __future__ import annotations

import marshal
import os
import random
import signal
import threading
import time
from itertools import groupby
from math import comb, gcd
from typing import BinaryIO, Callable, Iterator, NoReturn, Optional

from .csp import (
    TARGETS,
    _fixed_points,
    csp_feasibility,
    family_members,
    inv_homomesy,
    lyndon_check,
    lyndon_construct,
    lyndon_params,
    verify_csp,
    verify_target,
)
from .genfunc import (
    DiagonalSpec,
    alternating_list,
    avl_q_bruteforce,
    avl_q_closed,
    bw_q,
    carlitz_q_catalan,
    cdp_count,
    cdp_q_bruteforce_widths,
    cdp_q_closed,
    cdp_q_wide,
    cmp_q_bruteforce,
    dyck_q_bruteforce,
    h_bruteforce_lists,
    h_closed,
)
from .paths import cdp_values, enumerate_cmp
from .qpoly import IntPolynomial, NonConstant, eval_at_unity, mod_cyclic, q_binomial, q_lucas_eval
from .record import record


@record
class CriterionResult:
    id: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.id:2d} [{self.seconds:7.2f}s] {self.name}: {self.detail}"


def _half_bw_poly(n: int) -> IntPolynomial:
    coeffs = bw_q(n).coeffs
    if any(c % 2 for c in coeffs):
        raise AssertionError("binary-word polynomial has an odd coefficient")
    return IntPolynomial([c // 2 for c in coeffs])


def crit_1_count_formula(max_n: int) -> tuple[bool, str]:
    bound = min(8, max_n)
    first = {1: 1, 2: 4, 3: 18, 4: 82}
    for n in range(1, bound + 1):
        exhaustive = sum(1 for _ in cdp_values(n, n))
        formula = cdp_count(n, n)
        expected = (n + 2) * comb(2 * n - 1, n - 1) - 2 ** (2 * n - 1)
        if not exhaustive == formula == expected:
            return False, f"n={n}: exhaustive {exhaustive}, formula {formula}"
        if n in first and formula != first[n]:
            return False, f"n={n}: got {formula}, want {first[n]}"
    return True, f"|CDP(n,n)| matches formula for n<={bound}"


def crit_2_q_identity(max_n: int) -> tuple[bool, str]:
    bound = min(6, max_n)
    cells = 0
    for n in range(1, bound + 1):
        brute = cdp_q_bruteforce_widths(n, n + 2)
        for w in range(1, n + 3):
            if cdp_q_closed(n, w) != brute[w - 1]:
                return False, f"mismatch at (n,w)=({n},{w})"
            cells += 1
    return True, f"{cells} cells, closed form == brute force"


def crit_3_wide_formula(max_n: int) -> tuple[bool, str]:
    bound = min(7, max_n)
    for n in range(1, bound + 1):
        if cdp_q_wide(n, n) != cdp_q_closed(n, n):
            return False, f"mismatch at n={n}"
    return True, f"three-term formula == double sum for n<={bound}"


def crit_4_main_csp(max_n: int) -> tuple[bool, str]:
    bound = min(8, max_n)
    cells = 0
    for n in range(1, bound + 1):
        for w in range(1, n + 1):
            report = verify_target("cdp", n, w)
            if not report.passed:
                return False, f"CSP fails at (n,w)=({n},{w}), k={report.first_mismatch}"
            cells += 1
    return True, f"{cells} sieving triples pass with dual-route agreement"


def crit_5_fixed_points(max_n: int) -> tuple[bool, str]:
    bound = min(8, max_n)
    cells = 0
    # The fixed points of rotation by k are read off the census of the
    # rotation classes, as verify reads them; |CDP(d, w)| from the closed count.
    for n in range(1, bound + 1):
        for w in range(1, n + 1):
            fixed = _fixed_points(TARGETS["cdp"].counted(n, w)[0], n)
            for k in range(1, n + 1):
                d = gcd(n, k)
                if fixed[d] != cdp_count(d, w):
                    return False, f"fixed-point count fails at (n,w,k)=({n},{w},{k})"
                cells += 1
    return True, f"{cells} cells, |fixed| == |CDP(gcd(n,k),w)|"


def alternating_configs(max_n: int) -> Iterator[tuple]:
    for n in range(1, min(5, max_n) + 1):
        for delta in range(2, 8):
            for gamma in range(1, delta):
                for ell in range(0, 5):
                    for side in ("right", "left"):
                        first = gamma if side == "right" else gamma - delta
                        second = gamma - delta if side == "right" else gamma
                        spec = DiagonalSpec((n, n - 1), alternating_list(first, second, ell))
                        if spec.is_alternating():
                            yield n, gamma, delta, ell, side, spec


def crit_6_h_machinery(max_n: int) -> tuple[bool, str]:
    cells = 0
    # One exhaustive walk per target serves every list aimed at it.
    for target, group in groupby(alternating_configs(max_n), key=lambda config: config[-1].target):
        configs = list(group)
        brute = h_bruteforce_lists(target, [spec.diagonals for *_, spec in configs])
        for (n, gamma, delta, ell, side, _), h in zip(configs, brute):
            if h_closed(n, gamma, delta, ell, side) != h:
                return False, f"mismatch at (n,gamma,delta,ell,side)=({n},{gamma},{delta},{ell},{side})"
            cells += 1
    return True, f"{cells} alternating configurations, closed == brute force"


def crit_7_binary_word_csp(max_n: int) -> tuple[bool, str]:
    bound = min(12, max_n)
    for n in range(2, bound + 1):
        report = verify_target("bw", n)
        if not report.passed:
            return False, f"CSP fails at n={n}"
        for row in report.rows:
            d = gcd(row.k, n)
            rule = 2 ** d if (n // d) % 2 == 1 else 0
            if row.fixed != rule:
                return False, f"fixed count at n={n}, k={row.k} is {row.fixed}, rule says {rule}"
    return True, f"twisted-shift CSP and 2^d fixed-point rule hold for n<={bound}"


def crit_8_bw_triple_identity(max_n: int) -> tuple[bool, str]:
    bound = min(12, max_n)
    for n in range(0, bound + 1):
        a, b, c = bw_q(n, "A"), bw_q(n, "B"), bw_q(n, "C")
        if not (a == b == c):
            return False, f"forms differ at n={n}"
    return True, f"forms A, B, C identical for n<={bound}"


def crit_9_mobius(max_n: int) -> tuple[bool, str]:
    for n in range(1, min(12, max_n) + 1):
        if sum(1 for _ in enumerate_cmp(n)) != 2 ** (n - 1):
            return False, f"|CMP({n})| != 2^{n - 1}"
    for n in range(1, min(10, max_n) + 1):
        orbits, poly = TARGETS["cmp"].decompose(n), TARGETS["cmp"].closed(n, None, None)
        if poly != cmp_q_bruteforce(n):
            return False, f"closed Mobius q-count differs from brute force at n={n}"
        if not verify_csp(orbits, poly).passed:
            return False, f"CMP CSP fails at n={n} with the maj polynomial"
        if not verify_csp(orbits, _half_bw_poly(n)).passed:
            return False, f"CMP CSP fails at n={n} with the halved word polynomial"
        if mod_cyclic(poly * 2, n) != mod_cyclic(bw_q(n), n):
            return False, f"congruence mod q^{n}-1 fails at n={n}"
    return True, "counts 2^(n-1), both sieving polynomials, and the folding congruence hold"


def coprime_avl_pairs(max_n: int) -> Iterator[tuple[int, int]]:
    for n in range(2, min(8, max_n) + 1):
        for w in range(1, n):
            if gcd(n, w) == 1:
                yield n, w


def crit_10_subset_csp(max_n: int) -> tuple[bool, str]:
    pairs = 0
    for n, w in coprime_avl_pairs(max_n):
        if not verify_target("avl", n, w).passed:
            return False, f"subset CSP fails at (n,w)=({n},{w})"
        pairs += 1
    for n in range(1, min(6, max_n) + 1):
        for w in range(1, n + 2):
            if avl_q_closed(n, w) != avl_q_bruteforce(n, w):
                return False, f"AVL formula mismatch at (n,w)=({n},{w})"
    return True, f"{pairs} coprime pairs pass; closed AVL formula matches brute force"


def crit_11_feasibility(max_n: int) -> tuple[bool, str]:
    checked = 0
    # Genuine actions: the number of orbits of each size k must equal S_k / k.
    instances = [("cdp", n, w) for n in range(1, min(8, max_n) + 1) for w in range(1, n + 1)]
    instances += [("bw", n, None) for n in range(2, min(12, max_n) + 1)]
    instances += [("cmp", n, None) for n in range(1, min(10, max_n) + 1)]
    for name, n, w in instances:
        rep = csp_feasibility(TARGETS[name].closed(n, w, None), n)
        if not rep.feasible:
            return False, f"infeasible at order {n}: {rep.diagnosis}"
        census, _ = TARGETS[name].counted(n, w)
        for k, count in rep.orbit_counts().items():
            if count * k != census.get(k, 0):
                return False, f"census mismatch at order {n}, orbit size {k}"
        checked += 1
    # Subset instances: feasibility plus a synthesized action that passes.
    for n, w in coprime_avl_pairs(max_n):
        f = avl_q_closed(n, w)
        rep = csp_feasibility(f, n)
        if not rep.feasible:
            return False, f"AVL({n},{w}) polynomial infeasible: {rep.diagnosis}"
        t = {k: 0 for k in range(1, n + 1)}
        t.update(rep.orbit_counts())
        orbits, poly = lyndon_construct(t, n)
        # By the orbit-census equivalence the synthesized orbit polynomial
        # must equal f folded mod q^n - 1, and the synthesized action must pass.
        if poly != IntPolynomial(mod_cyclic(f, n)):
            return False, f"synthesized polynomial differs from f mod q^n-1 at AVL({n},{w})"
        if not verify_csp(orbits, f).passed:
            return False, f"synthesized action fails CSP at AVL({n},{w})"
        checked += 1
    return True, f"{checked} polynomials feasible with matching orbit counts"


def crit_12_lyndon_families(max_n: int) -> tuple[bool, str]:
    bound = min(8, max_n)
    for w in (1, 2, 3):
        if not lyndon_check(family_members("cdp", w, bound)).passed:
            return False, f"circular Dyck family at width {w} is not Lyndon-like"
    for alphabet, family in ((2, "binary-words"), (3, "ternary-words")):
        if not lyndon_check(family_members(family, None, bound)).passed:
            return False, f"{alphabet}-ary word family is not Lyndon-like"
    powers = lyndon_params([2 ** n for n in range(1, 7)])
    if not powers.valid or powers.t != {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9}:
        return False, "binary Lyndon numbers not recovered from 2^n"
    catalan = lyndon_params([1, 2, 5, 14, 42])
    if catalan.valid or catalan.failure_index != 2:
        return False, "Catalan sizes were not rejected at d=2"
    return True, f"width 1..3 and binary/ternary families Lyndon-like to n={bound}; parameter extraction exact"


def crit_13_construction(max_n: int) -> tuple[bool, str]:
    bound = min(8, max_n)
    rng = random.Random(20_24)
    for trial in range(20):
        t = {d: rng.randint(0, 3) for d in range(1, bound + 1)}
        family = [lyndon_construct(t, n) for n in range(1, bound + 1)]
        # Verifies each member once; an empty one is not a construction failure.
        report = lyndon_check([(orbits.census(), f) for orbits, f in family])
        for n, ((orbits, _), passed) in enumerate(zip(family, report.member_verdicts), start=1):
            if orbits.orbits and not passed:
                return False, f"trial {trial}: construction fails CSP at n={n}"
        if not report.passed:
            return False, f"trial {trial}: constructed family is not Lyndon-like"
    return True, f"20 random parameter vectors, all constructions pass to n={bound}"


def crit_14_homomesy(max_n: int) -> tuple[bool, str]:
    for n in range(1, min(7, max_n) + 1):
        report = inv_homomesy(n, "alpha")
        if not report.homomesic or report.global_average != comb(n + 1, 2):
            return False, f"zero-run rotation not homomesic with average C(n+1,2) at n={n}"
        if n == 2 and set(report.orbit_averages) != {3}:
            return False, "n=2 example averages are not all 3"
    witness_at = None
    # n = 1 is excluded: there the two-step shift is the identity map and
    # any non-constant statistic fails homomesy vacuously.
    for n in range(2, min(6, max_n) + 1):
        if not inv_homomesy(n, "beta").homomesic:
            witness_at = n
            break
    detail = (
        f"two-step shift witness found at n={witness_at}"
        if witness_at is not None
        else "no two-step shift counterexample found <= 6"
    )
    return True, f"averages equal C(n+1,2) under zero-run rotation; {detail}"


def crit_15_kernel_crosschecks(max_n: int) -> tuple[bool, str]:
    bound = min(16, 2 * max_n)
    for n in range(0, bound + 1):
        for k in range(0, n + 1):
            for m in range(1, 17):
                a = q_lucas_eval(n, k, m)
                b = eval_at_unity(q_binomial(n, k), m)
                if isinstance(a, NonConstant) != isinstance(b, NonConstant) or a != b:
                    return False, f"q-Lucas disagrees with reduction at (n,k,m)=({n},{k},{m})"
    for n in range(1, min(7, max_n) + 1):
        if carlitz_q_catalan(n) != dyck_q_bruteforce(n):
            return False, f"Carlitz q-Catalan mismatch at n={n}"
    return True, f"q-Lucas == cyclotomic reduction to n={bound}; Carlitz polynomial matches Dyck brute force"


CRITERIA: list[tuple[int, str, Callable[[int], tuple[bool, str]]]] = [
    (1, "counting formula", crit_1_count_formula),
    (2, "q-identity closed vs brute force", crit_2_q_identity),
    (3, "wide-width three-term formula", crit_3_wide_formula),
    (4, "main sieving theorem", crit_4_main_csp),
    (5, "fixed-point identity", crit_5_fixed_points),
    (6, "diagonal-visit machinery", crit_6_h_machinery),
    (7, "binary-word sieving", crit_7_binary_word_csp),
    (8, "binary-word triple identity", crit_8_bw_triple_identity),
    (9, "Mobius paths", crit_9_mobius),
    (10, "subset sieving on avoiding paths", crit_10_subset_csp),
    (11, "orbit-count feasibility", crit_11_feasibility),
    (12, "Lyndon-like families", crit_12_lyndon_families),
    (13, "canonical construction", crit_13_construction),
    (14, "homomesy", crit_14_homomesy),
    (15, "kernel cross-checks", crit_15_kernel_crosschecks),
]


def run_criterion(cid: int, max_n: int) -> CriterionResult:
    """Criterion `cid`, looked up in CRITERIA at the call, run and timed."""
    for i, name, fn in CRITERIA:
        if i == cid:
            start = time.monotonic()
            passed, detail = fn(max_n)
            return CriterionResult(cid, name, passed, detail, time.monotonic() - start)
    raise ValueError(f"no criterion {cid}")


class WorkerError(RuntimeError):
    """A selftest worker died (a signal, a nonzero exit or a short read) before reporting its criteria."""


def _workers() -> int:
    """One process per CPU this process may use, at most one per criterion.

    One where os.fork or os.sched_getaffinity is missing, or where a second
    thread runs: forking a threaded process is unsafe, and Python 3.12 warns
    of it on stderr.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), len(CRITERIA))


def _drain(tasks: int, max_n: int) -> list[tuple]:
    """Run each criterion whose index this process reads off the task pipe, until it is empty.

    A row is (index, passed, detail, seconds), with CRITERIA[index]'s id and name;
    a criterion that raised has passed None, and the caller of run_all runs it again.
    """
    rows = []
    while drawn := os.read(tasks, 1):
        index = drawn[0]
        try:
            r = run_criterion(CRITERIA[index][0], max_n)
        except Exception:
            rows.append((index, None, None, 0.0))
        else:
            rows.append((index, r.passed, r.detail, r.seconds))
    return rows


def _worker(tasks: int, results: int, max_n: int) -> NoReturn:
    """A forked worker: drain the task pipe, send its rows to `results` and exit without returning."""
    code = 1
    try:
        rows = marshal.dumps(_drain(tasks, max_n))
        with os.fdopen(results, "wb") as fh:
            fh.write(rows)
        code = 0
    finally:
        # Runs no atexit handler and flushes no stdio buffer copied from the caller.
        os._exit(code)


def _collect(pid: int, results: BinaryIO) -> tuple[list[tuple], Optional[str]]:
    """Read a worker's rows to the end and reap it: (rows, None), or no rows and how it died."""
    data = results.read()
    results.close()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        return [], f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    try:
        return marshal.loads(data), None
    except (EOFError, ValueError, TypeError):
        return [], "sent a short result"


def run_all(max_n: int = 12, echo: Callable[[str], None] = lambda s: None) -> list[CriterionResult]:
    """Every criterion's result in id order, each line echoed once all have run (see the module docstring)."""
    tasks, feed = os.pipe()
    os.write(feed, bytes(range(len(CRITERIA))))
    os.close(feed)
    workers: list[tuple[int, BinaryIO]] = []  # each worker not yet reaped, with its result pipe
    fault = None
    try:
        for _ in range(_workers() - 1):
            results, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the others draw its criteria
                os.close(results)
                os.close(write_end)
                break
            if pid == 0:
                _worker(tasks, write_end, max_n)
            os.close(write_end)
            workers.append((pid, os.fdopen(results, "rb")))
        rows = _drain(tasks, max_n)
        while workers:
            worker_rows, died = _collect(*workers[-1])
            workers.pop()
            rows += worker_rows
            fault = fault or died
    finally:
        os.close(tasks)
        for pid, results in workers:  # leaving early: no worker outlives the call
            results.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    done = {row[0]: row for row in rows}
    if fault:
        lost = [cid for index, (cid, _, _) in enumerate(CRITERIA) if index not in done]
        raise WorkerError(f"a selftest worker {fault}; criteria {lost} were never reported")
    out = []
    for index, (cid, name, _) in enumerate(CRITERIA):
        _, passed, detail, seconds = done[index]
        # A criterion that raised runs again here, so its exception leaves after the lower ids' lines.
        result = run_criterion(cid, max_n) if passed is None else CriterionResult(cid, name, passed, detail, seconds)
        echo(result.line())
        out.append(result)
    return out
