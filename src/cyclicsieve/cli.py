"""Command-line interface.

Every command prints one canonical JSON payload to stdout (keys sorted,
fixed separators, integer values as decimal strings) so runs with equal
arguments are byte-identical.  Exit codes: 0 success / verification pass,
1 mathematical verification failure, 2 usage error.  Non-zero exits also
write a machine-readable JSON reason to stderr.

Results are cached under --cache-dir, the CYCLIC_SIEVE_CACHE environment
variable, or ~/.cache/cyclicsieve; --no-cache disables the cache.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import gcd
from typing import Optional

from . import __version__
from .actions import (
    CyclicAction,
    area_shift,
    mobius_shift,
    orbit_decompose,
    orbit_poly,
    twisted_shift,
    word_shift_two,
)
from .csp import (
    FAMILIES,
    CspReport,
    balanced_words_ending_in_one,
    homomesy_check,
    lyndon_check,
    lyndon_construct,
    lyndon_params,
    rotate_tuple,
    verify_csp,
    verify_subset_csp,
    verify_word_csp,
    words_of_content,
    zrun_rotation_action,
)
from .genfunc import avl_q_closed, bw_q, cdp_count, cdp_q_closed, cmp_q
from .jsonio import ResultCache, dumps_canonical
from .paths import enumerate_avl, enumerate_balanced, enumerate_cdp, enumerate_cmp, inv_zero_one
from .qpoly import IntPolynomial, mod_cyclic, q_multinomial
from .selftest import run_all

VERIFY_MAX_N = {"cdp": 9, "cmp": 12, "bw": 16, "avl": 9, "words": 10}
SELFTEST_GUARD = 12


class UsageError(Exception):
    pass


class JsonArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage errors as JSON on stderr with exit code 2."""

    def error(self, message):
        print(dumps_canonical({"error": message, "exit": 2}), file=sys.stderr)
        raise SystemExit(2)


def _half_bw_poly(n: int) -> IntPolynomial:
    return IntPolynomial([c // 2 for c in bw_q(n).coeffs])


def _parse_content(text: str) -> tuple[int, ...]:
    try:
        mu = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad content {text!r}: expected comma-separated integers")
    if not mu or any(m < 0 for m in mu) or sum(mu) < 1:
        raise UsageError("content must be non-negative integers with positive sum")
    return mu


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Command payloads
# ---------------------------------------------------------------------------

def payload_count(n: int, w: int, with_poly: bool) -> dict:
    out = {"n": str(n), "w": str(w), "count": str(cdp_count(n, w))}
    if with_poly:
        out["q_poly"] = cdp_q_closed(n, w).to_json()
    return out


def payload_count_table(w: int, max_n: int) -> dict:
    rows = [{"n": str(n), "count": str(cdp_count(n, w))} for n in range(1, max_n + 1)]
    return {"w": str(w), "max_n": str(max_n), "rows": rows}


def _verify_report(target: str, n: int, w: Optional[int], content: Optional[tuple]) -> tuple[dict, CspReport]:
    if target == "cdp":
        _require(w is not None, "verify cdp needs --w")
        carrier = list(enumerate_cdp(n, w))
        report = verify_csp(carrier, CyclicAction(n, area_shift), cdp_q_closed(n, w))
        params = {"n": str(n), "w": str(w)}
    elif target == "cmp":
        carrier = list(enumerate_cmp(n))
        report = verify_csp(carrier, CyclicAction(n, mobius_shift), cmp_q(n))
        params = {"n": str(n)}
    elif target == "bw":
        _require(n >= 2, "verify bw needs --n at least 2")
        carrier = [format(v, f"0{n}b") for v in range(2 ** n)]
        report = verify_csp(carrier, CyclicAction(n, twisted_shift), bw_q(n))
        params = {"n": str(n)}
    elif target == "avl":
        _require(w is not None, "verify avl needs --w")
        warnings = []
        if gcd(n, w) != 1:
            warnings.append(f"coprimality hypothesis not met: gcd({n},{w}) != 1")
        subset = list(enumerate_avl(n, w))
        superset = list(enumerate_balanced(n))
        report = verify_subset_csp(
            subset, superset, CyclicAction(n, word_shift_two), avl_q_closed(n, w), warnings
        )
        params = {"n": str(n), "w": str(w)}
    elif target == "words":
        _require(content is not None, "verify words needs --content")
        report = verify_word_csp(content)
        params = {"content": ",".join(str(m) for m in content)}
    else:
        raise UsageError(f"unknown verify target {target!r}")
    return params, report


def payload_verify(target: str, n: int, w: Optional[int], content: Optional[tuple]) -> dict:
    params, report = _verify_report(target, n, w, content)
    return {"target": target, "params": params, "report": report.to_json()}


def _orbit_instance(target: str, n: int, w: Optional[int], content: Optional[tuple]):
    if target == "cdp":
        _require(w is not None, "orbits cdp needs --w")
        carrier = list(enumerate_cdp(n, w))
        action = CyclicAction(n, area_shift)
        closed = cdp_q_closed(n, w)
        serialize = lambda a: a.to_json()
        params = {"n": str(n), "w": str(w)}
    elif target == "cmp":
        carrier = list(enumerate_cmp(n))
        action = CyclicAction(n, mobius_shift)
        closed = _half_bw_poly(n)
        serialize = lambda m: m.half
        params = {"n": str(n)}
    elif target == "bw":
        _require(n >= 2, "orbits bw needs --n at least 2")
        carrier = [format(v, f"0{n}b") for v in range(2 ** n)]
        action = CyclicAction(n, twisted_shift)
        closed = bw_q(n)
        serialize = lambda b: b
        params = {"n": str(n)}
    elif target == "words":
        _require(content is not None, "orbits words needs --content")
        carrier = words_of_content(content)
        length = sum(content)
        action = CyclicAction(length, lambda t: rotate_tuple(t, 1))
        closed = q_multinomial(content)
        serialize = list
        params = {"content": ",".join(str(m) for m in content)}
    else:
        raise UsageError(f"unknown orbits target {target!r}")
    return carrier, action, closed, serialize, params


def payload_orbits(target: str, n: int, w: Optional[int], content: Optional[tuple], with_poly: bool) -> dict:
    carrier, action, closed, serialize, params = _orbit_instance(target, n, w, content)
    dec = orbit_decompose(carrier, action)
    poly = orbit_poly(dec, action.order)
    out = {
        "target": target,
        "params": params,
        "order": str(action.order),
        "orbits": dec.to_json(serialize),
        "orbit_poly": poly.to_json(),
    }
    if with_poly:
        folded = mod_cyclic(closed, action.order)
        out["closed_poly_folded"] = [str(c) for c in folded]
        out["poly_match"] = IntPolynomial(folded) == poly
    return out


def payload_lyndon_params(sizes: list[int]) -> dict:
    result = lyndon_params(sizes)
    out = {"sizes": [str(s) for s in sizes]}
    out.update(result.to_json())
    return out


def payload_lyndon_check(family: str, w: Optional[int], max_n: int) -> dict:
    _require(family in FAMILIES, f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    if family == "cdp":
        _require(w is not None, "lyndon check --family cdp needs --w")
        members = FAMILIES[family](w, max_n)
        params = {"w": str(w)}
    else:
        members = FAMILIES[family](max_n)
        params = {}
    report = lyndon_check(members)
    out = {"family": family, "params": params}
    out.update(report.to_json())
    return out


def payload_lyndon_construct(t_values: list[int], n: int) -> dict:
    t = {d: v for d, v in enumerate(t_values, start=1)}
    carrier, action, poly = lyndon_construct(t, n)
    report = verify_csp(carrier, action, poly)
    return {
        "n": str(n),
        "t": {str(d): str(v) for d, v in t.items()},
        "carrier": [list(x) for x in carrier],
        "orbit_poly": poly.to_json(),
        "csp_verdict": report.verdict,
    }


def payload_homomesy(n: int, action_name: str) -> dict:
    if action_name == "alpha":
        carrier = balanced_words_ending_in_one(n)
        action = zrun_rotation_action(n)
    elif action_name == "beta":
        _require(n >= 1, "homomesy needs --n at least 1")
        carrier = list(enumerate_balanced(n))
        action = CyclicAction(n, word_shift_two)
    else:
        raise UsageError(f"unknown action {action_name!r}")
    report = homomesy_check(carrier, action, inv_zero_one, "inv")
    body = report.to_json()
    return {
        "n": str(n),
        "action": action_name,
        "statistic": "inv",
        "global_average": body["global_average"],
        "orbit_averages": body["orbit_averages"],
        "homomesic": body["homomesic"],
        "witness_orbit": body["witness_orbit"],
    }


def payload_selftest(max_n: int) -> dict:
    results = run_all(max_n, echo=lambda line: print(line, file=sys.stderr))
    return {
        "max_n": str(max_n),
        "criteria": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def _print(text: str, end: str = "\n") -> None:
    """Write to stdout; a reader that has gone away ends the output, not the command.

    The command then exits with the code it returns when its output is read
    in full.  stdout is pointed at the null device, so neither a later write
    nor the interpreter's final flush fails on the closed pipe again.
    """
    try:
        sys.stdout.write(text + end)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(text: str, csv_path: Optional[str]) -> None:
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(text)
    else:
        _print(text, end="")


def format_verify_table(payload: dict) -> str:
    lines = ["k,evaluation,fixed_count"]
    for row in payload["report"]["rows"]:
        ev = row["evaluation"]
        ev_text = ev if isinstance(ev, str) else "nonconstant"
        lines.append(f"{row['k']},{ev_text},{row['fixed_count']}")
    return "\n".join(lines) + "\n"


def format_count_table(payload: dict, bfile: bool) -> str:
    if bfile:
        return "".join(f"{r['n']} {r['count']}\n" for r in payload["rows"])
    lines = ["n,count"] + [f"{r['n']},{r['count']}" for r in payload["rows"]]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> JsonArgumentParser:
    parser = JsonArgumentParser(prog="cyclicsieve", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--cache-dir", metavar="PATH", default=None)
    parser.add_argument("--no-cache", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count circular Dyck paths")
    p.add_argument("--n", type=int)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--q", action="store_true", help="include the q-polynomial")
    p.add_argument("--max-n", type=int, help="emit a table for n = 1..max-n")
    p.add_argument("--bfile", action="store_true", help="emit 'n count' lines")
    p.add_argument("--csv", metavar="PATH")

    p = sub.add_parser("verify", help="verify a sieving instance")
    p.add_argument("target", choices=["cdp", "cmp", "bw", "avl", "words"])
    p.add_argument("--n", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--content", type=str)
    p.add_argument("--table", action="store_true", help="emit CSV rows instead of JSON")
    p.add_argument("--csv", metavar="PATH")

    p = sub.add_parser("orbits", help="orbit decomposition and orbit polynomial")
    p.add_argument("target", choices=["cdp", "cmp", "bw", "words"])
    p.add_argument("--n", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--content", type=str)
    p.add_argument("--poly", action="store_true", help="compare with the closed-form polynomial")

    p = sub.add_parser("lyndon", help="Lyndon parameters, family checks, construction")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    lp = lsub.add_parser("params")
    lp.add_argument("--sizes", type=str)
    lp.add_argument("--sizes-file", metavar="PATH")
    lc = lsub.add_parser("check")
    lc.add_argument("--family", required=True)
    lc.add_argument("--w", type=int)
    lc.add_argument("--max-n", type=int, default=6)
    lx = lsub.add_parser("construct")
    lx.add_argument("--t", required=True, help="comma-separated t_1,t_2,...")
    lx.add_argument("--n", type=int, required=True)

    p = sub.add_parser("homomesy", help="orbit averages of the inversion statistic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--action", choices=["alpha", "beta"], default="alpha")

    p = sub.add_parser("selftest", help="run the full acceptance grid")
    p.add_argument("--max-n", type=int, default=8)

    return parser


def _dispatch(args: argparse.Namespace, cache: ResultCache) -> int:
    if args.command == "count":
        _require(args.w >= 1, "--w must be positive")
        if args.max_n is not None:
            _require(args.max_n >= 1, "--max-n must be positive")
            payload = cache.fetch(
                "count_table",
                {"w": args.w, "max_n": args.max_n},
                "count_table",
                lambda: payload_count_table(args.w, args.max_n),
            )
            if args.bfile or args.csv:
                _emit(format_count_table(payload, args.bfile), args.csv)
            else:
                _print(dumps_canonical(payload))
            return 0
        _require(args.n is not None and args.n >= 1, "count needs --n (positive) or --max-n")
        _require(not args.bfile, "--bfile needs --max-n")
        payload = cache.fetch(
            "count",
            {"n": args.n, "w": args.w, "q": args.q},
            "count",
            lambda: payload_count(args.n, args.w, args.q),
        )
        _print(dumps_canonical(payload))
        return 0

    if args.command == "verify":
        content = _parse_content(args.content) if args.content else None
        n = sum(content) if (args.target == "words" and content) else args.n
        _require(n is not None and n >= 1, "verify needs --n (positive)")
        _require(n <= VERIFY_MAX_N[args.target], f"verify {args.target} is limited to n <= {VERIFY_MAX_N[args.target]}")
        params = {"n": n, "w": args.w, "content": list(content) if content else None}
        payload = cache.fetch(
            f"verify_{args.target}",
            params,
            "verify",
            lambda: payload_verify(args.target, n, args.w, content),
        )
        if args.table or args.csv:
            _emit(format_verify_table(payload), args.csv)
        else:
            _print(dumps_canonical(payload))
        if payload["report"]["verdict"] != "pass":
            print(
                dumps_canonical({"error": "verification failed", "first_mismatch": payload["report"]["first_mismatch"], "exit": 1}),
                file=sys.stderr,
            )
            return 1
        return 0

    if args.command == "orbits":
        content = _parse_content(args.content) if args.content else None
        n = sum(content) if (args.target == "words" and content) else args.n
        _require(n is not None and n >= 1, "orbits needs --n (positive)")
        _require(n <= VERIFY_MAX_N[args.target], f"orbits {args.target} is limited to n <= {VERIFY_MAX_N[args.target]}")
        params = {"n": n, "w": args.w, "content": list(content) if content else None, "poly": args.poly}
        payload = cache.fetch(
            f"orbits_{args.target}",
            params,
            "orbits",
            lambda: payload_orbits(args.target, n, args.w, content, args.poly),
        )
        _print(dumps_canonical(payload))
        return 0

    if args.command == "lyndon":
        if args.subcommand == "params":
            if args.sizes_file:
                with open(args.sizes_file) as fh:
                    text = fh.read().replace("\n", ",")
            else:
                _require(args.sizes is not None, "lyndon params needs --sizes or --sizes-file")
                text = args.sizes
            try:
                sizes = [int(p) for p in text.split(",") if p.strip()]
            except ValueError:
                raise UsageError("sizes must be integers")
            _require(bool(sizes), "need at least one size")
            payload = cache.fetch("lyndon_params", {"sizes": sizes}, "lyndon_params", lambda: payload_lyndon_params(sizes))
            _print(dumps_canonical(payload))
            if not payload["valid"]:
                print(dumps_canonical({"error": "sizes admit no Lyndon parameters", "exit": 1}), file=sys.stderr)
                return 1
            return 0
        if args.subcommand == "check":
            _require(1 <= args.max_n <= 10, "lyndon check is limited to 1 <= max-n <= 10")
            payload = cache.fetch(
                "lyndon_check",
                {"family": args.family, "w": args.w, "max_n": args.max_n},
                "lyndon_check",
                lambda: payload_lyndon_check(args.family, args.w, args.max_n),
            )
            _print(dumps_canonical(payload))
            if payload["verdict"] != "pass":
                print(dumps_canonical({"error": "family is not Lyndon-like", "exit": 1}), file=sys.stderr)
                return 1
            return 0
        if args.subcommand == "construct":
            try:
                t_values = [int(p) for p in args.t.split(",")]
            except ValueError:
                raise UsageError("--t must be comma-separated integers")
            _require(args.n >= 1, "--n must be positive")
            _require(all(v >= 0 for v in t_values), "Lyndon parameters must be non-negative")
            _require(len(t_values) >= args.n, "--t must define t_d for every divisor d of n")
            payload = cache.fetch(
                "lyndon_construct",
                {"t": t_values, "n": args.n},
                "lyndon_construct",
                lambda: payload_lyndon_construct(t_values, args.n),
            )
            _print(dumps_canonical(payload))
            if payload["csp_verdict"] != "pass":
                print(
                    dumps_canonical({"error": "constructed instance failed verification", "exit": 1}),
                    file=sys.stderr,
                )
                return 1
            return 0

    if args.command == "homomesy":
        _require(1 <= args.n <= 7, "homomesy is limited to 1 <= n <= 7")
        payload = cache.fetch(
            "homomesy",
            {"n": args.n, "action": args.action},
            "homomesy",
            lambda: payload_homomesy(args.n, args.action),
        )
        _print(dumps_canonical(payload))
        if args.action == "alpha" and not payload["homomesic"]:
            print(dumps_canonical({"error": "expected homomesic case failed", "exit": 1}), file=sys.stderr)
            return 1
        return 0

    if args.command == "selftest":
        _require(1 <= args.max_n <= SELFTEST_GUARD, f"selftest is limited to max-n <= {SELFTEST_GUARD}")
        payload = cache.fetch("selftest", {"max_n": args.max_n}, "selftest", lambda: payload_selftest(args.max_n))
        _print(dumps_canonical(payload))
        if not payload["passed"]:
            failing = [c["id"] for c in payload["criteria"] if not c["passed"]]
            print(dumps_canonical({"error": f"criteria failed: {failing}", "exit": 1}), file=sys.stderr)
            return 1
        return 0

    raise UsageError(f"unknown command {args.command!r}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache = ResultCache(directory=args.cache_dir, enabled=not args.no_cache)
    try:
        return _dispatch(args, cache)
    except UsageError as exc:
        print(dumps_canonical({"error": str(exc), "exit": 2}), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(dumps_canonical({"error": str(exc), "exit": 2}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
