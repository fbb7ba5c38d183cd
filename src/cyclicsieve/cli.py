"""Command-line interface: the flags, the guards and every payload's JSON.

Every command prints one canonical JSON payload to stdout (keys sorted,
fixed separators) so runs with equal arguments are byte-identical.  Its
integers are decimal strings, so consumers limited to 64-bit (or 53-bit)
integers never silently corrupt a count.  Exit codes: 0 success /
verification pass (for `orbits --poly`, the closed polynomial matches the
orbit census), 1 mathematical verification failure, 2 usage error (a
UsageError from the argument checks), 3 internal fault (any other
exception: a bug in the program, such as the two sieving routes
disagreeing, an action that is not a bijection of its carrier or a
kernel's ValueError; it is never cached).  Non-zero exits also write a
machine-readable JSON reason to stderr.  A --sizes-file that cannot be
read or decoded (or given with --sizes), a --csv path that cannot be
written (or given with verify --table), a count flag that would be
ignored, a --w below 1 and a --n, --w or --content that the verify or
orbits target or the lyndon check family does not read are usage errors.

Size guards (exit 2 past them): `count` n <= 4000, `count --q` n <= 150,
`count --max-n` <= 500, `verify` and `orbits` per target (cdp and avl
n <= 9, cmp n <= 12, bw n <= 16, words n <= 10), with at most 9! = 362880
elements in a cdp or words carrier (|CDP(n, w)| is known before anything
is built), `lyndon check` max-n <= 10 with at most 9! elements in the
member at max-n (|CDP(max-n, w)|, 2^max-n or 3^max-n words, 2^(max-n - 1)
Mobius paths), `lyndon construct` n <= 2520 with at most 30000 carrier
elements (the sum of d * t_d over d | n, known from the arguments),
`lyndon params` at most 80000 sizes, `homomesy` n <= 7, `selftest`
max-n <= 12.  An --n, --w or --max-n value, a --content part, a lyndon
params size and a --t value have at most 4300 digits.

Results are cached under --cache-dir, the CYCLIC_SIEVE_CACHE environment
variable, or ~/.cache/cyclicsieve; --no-cache disables the cache.  The
JSON printed is the payload text the cache stores, byte for byte, and the
exit code and stderr reason of a hit come from the verdict stored with it.

A request's cache parameters are read off the parsed flags alone, so a hit
imports only this module and jsonio, never the math kernels.  A request
is refused in one of two places, both before any payload is computed: the
checks that read the flags alone, and the look at whether a --csv path
can be written, run before the cache is read, and the check against the
tables below or a kernel (required and unread flags, an unknown family,
n bounds, the size guard, carrier sizes) runs on a miss.
A hit skips the second safely: every flag it reads is in the key, and the
key holds the source digest, so an entry exists only for a request that
passed the same checks under the same code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from math import factorial, prod
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from . import __version__
from .jsonio import ResultCache, dumps_canonical

if TYPE_CHECKING:
    from .csp import CspReport, CspRow


class UsageError(Exception):
    pass


class JsonArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage errors as JSON on stderr with exit code 2."""

    def error(self, message):
        print(dumps_canonical({"error": message, "exit": 2}), file=sys.stderr)
        raise SystemExit(2)


# The most digits an --n, --w or --max-n value, a --content part, a lyndon params size or a --t value may
# have.  int() refuses more than the interpreter's limit (4300 by default) with a ValueError that reads like a typo.
MAX_DIGITS = 4300


def _shown(text: str) -> str:
    """`text` as a refusal quotes it: its first 40 characters, then '...' if there are more."""
    return text if len(text) <= 40 else text[:40] + "..."


def _too_long(text: str) -> bool:
    """Whether `text`, past surrounding whitespace and at most one sign, is more than MAX_DIGITS decimal digits."""
    digits = text.strip()
    digits = digits[1:] if digits[:1] in ("+", "-") else digits
    return len(digits) > MAX_DIGITS and digits.isdecimal()


def _flag_int(text: str) -> int:
    """int() for --n, --w and --max-n; a _too_long value is refused by its length, without echoing it.

    Any other bad value is refused as argparse words it, "invalid int value: '12x'", quoting at most 40 characters.
    """
    if _too_long(text):
        raise argparse.ArgumentTypeError(f"integers are limited to {MAX_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)!r}") from None


def _parse_ints(parts: list[str], what: str, bad: str) -> list[int]:
    """The integers the strings `parts` spell, none _too_long; else refused with `bad`."""
    _require(not any(map(_too_long, parts)), f"{what} are limited to {MAX_DIGITS} digits")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise UsageError(bad)


def _parse_content(text: str) -> tuple[int, ...]:
    bad = f"bad content {_shown(text)!r}: expected comma-separated integers"
    mu = tuple(_parse_ints(text.split(","), "--content parts", bad))
    if not mu or any(m < 0 for m in mu) or sum(mu) < 1:
        raise UsageError("content must be non-negative integers with positive sum")
    return mu


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Command payloads; each imports the kernels it calls, so only a miss loads them
# ---------------------------------------------------------------------------

def encode_report(report: CspReport) -> dict:
    """A sieving report; a non-constant evaluation gives its remainder mod the cyclotomic polynomial."""
    return {
        "order": str(report.order),
        "rows": [_encode_row(r) for r in report.rows],
        "verdict": report.verdict,
        "first_mismatch": None if report.first_mismatch is None else str(report.first_mismatch),
        "warnings": list(report.warnings),
    }


def _encode_row(r: CspRow) -> dict:
    ev = str(r.evaluation) if isinstance(r.evaluation, int) else {"nonconstant": r.evaluation.remainder.to_json()}
    return {"k": str(r.k), "gcd": str(r.gcd), "evaluation": ev, "fixed_count": str(r.fixed), "match": r.match}


def _fraction(x) -> dict:
    """A Fraction as {num, den}."""
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _element(x) -> object:
    """A carrier element: a tuple as a list, a string as it is, a MobiusWord as its half-word."""
    return list(x) if isinstance(x, tuple) else x if isinstance(x, str) else x.half


def payload_count(n: int, w: int, with_poly: bool) -> dict:
    from .genfunc import cdp_count, cdp_q_closed

    out = {"n": str(n), "w": str(w), "count": str(cdp_count(n, w))}
    if with_poly:
        out["q_poly"] = cdp_q_closed(n, w).to_json()
    return out


def payload_count_table(w: int, max_n: int) -> dict:
    from .genfunc import cdp_count

    rows = [{"n": str(n), "count": str(cdp_count(n, w))} for n in range(1, max_n + 1)]
    return {"w": str(w), "max_n": str(max_n), "rows": rows}


def payload_verify(target: str, n: int, w: Optional[int], content: Optional[tuple]) -> dict:
    """The verify payload less its params, which _verify_request adds."""
    from .csp import verify_target

    return {"target": target, "report": encode_report(verify_target(target, n, w, content))}


def payload_orbits(target: str, n: int, w: Optional[int], content: Optional[tuple], with_poly: bool) -> dict:
    """The orbits payload less its params, which _orbits_request adds."""
    from .actions import orbit_poly
    from .csp import TARGETS
    from .qpoly import IntPolynomial, mod_cyclic

    spec = TARGETS[target]
    dec = spec.decompose(n, w, content)
    poly = orbit_poly(dec)
    out = {
        "target": target,
        "order": str(n),
        "orbits": [
            {"size": len(o), "stabilizer_order": n // len(o), "elements": [_element(x) for x in o]} for o in dec.orbits
        ],
        "orbit_poly": poly.to_json(),
    }
    if with_poly:
        folded = mod_cyclic(spec.closed(n, w, content), n)
        out["closed_poly_folded"] = [str(c) for c in folded]
        out["poly_match"] = IntPolynomial(folded) == poly
    return out


def payload_lyndon_params(sizes: list[int]) -> dict:
    from .csp import lyndon_params

    params = lyndon_params(sizes)
    out = {"sizes": [str(s) for s in sizes], "t": {str(d): str(v) for d, v in params.t.items()}, "valid": params.valid}
    if not params.valid:
        out["failure_index"] = str(params.failure_index)
        out["failure_value"] = _fraction(params.failure_value)
    return out


def payload_lyndon_check(family: str, w: Optional[int], max_n: int) -> dict:
    from .csp import family_members, lyndon_check

    report = lyndon_check(family_members(family, w, max_n))
    return {
        "family": family,
        "params": {} if w is None else {"w": str(w)},
        "max_n": str(report.max_n),
        "member_verdicts": list(report.member_verdicts),
        "relation_failures": [[str(n), str(m)] for n, m in report.relation_failures],
        "verdict": "pass" if report.passed else "fail",
    }


def payload_lyndon_construct(t_values: list[int], n: int) -> dict:
    from .csp import lyndon_construct, verify_csp

    t = {d: v for d, v in enumerate(t_values, start=1)}
    orbits, poly = lyndon_construct(t, n)
    report = verify_csp(orbits, poly)
    return {
        "n": str(n),
        "t": {str(d): str(v) for d, v in t.items()},
        "carrier": [_element(x) for orbit in orbits.orbits for x in orbit],
        "orbit_poly": poly.to_json(),
        "csp_verdict": report.verdict,
    }


def payload_homomesy(n: int, action: str) -> dict:
    from .csp import inv_homomesy

    report = inv_homomesy(n, action)
    return {
        "n": str(n),
        "action": action,
        "statistic": report.statistic,
        "global_average": _fraction(report.global_average),
        "orbit_averages": [_fraction(a) for a in report.orbit_averages],
        "homomesic": report.homomesic,
        "witness_orbit": None if report.witness_orbit is None else [_element(x) for x in report.witness_orbit],
    }


def payload_selftest(max_n: int) -> dict:
    from .selftest import run_all

    results = run_all(max_n, echo=lambda line: print(line, file=sys.stderr))
    # A criterion's time is left out, so payloads with equal arguments are
    # byte-identical; its log line on stderr carries it.
    return {
        "max_n": str(max_n),
        "criteria": [{"id": r.id, "name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
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


def _require_writable(csv_path: str) -> None:
    """Refuse a --csv path that open(csv_path, "w") would refuse, with the error it would raise.

    The path is only looked at, so the file is neither made nor truncated;
    _emit still reports a failure that shows only when the file is written.
    """
    import errno

    parent = os.path.dirname(csv_path) or os.curdir
    if os.path.isdir(csv_path):
        code = errno.EISDIR
    elif os.path.exists(csv_path):
        code = 0 if os.access(csv_path, os.W_OK) else errno.EACCES
    elif not csv_path or not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    else:
        code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise UsageError(f"cannot write --csv: {OSError(code, os.strerror(code), csv_path)}")


def _emit(text: str, csv_path: Optional[str]) -> None:
    if csv_path is None:
        _print(text, end="")
        return
    try:
        with open(csv_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --csv: {exc}")


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
    p.set_defaults(request=_count_request)
    p.add_argument("--n", type=_flag_int)
    p.add_argument("--w", type=_flag_int, required=True)
    p.add_argument("--q", action="store_true", help="include the q-polynomial")
    p.add_argument("--max-n", type=_flag_int, help="emit a table for n = 1..max-n")
    p.add_argument("--bfile", action="store_true", help="emit 'n count' lines")
    p.add_argument("--csv", metavar="PATH")

    p = sub.add_parser("verify", help="verify a sieving instance")
    p.set_defaults(request=_verify_request)
    p.add_argument("target", choices=list(TARGET_ARGS))
    p.add_argument("--n", type=_flag_int)
    p.add_argument("--w", type=_flag_int)
    p.add_argument("--content", type=str)
    p.add_argument("--table", action="store_true", help="emit CSV rows instead of JSON")
    p.add_argument("--csv", metavar="PATH")

    p = sub.add_parser("orbits", help="orbit decomposition and orbit polynomial")
    p.set_defaults(request=_orbits_request)
    # avl is subset sieving: its carrier is not closed under the action, so it has no orbits.
    p.add_argument("target", choices=[t for t in TARGET_ARGS if t != "avl"])
    p.add_argument("--n", type=_flag_int)
    p.add_argument("--w", type=_flag_int)
    p.add_argument("--content", type=str)
    p.add_argument("--poly", action="store_true", help="compare with the closed-form polynomial")

    p = sub.add_parser("lyndon", help="Lyndon parameters, family checks, construction")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    lp = lsub.add_parser("params")
    lp.set_defaults(request=_lyndon_params_request)
    lp.add_argument("--sizes", type=str)
    lp.add_argument("--sizes-file", metavar="PATH")
    lc = lsub.add_parser("check")
    lc.set_defaults(request=_lyndon_check_request)
    lc.add_argument("--family", required=True)
    lc.add_argument("--w", type=_flag_int)
    lc.add_argument("--max-n", type=_flag_int, default=6)
    lx = lsub.add_parser("construct")
    lx.set_defaults(request=_lyndon_construct_request)
    lx.add_argument("--t", required=True, help="comma-separated t_1,t_2,...")
    lx.add_argument("--n", type=_flag_int, required=True)

    p = sub.add_parser("homomesy", help="orbit averages of the inversion statistic")
    p.set_defaults(request=_homomesy_request)
    p.add_argument("--n", type=_flag_int, required=True)
    p.add_argument("--action", choices=["alpha", "beta"], default="alpha")

    p = sub.add_parser("selftest", help="run the full acceptance grid")
    p.set_defaults(request=_selftest_request)
    p.add_argument("--max-n", type=_flag_int, default=8)

    return parser


class Request(NamedTuple):
    """What the parsed flags ask for, read off them alone by the function each subparser names: the
    payload schema (also the cache entry name; verify and orbits add the target), the cache parameters,
    the payload, the check run on a miss before it, the text rendering and the exit-1 failure rule."""

    schema: str
    params: dict
    compute: Callable[[], dict]
    check: Optional[Callable[[], None]] = None
    text: Optional[Callable[[dict], str]] = None
    failure: Optional[Callable[[dict], Optional[dict]]] = None


def _unless(passed: bool, error: str, **extra) -> Optional[dict]:
    """A failure rule's result: no reason if the payload passed, else the exit-1 reason `error`."""
    return None if passed else {"error": error, **extra}


def _require_bound(name: str, arg: str, value: int, limit: int) -> None:
    """A size guard: refuse a value of --`arg` outside 1..limit."""
    _require(1 <= value <= limit, f"{name} is limited to 1 <= {arg} <= {limit}")


def _count_request(args: argparse.Namespace) -> Request:
    _require(args.w >= 1, "--w must be positive")
    if args.max_n is not None:
        _require(args.n is None, "--n cannot be used with --max-n")
        _require(not args.q, "--q cannot be used with --max-n")
        _require(args.max_n >= 1, "--max-n must be positive")
        if args.csv is not None:
            _require_writable(args.csv)
        text = partial(format_count_table, bfile=args.bfile) if args.bfile or args.csv is not None else None
        compute = partial(payload_count_table, args.w, args.max_n)
        check = partial(_require_bound, "count --max-n", "max-n", args.max_n, 500)
        return Request("count_table", {"w": args.w, "max_n": args.max_n}, compute, check, text)
    _require(args.n is not None and args.n >= 1, "count needs --n (positive) or --max-n")
    _require(not args.bfile, "--bfile needs --max-n")
    _require(args.csv is None, "--csv needs --max-n")
    name, limit = ("count --q", 150) if args.q else ("count", 4000)
    compute, check = partial(payload_count, args.n, args.w, args.q), partial(_require_bound, name, "n", args.n, limit)
    return Request("count", {"n": args.n, "w": args.w, "q": args.q}, compute, check)


def _cdp_size(n: int, w: int, _) -> int:
    from .genfunc import cdp_count

    return cdp_count(n, w)


# Per target of csp.TARGETS: the flags it reads; the least and greatest n that verify and orbits admit
# (n is sum(content) for a target reading --content); and for a carrier that can pass MAX_CARRIER at an admitted
# n or in a lyndon check member, its size from (n, w, content), known before anything is built, and its unit.
TARGET_ARGS = {
    "cdp": (("n", "w"), 1, 9, (_cdp_size, "area sequences")),
    "cmp": (("n",), 1, 12, (lambda n, w, _: 2 ** (n - 1), "Mobius paths")),
    "bw": (("n",), 2, 16, None),
    "avl": (("n", "w"), 1, 9, None),
    "words": (("content",), 1, 10, (lambda n, w, mu: factorial(n) // prod(factorial(m) for m in mu), "words")),
}

# The carrier bound of `cdp` and `words`, 9! elements, admits at most about
# 3.5 s of cold work on a 2-core host at every n.  At the bound, cold `verify`
# takes 0.25-0.66 s for CDP(n, w), n = 9..2 (its necklaces, never the carrier),
# and 1.3 s for the content 1^9 (by least period, never walking an orbit);
# `orbits`, printing every element, 1.4-3.5 s and 3.2 s.  The content 1^10
# is ten times the bound.  `bw`, `cmp` and `avl` are bounded by n alone: at
# their bounds cold `verify` takes 0.17 s (bw 16), 0.13 s (cmp 12) and
# 0.11-0.21 s (avl 9, every w), none building a carrier, and `orbits bw
# --n 16` walks and prints all 2^16 words in 0.31 s.
MAX_CARRIER = 362_880

# Each new guard admits about 2 s of cold work on a 2-core host: count at
# n = 4000 (w = 3); count --q at n = 150 (0.9 s and 28 MB, median of five at
# w = 8; 3.0 s and 38 MB for the payload at n = 200), where the bound now
# rests on the payload's bytes, 1.3 MB at w = 8 and 1.7 MB at w = 3000000;
# count --max-n 500 (1.3 s; 12.6 s at 1000); lyndon construct at a carrier
# of 30000 elements (1.3 s at n = 1, 1.4 s at n = 2520) and at n = 2520
# (0.23 s for one element, whole process; building and checking one element
# takes 0.02 s at n = 5040 and 0.26 s at 27720, one cyclotomic polynomial
# per divisor order, so the n bound is now looser than the carrier bound).
MAX_CONSTRUCT = 30_000

# lyndon params trial-divides every index: cold on a 2-core host, 1.3 s at 80000 sizes (median
# of five, all ones or each 2^(i mod 200)), 2.2 s at 100000 and 4.2 s at 200000.
MAX_SIZES = 80_000


def _require_carrier(what: str, carrier: Optional[tuple], n: int, w: Optional[int], contents: list) -> None:
    """Refuse a --w below 1, then more than MAX_CARRIER elements in the carriers at (n, w, mu), mu in `contents`,
    if the (size, unit) pair `carrier` sizes them (n is positive here)."""
    _require(w is None or w >= 1, "n and w must be positive")
    if carrier is not None:
        size, unit = carrier
        _require(sum(size(n, w, mu) for mu in contents) <= MAX_CARRIER, f"{what} is limited to {MAX_CARRIER} {unit}")


def _require_flags(what: str, reads: tuple[str, ...], values: dict, args: argparse.Namespace) -> None:
    """Refuse each flag in `reads` without a value, then each other flag of `values` given in args."""
    for name in reads:
        _require(values[name] is not None, f"{what} needs --{name}")
    for flag in values:
        _require(flag in reads or getattr(args, flag) is None, f"{what} does not read --{flag}")


def _target_args(args: argparse.Namespace) -> tuple[dict, Optional[int], Optional[tuple], Callable[[], None]]:
    """A verify or orbits target's params, its n, the parsed content and the check run on a miss.

    The params are the flags given: n, w and the parsed content re-joined,
    as strings (an empty --content stays in as "").  A flag the target does
    not read is refused on a miss, so for every accepted request they are
    exactly the target's parameters, and they are the payload's params.
    """
    content = _parse_content(args.content) if args.content else None
    given = {"n": args.n, "w": args.w, "content": ",".join(str(m) for m in content) if content else args.content}
    params = {name: str(value) for name, value in given.items() if value is not None}
    reads = TARGET_ARGS[args.target][0]
    n = sum(content) if ("content" in reads and content) else args.n
    return params, n, content, partial(_check_target, args, n, content)


def _verify_request(args: argparse.Namespace) -> Request:
    """A verify request; --table with --csv, and a --csv path that cannot be written, are refused here,
    before the cache is read."""
    params, n, content, check = _target_args(args)
    _require(not args.table or args.csv is None, "give --table or --csv, not both")
    if args.csv is not None:
        _require_writable(args.csv)
    text = format_verify_table if args.table or args.csv is not None else None
    return Request(
        "verify", params, lambda: {"params": params, **payload_verify(args.target, n, args.w, content)}, check, text,
        lambda p: _unless(
            p["report"]["verdict"] == "pass", "verification failed", first_mismatch=p["report"]["first_mismatch"]
        ),
    )


def _orbits_request(args: argparse.Namespace) -> Request:
    params, n, content, check = _target_args(args)
    compute = partial(payload_orbits, args.target, n, args.w, content, args.poly)
    return Request(
        "orbits", {**params, "poly": args.poly}, lambda: {"params": params, **compute()}, check,
        failure=lambda p: _unless(p.get("poly_match", True), "closed polynomial does not match the orbit polynomial"),
    )


def _check_target(args: argparse.Namespace, n: Optional[int], content: Optional[tuple]) -> None:
    """Check a verify or orbits target's arguments against its row of TARGET_ARGS."""
    reads, min_n, max_n, carrier = TARGET_ARGS[args.target]
    what = f"{args.command} {args.target}"
    _require_flags(what, reads, {"n": n, "w": args.w, "content": content}, args)
    _require(n >= 1, f"{args.command} needs --n (positive)")
    _require(n <= max_n, f"{what} is limited to n <= {max_n}")
    _require(n >= min_n, f"{what} needs --n at least {min_n}")
    _require_carrier(what, carrier, n, args.w, [content])


def _lyndon_params_request(args: argparse.Namespace) -> Request:
    _require(args.sizes is None or args.sizes_file is None, "give --sizes or --sizes-file, not both")
    if args.sizes_file is not None:
        try:
            with open(args.sizes_file) as fh:
                text = fh.read().replace("\n", ",")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read --sizes-file: {exc}")
    else:
        _require(args.sizes is not None, "lyndon params needs --sizes or --sizes-file")
        text = args.sizes
    import re
    from itertools import islice

    # The non-blank parts, scanned lazily and at most one past the bound, so a long input is
    # refused before it is split or any part is parsed.
    parts = list(islice((p for p in map(re.Match.group, re.finditer("[^,]+", text)) if p.strip()), MAX_SIZES + 1))
    _require(len(parts) <= MAX_SIZES, f"lyndon params is limited to {MAX_SIZES} sizes")
    sizes = _parse_ints(parts, "sizes", "sizes must be integers")
    _require(bool(sizes), "need at least one size")
    return Request(
        "lyndon_params", {"sizes": sizes}, partial(payload_lyndon_params, sizes),
        failure=lambda p: _unless(p["valid"], "sizes admit no Lyndon parameters"),
    )


def _lyndon_check_request(args: argparse.Namespace) -> Request:
    """A lyndon check request; its cache parameters are the family, max_n and --w if given.

    A --w the family does not read is refused on a miss, as is an unknown
    family, so for every accepted request the key holds only what it reads.
    """
    key = {"family": args.family, "max_n": args.max_n}
    if args.w is not None:
        key["w"] = args.w
    return Request(
        "lyndon_check", key, partial(payload_lyndon_check, args.family, args.w, args.max_n),
        partial(_check_family, args), failure=lambda p: _unless(p["verdict"] == "pass", "family is not Lyndon-like"),
    )


def _check_family(args: argparse.Namespace) -> None:
    """Check the family's arguments against its target's row of TARGET_ARGS, whose flags it reads but
    for n and --content, then max-n, then the carriers of its largest member, which bound its work."""
    from .csp import FAMILIES, member_contents

    _require(args.family in FAMILIES, f"unknown family {args.family!r}; choose from {sorted(FAMILIES)}")
    reads, _, _, carrier = TARGET_ARGS[FAMILIES[args.family][0]]
    what = f"lyndon check --family {args.family}"
    _require_flags(what, tuple(f for f in reads if f not in ("n", "content")), {"w": args.w}, args)
    _require_bound("lyndon check", "max-n", args.max_n, 10)
    _require_carrier(what, carrier, args.max_n, args.w, member_contents(args.family, args.max_n))


def _lyndon_construct_request(args: argparse.Namespace) -> Request:
    t_values = _parse_ints(args.t.split(","), "--t values", "--t must be comma-separated integers")
    _require(args.n >= 1, "--n must be positive")
    _require(all(v >= 0 for v in t_values), "Lyndon parameters must be non-negative")
    _require(len(t_values) >= args.n, "--t must define t_d for every divisor d of n")
    return Request(
        "lyndon_construct", {"t": t_values, "n": args.n},
        partial(payload_lyndon_construct, t_values, args.n), partial(_check_construct, t_values, args.n),
        failure=lambda p: _unless(p["csp_verdict"] == "pass", "constructed instance failed verification"),
    )


def _check_construct(t_values: list[int], n: int) -> None:
    """The construction's carrier has sum over d | n of d * t_d elements; then n is bounded."""
    from .qpoly import divisors

    size = sum(d * t_values[d - 1] for d in divisors(n))
    _require(size <= MAX_CONSTRUCT, f"lyndon construct is limited to {MAX_CONSTRUCT} elements")
    _require_bound("lyndon construct", "n", n, 2520)


def _homomesy_request(args: argparse.Namespace) -> Request:
    return Request(
        "homomesy", {"n": args.n, "action": args.action},
        partial(payload_homomesy, args.n, args.action), partial(_require_bound, "homomesy", "n", args.n, 7),
        failure=lambda p: _unless(p["homomesic"] or p["action"] == "beta", "expected homomesic case failed"),
    )


def _selftest_request(args: argparse.Namespace) -> Request:
    return Request(
        "selftest", {"max_n": args.max_n},
        partial(payload_selftest, args.max_n), partial(_require_bound, "selftest", "max-n", args.max_n, 12),
        failure=lambda p: _unless(
            p["passed"], f"criteria failed: {[c['id'] for c in p['criteria'] if not c['passed']]}"
        ),
    )


def _dispatch(args: argparse.Namespace, cache: ResultCache) -> int:
    request = args.request(args)

    def checked_compute() -> tuple[dict, Optional[dict]]:
        # Run on a miss only; the module docstring says why a hit may skip the check.
        if request.check is not None:
            request.check()
        payload = request.compute()
        return payload, request.failure(payload) if request.failure else None

    entry = f"{request.schema}_{args.target}" if hasattr(args, "target") else request.schema
    payload_text, reason = cache.fetch(entry, request.params, request.schema, checked_compute)
    if request.text is None:
        _print(payload_text)
    else:
        _emit(request.text(json.loads(payload_text)), args.csv)
    if reason is None:
        return 0
    print(dumps_canonical({**reason, "exit": 1}), file=sys.stderr)
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # jsonio reads an empty directory as none given, so it is refused before the cache is built.
        _require(args.cache_dir != "", "--cache-dir must not be empty")
        return _dispatch(args, ResultCache(directory=args.cache_dir, enabled=not args.no_cache))
    except UsageError as exc:
        print(dumps_canonical({"error": str(exc), "exit": 2}), file=sys.stderr)
        return 2
    except Exception as exc:  # a kernel bug, e.g. DualRouteError or a ValueError: not a verdict
        print(dumps_canonical({"error": f"internal error: {type(exc).__name__}: {exc}", "exit": 3}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
