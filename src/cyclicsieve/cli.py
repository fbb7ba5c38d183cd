"""Command-line interface.

Every command prints one canonical JSON payload to stdout (keys sorted,
fixed separators, integer values as decimal strings) so runs with equal
arguments are byte-identical.  Exit codes: 0 success / verification pass
(for `orbits --poly`, the closed polynomial matches the orbit census), 1
mathematical verification failure, 2 usage error (a UsageError from the
argument checks), 3 internal fault (any other exception: a bug in the
program, such as the two sieving routes disagreeing, an action that is
not a bijection of its carrier or a kernel's ValueError; it is never
cached).  Non-zero exits also write a machine-readable JSON reason to
stderr.  A --sizes-file that cannot be read or decoded, a --csv path that
cannot be written, a count flag that would be ignored, a --w below 1 and
a --n, --w or --content that the verify or orbits target or the lyndon
check family does not read are usage errors.

Size guards (exit 2 past them): `count` n <= 4000, `count --q` n <= 150,
`count --max-n` <= 500, `verify` and `orbits` per target (cdp and avl
n <= 9, cmp n <= 12, bw n <= 16, words n <= 10), with at most 9! = 362880
elements in a cdp or words carrier (|CDP(n, w)| is known before anything
is built), `lyndon check` max-n <= 10 (for cdp also |CDP(max-n, w)| <= 9!),
`lyndon construct` n <= 2520 with at most 30000 carrier elements (the sum
of d * t_d over d | n, known from the arguments), `homomesy` n <= 7,
`selftest` max-n <= 12.

Results are cached under --cache-dir, the CYCLIC_SIEVE_CACHE environment
variable, or ~/.cache/cyclicsieve; --no-cache disables the cache.  The
JSON printed is the payload text the cache stores, byte for byte, and the
exit code and stderr reason of a hit come from the verdict stored with it.

A request's cache parameters are read off the parsed flags alone, so a hit
imports only this module and jsonio, never the math kernels.  The checks
that need the target and family registries or a kernel (required and
unread flags, n bounds, carrier sizes, an unknown family), and then the
size guard, run on a miss, before anything is computed.  A hit skips them
safely: every flag they read is in the key, and the key holds the source
digest, so an entry exists only for a request that passed the same checks
under the same code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from . import __version__
from .jsonio import ResultCache, dumps_canonical

if TYPE_CHECKING:
    from .csp import Target


class UsageError(Exception):
    pass


class JsonArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage errors as JSON on stderr with exit code 2."""

    def error(self, message):
        print(dumps_canonical({"error": message, "exit": 2}), file=sys.stderr)
        raise SystemExit(2)


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
# Command payloads; each imports the kernels it calls, so only a miss loads them
# ---------------------------------------------------------------------------

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


def _target_params(target: str, n: int, w: Optional[int], content: Optional[tuple]) -> dict:
    from .csp import TARGETS

    values = {"n": n, "w": w, "content": ",".join(str(m) for m in content) if content else None}
    return {p: str(values[p]) for p in TARGETS[target].params}


def payload_verify(target: str, n: int, w: Optional[int], content: Optional[tuple]) -> dict:
    from .csp import verify_target

    report = verify_target(target, n, w, content)
    return {"target": target, "params": _target_params(target, n, w, content), "report": report.to_json()}


def payload_orbits(target: str, n: int, w: Optional[int], content: Optional[tuple], with_poly: bool) -> dict:
    from .actions import orbit_poly
    from .csp import TARGETS
    from .qpoly import IntPolynomial, mod_cyclic

    spec = TARGETS[target]
    dec = spec.decompose(n, w, content)
    poly = orbit_poly(dec)
    out = {
        "target": target,
        "params": _target_params(target, n, w, content),
        "order": str(n),
        "orbits": dec.to_json(spec.serialize),
        "orbit_poly": poly.to_json(),
    }
    if with_poly:
        folded = mod_cyclic(spec.closed(n, w, content), n)
        out["closed_poly_folded"] = [str(c) for c in folded]
        out["poly_match"] = IntPolynomial(folded) == poly
    return out


def payload_lyndon_params(sizes: list[int]) -> dict:
    from .csp import lyndon_params

    return {"sizes": [str(s) for s in sizes], **lyndon_params(sizes).to_json()}


def payload_lyndon_check(family: str, w: Optional[int], max_n: int) -> dict:
    from .csp import FAMILIES, TARGETS, lyndon_check

    if family in TARGETS:
        # The largest member, n = max_n, bounds the work of the family.
        _require_carrier(TARGETS[family], f"lyndon check --family {family}", max_n, w, None)
    report = lyndon_check(FAMILIES[family].members(w, max_n))
    params = {name: str(w) for name in FAMILIES[family].params}
    return {"family": family, "params": params, **report.to_json()}


def payload_lyndon_construct(t_values: list[int], n: int) -> dict:
    from .csp import lyndon_construct, verify_csp

    t = {d: v for d, v in enumerate(t_values, start=1)}
    orbits, action, poly = lyndon_construct(t, n)
    report = verify_csp(orbits, action, poly)
    return {
        "n": str(n),
        "t": {str(d): str(v) for d, v in t.items()},
        "carrier": [list(x) for orbit in orbits.orbits for x in orbit],
        "orbit_poly": poly.to_json(),
        "csp_verdict": report.verdict,
    }


def payload_homomesy(n: int, action_name: str) -> dict:
    from .actions import CyclicAction, word_shift_two
    from .csp import balanced_words_ending_in_one, homomesy_check, zrun_rotation_action
    from .paths import enumerate_balanced, inv_zero_one

    if action_name == "alpha":
        carrier = balanced_words_ending_in_one(n)
        action = zrun_rotation_action(n)
    else:
        carrier = list(enumerate_balanced(n))
        action = CyclicAction(n, word_shift_two)
    report = homomesy_check(carrier, action, inv_zero_one, "inv")
    return {"n": str(n), "action": action_name, **report.to_json()}


def payload_selftest(max_n: int) -> dict:
    from .selftest import run_all

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
    if not csv_path:
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


# Each request reads the parsed flags alone.  It makes the checks that need
# no registry or kernel (each comes before every check that does), and
# returns the cache parameters, the checks that run on a miss (or None) and
# the computation of the payload.
Request = tuple[dict, Optional[Callable[[], None]], Callable[[], dict]]


def _count_request(args: argparse.Namespace) -> Request:
    _require(args.w >= 1, "--w must be positive")
    if args.max_n is not None:
        _require(args.n is None, "--n cannot be used with --max-n")
        _require(not args.q, "--q cannot be used with --max-n")
        _require(args.max_n >= 1, "--max-n must be positive")
        return {"w": args.w, "max_n": args.max_n}, None, lambda: payload_count_table(args.w, args.max_n)
    _require(args.n is not None and args.n >= 1, "count needs --n (positive) or --max-n")
    _require(not args.bfile, "--bfile needs --max-n")
    _require(not args.csv, "--csv needs --max-n")
    return {"n": args.n, "w": args.w, "q": args.q}, None, lambda: payload_count(args.n, args.w, args.q)


def _require_carrier(target: Target, what: str, n: int, w: Optional[int], content: Optional[tuple]) -> None:
    """Refuse a --w below 1, then a carrier larger than MAX_CARRIER (n is positive here)."""
    from .csp import MAX_CARRIER

    _require(w is None or w >= 1, "n and w must be positive")
    if target.carrier_size is not None:
        size = target.carrier_size(n, w, content)
        _require(size <= MAX_CARRIER, f"{what} is limited to {MAX_CARRIER} {target.unit}")


def _require_read(what: str, params: tuple[str, ...], args: argparse.Namespace, flags: tuple[str, ...]) -> None:
    """A usage error for each of `flags` given on the command line that `params` does not name."""
    for flag in flags:
        _require(flag in params or getattr(args, flag) is None, f"{what} does not read --{flag}")


def _target_request(args: argparse.Namespace) -> Request:
    """A verify or orbits request; its cache parameters are the flags given.

    They are n, w and the parsed content re-joined, as strings (an empty
    --content stays in as "").  A flag the target does not read is refused
    on a miss, so for every accepted request they are exactly the target's
    parameters.
    """
    content = _parse_content(args.content) if args.content else None
    given = {"n": args.n, "w": args.w, "content": ",".join(str(m) for m in content) if content else args.content}
    params = {name: str(value) for name, value in given.items() if value is not None}
    n = sum(content) if (args.target == "words" and content) else args.n
    check = partial(_check_target, args, n, content)
    if args.command == "verify":
        return params, check, lambda: payload_verify(args.target, n, args.w, content)
    return {**params, "poly": args.poly}, check, lambda: payload_orbits(args.target, n, args.w, content, args.poly)


def _check_target(args: argparse.Namespace, n: Optional[int], content: Optional[tuple]) -> None:
    """Check a verify or orbits target's arguments against its registry entry."""
    from .csp import TARGETS

    target = TARGETS[args.target]
    what = f"{args.command} {args.target}"
    values = {"n": n, "w": args.w, "content": content}
    for name in target.params:
        _require(values[name] is not None, f"{what} needs --{name}")
    _require_read(what, target.params, args, ("n", "w", "content"))
    _require(n >= 1, f"{args.command} needs --n (positive)")
    _require(n <= target.max_n, f"{what} is limited to n <= {target.max_n}")
    _require(n >= target.min_n, f"{what} needs --n at least {target.min_n}")
    _require_carrier(target, what, n, args.w, content)


def _lyndon_params_request(args: argparse.Namespace) -> Request:
    if args.sizes_file:
        try:
            with open(args.sizes_file) as fh:
                text = fh.read().replace("\n", ",")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read --sizes-file: {exc}")
    else:
        _require(args.sizes is not None, "lyndon params needs --sizes or --sizes-file")
        text = args.sizes
    try:
        sizes = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise UsageError("sizes must be integers")
    _require(bool(sizes), "need at least one size")
    return {"sizes": sizes}, None, lambda: payload_lyndon_params(sizes)


def _lyndon_check_request(args: argparse.Namespace) -> Request:
    """A lyndon check request; its cache parameters are the family, max_n and --w if given.

    A --w the family does not read is refused on a miss, as is an unknown
    family, so for every accepted request the key holds only what it reads.
    """
    key = {"family": args.family, "max_n": args.max_n}
    if args.w is not None:
        key["w"] = args.w
    return key, partial(_check_family, args), lambda: payload_lyndon_check(args.family, args.w, args.max_n)


def _check_family(args: argparse.Namespace) -> None:
    """Check the family's arguments against its registry entry."""
    from .csp import FAMILIES

    _require(args.family in FAMILIES, f"unknown family {args.family!r}; choose from {sorted(FAMILIES)}")
    what = f"lyndon check --family {args.family}"
    params = FAMILIES[args.family].params
    for name in params:
        _require(getattr(args, name) is not None, f"{what} needs --{name}")
    _require_read(what, params, args, ("w",))


def _lyndon_construct_request(args: argparse.Namespace) -> Request:
    try:
        t_values = [int(p) for p in args.t.split(",")]
    except ValueError:
        raise UsageError("--t must be comma-separated integers")
    _require(args.n >= 1, "--n must be positive")
    _require(all(v >= 0 for v in t_values), "Lyndon parameters must be non-negative")
    _require(len(t_values) >= args.n, "--t must define t_d for every divisor d of n")
    check = partial(_check_construct_size, t_values, args.n)
    return {"t": t_values, "n": args.n}, check, lambda: payload_lyndon_construct(t_values, args.n)


def _check_construct_size(t_values: list[int], n: int) -> None:
    """The construction's carrier has sum over d | n of d * t_d elements."""
    from .qpoly import divisors

    size = sum(d * t_values[d - 1] for d in divisors(n))
    _require(size <= MAX_CONSTRUCT, f"lyndon construct is limited to {MAX_CONSTRUCT} elements")


class Command(NamedTuple):
    """One command: payload schema (also the cache entry name; verify and
    orbits add the target), the request reading the flags (see Request),
    size guard (argument, limit) bounding the argument to 1..limit, checked
    on a miss after the request's own checks, the text rendering the flags
    ask for (a function of the payload, else None), and the stderr reason
    of a mathematical failure (exit 1; else None), which the cache stores
    as the entry's verdict.  A payload is decoded only to be rendered.
    """

    schema: str
    request: Callable[[argparse.Namespace], Request]
    guard: Optional[tuple[str, int]] = None
    text: Optional[Callable[[argparse.Namespace], Optional[Callable[[dict], str]]]] = None
    failure: Optional[Callable[[dict], Optional[dict]]] = None


# Each new guard admits about 2 s of cold work on a 2-core host: count at
# n = 4000 (w = 3); count --q at n = 150 (2.0 s, 188 MB; 4.5 s at 200);
# count --max-n 500 (1.3 s; 12.6 s at 1000); lyndon construct at a carrier
# of 30000 elements (1.3 s at n = 1, 1.4 s at n = 2520) and at n = 2520
# (0.23 s for one element, whole process; building and checking one element
# takes 0.02 s at n = 5040 and 0.26 s at 27720, one cyclotomic polynomial
# per divisor order, so the n bound is now looser than the carrier bound).
MAX_CONSTRUCT = 30_000

COMMANDS = {
    "count": Command("count", _count_request, guard=("n", 4000)),
    "count --q": Command("count", _count_request, guard=("n", 150)),
    "count --max-n": Command(
        "count_table",
        _count_request,
        guard=("max-n", 500),
        text=lambda args: partial(format_count_table, bfile=args.bfile) if args.bfile or args.csv else None,
    ),
    "verify": Command(
        "verify",
        _target_request,
        text=lambda args: format_verify_table if args.table or args.csv else None,
        failure=lambda p: None
        if p["report"]["verdict"] == "pass"
        else {"error": "verification failed", "first_mismatch": p["report"]["first_mismatch"]},
    ),
    "orbits": Command("orbits", _target_request),
    "orbits --poly": Command(
        "orbits",
        _target_request,
        failure=lambda p: None if p["poly_match"] else {"error": "closed polynomial does not match the orbit polynomial"},
    ),
    "lyndon params": Command(
        "lyndon_params",
        _lyndon_params_request,
        failure=lambda p: None if p["valid"] else {"error": "sizes admit no Lyndon parameters"},
    ),
    "lyndon check": Command(
        "lyndon_check",
        _lyndon_check_request,
        guard=("max-n", 10),
        failure=lambda p: None if p["verdict"] == "pass" else {"error": "family is not Lyndon-like"},
    ),
    "lyndon construct": Command(
        "lyndon_construct",
        _lyndon_construct_request,
        guard=("n", 2520),
        failure=lambda p: None if p["csp_verdict"] == "pass" else {"error": "constructed instance failed verification"},
    ),
    "homomesy": Command(
        "homomesy",
        lambda args: ({"n": args.n, "action": args.action}, None, lambda: payload_homomesy(args.n, args.action)),
        guard=("n", 7),
        failure=lambda p: None if p["homomesic"] or p["action"] == "beta" else {"error": "expected homomesic case failed"},
    ),
    "selftest": Command(
        "selftest",
        lambda args: ({"max_n": args.max_n}, None, lambda: payload_selftest(args.max_n)),
        guard=("max-n", 12),
        failure=lambda p: None
        if p["passed"]
        else {"error": f"criteria failed: {[c['id'] for c in p['criteria'] if not c['passed']]}"},
    ),
}


def _command_name(args: argparse.Namespace) -> str:
    if args.command == "lyndon":
        return f"lyndon {args.subcommand}"
    if args.command == "count":
        return "count --max-n" if args.max_n is not None else "count --q" if args.q else "count"
    if args.command == "orbits" and args.poly:
        return "orbits --poly"
    return args.command


def _dispatch(args: argparse.Namespace, cache: ResultCache) -> int:
    name = _command_name(args)
    command = COMMANDS[name]
    params, check, compute = command.request(args)

    def checked_compute() -> tuple[dict, Optional[dict]]:
        # Run on a miss only; the module docstring says why a hit may skip the checks.
        if check is not None:
            check()
        if command.guard is not None:
            arg, limit = command.guard
            _require(1 <= getattr(args, arg.replace("-", "_")) <= limit, f"{name} is limited to 1 <= {arg} <= {limit}")
        payload = compute()
        return payload, command.failure(payload) if command.failure else None

    entry = f"{command.schema}_{args.target}" if hasattr(args, "target") else command.schema
    payload_text, reason = cache.fetch(entry, params, command.schema, checked_compute)
    render = command.text(args) if command.text else None
    if render is None:
        _print(payload_text)
    else:
        _emit(render(json.loads(payload_text)), args.csv)
    if reason is None:
        return 0
    print(dumps_canonical({**reason, "exit": 1}), file=sys.stderr)
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache = ResultCache(directory=args.cache_dir, enabled=not args.no_cache)
    try:
        return _dispatch(args, cache)
    except UsageError as exc:
        print(dumps_canonical({"error": str(exc), "exit": 2}), file=sys.stderr)
        return 2
    except Exception as exc:  # a kernel bug, e.g. DualRouteError or a ValueError: not a verdict
        print(dumps_canonical({"error": f"internal error: {type(exc).__name__}: {exc}", "exit": 3}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
