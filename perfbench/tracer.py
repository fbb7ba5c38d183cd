"""Spans and counters around cyclicsieve's layers, installed from outside the package.

`install(recorder)` replaces module attributes of the imported cyclicsieve
modules with wrappers that record a span per call: its total time, and its
self time (total minus the time of spans opened inside it).  A generator
is timed only while it is being consumed.  A call made inside a span of
the same name is passed through untraced, so recursion and enumerators
that call one another are counted once.  The memoised q_binomial,
q_factorial and cyclotomic are not wrapped (that would change what their
memo holds); their cache_info() is read instead.  `install` returns a
function that puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from importlib import import_module

MODULES = ("qpoly", "paths", "genfunc", "actions", "csp", "jsonio", "selftest", "cli")

ENUMERATORS = ("enumerate_cdp", "enumerate_cmp", "enumerate_avl", "enumerate_balanced", "enumerate_dyck")
CLOSED_FORMS = ("cdp_q_closed", "cdp_q_wide", "cdp_count", "avl_q_closed", "h_closed", "lr_count", "gen_q_ballot", "carlitz_q_catalan")
BRUTE_FORCE = ("cdp_q_bruteforce", "h_bruteforce", "avl_q_bruteforce", "dyck_q_bruteforce", "cmp_q")

# (module, function) -> span name, for plain functions.
SPANS = {
    **{("paths", f): "paths.enumerate" for f in ENUMERATORS},
    ("actions", "orbit_decompose"): "actions.orbit_decompose",
    **{("genfunc", f): "genfunc.closed" for f in CLOSED_FORMS},
    **{("genfunc", f): "genfunc.bruteforce" for f in BRUTE_FORCE},
    ("qpoly", "eval_at_unity"): "qpoly.eval_at_unity",
    ("qpoly", "mod_cyclic"): "qpoly.mod_cyclic",
    ("csp", "verify_csp"): "csp.verify_csp",
    ("csp", "verify_subset_csp"): "csp.verify_subset_csp",
    ("csp", "lyndon_check"): "csp.lyndon_check",
    ("csp", "homomesy_check"): "csp.homomesy",
    ("csp", "check_cdp_fixed_points"): "csp.fixed_points",
    ("csp", "csp_feasibility"): "csp.feasibility",
    ("jsonio", "validate_payload"): "jsonio.validate",
    ("jsonio", "dumps_canonical"): "jsonio.dumps",
    ("cli", "_dispatch"): "cli.dispatch",
}


class Recorder:
    """Per-name totals of span time, self time and calls, plus named counters."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, time covered by child spans]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def inside(self, name: str) -> bool:
        return bool(self.stack) and self.stack[-1][0] == name

    def enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def leave(self) -> None:
        name, start, child = self.stack.pop()
        span = time.perf_counter() - start
        self.total[name] += span
        self.self_time[name] += span - child
        if self.stack:
            self.stack[-1][2] += span

    def to_json(self) -> dict:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _wrap_function(rec: Recorder, fn, name: str, on_result=None):
    def traced(*args, **kwargs):
        if rec.inside(name):
            return fn(*args, **kwargs)
        rec.calls[name] += 1
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.leave()
        if on_result is not None:
            on_result(result)
        return result

    return traced


def _wrap_generator(rec: Recorder, fn, name: str):
    def traced(*args, **kwargs):
        return _timed_iter(rec, name, fn(*args, **kwargs))

    return traced


def _timed_iter(rec: Recorder, name: str, it):
    counted = not rec.inside(name)
    if counted:
        rec.calls[name] += 1
    while True:
        if rec.inside(name):
            # Consumed from inside another enumerator: its span covers this.
            try:
                item = next(it)
            except StopIteration:
                return
        else:
            rec.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec.leave()
            if counted:
                rec.counts["paths.elements"] += 1
        yield item


def install(rec: Recorder):
    """Wrap the layer functions of every cyclicsieve module; return an undo function."""
    mods = {m: import_module(f"cyclicsieve.{m}") for m in MODULES}
    replaced: list[tuple[object, str, object]] = []

    def put(obj, attr, value):
        replaced.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def degree(result):
        if hasattr(result, "degree"):
            rec.counts["genfunc.max_degree"] = max(rec.counts["genfunc.max_degree"], result.degree())

    def orbits(result):
        rec.counts["actions.orbits"] += len(result.orbits)

    wrappers = {}
    for (mod, fname), name in SPANS.items():
        fn = getattr(mods[mod], fname)
        if fname in ENUMERATORS:
            wrapper = _wrap_generator(rec, fn, name)
        else:
            hook = {"genfunc.closed": degree, "actions.orbit_decompose": orbits}.get(name)
            wrapper = _wrap_function(rec, fn, name, hook)
        wrappers[id(fn)] = wrapper
    # Every module that imported a layer function by name gets the wrapper too.
    for module in [sys.modules["cyclicsieve"], *mods.values()]:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                put(module, attr, wrappers[id(value)])

    # Selftest criteria are held in a list of (id, name, function).
    selftest = mods["selftest"]
    criteria = list(selftest.CRITERIA)
    selftest.CRITERIA[:] = [
        (cid, cname, _wrap_function(rec, fn, f"selftest.c{cid:02d}")) for cid, cname, fn in criteria
    ]

    # Every generator of every CyclicAction made from now on is counted.
    action_cls = mods["actions"].CyclicAction
    post_init = action_cls.__post_init__

    def counting_post_init(self):
        generator = self.generator

        def counted(x):
            rec.counts["actions.generator_calls"] += 1
            return generator(x)

        object.__setattr__(self, "generator", counted)
        post_init(self)

    put(action_cls, "__post_init__", counting_post_init)

    # Cache reads, hits, corruptions, misses and the time spent writing on a miss.
    cache_cls = mods["jsonio"].ResultCache
    read_valid = cache_cls._read_valid
    fetch = cache_cls.fetch

    def traced_read(self, *args):
        rec.enter("jsonio.cache_read")
        try:
            payload = read_valid(self, *args)
        finally:
            rec.leave()
        rec.counts["jsonio.cache_corrupt" if payload is None else "jsonio.cache_hits"] += 1
        return payload

    def traced_fetch(self, command, params, schema, compute):
        computed = []

        def timed_compute():
            start = time.perf_counter()
            try:
                return compute()
            finally:
                computed.append(time.perf_counter() - start)

        start = time.perf_counter()
        payload = fetch(self, command, params, schema, timed_compute)
        if computed:
            rec.counts["jsonio.cache_misses"] += 1
            rec.total["jsonio.cache_write"] += time.perf_counter() - start - computed[0]
        return payload

    put(cache_cls, "_read_valid", traced_read)
    put(cache_cls, "fetch", traced_fetch)

    def undo():
        selftest.CRITERIA[:] = criteria
        for obj, attr, original in reversed(replaced):
            setattr(obj, attr, original)

    return undo


def record_memo(rec: Recorder) -> None:
    """Add the hits, misses and entries of this process's q_binomial memo to the counters."""
    info = import_module("cyclicsieve.qpoly").q_binomial.cache_info()
    rec.counts["qpoly.q_binomial_hits"] += info.hits
    rec.counts["qpoly.q_binomial_misses"] += info.misses
    rec.counts["qpoly.q_binomial_entries"] += info.currsize
