"""The sieve-scale workload, run in a fresh process for each benchmark run.

Usage: python sieve_child.py RESULT_JSON SEED SECONDS TRACE

Each pass empties the q_binomial, q_factorial and cyclotomic memos, as a
new CLI process would find them, and then works through the cells.  One
operation is one cell: cdp_count, cdp_q_closed, eval_at_unity at the
order n/d for every d | n, mod_cyclic and csp_feasibility.  Passes run
until SECONDS have gone by; with TRACE = 1 untraced and traced passes
alternate.  The first pass's results, the timings and the traced layer
figures are written to RESULT_JSON for the parent to check.
"""

import json
import random
import statistics
import sys
import time

import cyclicsieve as cs
from cyclicsieve.qpoly import cyclotomic, q_binomial, q_factorial

from tracer import Recorder, install, record_memo

# n from 24 to 60, far past enumeration.  n = 24 comes with four widths,
# one of them w >= n, and n = 60 with two.  Run by increasing n, the four
# n = 24 cells cost least, (36, 9) comes next, and every later cell costs
# more than it, so the median cell is (36, 9) whatever order the seed picks.
CELLS = [(24, 3), (24, 6), (24, 12), (24, 30), (36, 9), (48, 8), (54, 6), (60, 5), (60, 8)]


def cell_order(seed: int) -> list[tuple[int, int]]:
    """Cells by increasing n; the seed orders the cells that share an n."""
    rng = random.Random(seed)
    out = []
    for n in sorted({n for n, _ in CELLS}):
        group = [c for c in CELLS if c[0] == n]
        rng.shuffle(group)
        out += group
    return out


def run_cell(n: int, w: int) -> tuple:
    count = cs.cdp_count(n, w)
    f = cs.cdp_q_closed(n, w)
    evals = {d: cs.eval_at_unity(f, n // d) for d in cs.divisors(n)}
    folded = cs.mod_cyclic(f, n)
    feasibility = cs.csp_feasibility(f, n)
    return count, f, evals, folded, feasibility


def to_json(n: int, w: int, result: tuple) -> dict:
    count, f, evals, folded, feasibility = result
    return {
        "n": n,
        "w": w,
        "count": str(count),
        "q_poly": f.to_json(),
        "evals": {str(d): str(e) if isinstance(e, int) else "nonconstant" for d, e in evals.items()},
        "folded": [str(c) for c in folded],
        "feasible": feasibility.feasible,
        "s_values": {str(k): str(v) for k, v in feasibility.s_values.items()},
    }


def run_pass(cells, ops: list, state: dict) -> float:
    for memo in (q_binomial, q_factorial, cyclotomic):
        memo.cache_clear()
    start = time.perf_counter()
    for n, w in cells:
        state["attempted"] += 1
        t0 = time.perf_counter()
        try:
            result = run_cell(n, w)
        except Exception as exc:  # a failing cell is counted, and the run goes on
            state["failed"] += 1
            print(f"sieve-scale cell ({n},{w}) failed: {exc!r}", file=sys.stderr)
            continue
        ops.append(time.perf_counter() - t0)
        first = state["first"].setdefault((n, w), result)
        if result != first:
            state["unstable"].append([n, w])
    return time.perf_counter() - start


def main() -> int:
    out_path, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    cells = cell_order(seed)
    state = {"attempted": 0, "failed": 0, "first": {}, "unstable": []}
    passes, ops, traced_passes, layers = [], [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cells, ops, state))
        if trace:
            rec = Recorder()
            undo = install(rec)
            try:
                traced_passes.append(run_pass(cells, [], state))
            finally:
                undo()
            record_memo(rec)
            layers.append(rec.to_json())
    with open(out_path, "w") as fh:
        json.dump(
            {
                "attempted": state["attempted"],
                "failed": state["failed"],
                "unstable": state["unstable"],
                "passes": passes,
                "ops": ops,
                "traced_passes": traced_passes,
                "overhead_s": statistics.median(traced_passes) - statistics.median(passes) if trace else 0.0,
                "layers": layers,
                "results": [to_json(n, w, r) for (n, w), r in state["first"].items()],
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
