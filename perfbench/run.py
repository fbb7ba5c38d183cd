"""cyclicsieve benchmark: run one workload and print its metrics as JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: cli-cold, cli-warm, sieve-scale, acceptance (see README.md).
The program under test is the cyclicsieve in this checkout's src/, run
from source.  Load is a closed loop with one client: one operation at a
time, the next sent when the last has finished.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
with --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"

sys.path.insert(0, str(BENCH))

from checks import REQUESTS, SELFTEST_REQUEST, CheckError, check_sieve_cell, check_stdout, selftest_stderr_ok  # noqa: E402

END_TO_END = {"setup_s": "s", "pass_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.dispatch_self_s": "s",
    "jsonio.validate_s": "s",
    "jsonio.validate_calls": "count",
    "jsonio.cache_read_s": "s",
    "jsonio.cache_hits": "count",
    "jsonio.cache_corrupt": "count",
    "jsonio.dumps_s": "s",
    "jsonio.stdout_bytes": "bytes",
    "jsonio.cache_write_s": "s",
    "jsonio.cache_misses": "count",
    "paths.enumerate_s": "s",
    "paths.elements": "count",
    "actions.orbit_decompose_s": "s",
    "actions.orbits": "count",
    "actions.generator_calls": "count",
    "genfunc.closed_s": "s",
    "genfunc.closed_calls": "count",
    "genfunc.max_degree": "degree",
    "genfunc.bruteforce_s": "s",
    "qpoly.eval_at_unity_s": "s",
    "qpoly.eval_at_unity_calls": "count",
    "qpoly.mod_cyclic_s": "s",
    "qpoly.q_binomial_hits": "count",
    "qpoly.q_binomial_misses": "count",
    "qpoly.q_binomial_entries": "count",
    "csp.verify_csp_self_s": "s",
    "csp.verify_subset_csp_self_s": "s",
    "csp.lyndon_check_self_s": "s",
    "csp.homomesy_self_s": "s",
    "csp.fixed_points_s": "s",
    "csp.feasibility_s": "s",
    **{f"selftest.c{i:02d}_s": "s" for i in range(1, 16)},
    "trace.overhead_s": "s",
}

CLI_ENTRY = "import sys; from cyclicsieve.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 120.0
IMPORT_PROBES = 5


class Run:
    """One benchmark run: its scratch directory, child environment and tallies."""

    def __init__(self, tmp: Path, seed: int, seconds: float, trace: bool):
        self.tmp = tmp
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._names = 0
        # A minimal environment: no cache setting or user site leaks in.
        self.env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC), "HOME": str(tmp)}

    def path(self, stem: str) -> Path:
        self._names += 1
        return self.tmp / f"{self._names:05d}-{stem}"

    def spawn(self, argv: list[str]) -> dict:
        """Run a child to completion; wall time from spawn to exit, exit code, peak RSS, output files."""
        out, err = self.path("out"), self.path("err")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe, env=self.env, cwd=self.tmp)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"seconds": seconds, "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024, "out": out, "err": err}

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"failed: {what}: {why}", file=sys.stderr)

    def wrong(self, what: str, why: str) -> None:
        self.correct = False
        print(f"incorrect: {what}: {why}", file=sys.stderr)


def import_probe(run: Run, module: str) -> float:
    """Median wall time of a fresh interpreter importing `module`; the first also byte-compiles."""
    times = []
    for _ in range(IMPORT_PROBES):
        r = run.spawn([sys.executable, "-c", f"import {module}"])
        if r["code"] != 0:
            raise SystemExit(f"cannot import {module} from {SRC}: {r['err'].read_text()}")
        times.append(r["seconds"])
    return statistics.median(times)


def cli_import_s(run: Run) -> float:
    """Import of cyclicsieve.cli in a fresh interpreter, minus a bare interpreter start."""
    bare, full = [], []
    for _ in range(5):
        bare.append(run.spawn([sys.executable, "-c", "pass"])["seconds"])
        full.append(run.spawn([sys.executable, "-c", "import cyclicsieve.cli"])["seconds"])
    return statistics.median(full) - statistics.median(bare)


# ---------------------------------------------------------------------------
# CLI passes
# ---------------------------------------------------------------------------

def cli_pass(run: Run, requests, cache_dir, traced: bool) -> dict:
    """Send each request in a fresh process, one after another; check outputs after the pass.

    cache_dir is a directory shared by the pass, or None for a fresh empty
    cache per request.
    """
    ops = []
    start = time.perf_counter()
    for argv, check in requests:
        cache = cache_dir or run.path("cache")
        spans = run.path("spans.json") if traced else None
        prefix = [sys.executable, str(BENCH / "traced_cli.py"), str(spans)] if traced else [sys.executable, "-c", CLI_ENTRY]
        op = run.spawn(prefix + ["--cache-dir", str(cache)] + argv)
        op.update(argv=argv, check=check, spans=spans)
        ops.append(op)
    return {"seconds": time.perf_counter() - start, "ops": ops}


def no_stderr(text: str) -> bool:
    return text == ""


def judge_cli_ops(run: Run, ops, reference, stderr_ok) -> None:
    """Count failures (exit code, stderr, or warm stdout unlike cold) and check payloads."""
    for op in ops:
        what = " ".join(op["argv"])
        run.attempted += 1
        stdout = op["out"].read_bytes()
        stderr = op["err"].read_text(errors="replace")
        op["stdout_bytes"] = len(stdout)
        if op["code"] != 0:
            run.fail(what, f"exit code {op['code']}: {stderr[-500:]}")
        elif not stderr_ok(stderr):
            run.fail(what, f"unexpected stderr: {stderr[-500:]}")
        elif reference is not None:
            if stdout != reference.get(what):
                run.fail(what, "warm stdout differs from cold stdout")
        else:
            try:
                check_stdout(op["check"], stdout)
            except CheckError as exc:
                run.wrong(what, str(exc))


def cli_layers(ops) -> dict:
    """Sum the span files of one traced pass into per-layer metrics (max for the degree)."""
    total, self_time, calls, counts = defaultdict(float), defaultdict(float), defaultdict(int), defaultdict(int)
    for op in ops:
        data = json.loads(op["spans"].read_text()) if op["spans"].exists() else {}
        for key, acc in (("total", total), ("self", self_time), ("calls", calls)):
            for name, value in data.get(key, {}).items():
                acc[name] += value
        for name, value in data.get("counts", {}).items():
            counts[name] = max(counts[name], value) if name == "genfunc.max_degree" else counts[name] + value
    counts["jsonio.stdout_bytes"] = sum(op["stdout_bytes"] for op in ops)
    return layer_metrics({"total": total, "self": self_time, "calls": calls, "counts": counts})


def layer_metrics(agg: dict) -> dict:
    total, self_time = defaultdict(float, agg["total"]), defaultdict(float, agg["self"])
    calls, counts = defaultdict(int, agg["calls"]), defaultdict(int, agg["counts"])
    out = {
        "cli.dispatch_self_s": self_time["cli.dispatch"],
        "jsonio.validate_s": total["jsonio.validate"],
        "jsonio.validate_calls": calls["jsonio.validate"],
        "jsonio.cache_read_s": total["jsonio.cache_read"],
        "jsonio.dumps_s": total["jsonio.dumps"],
        "jsonio.cache_write_s": total["jsonio.cache_write"],
        "paths.enumerate_s": total["paths.enumerate"],
        "actions.orbit_decompose_s": total["actions.orbit_decompose"],
        "genfunc.closed_s": total["genfunc.closed"],
        "genfunc.closed_calls": calls["genfunc.closed"],
        "genfunc.bruteforce_s": total["genfunc.bruteforce"],
        "qpoly.eval_at_unity_s": total["qpoly.eval_at_unity"],
        "qpoly.eval_at_unity_calls": calls["qpoly.eval_at_unity"],
        "qpoly.mod_cyclic_s": total["qpoly.mod_cyclic"],
        "csp.verify_csp_self_s": self_time["csp.verify_csp"],
        "csp.verify_subset_csp_self_s": self_time["csp.verify_subset_csp"],
        "csp.lyndon_check_self_s": self_time["csp.lyndon_check"],
        "csp.homomesy_self_s": self_time["csp.homomesy"],
        "csp.fixed_points_s": total["csp.fixed_points"],
        "csp.feasibility_s": total["csp.feasibility"],
        **{f"selftest.c{i:02d}_s": total[f"selftest.c{i:02d}"] for i in range(1, 16)},
    }
    for name in (
        "jsonio.cache_hits", "jsonio.cache_corrupt", "jsonio.cache_misses", "jsonio.stdout_bytes",
        "paths.elements", "actions.orbits", "actions.generator_calls", "genfunc.max_degree",
        "qpoly.q_binomial_hits", "qpoly.q_binomial_misses", "qpoly.q_binomial_entries",
    ):
        out[name] = counts[name]
    return out


def median_layers(samples: list[dict]) -> dict:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def run_cli_workload(run: Run, setup_s: float, request_list, cache_dir=None, reference=None, stderr_ok=no_stderr) -> dict:
    """Passes over request_list in seed-shuffled order until the run's seconds are spent."""
    rng = random.Random(run.seed)
    passes, op_times, rss, traced, layers = [], [], [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < run.seconds:
        order = list(request_list)
        rng.shuffle(order)
        p = cli_pass(run, order, cache_dir, traced=False)
        judge_cli_ops(run, p["ops"], reference, stderr_ok)
        passes.append(p["seconds"])
        op_times += [op["seconds"] for op in p["ops"]]
        rss.append(max(op["rss_mb"] for op in p["ops"]))
        if run.trace:
            t = cli_pass(run, order, cache_dir, traced=True)
            judge_cli_ops(run, t["ops"], reference, stderr_ok)
            traced.append(t["seconds"])
            layers.append(cli_layers(t["ops"]))
    if run.trace:
        out = median_layers(layers)
        out["trace.overhead_s"] = statistics.median(traced) - statistics.median(passes)
        out["cli.import_s"] = cli_import_s(run)
        return out
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(passes),
        "op_p50_s": statistics.median(op_times),
        "peak_rss_mb": statistics.median(rss),
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def cli_cold(run: Run) -> dict:
    setup = import_probe(run, "cyclicsieve.cli")
    return run_cli_workload(run, setup, REQUESTS)


def cli_warm(run: Run) -> dict:
    setup = import_probe(run, "cyclicsieve.cli")
    cache = run.path("warm-cache")
    fill = cli_pass(run, REQUESTS, cache, traced=False)
    reference = {}
    for op in fill["ops"]:
        what = " ".join(op["argv"])
        stdout = op["out"].read_bytes()
        stderr = op["err"].read_text(errors="replace")
        if op["code"] != 0 or stderr:
            print(f"cache fill failed: {what}: exit {op['code']}: {stderr[-500:]}", file=sys.stderr)
            continue
        try:
            check_stdout(op["check"], stdout)
        except CheckError as exc:
            run.wrong(what, str(exc))
        reference[what] = stdout
    return run_cli_workload(run, setup + fill["seconds"], REQUESTS, cache_dir=cache, reference=reference)


def acceptance(run: Run) -> dict:
    setup = import_probe(run, "cyclicsieve.cli")
    return run_cli_workload(run, setup, [SELFTEST_REQUEST], stderr_ok=selftest_stderr_ok)


def sieve_scale(run: Run) -> dict:
    setup = import_probe(run, "cyclicsieve")
    result_path = run.path("sieve.json")
    child = run.spawn(
        [sys.executable, str(BENCH / "sieve_child.py"), str(result_path), str(run.seed), str(run.seconds), "1" if run.trace else "0"]
    )
    stderr = child["err"].read_text(errors="replace")
    if child["code"] != 0 or not result_path.exists():
        raise SystemExit(f"sieve-scale worker exited with {child['code']}: {stderr[-2000:]}")
    data = json.loads(result_path.read_text())
    run.attempted += data["attempted"]
    run.failed += data["failed"]
    if data["unstable"]:
        run.wrong("sieve-scale", f"cells {data['unstable']} gave different results in different passes")
    for cell in data["results"]:
        try:
            check_sieve_cell(cell)
        except (CheckError, KeyError, TypeError) as exc:
            run.wrong(f"sieve-scale cell ({cell['n']},{cell['w']})", str(exc))
    if run.trace:
        out = median_layers([layer_metrics(layer) for layer in data["layers"]])
        out["trace.overhead_s"] = data["overhead_s"]
        out["cli.import_s"] = cli_import_s(run)
        return out
    return {
        "setup_s": setup,
        "pass_s": statistics.median(data["passes"]),
        "op_p50_s": statistics.median(data["ops"]),
        "peak_rss_mb": child["rss_mb"],
    }


WORKLOADS = {"cli-cold": cli_cold, "cli-warm": cli_warm, "sieve-scale": sieve_scale, "acceptance": acceptance}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cyclicsieve" / "cli.py").is_file():
        print(f"no cyclicsieve source under {SRC}; run from the root of a cyclicsieve checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = Run(tmp, args.seed, args.seconds, bool(args.trace))
        values = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
