"""Command-line interface: payloads, schemas, exit codes, caching."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import pathlib
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
from functools import partial

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclicsieve
from cyclicsieve import actions, cli, csp, jsonio
from cyclicsieve.cli import main
from cyclicsieve.jsonio import ResultCache, cache_key, package_digest, source_digest, validate_payload


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def run_cli(capsys, cache_dir, *argv):
    try:
        code = main(["--cache-dir", cache_dir, *argv])
    except SystemExit as exc:  # argparse refuses a flag's value before main's own checks run
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(out: str):
    return json.loads(out.strip().splitlines()[-1])


class TestCount:
    def test_single_count(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "count", "--n", "3", "--w", "3")
        assert code == 0
        payload = payload_of(out)
        validate_payload("count", payload)
        assert payload["count"] == "18"
        assert "q_poly" not in payload

    def test_narrow_count(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "count", "--n", "2", "--w", "1")
        assert code == 0
        assert payload_of(out)["count"] == "1"

    def test_with_polynomial(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "count", "--n", "4", "--w", "4", "--q")
        payload = payload_of(out)
        validate_payload("count", payload)
        assert sum(int(c) for c in payload["q_poly"]) == 82

    def test_bfile_lines(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "count", "--w", "3", "--max-n", "4", "--bfile")
        assert code == 0
        assert out.splitlines() == ["1 3", "2 7", "3 18", "4 47"]

    def test_csv_table(self, capsys, cache_dir, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, cache_dir, "count", "--w", "2", "--max-n", "3", "--csv", str(target)
        )
        assert code == 0
        assert target.read_text().splitlines()[0] == "n,count"

    def test_missing_n_is_usage_error(self, capsys, cache_dir):
        code, _, err = run_cli(capsys, cache_dir, "count", "--w", "3")
        assert code == 2
        assert "error" in json.loads(err.strip().splitlines()[-1])


# 1200 zero parts before a 2: one word, 1201 1201, of length 2.
MANY_ZEROS = ",".join(["0"] * 1200 + ["2"])


class TestVerify:
    def test_cdp_passes(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "verify", "cdp", "--n", "6", "--w", "3")
        assert code == 0
        payload = payload_of(out)
        validate_payload("verify", payload)
        assert payload["report"]["verdict"] == "pass"

    def test_avl_subset_semantics(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "verify", "avl", "--n", "5", "--w", "2")
        assert code == 0
        payload = payload_of(out)
        assert payload["report"]["warnings"] == []

    def test_avl_warns_and_fails_on_shared_factor(self, capsys, cache_dir):
        # The coprimality hypothesis really is needed: the run is flagged
        # and the empirical verdict is a genuine failure, hence exit 1.
        code, out, err = run_cli(capsys, cache_dir, "verify", "avl", "--n", "4", "--w", "2")
        payload = payload_of(out)
        assert payload["report"]["warnings"]
        assert payload["report"]["verdict"] == "fail"
        assert code == 1
        assert json.loads(err.strip().splitlines()[-1])["exit"] == 1

    def test_bw_passes(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "verify", "bw", "--n", "7")
        assert code == 0

    def test_words_content(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "verify", "words", "--content", "2,2")
        assert code == 0

    def test_words_content_with_many_zero_parts(self, capsys, cache_dir):
        # The guards bound the sum, not the number of parts, and a zero part places no letter.
        code, out, err = run_cli(capsys, cache_dir, "verify", "words", "--content", MANY_ZEROS)
        assert (code, err) == (0, "")
        _, plain, _ = run_cli(capsys, cache_dir, "verify", "words", "--content", "2")
        assert payload_of(out)["report"] == payload_of(plain)["report"]

    def test_table_output(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "verify", "cmp", "--n", "4", "--table")
        lines = out.splitlines()
        assert lines[0] == "k,evaluation,fixed_count"
        assert len(lines) == 5

    def test_guard_is_usage_error(self, capsys, cache_dir):
        code, _, err = run_cli(capsys, cache_dir, "verify", "cdp", "--n", "99", "--w", "3")
        assert code == 2


class TestOrbits:
    def test_cdp_census(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "orbits", "cdp", "--n", "4", "--w", "4")
        payload = payload_of(out)
        validate_payload("orbits", payload)
        assert sum(o["size"] for o in payload["orbits"]) == 82

    def test_cmp_census(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "orbits", "cmp", "--n", "4")
        payload = payload_of(out)
        assert sum(o["size"] for o in payload["orbits"]) == 8

    def test_words_with_poly(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "orbits", "words", "--content", "2,2", "--poly")
        payload = payload_of(out)
        assert payload["poly_match"] is True
        assert sum(o["size"] for o in payload["orbits"]) == 6

    def test_words_content_with_many_zero_parts(self, capsys, cache_dir):
        code, out, err = run_cli(capsys, cache_dir, "orbits", "words", "--content", MANY_ZEROS, "--poly")
        assert (code, err) == (0, "")
        payload = payload_of(out)
        assert payload["orbits"] == [{"size": 1, "stabilizer_order": 2, "elements": [[1201, 1201]]}]
        _, plain, _ = run_cli(capsys, cache_dir, "orbits", "words", "--content", "2", "--poly")
        assert {**payload_of(plain), "params": {}, "orbits": []} == {**payload, "params": {}, "orbits": []}

    @pytest.mark.parametrize("poly, closed_calls", [([], 0), (["--poly"], 1)])
    def test_closed_polynomial_is_built_only_for_poly(self, capsys, cache_dir, monkeypatch, poly, closed_calls):
        calls = []
        real = csp.cdp_q_closed
        monkeypatch.setattr(csp, "cdp_q_closed", lambda n, w: (calls.append((n, w)), real(n, w))[1])
        code, _, _ = run_cli(capsys, cache_dir, "--no-cache", "orbits", "cdp", "--n", "4", "--w", "3", *poly)
        assert code == 0
        assert len(calls) == closed_calls


class TestLyndon:
    def test_params_recovers_binary(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "lyndon", "params", "--sizes", "2,4,8,16")
        assert code == 0
        payload = payload_of(out)
        validate_payload("lyndon_params", payload)
        assert payload["t"] == {"1": "2", "2": "1", "3": "2", "4": "3"}

    def test_params_rejects_catalan(self, capsys, cache_dir):
        code, out, err = run_cli(capsys, cache_dir, "lyndon", "params", "--sizes", "1,2,5")
        assert code == 1
        payload = payload_of(out)
        assert payload["valid"] is False
        assert payload["failure_value"] == {"num": "1", "den": "2"}

    def test_params_from_file(self, capsys, cache_dir, tmp_path):
        sizes = tmp_path / "sizes.txt"
        sizes.write_text("2\n4\n8\n16\n")
        code, out, _ = run_cli(capsys, cache_dir, "lyndon", "params", "--sizes-file", str(sizes))
        assert code == 0
        assert payload_of(out)["t"]["4"] == "3"

    def test_check_family(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys, cache_dir, "lyndon", "check", "--family", "cdp", "--w", "2", "--max-n", "8"
        )
        assert code == 0
        payload = payload_of(out)
        validate_payload("lyndon_check", payload)
        assert payload["verdict"] == "pass"

    def test_construct(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "lyndon", "construct", "--t", "2,1,2,3", "--n", "4")
        assert code == 0
        payload = payload_of(out)
        validate_payload("lyndon_construct", payload)
        assert payload["csp_verdict"] == "pass"
        assert len(payload["carrier"]) == 16


class TestHomomesy:
    def test_zrun_rotation_small(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "homomesy", "--n", "2", "--action", "alpha")
        assert code == 0
        payload = payload_of(out)
        validate_payload("homomesy", payload)
        assert payload["homomesic"] is True
        assert payload["global_average"] == {"num": "3", "den": "1"}

    def test_average_fifteen(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "homomesy", "--n", "5", "--action", "alpha")
        assert payload_of(out)["global_average"] == {"num": "15", "den": "1"}

    def test_two_step_shift_reports_witness(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "homomesy", "--n", "4", "--action", "beta")
        assert code == 0
        payload = payload_of(out)
        assert payload["homomesic"] is False
        assert payload["witness_orbit"]


class TestSelftest:
    def test_small_scale_passes(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "selftest", "--max-n", "3")
        assert code == 0
        payload = payload_of(out)
        validate_payload("selftest", payload)
        assert payload["passed"] is True
        assert len(payload["criteria"]) == 15

    def test_guard(self, capsys, cache_dir):
        code, _, err = run_cli(capsys, cache_dir, "selftest", "--max-n", "40")
        assert code == 2


class TestCacheAndDeterminism:
    def test_byte_identical_output(self, capsys, cache_dir):
        _, out1, _ = run_cli(capsys, cache_dir, "count", "--n", "5", "--w", "5", "--q")
        _, out2, _ = run_cli(capsys, cache_dir, "count", "--n", "5", "--w", "5", "--q")
        assert out1 == out2

    def test_no_cache_matches_cached(self, capsys, cache_dir):
        _, cached, _ = run_cli(capsys, cache_dir, "count", "--n", "4", "--w", "2")
        code = main(["--no-cache", "count", "--n", "4", "--w", "2"])
        fresh = capsys.readouterr().out
        assert cached == fresh

    def test_cache_write_then_read_round_trip(self, capsys, cache_dir, tmp_path):
        run_cli(capsys, cache_dir, "count", "--n", "3", "--w", "2")
        import pathlib

        entries = list(pathlib.Path(cache_dir).glob("*.json"))
        assert len(entries) == 1
        header_line, payload_text = entries[0].read_text().split("\n")
        header = json.loads(header_line)
        assert json.loads(payload_text)["count"] == "8"
        assert header["key"] == entries[0].stem
        assert header["payload_sha256"] == hashlib.sha256(payload_text.encode()).hexdigest()

    def test_corrupted_entry_is_recomputed_with_warning(self, capsys, cache_dir):
        import pathlib

        _, before, _ = run_cli(capsys, cache_dir, "count", "--n", "3", "--w", "2")
        entry = next(pathlib.Path(cache_dir).glob("*.json"))
        entry.write_text(entry.read_text().replace('"count":"8"', '"count":"999"'))
        code, after, err = run_cli(capsys, cache_dir, "count", "--n", "3", "--w", "2")
        assert code == 0
        assert after == before
        assert "corrupted cache entry" in err

    @pytest.mark.parametrize("relative", ["qpoly.py", "schemas/count.schema.json"])
    def test_source_change_changes_key(self, tmp_path, relative):
        package = pathlib.Path(cyclicsieve.__file__).resolve().parent
        copy = tmp_path / "cyclicsieve"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        assert source_digest(copy) == package_digest()
        before = cache_key("count", {"n": 3, "w": 3}, source_digest(copy))
        target = copy / relative
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 1
        target.write_bytes(bytes(data))
        after = cache_key("count", {"n": 3, "w": 3}, source_digest(copy))
        assert after != before

    KEYED = [
        (["verify", "cmp", "--n", "4"], ["--w", "7"], {"n": "4"}),
        (["verify", "words", "--content", "2,1"], ["--n", "3"], {"content": "2,1"}),
        (["lyndon", "check", "--family", "cmp", "--max-n", "4"], ["--w", "7"], {"family": "cmp", "max_n": 4}),
        (["lyndon", "check", "--family", "cdp", "--w", "2", "--max-n", "4"], [], {"family": "cdp", "max_n": 4, "w": 2}),
    ]

    def test_key_holds_only_the_parameters_the_target_reads(self, capsys, tmp_path):
        # A flag the target or family does not read is refused, so it can
        # never split the cache; the entry's key holds what it does read.
        for i, (argv, unread, params) in enumerate(self.KEYED):
            cache_dir = tmp_path / str(i)
            if unread:
                code, out, _ = run_cli(capsys, str(cache_dir), *argv, *unread)
                assert (code, out) == (2, ""), argv
                assert not cache_dir.exists()
            run_cli(capsys, str(cache_dir), *argv)
            [entry] = cache_dir.glob("*.json")
            assert json.loads(entry.read_text().split("\n")[0])["params"] == params

    def test_hit_encodes_no_payload_and_miss_encodes_it_once(self, capsys, cache_dir, monkeypatch):
        encoded = []
        real = jsonio.dumps_canonical

        def counted(obj):
            encoded.append(obj)
            return real(obj)

        monkeypatch.setattr(jsonio, "dumps_canonical", counted)
        monkeypatch.setattr(cli, "dumps_canonical", counted)
        argv = ["orbits", "cdp", "--n", "4", "--w", "3", "--poly"]
        key = {"command": "orbits_cdp", "params": {"n": "4", "w": "3", "poly": True}, "source": package_digest()}
        _, cold, _ = run_cli(capsys, cache_dir, *argv)
        payloads = [obj for obj in encoded if "orbits" in obj]
        assert len(payloads) == 1 and real(payloads[0]) == cold.rstrip("\n")
        assert [obj for obj in encoded if "orbits" not in obj and "payload_sha256" not in obj] == [key]
        encoded.clear()
        _, warm, _ = run_cli(capsys, cache_dir, *argv)
        assert warm == cold
        assert encoded == [key]

    def test_environment_variable_sets_cache_dir(self, tmp_path):
        env_dir = tmp_path / "envcache"
        # Minimal env so no cache setting leaks in from the caller; the child
        # imports the same cyclicsieve this process did (src/ or installed).
        package_root = pathlib.Path(cyclicsieve.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "cyclicsieve.cli", "count", "--n", "2", "--w", "2"],
            capture_output=True,
            text=True,
            env={
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": str(package_root),
                "CYCLIC_SIEVE_CACHE": str(env_dir),
            },
        )
        assert result.returncode == 0, result.stderr
        assert env_dir.exists() and list(env_dir.glob("*.json"))


def child_kwargs(*args: str) -> dict:
    """Keyword arguments for a fresh interpreter that imports this cyclicsieve, as above."""
    package_root = pathlib.Path(cyclicsieve.__file__).resolve().parents[1]
    return {
        "args": [sys.executable, *args],
        "env": {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root)},
    }


# Runs cli.main on its arguments, counting validate_payload calls; the last
# stderr line reports them and whether jsonschema was ever imported.
CLI_PROBE = """
import json, sys
from cyclicsieve import jsonio
from cyclicsieve.cli import main
validated = []
validate = jsonio.validate_payload
def counted(name, payload):
    validated.append(name)
    validate(name, payload)
jsonio.validate_payload = counted
code = main(sys.argv[1:])
print(json.dumps({"jsonschema": "jsonschema" in sys.modules, "validated": validated}), file=sys.stderr)
sys.exit(code)
"""


def run_probe(*argv: str):
    result = subprocess.run(**child_kwargs("-c", CLI_PROBE, *argv), capture_output=True, text=True)
    lines = result.stderr.splitlines()
    return result, json.loads(lines[-1]), lines[:-1]


class TestWarmPath:
    COUNT = ["count", "--n", "5", "--w", "5", "--q"]

    def test_import_leaves_jsonschema_out(self):
        code = "import sys, cyclicsieve.cli; print('jsonschema' in sys.modules)"
        result = subprocess.run(**child_kwargs("-c", code), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    @pytest.mark.parametrize("cache", ["miss", "disabled"])
    def test_new_payload_imports_jsonschema_and_validates(self, tmp_path, cache):
        # A new payload is validated by the in-package checker, without jsonschema.
        flags = ["--cache-dir", str(tmp_path / "cache")] if cache == "miss" else ["--no-cache"]
        result, probe, warnings = run_probe(*flags, *self.COUNT)
        assert result.returncode == 0, result.stderr
        assert probe == {"jsonschema": False, "validated": ["count"]}
        assert warnings == []
        assert len(list(tmp_path.glob("cache/*.json"))) == (1 if cache == "miss" else 0)

    def test_hit_never_imports_jsonschema(self, tmp_path):
        argv = ["--cache-dir", str(tmp_path / "cache"), *self.COUNT]
        cold, _, _ = run_probe(*argv)
        warm, probe, warnings = run_probe(*argv)
        assert warm.returncode == 0, warm.stderr
        assert warm.stdout == cold.stdout
        assert "q_poly" in json.loads(warm.stdout)
        assert probe == {"jsonschema": False, "validated": []}
        assert warnings == []

    HITS = [
        ["verify", "cdp", "--n", "6", "--w", "3"],
        ["orbits", "cdp", "--n", "4", "--w", "3", "--poly"],
        ["count", "--n", "5", "--w", "2"],
    ]

    def test_hit_loads_no_kernel_module_and_no_dataclasses(self, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        cold = {}
        for argv in self.HITS:
            result, loaded = run_module_probe(*cache, *argv)
            assert result.returncode == 0, result.stderr
            assert "cyclicsieve.genfunc" in loaded["package"]  # a miss computes, so the probe sees kernels load
            cold[tuple(argv)] = result.stdout
        for argv in self.HITS:
            result, loaded = run_module_probe(*cache, *argv)
            assert result.returncode == 0, result.stderr
            assert result.stdout == cold[tuple(argv)]
            assert loaded["package"] == ["cyclicsieve", "cyclicsieve.cli", "cyclicsieve.jsonio"], argv
            assert "dataclasses" not in loaded["new"], argv

    def test_only_a_miss_loads_tempfile_or_importlib_resources(self, tmp_path):
        # -S skips site, whose .pth files may import either module before the probe starts.
        argv = ["--cache-dir", str(tmp_path / "cache"), *self.COUNT]
        _, cold = run_module_probe(*argv, flags=("-S",))
        result, warm = run_module_probe(*argv, flags=("-S",))
        assert result.returncode == 0, result.stderr
        assert "tempfile" in cold["new"]  # the miss writes its entry through a temp file
        assert not {"tempfile", "importlib.resources"} & set(warm["new"])


class TestColdPath:
    # A miss builds records and runs the kernels, without the import cost of
    # dataclasses (which loads inspect, ast, dis and tokenize).  Only the
    # homomesy averages and the Lyndon parameters read fractions.
    MISSES = [
        (["verify", "cdp", "--n", "6", "--w", "3"], {"dataclasses", "inspect", "fractions"}),
        (["orbits", "cdp", "--n", "4", "--w", "3", "--poly"], {"dataclasses", "inspect", "fractions"}),
        (["count", "--n", "5", "--w", "5", "--q"], {"dataclasses", "inspect", "fractions"}),
        # selftest's workers are forked and answer through pipes with marshal.
        (["selftest", "--max-n", "4"], {"dataclasses", "inspect", "pickle", "multiprocessing", "concurrent.futures"}),
    ]

    @pytest.mark.parametrize("argv, absent", MISSES, ids=[argv[0] for argv, _ in MISSES])
    def test_miss_loads_neither_dataclasses_nor_inspect(self, tmp_path, argv, absent):
        result, loaded = run_module_probe("--cache-dir", str(tmp_path / "cache"), *argv)
        assert result.returncode == 0, result.stderr
        assert "cyclicsieve.genfunc" in loaded["package"]  # a miss computes, so the kernels load
        assert not absent & set(loaded["new"])


# Runs cli.main on its arguments; the last stderr line lists the cyclicsieve
# modules loaded and every module the run added after interpreter start.
MODULE_PROBE = """
import json, sys
started = set(sys.modules)
from cyclicsieve.cli import main
code = main(sys.argv[1:])
package = sorted(m for m in sys.modules if m.split(".")[0] == "cyclicsieve")
print(json.dumps({"package": package, "new": sorted(set(sys.modules) - started)}), file=sys.stderr)
sys.exit(code)
"""


def run_module_probe(*argv: str, flags: tuple = ()):
    """MODULE_PROBE run on `argv` by an interpreter started with `flags`."""
    result = subprocess.run(**child_kwargs(*flags, "-c", MODULE_PROBE, *argv), capture_output=True, text=True)
    return result, json.loads(result.stderr.splitlines()[-1])


class TestRegistryTables:
    """cli's table of flags, bounds and carrier sizes names exactly the registry's targets, and each family's
    guard is its target's carrier size summed over the member's contents."""

    def test_tables_have_the_registries_keys(self):
        subcommands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
        verify_choices = next(a for a in subcommands["verify"]._actions if a.dest == "target").choices
        orbits_choices = next(a for a in subcommands["orbits"]._actions if a.dest == "target").choices
        assert list(cli.TARGET_ARGS) == list(csp.TARGETS) == list(verify_choices)
        # avl is subset sieving: its carrier is not closed under the action, so orbits does not take it.
        assert list(orbits_choices) == [t for t in cli.TARGET_ARGS if t != "avl"]
        assert {target for target, _ in csp.FAMILIES.values()} <= set(cli.TARGET_ARGS)
        assert tuple(csp.Target.__annotations__) == ("carrier", "generator", "closed", "necklaces", "census")

    def test_carrier_sizes_count_the_carriers(self):
        size, _ = cli.TARGET_ARGS["cdp"][3]
        for n in range(1, 6):
            for w in range(1, n + 2):
                assert size(n, w, None) == sum(1 for _ in csp.TARGETS["cdp"].carrier(n, w, None)), (n, w)
        size, _ = cli.TARGET_ARGS["cmp"][3]
        for n in range(1, 9):
            assert size(n, None, None) == sum(1 for _ in csp.TARGETS["cmp"].carrier(n, None, None)), n
        size, _ = cli.TARGET_ARGS["words"][3]
        for mu in [(1,), (2, 1), (2, 1, 2), (1, 1, 1, 1), (3, 0, 2)]:
            assert size(sum(mu), None, mu) == sum(1 for _ in csp.TARGETS["words"].carrier(sum(mu), None, mu)), mu

    @pytest.mark.parametrize("family", sorted(csp.FAMILIES))
    def test_family_carrier_sizes_count_the_members(self, family):
        reads, _, _, (size, _) = cli.TARGET_ARGS[csp.FAMILIES[family][0]]
        for w in (1, 2, 3) if "w" in reads else (None,):
            for n, (census, _) in enumerate(csp.family_members(family, w, 7), start=1):
                guard = sum(size(n, w, mu) for mu in csp.member_contents(family, n))
                assert guard == sum(census.values()), (family, w, n)

    def test_a_family_is_one_row(self, capsys, cache_dir, monkeypatch):
        monkeypatch.setitem(csp.FAMILIES, "quaternary-words", ("words", 4))
        argv = ["--no-cache", "lyndon", "check", "--family", "quaternary-words", "--max-n", "6"]
        code, out, err = run_cli(capsys, cache_dir, *argv)
        assert (code, err) == (0, "")
        payload = payload_of(out)
        validate_payload("lyndon_check", payload)
        assert (payload["params"], payload["verdict"]) == ({}, "pass")
        code, out, err = run_cli(capsys, cache_dir, *argv, "--w", "2")
        assert (code, out, err) == (2, "", reason("lyndon check --family quaternary-words does not read --w"))
        # The member at n = 6 holds all 4^6 words.
        monkeypatch.setattr(cli, "MAX_CARRIER", 4**6 - 1)
        code, out, err = run_cli(capsys, cache_dir, *argv)
        assert (code, out, err) == (2, "", reason(f"lyndon check --family quaternary-words is limited to {4**6 - 1} words"))
        monkeypatch.setattr(cli, "MAX_CARRIER", 4**6)
        assert run_cli(capsys, cache_dir, *argv)[0] == 0


class TestLazyExports:
    def test_every_name_resolves_to_its_submodule_attribute(self):
        names = cyclicsieve.__all__
        assert len(names) == len(set(names)) == 71
        for name in names:
            module = importlib.import_module(f"cyclicsieve.{cyclicsieve._SUBMODULE[name]}")
            assert getattr(cyclicsieve, name) is getattr(module, name), name
        assert set(names) <= set(dir(cyclicsieve))

    def test_the_package_table_is_the_one_list_of_names(self):
        # A submodule's own __all__ would be a second list, free to drift from _EXPORTS.
        for info in pkgutil.iter_modules(cyclicsieve.__path__):
            assert not hasattr(importlib.import_module(f"cyclicsieve.{info.name}"), "__all__"), info.name

    def test_star_import_yields_every_name(self):
        namespace = {}
        exec("from cyclicsieve import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(cyclicsieve.__all__)

    def test_unknown_name_is_refused(self):
        with pytest.raises(AttributeError):
            cyclicsieve.no_such_name
        with pytest.raises(ImportError):
            exec("from cyclicsieve import no_such_name", {})

    def test_package_import_loads_no_submodule(self):
        code = "import sys, cyclicsieve; print(sorted(m for m in sys.modules if m.startswith('cyclicsieve')))"
        result = subprocess.run(**child_kwargs("-c", code), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "['cyclicsieve']\n"


# An accepted request, then a neighbour of it that is refused: the refusal
# holds with the accepted entry in the cache, and writes no entry.
REFUSED_AFTER_HIT = [
    (["verify", "cmp", "--n", "4"], ["--w", "7"], "verify cmp does not read --w"),
    (["verify", "words", "--content", "3,3,4"], ["--n", "10"], "verify words does not read --n"),
    (["lyndon", "check", "--family", "cmp", "--max-n", "4"], ["--w", "5"], "lyndon check --family cmp does not read --w"),
    (["verify", "cdp", "--n", "9", "--w", "9"], ["--w", "19"], "verify cdp is limited to 362880 area sequences"),
]


class TestRefusedAfterHit:
    @pytest.mark.parametrize("accepted, extra, error", REFUSED_AFTER_HIT, ids=[" ".join(r[0] + r[1]) for r in REFUSED_AFTER_HIT])
    def test_refused_neighbour_of_a_cached_request(self, capsys, cache_dir, accepted, extra, error):
        cold = run_cli(capsys, cache_dir, *accepted)
        assert cold[0] in (0, 1)  # the cmp family is accepted and is not Lyndon-like
        assert run_cli(capsys, cache_dir, *accepted) == cold
        [entry] = pathlib.Path(cache_dir).glob("*.json")
        for run in ("first", "second"):
            assert run_cli(capsys, cache_dir, *accepted, *extra) == (2, "", reason(error)), run
        assert list(pathlib.Path(cache_dir).glob("*.json")) == [entry]


def entry_header(cache_dir: str) -> tuple[pathlib.Path, dict, str]:
    [entry] = pathlib.Path(cache_dir).glob("*.json")
    header_line, _, text = entry.read_text().partition("\n")
    return entry, json.loads(header_line), text


class TestVerdictHeader:
    VERDICTS = [
        (["verify", "avl", "--n", "4", "--w", "2"], 1, {"error": "verification failed", "first_mismatch": "1"}),
        (["lyndon", "params", "--sizes", "1,2,5"], 1, {"error": "sizes admit no Lyndon parameters"}),
        (["orbits", "cdp", "--n", "4", "--w", "3", "--poly"], 0, None),
        (["count", "--n", "3", "--w", "3"], 0, None),
    ]

    @pytest.mark.parametrize("argv, exit_code, verdict", VERDICTS, ids=[" ".join(v[0]) for v in VERDICTS])
    def test_entry_stores_the_verdict_and_a_hit_repeats_it(self, capsys, cache_dir, argv, exit_code, verdict):
        cold = run_cli(capsys, cache_dir, *argv)
        assert cold[0] == exit_code
        assert entry_header(cache_dir)[1]["verdict"] == verdict
        assert cold[2] == ("" if verdict is None else reason(**verdict, code=1))
        assert run_cli(capsys, cache_dir, *argv) == cold

    def test_hit_takes_exit_code_and_reason_from_the_header(self, capsys, cache_dir):
        argv = ["orbits", "cdp", "--n", "4", "--w", "3", "--poly"]
        _, cold, _ = run_cli(capsys, cache_dir, *argv)
        entry, header, text = entry_header(cache_dir)
        entry.write_text(json.dumps({**header, "verdict": {"error": "stored reason"}}) + "\n" + text)
        assert run_cli(capsys, cache_dir, *argv) == (1, cold, reason("stored reason", 1))

    @pytest.mark.parametrize(
        "argv", [["orbits", "cdp", "--n", "4", "--w", "3", "--poly"], ["verify", "cmp", "--n", "5", "--table"]], ids=["json", "table"]
    )
    def test_hit_decodes_its_payload_only_to_render_it(self, capsys, cache_dir, monkeypatch, argv):
        _, cold, _ = run_cli(capsys, cache_dir, *argv)
        _, header, text = entry_header(cache_dir)
        decoded = []
        real = json.loads
        monkeypatch.setattr(json, "loads", lambda s, **kwargs: (decoded.append(s), real(s, **kwargs))[1])
        assert run_cli(capsys, cache_dir, *argv) == (0, cold, "")
        assert [real(s) for s in decoded] == [header] + ([real(text)] if "--table" in argv else [])

    @pytest.mark.parametrize("verdict", ["absent", "fail", 1, True, [], {}, {"error": 1}], ids=repr)
    def test_malformed_verdict_is_a_corrupt_entry(self, capsys, cache_dir, verdict):
        argv = ["verify", "avl", "--n", "4", "--w", "2"]
        cold = run_cli(capsys, cache_dir, *argv)
        entry, header, text = entry_header(cache_dir)
        if verdict == "absent":
            del header["verdict"]
        else:
            header["verdict"] = verdict
        entry.write_text(json.dumps(header) + "\n" + text)
        code, out, err = run_cli(capsys, cache_dir, *argv)
        warning, *rest = err.splitlines(keepends=True)
        assert json.loads(warning) == {
            "warning": f"corrupted cache entry {entry.name}: missing or malformed verdict",
            "action": "recomputing",
        }
        assert (code, out, "".join(rest)) == cold
        assert entry_header(cache_dir)[1]["verdict"] == {"error": "verification failed", "first_mismatch": "1"}
        assert run_cli(capsys, cache_dir, *argv) == cold


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["orbits", "cdp", "--n", "8", "--w", "8"], 0),
            (["lyndon", "params", "--sizes-file", "{sizes}"], 1),
        ],
        ids=["orbits", "failing lyndon params"],
    )
    def test_reader_closes_after_ten_bytes(self, tmp_path, argv, exit_code):
        # Both payloads exceed a pipe buffer, so the child's write meets the closed pipe.
        sizes = tmp_path / "sizes"
        sizes.write_text(",".join(["1", "2", "5"] + ["7"] * 20000))
        argv = [arg.format(sizes=sizes) for arg in argv]
        proc = subprocess.Popen(
            **child_kwargs("-m", "cyclicsieve.cli", "--no-cache", *argv),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == exit_code
        assert "Traceback" not in err and "Exception ignored" not in err
        reasons = [json.loads(line) for line in err.splitlines()]
        assert reasons == ([] if exit_code == 0 else [{"error": "sizes admit no Lyndon parameters", "exit": 1}])


class TestExitCodes:
    def test_usage_error_emits_json_reason(self, capsys, cache_dir):
        code, _, err = run_cli(capsys, cache_dir, "verify", "cdp", "--n", "3")
        assert code == 2
        reason = json.loads(err.strip().splitlines()[-1])
        assert reason["exit"] == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_verification_failure_exits_one(self, capsys, cache_dir):
        code, _, err = run_cli(capsys, cache_dir, "lyndon", "params", "--sizes", "1,2,5")
        assert code == 1
        reason = json.loads(err.strip().splitlines()[-1])
        assert reason["exit"] == 1

    def test_internal_fault_exits_three_and_is_not_cached(self, capsys, cache_dir, monkeypatch):
        # A folding kernel off by one makes the two sieving routes disagree.
        real = csp.mod_cyclic
        monkeypatch.setattr(csp, "mod_cyclic", lambda f, n: tuple(c + 1 for c in real(f, n)))
        code, out, err = run_cli(capsys, cache_dir, "verify", "bw", "--n", "6")
        assert (code, out) == (3, "")
        [line] = err.splitlines()
        reason = json.loads(line)
        assert reason["exit"] == 3
        assert reason["error"].startswith("internal error: DualRouteError: ")
        assert not pathlib.Path(cache_dir).exists() or list(pathlib.Path(cache_dir).iterdir()) == []

    def test_a_kernel_value_error_is_an_internal_fault_not_a_usage_error(self, capsys, cache_dir, monkeypatch):
        def broken(n):
            raise ValueError("kernel bug")

        monkeypatch.setattr(csp, "cmp_q", broken)
        code, out, err = run_cli(capsys, cache_dir, "verify", "cmp", "--n", "5")
        assert (code, out) == (3, "")
        assert [json.loads(line) for line in err.splitlines()] == [{"error": "internal error: ValueError: kernel bug", "exit": 3}]
        assert not pathlib.Path(cache_dir).exists() or list(pathlib.Path(cache_dir).iterdir()) == []

    def test_a_subset_sieving_fault_exits_three(self, capsys, cache_dir, monkeypatch):
        # avl is subset sieving; an evaluation kernel off by one at q = 1 is
        # caught by the dual-route guard, not reported as a failing verdict.
        real = csp.eval_at_unity
        monkeypatch.setattr(csp, "eval_at_unity", lambda f, m: real(f, m) + (m == 1))
        code, out, err = run_cli(capsys, cache_dir, "--no-cache", "verify", "avl", "--n", "7", "--w", "3")
        assert (code, out) == (3, "")
        assert json.loads(err)["error"].startswith("internal error: DualRouteError: ")

    def test_payload_that_breaks_its_schema_exits_three_and_is_not_cached(self, capsys, cache_dir, monkeypatch):
        # A payload builder that emits an int where the schema wants a string.
        real = cli.payload_count
        monkeypatch.setattr(cli, "payload_count", lambda n, w, q: {**real(n, w, q), "n": n})
        code, out, err = run_cli(capsys, cache_dir, "count", "--n", "3", "--w", "3")
        assert (code, out) == (3, "")
        [line] = err.splitlines()
        assert json.loads(line) == {"error": "internal error: SchemaError: $.n: 3 is not of type 'string'", "exit": 3}
        assert not pathlib.Path(cache_dir).exists() or list(pathlib.Path(cache_dir).iterdir()) == []


def dropped(index, real=None):
    """A necklace generator (by default cdp_necklaces) that loses its index-th necklace."""
    real = real or csp.cdp_necklaces
    return lambda *args, **kwargs: (pair for i, pair in enumerate(real(*args, **kwargs)) if i != index)


def misreported(index, period, real=None):
    """A necklace generator (by default cdp_necklaces) that reports `period` for its index-th necklace."""
    real = real or csp.cdp_necklaces
    return lambda *args, **kwargs: ((x, period if i == index else p) for i, (x, p) in enumerate(real(*args, **kwargs)))


class TestNecklaceMutations:
    """A necklace generator that loses a class or misreports a size never passes."""

    # CDP(6, 3) has 60 necklaces; those at 0, 1, 9 and 22 have periods 1, 6, 3 and 2.
    @pytest.mark.parametrize("index", [0, 1, 9, 22, 59])
    def test_a_dropped_necklace_fails_verify(self, capsys, cache_dir, monkeypatch, index):
        monkeypatch.setattr(csp, "cdp_necklaces", dropped(index))
        code, out, err = run_cli(capsys, cache_dir, "verify", "cdp", "--n", "6", "--w", "3")
        assert code == 1
        assert payload_of(out)["report"]["verdict"] == "fail"
        assert json.loads(err.strip().splitlines()[-1])["exit"] == 1

    @pytest.mark.parametrize("index", [0, 1, 9, 22])
    def test_a_wrong_period_fails_verify(self, capsys, cache_dir, monkeypatch, index):
        true_period = list(csp.cdp_necklaces(6, 3))[index][1]
        for period in (1, 2, 3, 6):
            if period == true_period:
                continue
            monkeypatch.setattr(csp, "cdp_necklaces", misreported(index, period))
            code, out, _ = run_cli(capsys, cache_dir, "--no-cache", "verify", "cdp", "--n", "6", "--w", "3")
            assert code == 1, (index, period)
            assert payload_of(out)["report"]["verdict"] == "fail"

    def test_a_period_that_does_not_divide_n_is_refused(self, capsys, cache_dir, monkeypatch):
        monkeypatch.setattr(csp, "cdp_necklaces", misreported(1, 4))
        code, out, err = run_cli(capsys, cache_dir, "verify", "cdp", "--n", "6", "--w", "3")
        assert (code, out) == (3, "")
        assert "orbit size 4 does not divide 6" in err

    def test_a_dropped_necklace_fails_the_lyndon_check(self, capsys, cache_dir, monkeypatch):
        monkeypatch.setattr(csp, "cdp_necklaces", dropped(3))
        code, out, _ = run_cli(capsys, cache_dir, "lyndon", "check", "--family", "cdp", "--w", "3", "--max-n", "6")
        assert code == 1
        assert payload_of(out)["verdict"] == "fail"

    def test_a_wrong_period_breaks_orbits(self, capsys, cache_dir, monkeypatch):
        monkeypatch.setattr(csp, "cdp_necklaces", misreported(1, 3))
        code, out, err = run_cli(capsys, cache_dir, "orbits", "cdp", "--n", "6", "--w", "3")
        assert (code, out) == (3, "")
        assert "does not close after exactly 3 steps" in err

    def test_a_repeated_class_breaks_orbits(self, capsys, cache_dir, monkeypatch):
        # Class 9 of CDP(6, 3), (0,0,1,0,0,1), yielded again in place of
        # class 27, (0,1,1,0,1,1); both have size 3.
        classes = list(csp.cdp_necklaces(6, 3))
        assert [size for _, size in (classes[9], classes[27])] == [3, 3]
        repeated = classes[:27] + [classes[9]] + classes[28:]
        monkeypatch.setattr(csp, "cdp_necklaces", lambda n, w: iter(repeated))
        code, out, err = run_cli(capsys, cache_dir, "--no-cache", "orbits", "cdp", "--n", "6", "--w", "3", "--poly")
        assert (code, out) == (3, "")
        assert json.loads(err)["error"].startswith("internal error: OrbitError: necklace (0, 0, 1, 0, 0, 1) is not ")
        # verify reads only the class sizes, and those are still right, so it still passes.
        code, out, _ = run_cli(capsys, cache_dir, "--no-cache", "verify", "cdp", "--n", "6", "--w", "3")
        assert code == 0
        assert payload_of(out)["report"]["verdict"] == "pass"


class TestCensusMutations:
    """A census of bw, cmp, avl or words that loses an element or misreports a size never passes."""

    # The twisted shift on 6-bit ints has 12 orbits; those at 0 and 9 have sizes 6 and 2.
    @pytest.mark.parametrize("index", [0, 9, 11])
    def test_a_dropped_bw_necklace_fails_verify_and_orbits_poly(self, capsys, cache_dir, monkeypatch, index):
        monkeypatch.setattr(csp, "twisted_necklaces", dropped(index, csp.twisted_necklaces))
        code, out, err = run_cli(capsys, cache_dir, "verify", "bw", "--n", "6")
        assert code == 1
        assert payload_of(out)["report"]["verdict"] == "fail"
        code, out, err = run_cli(capsys, cache_dir, "orbits", "bw", "--n", "6", "--poly")
        assert code == 1
        assert payload_of(out)["poly_match"] is False
        assert json.loads(err.strip().splitlines()[-1]) == {
            "error": "closed polynomial does not match the orbit polynomial",
            "exit": 1,
        }

    @pytest.mark.parametrize("index", [0, 5])
    def test_a_dropped_cmp_necklace_fails_verify(self, capsys, cache_dir, monkeypatch, index):
        monkeypatch.setattr(csp, "twisted_necklaces", dropped(index, csp.twisted_necklaces))
        code, out, _ = run_cli(capsys, cache_dir, "verify", "cmp", "--n", "6")
        assert code == 1
        assert payload_of(out)["report"]["verdict"] == "fail"

    @pytest.mark.parametrize("target", ["bw", "cmp"])
    def test_a_wrong_size_fails_verify(self, capsys, cache_dir, monkeypatch, target):
        for index, size in [(0, 3), (0, 1)]:
            monkeypatch.setattr(csp, "twisted_necklaces", misreported(index, size, csp.twisted_necklaces))
            code, out, _ = run_cli(capsys, cache_dir, "--no-cache", "verify", target, "--n", "6")
            assert code == 1, (index, size)
            assert payload_of(out)["report"]["verdict"] == "fail"

    @pytest.mark.parametrize("target", ["bw", "cmp"])
    def test_a_size_that_does_not_divide_n_is_an_internal_fault(self, capsys, cache_dir, monkeypatch, target):
        monkeypatch.setattr(csp, "twisted_necklaces", misreported(0, 4, csp.twisted_necklaces))
        code, out, err = run_cli(capsys, cache_dir, "verify", target, "--n", "6")
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "internal error: OrbitError: orbit size 4 does not divide 6", "exit": 3}

    def test_a_necklace_that_is_not_least_breaks_orbits(self, capsys, cache_dir, monkeypatch):
        # The last orbit is named by its successor under the shift, which is also in it but larger.
        real = csp.twisted_necklaces

        def not_least(n, odd=False):
            pairs = list(real(n, odd))
            v, size = pairs[-1]
            return iter(pairs[:-1] + [(actions.twisted_shift_bits(v, n), size)])

        monkeypatch.setattr(csp, "twisted_necklaces", not_least)
        code, out, err = run_cli(capsys, cache_dir, "--no-cache", "orbits", "bw", "--n", "6")
        assert (code, out) == (3, "")
        assert "is not its orbit's least element" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv", [["verify", "bw", "--n", "6"], ["verify", "cmp", "--n", "6"], ["orbits", "bw", "--n", "6"]])
    def test_a_step_that_is_not_a_bijection_is_an_internal_fault(self, capsys, cache_dir, monkeypatch, argv):
        real = actions.twisted_shift_bits
        monkeypatch.setattr(actions, "twisted_shift_bits", lambda v, n: real(v, n) & ~1)
        code, out, err = run_cli(capsys, cache_dir, *argv)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"].startswith("internal error: OrbitError: twisted shift is not a bijection near ")

    @pytest.mark.parametrize("index", [0, 7])
    def test_a_dropped_avoiding_word_fails_verify(self, capsys, cache_dir, monkeypatch, index):
        real = csp.enumerate_avl
        monkeypatch.setattr(csp, "enumerate_avl", lambda n, w: (x for i, x in enumerate(real(n, w)) if i != index))
        code, out, _ = run_cli(capsys, cache_dir, "verify", "avl", "--n", "5", "--w", "2")
        assert code == 1
        assert payload_of(out)["report"]["verdict"] == "fail"

    # Dropping word 0 of every content fails every member; word 5 exists first in content (2, 2), at n = 4.
    @pytest.mark.parametrize("index, verdicts", [(0, [False] * 4), (5, [True] * 3 + [False])])
    def test_a_dropped_word_fails_verify_and_the_word_family(self, capsys, cache_dir, monkeypatch, index, verdicts):
        real = csp.enumerate_words
        monkeypatch.setattr(csp, "enumerate_words", lambda mu, letters: (x for i, x in enumerate(real(mu, letters)) if i != index))
        code, out, _ = run_cli(capsys, cache_dir, "verify", "words", "--content", "2,2")
        assert code == 1
        assert payload_of(out)["report"]["verdict"] == "fail"
        code, out, _ = run_cli(capsys, cache_dir, "lyndon", "check", "--family", "binary-words", "--max-n", "4")
        assert code == 1
        assert payload_of(out)["member_verdicts"] == verdicts

    def test_a_wrong_avoiding_word_period_fails_verify(self, capsys, cache_dir, monkeypatch):
        real = csp.rotation_census

        def shifted(words, n, step):
            census = real(words, n, step)
            census[n] -= 1
            census[1] = census.get(1, 0) + 1
            return census

        monkeypatch.setattr(csp, "rotation_census", shifted)
        code, out, _ = run_cli(capsys, cache_dir, "verify", "avl", "--n", "5", "--w", "2")
        assert code == 1
        assert payload_of(out)["report"]["verdict"] == "fail"


class TestFileErrors:
    def test_missing_sizes_file_is_usage_error(self, capsys, cache_dir, tmp_path):
        code, out, err = run_cli(capsys, cache_dir, "lyndon", "params", "--sizes-file", str(tmp_path / "missing"))
        assert (code, out) == (2, "")
        [reason] = [json.loads(line) for line in err.splitlines()]
        assert reason["exit"] == 2
        assert reason["error"].startswith("cannot read --sizes-file: ")

    def test_undecodable_sizes_file_is_usage_error(self, capsys, cache_dir, tmp_path):
        sizes = tmp_path / "sizes.txt"
        sizes.write_bytes(b"2,4,\xff\xfe")
        code, out, err = run_cli(capsys, cache_dir, "lyndon", "params", "--sizes-file", str(sizes))
        assert (code, out) == (2, "")
        [reason] = [json.loads(line) for line in err.splitlines()]
        assert reason["exit"] == 2
        assert reason["error"].startswith("cannot read --sizes-file: ")

    @pytest.mark.parametrize("exists", [True, False], ids=["file", "missing file"])
    def test_sizes_with_sizes_file_is_usage_error(self, capsys, cache_dir, tmp_path, exists):
        # Refused before the file is opened, so a missing file gives the same error.
        sizes = tmp_path / "sizes.txt"
        if exists:
            sizes.write_text("1,2,5\n")
        code, out, err = run_cli(capsys, cache_dir, "lyndon", "params", "--sizes", "2,4,8", "--sizes-file", str(sizes))
        assert (code, out) == (2, "")
        assert err == reason("give --sizes or --sizes-file, not both")
        assert not pathlib.Path(cache_dir).exists() or list(pathlib.Path(cache_dir).iterdir()) == []

    @pytest.mark.parametrize(
        "argv", [["verify", "cmp", "--n", "4"], ["count", "--w", "3", "--max-n", "4"]], ids=["verify", "count"]
    )
    def test_unwritable_csv_is_usage_error(self, capsys, cache_dir, tmp_path, argv):
        code, out, err = run_cli(capsys, cache_dir, *argv, "--csv", str(tmp_path / "missing" / "x.csv"))
        assert (code, out) == (2, "")
        [reason] = [json.loads(line) for line in err.splitlines()]
        assert reason["exit"] == 2
        assert reason["error"].startswith("cannot write --csv: ")
        # Refused before the cache is read: nothing is computed or cached.
        assert not pathlib.Path(cache_dir).exists() or list(pathlib.Path(cache_dir).iterdir()) == []

    @pytest.mark.parametrize(
        "argv, error",
        [(["verify", "cdp", "--n", "10", "--w", "2"], "verify cdp is limited to n <= 9"),
         (["count", "--w", "3", "--max-n", "501"], "count --max-n is limited to 1 <= max-n <= 500")],
        ids=["verify", "count"],
    )
    def test_csv_check_neither_makes_nor_truncates_the_file(self, capsys, cache_dir, tmp_path, argv, error):
        # The path passes the look before the cache is read, and the request is refused
        # on the miss: an existing file keeps its text and a new one is not made.
        kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
        kept.write_text("old\n")
        for target in (kept, new):
            assert run_cli(capsys, cache_dir, *argv, "--csv", str(target)) == (2, "", reason(error))
        assert kept.read_text() == "old\n"
        assert not new.exists()

    def test_table_with_csv_is_usage_error(self, capsys, cache_dir, tmp_path):
        # Refused before the cache is read: no CSV file is written and nothing is cached.
        csv = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, cache_dir, "verify", "cdp", "--n", "4", "--w", "2", "--table", "--csv", str(csv))
        assert (code, out) == (2, "")
        assert err == reason("give --table or --csv, not both")
        assert not csv.exists()
        assert not pathlib.Path(cache_dir).exists() or list(pathlib.Path(cache_dir).iterdir()) == []


# The first value past each size guard.
PAST_GUARDS = [
    (["count", "--n", "4001", "--w", "3"], "count is limited to 1 <= n <= 4000"),
    (["count", "--n", "151", "--w", "3", "--q"], "count --q is limited to 1 <= n <= 150"),
    (["count", "--w", "3", "--max-n", "501"], "count --max-n is limited to 1 <= max-n <= 500"),
    # 10!/2^3 = 453600 words, the smallest carrier above 9! = 362880 with n <= 10
    (["verify", "words", "--content", "2,2,2,1,1,1,1"], "verify words is limited to 362880 words"),
    (["orbits", "words", "--content", "2,2,2,1,1,1,1"], "orbits words is limited to 362880 words"),
    # |CDP(9, 19)| = 379438, the smallest CDP(9, w) above 9! (|CDP(9, 18)| = 355128)
    (["verify", "cdp", "--n", "9", "--w", "19"], "verify cdp is limited to 362880 area sequences"),
    (["orbits", "cdp", "--n", "9", "--w", "19"], "orbits cdp is limited to 362880 area sequences"),
    (["lyndon", "check", "--family", "cdp", "--w", "19", "--max-n", "9"], "lyndon check --family cdp is limited to 362880 area sequences"),
    # A width below 1 is refused before the carrier is sized.
    (["verify", "cdp", "--n", "3", "--w", "0"], "n and w must be positive"),
    (["lyndon", "check", "--family", "cdp", "--w", "0", "--max-n", "3"], "n and w must be positive"),
    # The carrier of lyndon construct has sum over d | n of d * t_d elements.
    (["lyndon", "construct", "--t", "30001", "--n", "1"], "lyndon construct is limited to 30000 elements"),
    (["lyndon", "construct", "--t", "0,15001", "--n", "2"], "lyndon construct is limited to 30000 elements"),
    (["lyndon", "construct", "--t", ",".join(["1"] * 2521), "--n", "2521"], "lyndon construct is limited to 1 <= n <= 2520"),
    (["lyndon", "params", "--sizes", ",".join(["1"] * 80001)], "lyndon params is limited to 80000 sizes"),
    # An integer of more than 4300 digits, past the interpreter's int() limit, is refused by its length.
    (["lyndon", "params", "--sizes", "2," + "1" * 4301], "sizes are limited to 4300 digits"),
    (["verify", "words", "--content", "1" * 4301 + ",1"], "--content parts are limited to 4300 digits"),
    (["orbits", "words", "--content", "1," + "0" * 4301], "--content parts are limited to 4300 digits"),
    (["lyndon", "construct", "--t", "1," + "1" * 4301, "--n", "2"], "--t values are limited to 4300 digits"),
    # argparse refuses an --n, --w or --max-n of more than 4300 digits by its length, without echoing it.
    (["count", "--n", "1" * 4301, "--w", "3"], "argument --n: integers are limited to 4300 digits"),
    (["verify", "cdp", "--n", "3", "--w", "-" + "9" * 4301], "argument --w: integers are limited to 4300 digits"),
    (["lyndon", "check", "--family", "cdp", "--w", "3", "--max-n", " " + "0" * 4301], "argument --max-n: integers are limited to 4300 digits"),
    # Any other bad value is quoted as argparse quotes it, cut to 40 characters, however long it is.
    (["homomesy", "--n", "x" * 5000], "argument --n: invalid int value: '" + "x" * 40 + "...'"),
    (["homomesy", "--n", "x" * 4300], "argument --n: invalid int value: '" + "x" * 40 + "...'"),
    (["count", "--n", "x" * 4301, "--w", "3"], "argument --n: invalid int value: '" + "x" * 40 + "...'"),
    (["verify", "cdp", "--n", "3", "--w", "+-" + "9" * 4301], "argument --w: invalid int value: '+-" + "9" * 38 + "...'"),
    # A run of signs is malformed, however many digits follow.
    (["verify", "words", "--content", "+-" + "1" * 4301], "bad content '+-" + "1" * 38 + "...': expected comma-separated integers"),
    (["lyndon", "params", "--sizes", "2,--" + "1" * 4301], "sizes must be integers"),
    (["selftest", "--max-n", "0"], "selftest is limited to 1 <= max-n <= 12"),
    (["selftest", "--max-n", "13"], "selftest is limited to 1 <= max-n <= 12"),
    # Invalid twice over: the refusal that comes first wins.
    (["lyndon", "construct", "--t", ",".join(["30001"] + ["0"] * 2599), "--n", "2600"], "lyndon construct is limited to 30000 elements"),
    (["lyndon", "check", "--family", "cdp", "--w", "0", "--max-n", "11"], "lyndon check is limited to 1 <= max-n <= 10"),
    (["count", "--n", "4001", "--w", "0"], "--w must be positive"),
    # The sizes are counted before any is parsed.
    (["lyndon", "params", "--sizes", ",".join(["x"] * 80001)], "lyndon params is limited to 80000 sizes"),
]


class TestGuards:
    @pytest.mark.parametrize("argv, error", PAST_GUARDS, ids=[" ".join(g[0])[:80] for g in PAST_GUARDS])
    def test_first_value_past_the_guard_is_usage_error(self, capsys, cache_dir, argv, error):
        code, out, err = run_cli(capsys, cache_dir, *argv)
        assert (code, out) == (2, "")
        assert err == reason(error)

    def test_a_long_sizes_file_is_refused_in_bounded_memory(self, tmp_path):
        # 5,000,000 sizes: a split into every part peaks at 93 MiB of Python heap, the bounded scan at 19.
        sizes = tmp_path / "sizes.txt"
        sizes.write_text("1\n" * 5_000_000)
        code = (
            "import sys, tracemalloc; from cyclicsieve.cli import main; tracemalloc.start(); code = main(sys.argv[1:]); "
            "print(tracemalloc.get_traced_memory()[1], file=sys.stderr); sys.exit(code)"
        )
        argv = ["--no-cache", "lyndon", "params", "--sizes-file", str(sizes)]
        result = subprocess.run(**child_kwargs("-c", code, *argv), capture_output=True, text=True)
        refusal, peak = result.stderr.splitlines()
        assert (result.returncode, result.stdout) == (2, "")
        assert refusal + "\n" == reason("lyndon params is limited to 80000 sizes")
        assert int(peak) < 40 * 2**20

    def test_lyndon_params_admits_its_bound_from_either_flag(self, capsys, cache_dir, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "MAX_SIZES", 3)
        sizes = tmp_path / "sizes.txt"
        for text, code in [("2\n4\n8\n", 0), ("2\n4\n8\n16\n", 2)]:
            sizes.write_text(text)
            assert run_cli(capsys, cache_dir, "--no-cache", "lyndon", "params", "--sizes-file", str(sizes))[0] == code
            assert run_cli(capsys, cache_dir, "--no-cache", "lyndon", "params", "--sizes", text.replace("\n", ","))[0] == code


    def test_a_4300_digit_integer_is_admitted(self, capsys, cache_dir):
        code, out, _ = run_cli(capsys, cache_dir, "--no-cache", "lyndon", "params", "--sizes", "1" * 4300)
        assert code == 0
        assert payload_of(out)["sizes"] == ["1" * 4300]

    def test_a_4300_digit_flag_value_reaches_the_size_guard(self, capsys, cache_dir):
        for value in ("1" * 4300, " +" + "1" * 4300 + " "):
            code, out, err = run_cli(capsys, cache_dir, "count", "--n", value, "--w", "3")
            assert (code, out, err) == (2, "", reason("count is limited to 1 <= n <= 4000"))

    def test_lyndon_params_counts_the_sizes_before_parsing_them(self, capsys, cache_dir, monkeypatch):
        parse = cli._parse_ints

        def bounded(parts, *args):
            assert len(parts) <= cli.MAX_SIZES, "more sizes parsed than lyndon params admits"
            return parse(parts, *args)

        monkeypatch.setattr(cli, "_parse_ints", bounded)
        monkeypatch.setattr(cli, "MAX_SIZES", 3)
        code, out, err = run_cli(capsys, cache_dir, "--no-cache", "lyndon", "params", "--sizes", "2,4,x,16")
        assert (code, out, err) == (2, "", reason("lyndon params is limited to 3 sizes"))
        assert run_cli(capsys, cache_dir, "--no-cache", "lyndon", "params", "--sizes", "2,4,8")[0] == 0

    def test_bad_content_echoes_a_short_prefix(self, capsys, cache_dir):
        code, out, err = run_cli(capsys, cache_dir, "verify", "words", "--content", "x" * 5000)
        assert (code, out) == (2, "")
        assert err == reason(f"bad content {'x' * 40 + '...'!r}: expected comma-separated integers")

    @pytest.mark.parametrize("family, w", [("cdp", 2), ("cdp", 3), ("binary-words", None), ("ternary-words", None), ("cmp", None)])
    def test_each_family_is_refused_by_its_own_member_size(self, capsys, cache_dir, monkeypatch, family, w):
        monkeypatch.setattr(cli, "MAX_CARRIER", 50)
        _, unit = cli.TARGET_ARGS[csp.FAMILIES[family][0]][3]
        members = csp.family_members(family, w, 8)
        flags = [] if w is None else ["--w", str(w)]
        for max_n in range(1, 9):
            code, _, err = run_cli(capsys, cache_dir, "--no-cache", "lyndon", "check", "--family", family, *flags, "--max-n", str(max_n))
            if sum(members[max_n - 1][0].values()) > 50:
                assert (code, err) == (2, reason(f"lyndon check --family {family} is limited to 50 {unit}")), max_n
            else:
                assert code in (0, 1), (max_n, err)  # the cmp family is not Lyndon-like: exit 1, not refused


class TestCacheFailures:
    def test_uncreatable_cache_dir_runs_without_cache(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code, out, err = run_cli(capsys, str(blocker / "cache"), "count", "--n", "3", "--w", "3")
        assert code == 0
        assert payload_of(out)["count"] == "18"
        lines = err.strip().splitlines()
        assert len(lines) == 1
        warning = json.loads(lines[0])
        assert warning["action"] == "running without cache"
        assert "warning" in warning

    def test_uncreatable_cache_dir_keeps_math_exit_code(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_cli(capsys, str(blocker / "cache"), "lyndon", "params", "--sizes", "1,2,5")
        assert code == 1
        assert json.loads(err.strip().splitlines()[-1])["exit"] == 1

    @pytest.mark.parametrize(
        "argv, exit_code, damage",
        [
            (["count", "--n", "3", "--w", "3"], 0, "directory"),
            (["lyndon", "params", "--sizes", "1,2,5"], 1, "directory"),
            (["count", "--n", "3", "--w", "3"], 0, "json list"),
        ],
    )
    def test_unreadable_entry_is_recomputed(self, capsys, cache_dir, argv, exit_code, damage):
        _, before, _ = run_cli(capsys, cache_dir, *argv)
        entry = next(pathlib.Path(cache_dir).glob("*.json"))
        if damage == "directory":
            entry.unlink()
            entry.mkdir()
        else:
            entry.write_text("[]")
        code, after, err = run_cli(capsys, cache_dir, *argv)
        assert code == exit_code
        assert after == before
        warnings = [json.loads(line) for line in err.strip().splitlines() if "warning" in json.loads(line)]
        assert len(warnings) == 1
        assert warnings[0]["action"] == "recomputing"
        assert "corrupted cache entry" in warnings[0]["warning"]

    def test_interleaved_writers_of_one_key(self, tmp_path, monkeypatch):
        # Writer B stores the same key between writer A's temp-file write
        # and A's rename; each must rename its own temp file.
        directory = tmp_path / "cache"
        a, b = ResultCache(directory), ResultCache(directory)
        payload = {"n": "2", "w": "2", "count": "7"}
        real_replace = os.replace
        nested = []

        def replace(src, dst):
            if not nested:
                nested.append(None)
                nested[0] = b.fetch("count", {"n": 2}, "count", lambda: (dict(payload), None))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert a.fetch("count", {"n": 2}, "count", lambda: (dict(payload), None)) == (text, None)
        assert nested == [(text, None)]
        entries = list(directory.glob("*.json"))
        assert len(entries) == 1
        assert list(directory.glob("*.tmp")) == []
        monkeypatch.setattr(os, "replace", real_replace)
        hit = ResultCache(directory).fetch("count", {"n": 2}, "count", lambda: pytest.fail("recomputed"))
        assert hit == (text, None)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_invalid_payload_is_rejected_and_not_cached(self, tmp_path, enabled):
        directory = tmp_path / "cache"
        cache = ResultCache(directory, enabled=enabled)
        with pytest.raises(jsonio.SchemaError):
            cache.fetch("count", {"n": 2}, "count", lambda: ({"count": 7}, None))
        assert not directory.exists() or not list(directory.iterdir())


# Exit code, stdout sha256 and stderr of each command.  Stdout must not
# change by a byte, cold or warm.  Criterion timings in the selftest log
# are masked; a warm selftest reads its payload from the cache and logs
# nothing.
SELFTEST_4_LOG = (
    "PASS criterion  1 [time] counting formula: |CDP(n,n)| matches formula for n<=4\n"
    "PASS criterion  2 [time] q-identity closed vs brute force: 18 cells, closed form == brute force\n"
    "PASS criterion  3 [time] wide-width three-term formula: three-term formula == double sum for n<=4\n"
    "PASS criterion  4 [time] main sieving theorem: 10 sieving triples pass with dual-route agreement\n"
    "PASS criterion  5 [time] fixed-point identity: 30 cells, |fixed| == |CDP(gcd(n,k),w)|\n"
    "PASS criterion  6 [time] diagonal-visit machinery: 744 alternating configurations, closed == brute force\n"
    "PASS criterion  7 [time] binary-word sieving: twisted-shift CSP and 2^d fixed-point rule hold for n<=4\n"
    "PASS criterion  8 [time] binary-word triple identity: forms A, B, C identical for n<=4\n"
    "PASS criterion  9 [time] Mobius paths: counts 2^(n-1), both sieving polynomials, and the folding congruence hold\n"
    "PASS criterion 10 [time] subset sieving on avoiding paths: 5 coprime pairs pass; closed AVL formula matches brute force\n"
    "PASS criterion 11 [time] orbit-count feasibility: 22 polynomials feasible with matching orbit counts\n"
    "PASS criterion 12 [time] Lyndon-like families: width 1..3 and binary/ternary families Lyndon-like to n=4; parameter extraction exact\n"
    "PASS criterion 13 [time] canonical construction: 20 random parameter vectors, all constructions pass to n=4\n"
    "PASS criterion 14 [time] homomesy: averages equal C(n+1,2) under zero-run rotation; two-step shift witness found at n=2\n"
    "PASS criterion 15 [time] kernel cross-checks: q-Lucas == cyclotomic reduction to n=8; Carlitz polynomial matches Dyck brute force\n"
)


def reason(error: str, code: int = 2, **extra) -> str:
    """One canonical JSON reason line, as the CLI writes it to stderr."""
    return json.dumps({"error": error, "exit": code, **extra}, sort_keys=True, separators=(",", ":")) + "\n"


GOLDEN = [
    (["orbits", "cdp", "--n", "6", "--w", "6", "--poly"], 0, "23d90a223d2233582be1fbf05c891b9a845ed31fe8e12150d6595175195164d8", ""),
    (["verify", "cdp", "--n", "7", "--w", "5"], 0, "9d0e6eabdcfcc8b861fafa9714c02bffdddd62133ee94a37da43aa134255a2bc", ""),
    (["orbits", "cmp", "--n", "6"], 0, "e0f15297e972b01b13a90477e67115be498f0c288f8d62ad2cd2d60f70bef22e", ""),
    (["homomesy", "--n", "5", "--action", "beta"], 0, "c7dd3c9404c52ac4d87f31f2c45445a537379404d0515905d89cc3f2c08f1e83", ""),
    (["lyndon", "check", "--family", "cdp", "--w", "3", "--max-n", "6"], 0, "29bf5157e4eb05c024e9c410deb5f4140455accd2e92c16b44a2426b1457de37", ""),
    (["count", "--n", "5", "--w", "3"], 0, "44dd2217661a2dcf227ee9b851e0f44b0fcf73d6c67429724152ce8a71955155", ""),
    (["count", "--n", "6", "--w", "4", "--q"], 0, "df17e33366985918ca335171d6e158e68ef0f2a023aa37ec9c548f88ed214cfb", ""),
    (["count", "--n", "40", "--w", "1000000", "--q"], 0, "e641ce735ffbe1255194019ca2f1f9de8185b0d1a850d36e8b37e7f6a03b2dce", ""),
    (["count", "--n", "9", "--w", "1", "--q"], 0, "227f797dac7f8959af6441d5788fc9a5b10b41a9446e76142c48e8dffe89100a", ""),
    (["count", "--w", "3", "--max-n", "12"], 0, "e4e8bda88200c4cb68aa2c7583b607846e290a16348b5d5cad2a32b694eb8bea", ""),
    (["count", "--w", "3", "--max-n", "12", "--bfile"], 0, "d520501f8c2aa93f42f8e15334a1d4f8b1e96f92e275d453f14dd00daf815e37", ""),
    (["count", "--n", "0", "--w", "3"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("count needs --n (positive) or --max-n")),
    # argparse's own refusal of a value that is not an integer.
    (["count", "--n", "12x", "--w", "3"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("argument --n: invalid int value: '12x'")),
    (["verify", "cdp", "--n", "3", "--w", "+-3"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("argument --w: invalid int value: '+-3'")),
    (["selftest", "--max-n", "1.5"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("argument --max-n: invalid int value: '1.5'")),
    (["count", "--n", "3", "--w", "3", "--bfile"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("--bfile needs --max-n")),
    (["count", "--n", "3", "--w", "3", "--csv", "out.csv"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("--csv needs --max-n")),
    (["count", "--w", "3", "--max-n", "4", "--q"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("--q cannot be used with --max-n")),
    (["count", "--n", "3", "--w", "3", "--max-n", "4"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("--n cannot be used with --max-n")),
    # An empty path is a path, not an absent flag.
    (["count", "--n", "3", "--w", "3", "--csv", ""], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("--csv needs --max-n")),
    (["count", "--w", "3", "--max-n", "3", "--csv", ""], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("cannot write --csv: [Errno 2] No such file or directory: ''")),
    (["verify", "cmp", "--n", "3", "--csv", ""], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("cannot write --csv: [Errno 2] No such file or directory: ''")),
    (["verify", "cmp", "--n", "3", "--table", "--csv", ""], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("give --table or --csv, not both")),
    (["lyndon", "params", "--sizes-file", ""], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("cannot read --sizes-file: [Errno 2] No such file or directory: ''")),
    (["--cache-dir", "", "count", "--n", "3", "--w", "3"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("--cache-dir must not be empty")),
    (["verify", "cdp", "--n", "6", "--w", "4"], 0, "34da8cdb009b23d6ec9404d63bbea941a1a56aa200ad44fd4136219f77501122", ""),
    (["verify", "cmp", "--n", "6"], 0, "c91bc62c5711d47e3b9a2ffef859b2dab34ac09bb63e558c2f2cabf6a0834f27", ""),
    (["verify", "bw", "--n", "6"], 0, "be78729cc1999ef40b882cefacf4111426b47092cd75ecd1368605dfd40235e8", ""),
    (["verify", "avl", "--n", "5", "--w", "2"], 0, "9bd833dfcf6e1842fcebd4c49bf95fb0855a34b125bed342b9bf1279a4cd200d", ""),
    (["verify", "avl", "--n", "8", "--w", "1"], 0, "f4c57fcbd41060f0831775c45ea8c944a9544cd50a97927048aae5a926801548", ""),
    (["verify", "words", "--content", "2,1,2"], 0, "b79ec365b56ec6334bd3c70ef51721785a58d6f12080adc34d7acdd32c59746a", ""),
    (["verify", "cmp", "--n", "5", "--table"], 0, "4844a3c9b3d8b3cb7da71b1e807038abcd4b979bb5856445f80255007838ebb3", ""),
    (["verify", "cdp", "--n", "4", "--w", "2", "--table", "--csv", "t.csv"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("give --table or --csv, not both")),
    (["verify", "avl", "--n", "4", "--w", "2"], 1, "bfb85d7fdda159608744e2262626c323aa278e879c7c5326d50a8e968def1a50", reason("verification failed", 1, first_mismatch="1")),
    (["verify", "cdp", "--n", "3"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("verify cdp needs --w")),
    (["verify", "bw", "--n", "1"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("verify bw needs --n at least 2")),
    (["verify", "words", "--n", "3"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("verify words needs --content")),
    (["verify", "words", "--content", "", "--n", "3"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("verify words needs --content")),
    (["verify", "cdp", "--n", "10", "--w", "3"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("verify cdp is limited to n <= 9")),
    (["verify", "avl", "--n", "3", "--w", "0"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("n and w must be positive")),
    (["verify", "words"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("verify words needs --content")),
    (["verify", "words", "--n", "9", "--content", "2,1"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("verify words does not read --n")),
    (["verify", "bw", "--n", "6", "--w", "3"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("verify bw does not read --w")),
    (["verify", "cdp", "--n", "5", "--w", "3", "--content", "1,2"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("verify cdp does not read --content")),
    (["orbits", "cmp", "--n", "5", "--w", "2"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("orbits cmp does not read --w")),
    (["orbits", "cdp", "--n", "4", "--w", "3"], 0, "b65a001c38d9bf6399c23a4739ee9640f5f89fd1390742b74b020819f1bae582", ""),
    (["orbits", "cdp", "--n", "4", "--w", "3", "--poly"], 0, "575d73474bb371732253ed7d48ef2ecc37c7a106a3889664d036e4adf3fd88ba", ""),
    (["orbits", "cmp", "--n", "5"], 0, "6ad6ed38864fde4684f85666a521ae97147904b99b47dc962e0bc7d27a45e175", ""),
    (["orbits", "cmp", "--n", "5", "--poly"], 0, "cb0c31d75428ea506b32fda8c66dfa24c6acdbc63dcb3456c8cf454895f56471", ""),
    (["orbits", "bw", "--n", "4"], 0, "42146d6380c30d45b872a43e9df60da29f2152b7dc74aae840c093f17b7e10aa", ""),
    (["orbits", "bw", "--n", "4", "--poly"], 0, "8b762c67559e2b8d77dcd5339541f751350fa3475aa8084e770496cb59173042", ""),
    (["orbits", "words", "--content", "2,2,1"], 0, "61a8d0dc7f77c96ed360495de06b6e6b0459d1aca503bf966afe7278ab4c1903", ""),
    (["orbits", "words", "--content", "2,2,1", "--poly"], 0, "801974f5c065242087c785fa5d52f96762df1af721db5a873f678ae2a0f184bb", ""),
    (["orbits", "bw", "--n", "1"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("orbits bw needs --n at least 2")),
    (["orbits", "cdp", "--n", "3", "--w", "0"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("n and w must be positive")),
    (["lyndon", "params", "--sizes", "2,4,8,16"], 0, "6f4c4124d1c2f1b1150d077b40bc0f370cc43dedbe5fb7ce609a3bb8dba436e7", ""),
    (["lyndon", "params", "--sizes", "1,2,5"], 1, "5733c757fa41db014616ecae976f702e222957f9c3e25dc517f4894e16f26bd4", reason("sizes admit no Lyndon parameters", 1)),
    (["lyndon", "params", "--sizes", "x"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("sizes must be integers")),
    (["lyndon", "check", "--family", "cdp", "--w", "2", "--max-n", "5"], 0, "e89c0a7b0751a46b24ff4a4c4f90c4d8f06e7bb3af49e87c4ef1a2bf7d2cda6b", ""),
    (["lyndon", "check", "--family", "binary-words", "--max-n", "5"], 0, "20195cfcfdbaf87e627e184fa01efd116dac75e12b9ff456478796174f303ed8", ""),
    (["lyndon", "check", "--family", "ternary-words", "--max-n", "4"], 0, "414d952bfdf78120d52e566e3bbfa07f0b1a6a318303a4638195e4345c24b8ef", ""),
    (["lyndon", "check", "--family", "cmp", "--max-n", "6"], 1, "e3cea980b14de70b284c061198f5b55dc10b640f3f0d2582e26006aaccdec993", reason("family is not Lyndon-like", 1)),
    (["lyndon", "check", "--family", "cdp", "--max-n", "3"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("lyndon check --family cdp needs --w")),
    (["lyndon", "check", "--family", "nope", "--max-n", "3"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("unknown family 'nope'; choose from ['binary-words', 'cdp', 'cmp', 'ternary-words']")),
    (["lyndon", "check", "--family", "cmp", "--w", "5", "--max-n", "4"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("lyndon check --family cmp does not read --w")),
    (["lyndon", "check", "--family", "cmp", "--w", "6", "--max-n", "4"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("lyndon check --family cmp does not read --w")),
    (["lyndon", "check", "--family", "binary-words", "--w", "2", "--max-n", "4"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("lyndon check --family binary-words does not read --w")),
    (["lyndon", "construct", "--t", "2,1,2,3", "--n", "4"], 0, "5623652a21d0e1d89a8e252ecb44e04032ac94983ca678239b5e9bc32afe3f55", ""),
    (["lyndon", "construct", "--t", "1", "--n", "2"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("--t must define t_d for every divisor d of n")),
    (["homomesy", "--n", "4", "--action", "alpha"], 0, "c741d602b8634fef9d55976c94a7c1ef202353ed1a8a3fac06d115ad77121f1f", ""),
    (["homomesy", "--n", "4", "--action", "beta"], 0, "9cdab6ba7ebcea1ba698eed3df26b32f46226e85da31064b021f9ace2310c1da", ""),
    (["homomesy", "--n", "8"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("homomesy is limited to 1 <= n <= 7")),
    (["selftest", "--max-n", "4"], 0, "2c47425dd68db12210e86e3abc65af826b9615cac01be6004b426167a779954c", SELFTEST_4_LOG),
    (["selftest", "--max-n", "0"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("selftest is limited to 1 <= max-n <= 12")),
    (["selftest", "--max-n", "13"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", reason("selftest is limited to 1 <= max-n <= 12")),
]


def masked(err: str) -> str:
    return re.sub(r"\[\s*\d+\.\d+s\]", "[time]", err)


class TestGoldenOutput:
    @pytest.mark.parametrize("argv, exit_code, digest, stderr", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
    def test_stdout_bytes_and_exit_code(self, capsys, cache_dir, argv, exit_code, digest, stderr):
        for run in ("cold", "warm"):
            code, out, err = run_cli(capsys, cache_dir, *argv)
            assert code == exit_code
            assert hashlib.sha256(out.encode()).hexdigest() == digest
            if run == "warm" and stderr is SELFTEST_4_LOG:
                stderr = ""
            assert masked(err) == stderr


def raising(name, *args):
    raise AssertionError(f"{name} ran for a refused request")


# Every exit-2 row above, a --csv path that cannot be written included.
REFUSED = [(argv, err) for argv, code, _, err in GOLDEN if code == 2]
REFUSED += [(argv, reason(error)) for argv, error in PAST_GUARDS]


class TestRefusalsPrecedePayloads:
    @pytest.mark.parametrize("argv, stderr", REFUSED, ids=[" ".join(r[0])[:80] for r in REFUSED])
    def test_refused_with_every_payload_function_raising(self, capsys, cache_dir, monkeypatch, argv, stderr):
        names = [name for name in vars(cli) if name.startswith("payload_")]
        assert len(names) == 9
        for name in names:
            monkeypatch.setattr(cli, name, partial(raising, name))
        assert run_cli(capsys, cache_dir, *argv) == (2, "", stderr)


class TestEmptyCacheDir:
    def run_child(self, home, *argv, **env):
        kwargs = child_kwargs("-m", "cyclicsieve.cli", *argv)
        kwargs["env"].update(HOME=str(home), **env)
        return subprocess.run(**kwargs, capture_output=True, text=True)

    def test_empty_cache_dir_is_refused_before_the_cache_is_built(self, tmp_path):
        result = self.run_child(tmp_path, "--cache-dir", "", "count", "--n", "3", "--w", "3")
        assert (result.returncode, result.stdout, result.stderr) == (2, "", reason("--cache-dir must not be empty"))
        assert list(tmp_path.iterdir()) == []

    def test_empty_environment_variable_is_the_default_directory(self, tmp_path):
        result = self.run_child(tmp_path, "count", "--n", "3", "--w", "3", CYCLIC_SIEVE_CACHE="")
        assert result.returncode == 0, result.stderr
        assert list((tmp_path / ".cache" / "cyclicsieve").glob("*.json"))


SCHEMAS = sorted(p.name.split(".")[0] for p in pathlib.Path(jsonio.__file__).parent.glob("schemas/*.schema.json"))


def schema_of(name: str) -> dict:
    return json.loads((pathlib.Path(jsonio.__file__).parent / "schemas" / f"{name}.schema.json").read_text())


@pytest.fixture(scope="module")
def golden_payloads():
    """(schema name, payload) of every payload the TestGoldenOutput commands validate."""
    seen = []
    real = jsonio.validate_payload
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonio, "validate_payload", lambda name, payload: (seen.append((name, payload)), real(name, payload)))
        for argv, *_ in GOLDEN:
            run_in_process(["--no-cache", *argv])
    return seen


# Values that break some schema node: a bool where an integer is wanted, an
# integral float, a bad pattern, null, the wrong container, the other
# alternative of a oneOf.
WRONG = [True, 3, 2.0, 2.5, "x", "-12", None, [], {}, {"nonconstant": ["1"]}]


def nodes(value, path=()):
    """The path of `value` and of its members; of an array, its first item only."""
    yield path
    if isinstance(value, dict):
        for key in list(value):
            yield from nodes(value[key], (*path, key))
    elif isinstance(value, list) and value:
        yield from nodes(value[0], (*path, 0))


def mutations(payload):
    """Apply each single-field mutation of `payload` in place, yield, and undo it.

    A member is replaced by each of WRONG or, in an object, deleted; an
    object gains an extra key.
    """
    for path in list(nodes(payload)):
        parent = payload
        for step in path[:-1]:
            parent = parent[step]
        original = parent[path[-1]] if path else payload
        if path:
            for value in WRONG:
                parent[path[-1]] = value
                yield
            if isinstance(parent, dict):
                del parent[path[-1]]
                yield
            parent[path[-1]] = original
        if isinstance(original, dict):
            original["extra"] = "1"
            yield
            del original["extra"]


def trimmed(value, keep=3):
    """A copy of `value` with every array cut to its first `keep` items; nodes() sees the same paths."""
    if isinstance(value, dict):
        return {key: trimmed(member, keep) for key, member in value.items()}
    if isinstance(value, list):
        return [trimmed(member, keep) for member in value[:keep]]
    return value


COUNT_PAYLOAD = {"n": "3", "w": "3", "count": "18"}
VERIFY_ROW = {"k": "1", "gcd": "1", "evaluation": "0", "fixed_count": "0", "match": True}


def verify_payload(**report):
    """A valid two-row verify payload, with `report`'s members replaced."""
    rows = {"order": "2", "rows": [VERIFY_ROW, VERIFY_ROW], "verdict": "pass", "first_mismatch": None, "warnings": []}
    return {"target": "cdp", "params": {}, "report": {**rows, **report}}


# A payload (for a schema name, or for an inline schema) with one fault, or
# two where the order in which they are found matters, and the error text.
BROKEN_PAYLOADS = [
    ("count", [], "$: [] is not of type 'object'"),
    ("verify", verify_payload(rows=[VERIFY_ROW, {**VERIFY_ROW, "match": "yes"}]), "$.report.rows[1].match: 'yes' is not of type 'boolean'"),
    ("lyndon_construct", {"n": "1", "t": {}, "carrier": [[1], [2, True]], "orbit_poly": [], "csp_verdict": "pass"}, "$.carrier[1][1]: True is not of type 'integer'"),
    ("lyndon_construct", {"n": "1", "t": {}, "carrier": [[2.0, 2.5]], "orbit_poly": [], "csp_verdict": "pass"}, "$.carrier[0][1]: 2.5 is not of type 'integer'"),
    ("count", {**COUNT_PAYLOAD, "count": "1.5"}, "$.count: '1.5' does not match '^-?[0-9]+$'"),
    ("count", {**COUNT_PAYLOAD, "n": "x" * 100}, "$.n: 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx... does not match '^-?[0-9]+$'"),
    ("lyndon_params", {"sizes": ["2"], "t": {"1": "x"}, "valid": True}, "$.t.1: 'x' does not match '^-?[0-9]+$'"),
    ("verify", verify_payload(verdict=True), "$.report.verdict: True is not one of ['pass', 'fail']"),
    ({"enum": [True]}, 1, "$: 1 is not one of [True]"),
    ("verify", verify_payload(first_mismatch=3), "$.report.first_mismatch: 3 matches 0 of the 2 oneOf alternatives"),
    ("verify", verify_payload(rows=[{**VERIFY_ROW, "evaluation": {"nonconstant": "1"}}]), "$.report.rows[0].evaluation: {'nonconstant': '1'} matches 0 of the 2 oneOf alternatives"),
    ({"oneOf": [{"type": "integer"}, {"enum": [1, 2]}]}, 1, "$: 1 matches 2 of the 2 oneOf alternatives"),
    ("count", {"n": "3", "w": "3"}, "$: missing required property 'count'"),
    ("lyndon_params", {"sizes": ["2"], "t": {}, "valid": False, "failure_value": {"num": "1"}}, "$.failure_value: missing required property 'den'"),
    ("count", {**COUNT_PAYLOAD, "extra": "1"}, "$: unexpected property 'extra'"),
    ("count", {"extra": "1", **COUNT_PAYLOAD, "n": 3}, "$: unexpected property 'extra'"),
    ("count", {**COUNT_PAYLOAD, "n": 3, "extra": "1"}, "$.n: 3 is not of type 'string'"),
    ("lyndon_check", {"family": "cmp", "params": {}, "max_n": "2", "member_verdicts": [True], "relation_failures": [["1"], ["2", 3]], "verdict": "pass"}, "$.relation_failures[1][1]: 3 is not of type 'string'"),
]

# A schema the checker refuses to compile, and the refusal text.
REFUSED_SCHEMAS = [
    ({"type": "integer", "minimum": 0}, "$: unsupported schema keyword 'minimum'"),
    ({"type": "number"}, "$: unsupported schema type 'number'"),
    ({"enum": [[1]]}, "$: unsupported non-scalar enum option"),
    ({"oneOf": [{"type": "null"}, {"minimum": 0}]}, "$.oneOf[1]: unsupported schema keyword 'minimum'"),
    ({"properties": {"n": {"type": "integer", "minimum": 0}}}, "$.properties.n: unsupported schema keyword 'minimum'"),
    ({"additionalProperties": {"format": "date"}}, "$.additionalProperties: unsupported schema keyword 'format'"),
    ({"items": {"oneOf": [{"type": "null"}, {"type": "number"}]}}, "$.items.oneOf[1]: unsupported schema type 'number'"),
    ({"items": {"properties": {"a": {"enum": [{}]}}}}, "$.items.properties.a: unsupported non-scalar enum option"),
]


class TestSchemaChecker:
    def test_the_nine_schemas_compile(self):
        assert len(SCHEMAS) == 9
        for name in SCHEMAS:
            jsonio.compile_schema(schema_of(name))

    @pytest.mark.parametrize(
        "schema",
        [
            {"type": "integer", "minimum": 0},
            {"properties": {"n": {"type": "integer", "minimum": 0}}},
            {"items": {"oneOf": [{"type": "null"}, {"type": "number"}]}},
        ],
    )
    def test_unsupported_keyword_or_type_is_refused(self, schema):
        with pytest.raises(jsonio.SchemaError):
            jsonio.compile_schema(schema)

    def test_agrees_with_jsonschema_on_golden_payloads_and_mutations(self, golden_payloads):
        validators = {name: jsonschema.Draft202012Validator(schema_of(name)) for name in SCHEMAS}
        checks = {name: jsonio.compile_schema(schema_of(name)) for name in SCHEMAS}

        def agree(name, payload):
            try:
                checks[name](payload)
                valid = True
            except jsonio.SchemaError:
                valid = False
            assert valid == validators[name].is_valid(payload), (name, payload)
            return valid

        assert {name for name, _ in golden_payloads} == set(SCHEMAS)
        verdicts = []
        distinct = {(name, jsonio.dumps_canonical(payload)): payload for name, payload in golden_payloads}
        for (name, _), payload in distinct.items():
            assert agree(name, payload)
            # Each mutation is validated whole, so it is made on a copy with
            # short arrays (the 36 kB `orbits cdp --n 6 --w 6 --poly` payload
            # alone took most of this test); the mutated paths are the same.
            small = trimmed(payload)
            assert list(nodes(small)) == list(nodes(payload))
            verdicts += [agree(name, small) for _ in mutations(small)]
        assert verdicts.count(True) and verdicts.count(False) > len(verdicts) // 2

    def test_error_gives_the_json_path(self):
        payload = {"n": "3", "w": "3", "count": "18", "q_poly": ["1", "2", 3]}
        with pytest.raises(jsonio.SchemaError) as exc:
            jsonio.validate_payload("count", payload)
        assert str(exc.value) == "$.q_poly[2]: 3 is not of type 'string'"
        assert not isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("name, payload, text", BROKEN_PAYLOADS, ids=[text for _, _, text in BROKEN_PAYLOADS])
    def test_error_text_of_each_keyword(self, name, payload, text):
        check = jsonio.compile_schema(name) if isinstance(name, dict) else partial(jsonio.validate_payload, name)
        with pytest.raises(jsonio.SchemaError) as exc:
            check(payload)
        assert str(exc.value) == text

    @pytest.mark.parametrize("schema, text", REFUSED_SCHEMAS, ids=[text for _, text in REFUSED_SCHEMAS])
    def test_refusal_text_gives_the_schema_path(self, schema, text):
        with pytest.raises(jsonio.SchemaError) as exc:
            jsonio.compile_schema(schema)
        assert str(exc.value) == text



def opt(flag, values):
    """`flag value`, or one time in four nothing, so a command may lack an argument."""
    return st.tuples(st.integers(0, 3), values).map(lambda t: [flag, str(t[1])] if t[0] else [])


def joined(values, max_size):
    return st.lists(values, min_size=1, max_size=max_size).map(lambda vs: ",".join(map(str, vs)))


SMALL = st.integers(-1, 7)
TARGET_ARGS = st.one_of(
    st.tuples(st.sampled_from([["cdp"], ["avl"]]), opt("--n", SMALL), opt("--w", SMALL)),
    st.tuples(st.sampled_from([["cmp"], ["bw"]]), opt("--n", SMALL)),
    st.tuples(st.just(["words"]), opt("--content", joined(st.integers(0, 3), max_size=4))),
).map(lambda parts: [word for part in parts for word in part])

# Small commands of each kind, in and out of range, that each finish in well under a second.
FUZZ = {
    "count": st.one_of(
        st.tuples(st.just(["count"]), opt("--n", st.integers(-1, 40)), opt("--w", st.integers(-1, 12)), st.sampled_from([[], ["--q"], ["--bfile"]])),
        st.tuples(st.just(["count"]), opt("--w", st.integers(-1, 12)), opt("--max-n", st.integers(-1, 30)), st.sampled_from([[], ["--bfile"]])),
    ),
    "verify": st.tuples(st.just(["verify"]), TARGET_ARGS, st.sampled_from([[], ["--table"]])),
    "orbits": st.tuples(st.just(["orbits"]), TARGET_ARGS, st.sampled_from([[], ["--poly"]])),
    "lyndon": st.one_of(
        st.tuples(st.just(["lyndon", "params"]), opt("--sizes", joined(st.integers(-1, 20), max_size=6))),
        st.tuples(
            st.just(["lyndon", "check"]),
            st.sampled_from([["--family", f] for f in ("cdp", "cmp", "binary-words", "ternary-words", "nope")]),
            opt("--w", st.integers(-1, 4)),
            opt("--max-n", st.integers(-1, 6)),
        ),
        st.tuples(st.just(["lyndon", "construct"]), opt("--t", joined(st.integers(-1, 3), max_size=6)), opt("--n", SMALL)),
    ),
    "homomesy": st.tuples(st.just(["homomesy"]), opt("--n", st.integers(-1, 6)), opt("--action", st.sampled_from(["alpha", "beta", "gamma"]))),
}


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestArgvFuzz:
    @pytest.mark.parametrize("command", sorted(FUZZ))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    def test_exit_code_reason_and_determinism(self, command, data):
        argv = [word for part in data.draw(FUZZ[command]) for word in part]
        with tempfile.TemporaryDirectory() as cache:
            cold = run_in_process(["--cache-dir", cache, *argv])
            warm = run_in_process(["--cache-dir", cache, *argv])
        code, out, err = cold
        assert code in (0, 1, 2), (argv, err)
        if code != 0:
            lines = err.splitlines()
            assert len(lines) == 1, (argv, err)
            assert json.loads(lines[0])["exit"] == code
        assert warm[:2] == (code, out), argv
