"""The selftest runner: criteria drawn from one pipe by forked workers, results as a serial loop gives them."""

import json
import os
import re
import signal
import threading
import time
from functools import partial

import pytest

from cyclicsieve import selftest
from cyclicsieve.cli import main
from cyclicsieve.selftest import run_all


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def masked(line: str) -> str:
    return re.sub(r"\[\s*\d+\.\d+s\]", "[time]", line)


def serial_loop(max_n: int, echo) -> list[tuple]:
    """Each criterion in id order, its line echoed before the next runs; the first exception leaves."""
    rows = []
    for cid, name, fn in selftest.CRITERIA:
        start = time.monotonic()
        passed, detail = fn(max_n)
        row = selftest.CriterionResult(cid, name, passed, detail, time.monotonic() - start)
        echo(masked(row.line()))
        rows.append((cid, name, passed, detail))
    return rows


def grid(max_n: int) -> tuple[list[tuple], list[str]]:
    lines = []
    results = run_all(max_n, echo=lambda line: lines.append(masked(line)))
    return [(r.id, r.name, r.passed, r.detail) for r in results], lines


def raising(*args):
    raise AssertionError("forked")


def patch_criteria(monkeypatch, replace) -> None:
    """Give each criterion the function replace(index, cid, fn) returns."""
    criteria = [(cid, name, replace(index, cid, fn)) for index, (cid, name, fn) in enumerate(selftest.CRITERIA)]
    monkeypatch.setattr(selftest, "CRITERIA", criteria)


class TestAgainstTheSerialLoop:
    @pytest.mark.parametrize("max_n", range(1, 7))
    def test_results_and_log_equal_the_serial_loop(self, max_n):
        lines = []
        assert grid(max_n) == (serial_loop(max_n, lines.append), lines)

    def test_one_worker_per_criterion_draws_each_once(self, monkeypatch):
        # Fifteen processes on however few cores: each index is read off the pipe by exactly one of them.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(15)))
        assert selftest._workers() == 15
        lines = []
        assert grid(3) == (serial_loop(3, lines.append), lines)

    def test_one_cpu_never_forks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", raising)
        rows, _ = grid(4)
        assert [cid for cid, *_ in rows] == list(range(1, 16))
        assert all(passed for _, _, passed, _ in rows)


class TestRunCriterion:
    def test_ids_are_one_to_fifteen_in_order(self):
        assert [cid for cid, _, _ in selftest.CRITERIA] == list(range(1, 16))

    @pytest.mark.parametrize("cid", [0, 16])
    def test_an_unknown_id_is_refused(self, cid):
        with pytest.raises(ValueError, match=f"no criterion {cid}"):
            selftest.run_criterion(cid, 1)

    def test_the_criterion_is_looked_up_at_the_call(self, monkeypatch):
        patch_criteria(monkeypatch, lambda index, cid, fn: lambda max_n: (False, f"wrapped {cid} at {max_n}"))
        result = selftest.run_criterion(7, 3)
        assert (result.id, result.name, result.passed, result.detail) == (7, "binary-word sieving", False, "wrapped 7 at 3")


class TestWorkers:
    def test_one_worker_per_cpu_at_most_one_per_criterion(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert selftest._workers() == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert selftest._workers() == len(selftest.CRITERIA)

    def test_no_fork_without_os_fork(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delattr(os, "fork")
        assert selftest._workers() == 1

    def test_a_second_thread_means_one_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert selftest._workers() == 1
            monkeypatch.setattr(os, "fork", raising)
            assert all(passed for _, _, passed, _ in grid(3)[0])
        finally:
            stop.set()
            thread.join()


def failing(cid: int, max_n: int):
    raise ValueError(f"criterion {cid} broke")


class TestFailureParity:
    @pytest.fixture()
    def broken(self, monkeypatch):
        """Criteria 5 and 11 raise in every process."""
        patch_criteria(monkeypatch, lambda index, cid, fn: partial(failing, cid) if index in (4, 10) else fn)

    def test_the_serial_loops_exception_after_its_lines(self, broken):
        expected, got = [], []
        with pytest.raises(ValueError) as serial:
            serial_loop(4, expected.append)
        with pytest.raises(ValueError) as parallel:
            run_all(4, echo=lambda line: got.append(masked(line)))
        assert str(parallel.value) == str(serial.value) == "criterion 5 broke"
        assert got == expected and len(got) == 4

    def test_the_cli_exits_3_with_the_genuine_reason(self, capsys, broken):
        expected = []
        with pytest.raises(ValueError):
            serial_loop(4, expected.append)
        assert main(["--no-cache", "selftest", "--max-n", "4"]) == 3
        out, err = capsys.readouterr()
        reason = json.dumps({"error": "internal error: ValueError: criterion 5 broke", "exit": 3}, separators=(",", ":"))
        assert out == ""
        assert masked(err).splitlines() == expected + [reason]


class TestWorkerDeath:
    @pytest.mark.parametrize(
        "die, how",
        [(lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"), (lambda: os._exit(5), "exited with status 5")],
        ids=["signal", "status"],
    )
    def test_a_dead_worker_exits_3_with_one_reason(self, capsys, monkeypatch, tmp_path, die, how):
        caller, marker = os.getpid(), tmp_path / "drawn"

        def criterion(max_n):
            if os.getpid() != caller:
                marker.touch()
                die()
            # The caller's first criterion waits until a worker has drawn one and died.
            deadline = time.monotonic() + 10
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            return True, "ran in the caller"

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert selftest._workers() == 2
        patch_criteria(monkeypatch, lambda index, cid, fn: criterion)
        start = time.monotonic()
        assert main(["--no-cache", "selftest", "--max-n", "3"]) == 3
        assert time.monotonic() - start < 10
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        reason = json.loads(line)
        assert reason["exit"] == 3
        assert re.fullmatch(
            rf"internal error: WorkerError: a selftest worker {how}; criteria \[\d+\] were never reported", reason["error"]
        )

    def test_leaving_early_kills_and_reaps_every_worker(self, monkeypatch):
        caller = os.getpid()

        def criterion(max_n):
            if os.getpid() != caller:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        patch_criteria(monkeypatch, lambda index, cid, fn: criterion)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_all(3)
        assert time.monotonic() - start < 30
