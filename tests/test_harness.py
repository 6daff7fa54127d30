"""Tests for the parallel experiment harness.

Covers the :class:`repro.harness.runner.Runner` contract:

* serial and parallel runs of the same jobs merge to identical results,
  in submission order, regardless of completion order;
* per-job timeouts terminate the worker and record ``"timeout"``;
* the full status taxonomy -- ``"ok"``, ``"error"`` (in-worker exception,
  remote traceback in ``error``, exception type in ``error_kind``, no
  retry), ``"timeout"``, ``"crashed"`` (worker died without reporting,
  on both the first attempt and its one retry), ``"retried-ok"`` (ok
  after a crash retry);
* chaos mode: :class:`ChaosMonkey` kills a seeded subset of first-attempt
  workers mid-job, and the retry/merge path delivers results identical to
  a serial run;
* worker reuse: a run's jobs share at most ``max_workers`` processes, a
  timed-out or dead worker is replaced for the remaining jobs, and no
  worker outlives ``run`` on any path;
* the sweep grids are well-formed (unique ids, resolvable entry points).

The job helpers below must be module-level so the ``"module:function"``
specs resolve inside worker processes.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.harness.experiments import (EXPERIMENT_SWEEPS, default_jobs,
                                       sweep_jobs)
from repro.harness.runner import (CHAOS_EXIT_CODE, CRASH_RETRY_DELAY,
                                  ChaosMonkey, Job, JobResult, Runner,
                                  merge_values, resolve)

HERE = "tests.test_harness"


# ----------------------------------------------------------- job helpers
def _square(x):
    return x * x


def _sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def _raise(message):
    raise RuntimeError(message)


def _crash_once(marker):
    """Die hard (no exception, no pipe report) on the first attempt."""
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(17)
    return "recovered"


def _always_crash():
    os._exit(23)


def _pid():
    return os.getpid()


def _unpicklable():
    return threading.Lock()


def _squares(count):
    return [Job(id=f"sq/{i}", fn=f"{HERE}:_square", params={"x": i})
            for i in range(count)]


# ------------------------------------------------------------ scheduling
class TestRunnerScheduling:
    def test_serial_matches_parallel(self):
        jobs = _squares(8)
        runner = Runner(max_workers=4)
        serial = runner.run(jobs, parallel=False)
        parallel = runner.run(jobs, parallel=True)
        assert merge_values(serial) == merge_values(parallel)
        assert [r.status for r in parallel] == ["ok"] * len(jobs)

    def test_results_come_back_in_submission_order(self):
        # Reverse-sorted sleeps: completion order is the opposite of
        # submission order, the merge must restore the latter.
        delays = [0.30, 0.15, 0.0]
        jobs = [Job(id=f"sleep/{i}", fn=f"{HERE}:_sleep_then_return",
                    params={"seconds": s, "value": i})
                for i, s in enumerate(delays)]
        results = Runner(max_workers=len(jobs)).run(jobs)
        assert [r.job_id for r in results] == [j.id for j in jobs]
        assert [r.value for r in results] == [0, 1, 2]

    def test_more_jobs_than_workers(self):
        jobs = _squares(9)
        results = Runner(max_workers=2).run(jobs)
        assert merge_values(results) == {f"sq/{i}": i * i for i in range(9)}

    def test_duplicate_ids_rejected(self):
        jobs = [Job(id="dup", fn=f"{HERE}:_square", params={"x": 1}),
                Job(id="dup", fn=f"{HERE}:_square", params={"x": 2})]
        with pytest.raises(ValueError, match="unique"):
            Runner(max_workers=2).run(jobs)

    def test_resolve_rejects_malformed_spec(self):
        with pytest.raises(ValueError, match="module:function"):
            resolve("no_colon_here")


# --------------------------------------------------------- failure modes
class TestFailureModes:
    def test_timeout_kills_the_worker(self):
        jobs = [Job(id="fast", fn=f"{HERE}:_square", params={"x": 3}),
                Job(id="stuck", fn=f"{HERE}:_sleep_then_return",
                    params={"seconds": 30.0, "value": None}, timeout=0.4)]
        started = time.monotonic()
        results = Runner(max_workers=2).run(jobs)
        assert time.monotonic() - started < 10.0
        by_id = {r.job_id: r for r in results}
        assert by_id["fast"].status == "ok" and by_id["fast"].value == 9
        assert by_id["stuck"].status == "timeout"
        assert "0.4" in by_id["stuck"].error
        assert not by_id["stuck"].ok

    def test_crash_is_retried_once(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        jobs = [Job(id="flaky", fn=f"{HERE}:_crash_once",
                    params={"marker": marker})]
        (result,) = Runner(max_workers=1).run(jobs)
        assert result.status == "retried-ok"
        assert result.ok
        assert result.value == "recovered"
        assert result.attempts == 2

    def test_second_crash_is_final(self):
        jobs = [Job(id="doomed", fn=f"{HERE}:_always_crash")]
        (result,) = Runner(max_workers=1).run(jobs)
        assert result.status == "crashed"
        assert result.attempts == 2
        assert result.error_kind == "worker-died"
        assert "exitcode" in result.error

    def test_exception_is_error_without_retry(self):
        jobs = [Job(id="boom", fn=f"{HERE}:_raise",
                    params={"message": "deliberate"})]
        (result,) = Runner(max_workers=1).run(jobs)
        assert result.status == "error"
        assert result.attempts == 1
        assert result.error_kind == "RuntimeError"
        # the remote traceback travels back whole, not just the message
        assert "deliberate" in result.error
        assert "Traceback" in result.error
        assert "_raise" in result.error

    def test_serial_reports_errors_too(self):
        jobs = [Job(id="boom", fn=f"{HERE}:_raise",
                    params={"message": "deliberate"})]
        (result,) = Runner().run(jobs, parallel=False)
        assert result.status == "error"
        assert result.error_kind == "RuntimeError"
        assert "deliberate" in result.error

    def test_timeout_error_kind_and_default_timeout(self):
        # No per-job timeout: the runner default applies.
        jobs = [Job(id="stuck", fn=f"{HERE}:_sleep_then_return",
                    params={"seconds": 30.0, "value": None})]
        (result,) = Runner(max_workers=1, default_timeout=0.4).run(jobs)
        assert result.status == "timeout"
        assert result.error_kind == "timeout"

    def test_status_taxonomy_is_closed(self, tmp_path):
        # One job per terminal status, all in a single run.
        marker = str(tmp_path / "flaky-marker")
        jobs = [
            Job(id="ok", fn=f"{HERE}:_square", params={"x": 2}),
            Job(id="error", fn=f"{HERE}:_raise",
                params={"message": "boom"}),
            Job(id="timeout", fn=f"{HERE}:_sleep_then_return",
                params={"seconds": 30.0, "value": None}, timeout=0.4),
            Job(id="crashed", fn=f"{HERE}:_always_crash"),
            Job(id="retried-ok", fn=f"{HERE}:_crash_once",
                params={"marker": marker}),
        ]
        results = Runner(max_workers=2).run(jobs)
        assert {r.job_id: r.status for r in results} == {
            job.id: job.id for job in jobs}
        assert {r.job_id for r in results if r.ok} == {"ok", "retried-ok"}


# ------------------------------------------------------------- chaos mode
class TestChaosMode:
    def test_chaos_kill_is_retried_and_merge_matches_serial(self):
        # The satellite-4 contract: a chaos-killed worker (os._exit
        # mid-job, after resolve, before the call) is retried with
        # backoff, and the merged results are identical to a serial run
        # of the same jobs.
        jobs = _squares(8)
        chaos = ChaosMonkey(rate=0.5, seed=11)
        doomed = [j.id for j in jobs if chaos.dooms(j.id, attempt=1)]
        assert doomed, "seed must doom at least one job for this test"
        runner = Runner(max_workers=4, chaos=chaos)
        results = runner.run(jobs, parallel=True)
        serial = Runner(max_workers=4).run(jobs, parallel=False)
        assert merge_values(results) == merge_values(serial)
        assert [r.job_id for r in results] == [r.job_id for r in serial]
        by_id = {r.job_id: r for r in results}
        for job_id in doomed:
            assert by_id[job_id].status == "retried-ok"
            assert by_id[job_id].attempts == 2
        for job in jobs:
            if job.id not in doomed:
                assert by_id[job.id].status == "ok"

    def test_chaos_selection_is_deterministic(self):
        chaos = ChaosMonkey(rate=0.5, seed=3)
        first = [chaos.dooms(f"job/{i}", 1) for i in range(32)]
        again = [chaos.dooms(f"job/{i}", 1) for i in range(32)]
        assert first == again
        assert any(first) and not all(first)
        # only the first attempt is killed: retries always run
        assert not any(chaos.dooms(f"job/{i}", 2) for i in range(32))

    def test_chaos_exit_code_is_visible_in_final_crash(self):
        # kill_attempts=2 dooms the retry too: the job ends "crashed"
        # and the recorded exit code is the chaos sentinel.
        chaos = ChaosMonkey(rate=1.0, seed=0, kill_attempts=2)
        jobs = [Job(id="victim", fn=f"{HERE}:_square", params={"x": 1})]
        (result,) = Runner(max_workers=1, chaos=chaos).run(jobs)
        assert result.status == "crashed"
        assert str(CHAOS_EXIT_CODE) in result.error

    def test_backoff_schedule(self):
        # one retry, CRASH_RETRY_DELAY after the first death
        assert CRASH_RETRY_DELAY == pytest.approx(0.05)
        jobs = [Job(id="doomed", fn=f"{HERE}:_always_crash")]
        started = time.monotonic()
        (result,) = Runner(max_workers=1).run(jobs)
        assert result.attempts == 2
        assert time.monotonic() - started >= CRASH_RETRY_DELAY


# ------------------------------------------------------- experiment grids
class TestExperimentGrids:
    def test_grids_are_well_formed(self):
        jobs = default_jobs(quick=True, timeout=120.0)
        ids = [j.id for j in jobs]
        assert len(set(ids)) == len(ids)
        assert all(j.timeout == 120.0 for j in jobs)
        assert {j.sweep for j in jobs} == set(EXPERIMENT_SWEEPS)
        for job in jobs:
            assert callable(resolve(job.fn))

    def test_cpi_points_are_submitted_longest_first(self):
        from repro.harness.experiments import CPI_LONGEST_FIRST
        from repro.workloads import LISP_SUITE, PASCAL_SUITE

        assert sorted(CPI_LONGEST_FIRST) == sorted(PASCAL_SUITE + LISP_SUITE)
        quick = [j.id for j in default_jobs(quick=True)]
        assert quick[:3] == ["cpi/queens", "cpi/towers", "cpi/perm"]
        full = [j.id for j in default_jobs(quick=False)]
        assert full[:len(CPI_LONGEST_FIRST)] == [
            f"cpi/{name}" for name in CPI_LONGEST_FIRST]

    def test_quick_grid_is_a_subset(self):
        quick = {j.id for j in default_jobs(quick=True)}
        full = {j.id for j in default_jobs(quick=False)}
        assert quick <= full
        assert len(quick) < len(full)

    def test_ecache_sweep_deterministic_across_modes(self):
        # A real experiment point (not a toy helper): the same sweep run
        # serially and in parallel must merge to identical physics.
        jobs = [Job(id=j.id, fn=j.fn,
                    params=dict(j.params, references=20_000),
                    sweep=j.sweep)
                for j in sweep_jobs("ecache-sweep", quick=True)]
        runner = Runner(max_workers=2)
        serial = merge_values(runner.run(jobs, parallel=False))
        parallel = merge_values(runner.run(jobs, parallel=True))
        assert serial == parallel
        assert all(0.0 <= row["miss_rate"] <= 1.0
                   for row in parallel.values())

    @pytest.mark.slow
    def test_full_quick_sweep_deterministic(self):
        # The whole --quick grid, both execution modes.  Tens of
        # seconds of simulation: opt in with --run-slow.
        jobs = default_jobs(quick=True)
        runner = Runner(max_workers=2)
        serial = runner.run(jobs, parallel=False)
        parallel = runner.run(jobs, parallel=True)
        assert [r.status for r in serial] == ["ok"] * len(jobs)
        assert [r.status for r in parallel] == ["ok"] * len(jobs)
        assert merge_values(serial) == merge_values(parallel)


def test_job_result_ok_property():
    assert JobResult("x", "ok").ok
    assert JobResult("x", "retried-ok").ok
    for status in ("error", "timeout", "crashed"):
        assert not JobResult("x", status).ok


# ----------------------------------------------- graceful shutdown, chaos
def _signal_parent_then_return(pid, value):
    """Interrupt the parent mid-run, then finish normally ourselves."""
    import signal

    os.kill(pid, signal.SIGINT)
    time.sleep(0.4)                  # let the parent field the signal
    return value


def _slow_value(value):
    time.sleep(0.6)
    return value


class TestGracefulShutdown:
    def test_sigint_drains_active_and_interrupts_queued(self):
        # Satellite contract: on SIGINT the in-flight job finishes and
        # is recorded normally; everything still queued is released as
        # "interrupted" instead of being abandoned mid-state.
        jobs = [Job(id="active", fn=f"{HERE}:_signal_parent_then_return",
                    params={"pid": os.getpid(), "value": 42})]
        jobs += [Job(id=f"queued/{i}", fn=f"{HERE}:_square",
                     params={"x": i}) for i in range(3)]
        runner = Runner(max_workers=1)
        results = runner.run(jobs, parallel=True)
        assert runner.interrupted
        by_id = {r.job_id: r for r in results}
        assert by_id["active"].status == "ok"
        assert by_id["active"].value == 42
        for i in range(3):
            queued = by_id[f"queued/{i}"]
            assert queued.status == "interrupted"
            assert queued.error_kind == "interrupted"
            assert not queued.ok
        # handlers were restored: a later run is not poisoned
        import signal

        assert signal.getsignal(signal.SIGINT) is not None
        follow_up = Runner(max_workers=1).run(
            [Job(id="later", fn=f"{HERE}:_square", params={"x": 3})])
        assert follow_up[0].status == "ok"

    def test_interrupted_is_not_ok(self):
        assert not JobResult("x", "interrupted").ok


class TestChaosKillAfter:
    def test_kill_after_sigkills_mid_run_and_retry_succeeds(self):
        # kill_after arms an asynchronous SIGKILL *inside* the running
        # worker -- a mid-computation crash, not a pre-call exit.  The
        # retry is never doomed and must deliver the value.
        chaos = ChaosMonkey(rate=1.0, seed=0, kill_after=0.1)
        jobs = [Job(id="victim", fn=f"{HERE}:_slow_value",
                    params={"value": 7})]
        (result,) = Runner(max_workers=1, chaos=chaos).run(jobs)
        assert result.status == "retried-ok"
        assert result.value == 7
        assert result.attempts == 2

    def test_kill_after_unset_keeps_legacy_exit_kill(self):
        chaos = ChaosMonkey(rate=1.0, seed=0, kill_attempts=2)
        jobs = [Job(id="victim", fn=f"{HERE}:_square", params={"x": 2})]
        (result,) = Runner(max_workers=1, chaos=chaos).run(jobs)
        assert result.status == "crashed"
        assert str(CHAOS_EXIT_CODE) in result.error


# ---------------------------------------------------------- worker reuse
def _pid_job(name):
    return Job(id=f"pid/{name}", fn=f"{HERE}:_pid")


class TestWorkerReuse:
    def test_jobs_share_at_most_max_workers_processes(self):
        jobs = [_pid_job(i) for i in range(12)]
        results = Runner(max_workers=2).run(jobs)
        assert [r.status for r in results] == ["ok"] * len(jobs)
        pids = {r.value for r in results}
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_timeout_replaces_the_worker(self):
        stuck = Job(id="stuck", fn=f"{HERE}:_sleep_then_return",
                    params={"seconds": 30.0, "value": None}, timeout=0.4)
        jobs = [_pid_job("before"), stuck] + _squares(4) + [
            _pid_job("after")]
        results = Runner(max_workers=1).run(jobs)
        by_id = {r.job_id: r for r in results}
        assert by_id["stuck"].status == "timeout"
        assert by_id["pid/before"].value != by_id["pid/after"].value
        squares = [r for r in results if r.job_id.startswith("sq/")]
        assert [r.status for r in squares] == ["ok"] * 4
        assert merge_values(squares) == merge_values(
            Runner().run_serial(_squares(4)))
        assert multiprocessing.active_children() == []

    def test_crash_replaces_the_worker(self, tmp_path):
        flaky = Job(id="flaky", fn=f"{HERE}:_crash_once",
                    params={"marker": str(tmp_path / "crashed-once")})
        jobs = [_pid_job("before"), flaky] + _squares(4) + [
            _pid_job("after")]
        results = Runner(max_workers=1).run(jobs)
        by_id = {r.job_id: r for r in results}
        assert by_id["flaky"].status == "retried-ok"
        assert by_id["pid/before"].value != by_id["pid/after"].value
        # the marker now exists, so the serial reference does not crash
        reference = [j for j in jobs if not j.id.startswith("pid/")]
        merged = [r for r in results if not r.job_id.startswith("pid/")]
        assert merge_values(merged) == merge_values(
            Runner().run_serial(reference))
        assert multiprocessing.active_children() == []

    def test_unpicklable_value_or_params_is_error_and_worker_goes_on(self):
        jobs = [_pid_job("before"),
                Job(id="lock", fn=f"{HERE}:_unpicklable"),
                Job(id="lambda", fn=f"{HERE}:_square",
                    params={"x": lambda: 1}),
                _pid_job("after")]
        results = Runner(max_workers=1).run(jobs)
        by_id = {r.job_id: r for r in results}
        assert by_id["lock"].status == "error"
        assert by_id["lock"].error_kind == "TypeError"
        assert "pickle" in by_id["lock"].error
        assert by_id["lambda"].status == "error"
        assert "pickle" in by_id["lambda"].error
        assert by_id["pid/before"].status == by_id["pid/after"].status == "ok"
        assert by_id["pid/before"].value == by_id["pid/after"].value

    def test_no_worker_outlives_an_interrupted_run(self):
        jobs = [Job(id="active", fn=f"{HERE}:_signal_parent_then_return",
                    params={"pid": os.getpid(), "value": 1})]
        jobs += _squares(6)
        runner = Runner(max_workers=2)
        results = runner.run(jobs)
        assert runner.interrupted
        assert results[0].status == "ok"
        assert multiprocessing.active_children() == []

    def test_kill_after_timer_dies_with_its_job(self):
        # Every job is doomed, but each returns long before its timer
        # would fire: the cancelled timer must not kill a later job that
        # the same worker serves.
        chaos = ChaosMonkey(rate=1.0, seed=0, kill_after=0.5)
        jobs = [Job(id=f"short/{i}", fn=f"{HERE}:_sleep_then_return",
                    params={"seconds": 0.05, "value": i})
                for i in range(20)]
        results = Runner(max_workers=1, chaos=chaos).run(jobs)
        assert [r.status for r in results] == ["ok"] * 20
        assert [r.attempts for r in results] == [1] * 20
        assert [r.value for r in results] == list(range(20))

