"""Process-parallel experiment runner.

Design:

* a :class:`Job` is a picklable spec -- a ``"module:function"`` entry
  point plus keyword params -- so any module-level function can be a
  sweep point;
* a **worker pool per run**: :meth:`Runner.run` starts
  ``min(max_workers, len(jobs))`` worker processes, and each serves job
  after job -- job in over its pipe, result back -- so a job that lasts
  tens of milliseconds does not pay for a fork and the lazy imports of a
  fresh process.  The scheduler blocks on the result pipes and worker
  sentinels until a result, a death, a job deadline or a crash retry
  is due.  Every worker is stopped and joined before ``run`` returns, so
  nothing outlives a call;
* **isolation contract**: a job runs in a process of its own run, never
  in the scheduler, and is isolated from *crashes* -- a timed-out or
  dead worker is replaced and takes only its own job down.  It is not
  isolated from the jobs the same worker ran before it: module-level
  caches (compiled programs, workload profiles) carry over, exactly as
  they do in :meth:`Runner.run_serial`, which runs every job in one
  process.  Jobs are data that rebuild their own inputs, so shared
  caches can make a job faster but not different;
* per-job **timeout**: the scheduler terminates the worker, records a
  ``"timeout"`` result and starts a replacement for the remaining jobs;
  a runner-wide ``default_timeout`` acts as a watchdog for jobs that did
  not set their own;
* **retry-on-crash**: a worker that dies without reporting
  (``os._exit``, segfault, OOM kill) is replaced and its job rescheduled
  once, :data:`CRASH_RETRY_DELAY` seconds later.  An in-worker
  Python exception is deterministic, so it is recorded as ``"error"``
  without a retry, and the worker goes on to its next job;
* **deterministic merging**: results come back in submission order keyed
  by job id, regardless of completion order, so serial and parallel runs
  of the same jobs produce identical merged output;
* **chaos mode**: :class:`ChaosMonkey` deterministically ``os._exit``\\ s
  a seeded subset of first-attempt workers mid-job, so the retry/merge
  path is itself under test (the faults campaign's ``--chaos`` run
  doubles as this test).

Status taxonomy (``JobResult.status``):

============== ===========================================================
``ok``         the function returned on the first attempt
``retried-ok`` the function returned after one or more crash retries
``error``      the function raised; ``error`` carries the **remote
               traceback**, ``error_kind`` the exception class name
``timeout``    the watchdog killed the worker after ``timeout`` seconds
``crashed``    the worker died on both attempts without reporting;
               ``error_kind`` is ``worker-died``
``interrupted`` the run received SIGTERM/SIGINT before this job started;
               in-flight jobs are drained, queued jobs get this status
============== ===========================================================

``JobResult.ok`` is True for both ``ok`` and ``retried-ok`` -- a retried
job still produced its value.

**Graceful shutdown**: the parallel scheduler installs SIGTERM/SIGINT
handlers (main thread only) for the duration of a run.  On a signal it
stops dispatching new work, lets the busy workers finish and deliver,
marks everything still queued ``"interrupted"``, stops every worker, and
restores the previous handlers -- so a Ctrl-C'd campaign still reports
every completed job (and marks itself incomplete) and leaves no orphan
processes or stale lockfiles behind.
Callers can test :attr:`Runner.interrupted` after ``run`` returns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import multiprocessing
import multiprocessing.connection
import os
import signal
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence

#: the exit code chaos kills use; distinguishable from real crashes in logs
CHAOS_EXIT_CODE = 86

#: seconds between a worker's death and its job's one retry
CRASH_RETRY_DELAY = 0.05


@dataclasses.dataclass(frozen=True)
class Job:
    """One sweep point: ``resolve(fn)(**params)`` in a worker process."""

    id: str
    fn: str                              #: "package.module:function"
    params: Dict[str, Any] = dataclasses.field(default_factory=dict)
    timeout: Optional[float] = None      #: seconds; None = runner default
    sweep: str = ""                      #: owning sweep, for grouping


@dataclasses.dataclass
class JobResult:
    """Outcome of one job, independent of where/when it ran."""

    job_id: str
    status: str     #: "ok" | "retried-ok" | "error" | "timeout" | "crashed"
    value: Any = None
    error: str = ""                      #: remote traceback / kill reason
    error_kind: str = ""                 #: exception class | "timeout" |
    #: "worker-died" -- the structured taxonomy ("" on success)
    duration: float = 0.0                #: wall seconds of the final attempt
    attempts: int = 1
    sweep: str = ""

    @property
    def ok(self) -> bool:
        """True when the job produced its value ("ok" or "retried-ok")."""
        return self.status in ("ok", "retried-ok")


@dataclasses.dataclass(frozen=True)
class ChaosMonkey:
    """Deterministic worker-killer for chaos testing the runner.

    ``rate`` of the jobs (selected by a stable hash of ``seed`` and the
    job id -- never Python's salted ``hash()``) are killed with
    ``os._exit`` *mid-job* on their first attempt.  Every doomed job
    succeeds on its retry, so a chaos run must produce values identical
    to a serial run.
    """

    rate: float = 0.0
    seed: int = 0

    def dooms(self, job_id: str, attempt: int) -> bool:
        """Whether this (job, attempt) is selected for a chaos kill."""
        if self.rate <= 0.0 or attempt > 1:
            return False
        digest = hashlib.sha256(
            f"{self.seed}:{job_id}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < self.rate


def resolve(fn_spec: str) -> Callable:
    """``"package.module:function"`` -> the callable."""
    module_name, sep, fn_name = fn_spec.partition(":")
    if not sep or not fn_name:
        raise ValueError(f"job fn must be 'module:function', got {fn_spec!r}")
    return getattr(importlib.import_module(module_name), fn_name)


def _run_job(fn_spec: str, params: Dict[str, Any],
             chaos_kill: bool) -> tuple:
    """Run one job in a worker: the ``(status, value, error, error_kind)``
    reply for the pipe.

    ``chaos_kill`` kills the worker *after* the function started doing
    real work (module resolved, call under way is approximated by
    killing between resolve and call) -- the parent sees a silent death,
    exactly like a segfault or an OOM kill.
    """
    try:
        fn = resolve(fn_spec)
        if chaos_kill:
            os._exit(CHAOS_EXIT_CODE)
        return ("ok", fn(**params), "", "")
    except BaseException as exc:
        return ("error", None, traceback.format_exc(), type(exc).__name__)


def _worker_main(conn) -> None:
    """Worker process entry point: serve jobs from ``conn`` until stopped.

    Each message is one job, ``(fn_spec, params, chaos_kill)``,
    answered by one reply; ``None``, or EOF when the scheduler is gone,
    stops the worker.
    """
    # The fork inherits the parent's graceful-shutdown handlers, under
    # which SIGTERM merely sets a flag -- that would make workers immune
    # to terminate().  Shutdown is the *scheduler's* job; workers die.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        reply = _run_job(*message)
        try:
            conn.send(reply)
        except OSError:                  # the scheduler is gone
            return
        except Exception as exc:         # the value does not pickle
            conn.send(("error", None, traceback.format_exc(),
                       type(exc).__name__))


class _Worker:
    """One pool process, and the job it runs (``job`` is stale when idle)."""

    __slots__ = ("process", "conn", "job", "attempt", "started")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.job: Optional[Job] = None
        self.attempt = 0
        self.started = 0.0

    def stop(self) -> None:
        """Ask an idle worker to exit, and reap it."""
        try:
            self.conn.send(None)
        except OSError:
            pass                         # already dead
        self.process.join()
        self.conn.close()

    def kill(self) -> None:
        """Terminate a busy worker, and reap it."""
        self.process.terminate()
        self.process.join()
        self.conn.close()


class Runner:
    """Schedules jobs over a pool of worker processes (or serially
    in-process).

    ``max_workers`` defaults to the machine's CPU count; a run starts no
    more workers than it has jobs.  ``run`` returns
    one :class:`JobResult` per job **in submission order**.

    A job whose worker dies is retried once, after
    :data:`CRASH_RETRY_DELAY` seconds.  ``default_timeout`` is the
    watchdog for jobs with ``timeout=None``; ``chaos`` is a
    :class:`ChaosMonkey`, for testing the retry path.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 default_timeout: Optional[float] = None,
                 chaos: Optional[ChaosMonkey] = None):
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self.default_timeout = default_timeout
        self.chaos = chaos or ChaosMonkey()
        #: set when SIGTERM/SIGINT arrived during the last parallel run
        self.interrupted = False
        self._context = multiprocessing.get_context()

    # ------------------------------------------------------------- serial
    def run_serial(self, jobs: Sequence[Job]) -> List[JobResult]:
        """In-process execution, in order.

        The determinism reference for the parallel path: same jobs, same
        merged results.  Timeouts are not enforced in-process (there is
        no safe way to interrupt arbitrary Python); crashes take the
        whole process down, as they would without the harness.
        """
        results = []
        for job in jobs:
            started = time.monotonic()
            try:
                value = resolve(job.fn)(**job.params)
                result = JobResult(job.id, "ok", value=value, sweep=job.sweep)
            except Exception as exc:
                result = JobResult(job.id, "error",
                                   error=traceback.format_exc(),
                                   error_kind=type(exc).__name__,
                                   sweep=job.sweep)
            result.duration = time.monotonic() - started
            results.append(result)
        return results

    # ----------------------------------------------------------- parallel
    def run(self, jobs: Sequence[Job],
            parallel: bool = True) -> List[JobResult]:
        """Run ``jobs``; results come back in submission order.

        ``parallel=False`` falls back to :meth:`run_serial` -- the
        determinism reference: both paths must merge identically.
        """
        jobs = list(jobs)
        ids = [job.id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be unique within a run")
        if not parallel:
            return self.run_serial(jobs)
        merged = self._run_parallel(jobs)
        return [merged[job.id] for job in jobs]   # deterministic merge

    def _start_worker(self) -> _Worker:
        conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main, args=(child_conn,), daemon=True)
        process.start()
        child_conn.close()   # child's end lives in the child now
        return _Worker(process, conn)

    def _dispatch(self, worker: _Worker, job: Job,
                  attempt: int) -> Optional[JobResult]:
        """Send ``job`` to an idle worker; a result only if it cannot go."""
        worker.job, worker.attempt = job, attempt
        worker.started = time.monotonic()
        try:
            worker.conn.send((job.fn, job.params,
                              self.chaos.dooms(job.id, attempt)))
        except OSError:
            pass        # the worker died idle: collected as a crash
        except Exception as exc:         # params that do not pickle
            return JobResult(job.id, "error", error=traceback.format_exc(),
                             error_kind=type(exc).__name__,
                             attempts=attempt, sweep=job.sweep)
        return None

    def _install_signal_handlers(self) -> List[tuple]:
        """Arm graceful shutdown for the duration of a parallel run.

        Returns ``(signum, previous_handler)`` pairs to restore, or an
        empty list when not on the main thread (signal handlers can only
        be installed there; nested runners just inherit the outer one).
        """
        self.interrupted = False

        def _handler(signum, frame):
            self.interrupted = True

        installed: List[tuple] = []
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                installed.append((signum, signal.signal(signum, _handler)))
        except ValueError:
            for signum, previous in installed:
                signal.signal(signum, previous)
            return []
        return installed

    def _run_parallel(self, jobs: List[Job]) -> Dict[str, JobResult]:
        queue: List[tuple] = [(job, 1) for job in jobs]
        queue.reverse()                      # pop() takes submission order
        #: crash retries waiting out their delay: (eligible_at, job,
        #: attempt), redispatched in eligibility order
        waiting: List[tuple] = []
        size = min(self.max_workers, len(jobs))
        idle: List[_Worker] = []
        busy: List[_Worker] = []
        results: Dict[str, JobResult] = {}
        installed = self._install_signal_handlers()
        try:
            while queue or busy or waiting:
                if self.interrupted and (queue or waiting):
                    # graceful shutdown: nothing new is dispatched; the
                    # busy workers drain and deliver normally
                    for job, _attempt in queue:
                        results[job.id] = JobResult(
                            job.id, "interrupted",
                            error="run interrupted by signal before start",
                            error_kind="interrupted", sweep=job.sweep)
                    for _eligible, job, attempt in waiting:
                        results[job.id] = JobResult(
                            job.id, "interrupted",
                            error="retry abandoned: run interrupted",
                            error_kind="interrupted", attempts=attempt - 1,
                            sweep=job.sweep)
                    queue, waiting = [], []
                if waiting:
                    now = time.monotonic()
                    due = [w for w in waiting if w[0] <= now]
                    if due:
                        waiting = [w for w in waiting if w[0] > now]
                        # due retries take priority over fresh jobs
                        for eligible_at, job, attempt in sorted(
                                due, reverse=True):
                            queue.append((job, attempt))
                while queue and (idle or len(idle) + len(busy) < size):
                    worker = idle.pop() if idle else self._start_worker()
                    job, attempt = queue.pop()
                    refused = self._dispatch(worker, job, attempt)
                    if refused is None:
                        busy.append(worker)
                    else:
                        results[job.id] = refused
                        idle.append(worker)
                self._wait(busy, waiting)
                for worker in list(busy):
                    outcome = self._collect(worker)
                    if outcome is None:
                        continue
                    busy.remove(worker)
                    if not worker.conn.closed:   # served: reuse it
                        idle.append(worker)
                    if outcome == "retry":
                        waiting.append((time.monotonic() + CRASH_RETRY_DELAY,
                                        worker.job, worker.attempt + 1))
                    else:
                        results[worker.job.id] = outcome
        finally:
            for signum, previous in installed:
                signal.signal(signum, previous)
            for worker in busy:
                worker.kill()
            for worker in idle:
                worker.stop()
        return results

    def _effective_timeout(self, job: Job) -> Optional[float]:
        return job.timeout if job.timeout is not None else self.default_timeout

    def _wait(self, busy: List[_Worker], waiting: List[tuple]) -> None:
        """Block until a busy worker replies or dies, or until the next
        job deadline or crash retry falls due."""
        deadlines = [eligible for eligible, _job, _attempt in waiting]
        for worker in busy:
            limit = self._effective_timeout(worker.job)
            if limit is not None:
                deadlines.append(worker.started + limit)
        timeout = (max(0.0, min(deadlines) - time.monotonic())
                   if deadlines else None)
        if busy:
            multiprocessing.connection.wait(
                [worker.conn for worker in busy]
                + [worker.process.sentinel for worker in busy], timeout)
        elif timeout:
            time.sleep(timeout)

    def _collect(self, worker: _Worker):
        """One scheduling decision for one busy worker; None = running."""
        job = worker.job
        elapsed = time.monotonic() - worker.started
        if worker.conn.poll():
            try:
                status, value, error, error_kind = worker.conn.recv()
            except (EOFError, OSError):
                return self._crash_outcome(worker, elapsed)
            if status == "ok" and worker.attempt > 1:
                status = "retried-ok"
            return JobResult(job.id, status, value=value, error=error,
                             error_kind=error_kind,
                             duration=elapsed, attempts=worker.attempt,
                             sweep=job.sweep)
        timeout = self._effective_timeout(job)
        if timeout is not None and elapsed > timeout:
            worker.kill()
            return JobResult(job.id, "timeout",
                             error=f"exceeded {timeout:.1f}s",
                             error_kind="timeout",
                             duration=elapsed, attempts=worker.attempt,
                             sweep=job.sweep)
        if not worker.process.is_alive():
            return self._crash_outcome(worker, elapsed)
        return None

    def _crash_outcome(self, worker: _Worker, elapsed: float):
        """The worker died without delivering a result."""
        worker.process.join()
        worker.conn.close()
        if worker.attempt == 1:
            return "retry"
        job = worker.job
        return JobResult(
            job.id, "crashed",
            error=f"worker died {worker.attempt} time(s) "
                  f"(exitcode {worker.process.exitcode})",
            error_kind="worker-died",
            duration=elapsed, attempts=worker.attempt, sweep=job.sweep)


def merge_values(results: Sequence[JobResult]) -> Dict[str, Any]:
    """``{job id: value}`` for the successful results."""
    return {r.job_id: r.value for r in results if r.ok}
