"""Tests for the shared file primitives (:mod:`repro.fileio`).

* :func:`~repro.fileio.atomic_file` leaves the target old or new, never
  torn, whether the writer raises or is SIGKILLed before the rename, and
  fsyncs exactly when asked to be durable;
* :func:`~repro.fileio.pid_lock` breaks a lock whose holder is dead at
  once and a stale one by age, lets only one of two waiters that judged
  the same orphan break it, waits out a live holder until its timeout,
  and releases its lock on the way out.

Both stores and ``write_json_atomic`` go through these two helpers, so
each behaviour is tested once here; the store tests check only that a
store releases its lock.
"""

import multiprocessing
import os
import signal
import stat
import time

import pytest

from repro import fileio
from repro.fileio import atomic_file, pid_lock


def _write(path, data, durable=True):
    with atomic_file(path, durable=durable) as handle:
        handle.write(data)


def _doomed_write(path):
    """Write new content but SIGKILL ourselves between write and rename."""
    original = os.replace

    def die(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)  # pragma: no cover

    os.replace = die
    _write(path, b"new")


def _dead_pid():
    worker = multiprocessing.Process(target=time.sleep, args=(0,))
    worker.start()
    worker.join()                           # pid now provably dead
    return worker.pid


class TestAtomicFile:
    def test_failure_before_rename_preserves_target(self, tmp_path,
                                                    monkeypatch):
        target = tmp_path / "report.json"
        _write(target, b"generation 1")

        def boom(*args, **kwargs):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk on fire"):
            _write(target, b"generation 2")
        monkeypatch.undo()
        assert target.read_bytes() == b"generation 1"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_exception_in_body_leaves_no_file(self, tmp_path):
        target = tmp_path / "sub" / "trace.npz"
        with pytest.raises(ValueError):
            with atomic_file(target, durable=False) as handle:
                handle.write(b"half")
                raise ValueError("writer failed")
        assert list(target.parent.iterdir()) == []

    def test_kill9_between_write_and_rename_preserves_target(self,
                                                             tmp_path):
        # the hard variant: no Python cleanup runs at all
        target = tmp_path / "report.json"
        _write(target, b"old")
        worker = multiprocessing.Process(target=_doomed_write,
                                         args=(target,))
        worker.start()
        worker.join()
        assert worker.exitcode == -signal.SIGKILL
        assert target.read_bytes() == b"old"
        # the debris is a *.tmp that never shadows the real file, and a
        # clean write simply replaces the target
        debris = [p.name for p in tmp_path.iterdir() if p != target]
        assert debris and all(name.endswith(".tmp") for name in debris)
        _write(target, b"new")
        assert target.read_bytes() == b"new"

    def test_file_mode_is_what_open_gives(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        target = tmp_path / "report.json"
        _write(target, b"{}")
        assert (stat.S_IMODE(target.stat().st_mode)
                == stat.S_IMODE(plain.stat().st_mode))

    @pytest.mark.parametrize("durable,fsyncs", [(True, 2), (False, 0)],
                             ids=["durable", "cache"])
    def test_durable_fsyncs_file_and_directory(self, tmp_path, monkeypatch,
                                               durable, fsyncs):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: calls.append(fd) or real_fsync(fd))
        target = tmp_path / "entry"
        _write(target, b"payload", durable=durable)
        assert target.read_bytes() == b"payload"
        assert len(calls) == fsyncs


class TestPidLock:
    def test_lock_is_stamped_and_released(self, tmp_path):
        lock = tmp_path / "sub" / "entry.lock"
        with pid_lock(lock):
            assert lock.read_text() == str(os.getpid())
        assert not lock.exists()

    def test_lock_is_released_when_the_body_raises(self, tmp_path):
        lock = tmp_path / "entry.lock"
        with pytest.raises(RuntimeError):
            with pid_lock(lock):
                raise RuntimeError("writer failed")
        assert not lock.exists()

    def test_dead_holder_lock_is_broken_immediately(self, tmp_path):
        lock = tmp_path / "entry.lock"
        lock.write_text(str(_dead_pid()))     # fresh mtime, dead pid
        start = time.monotonic()
        with pid_lock(lock):                  # must not wait for age-out
            assert lock.read_text() == str(os.getpid())
        assert time.monotonic() - start < fileio.LOCK_STALE_SECONDS / 2

    def test_stale_lock_is_broken(self, tmp_path):
        lock = tmp_path / "entry.lock"
        # a live pid (ours), so only the lock's age can break it
        lock.write_text(str(os.getpid()))
        old = time.time() - fileio.LOCK_STALE_SECONDS - 10
        os.utime(lock, (old, old))
        with pid_lock(lock):                  # must not time out
            pass
        assert not lock.exists()

    def test_two_breakers_of_one_orphan_take_turns(self, tmp_path,
                                                    monkeypatch):
        """Waiters A and B both judge a dead holder's lock orphaned.  B
        pauses right after its judgment while A breaks the lock and
        takes it; B must then leave A's lock alone and wait for it."""
        import threading

        lock = tmp_path / "entry.lock"
        lock.write_text(str(_dead_pid()))
        judged, a_holds, b_holds = (threading.Event() for _ in range(3))
        judge = fileio._orphaned
        paused = []

        def orphaned(path):
            verdict = judge(path)
            if threading.current_thread().name == "B" and not paused:
                paused.append(path)
                judged.set()
                a_holds.wait(10)
            return verdict

        monkeypatch.setattr(fileio, "_orphaned", orphaned)

        def waiter_b():
            with pid_lock(lock):
                b_holds.set()

        b = threading.Thread(target=waiter_b, name="B")
        b.start()
        try:
            assert judged.wait(10)
            with pid_lock(lock):
                a_holds.set()
                # B's judgment is stale: it must not let B in
                assert not b_holds.wait(0.5)
                assert lock.exists()
        finally:
            a_holds.set()
            b.join(10)
        assert not b.is_alive() and b_holds.is_set()
        assert not lock.exists()
        assert not lock.with_name("entry.lock.break").exists()

    def test_held_lock_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "LOCK_TIMEOUT_SECONDS", 0.2)
        lock = tmp_path / "entry.lock"
        # our own (live) pid and a fresh mtime: genuinely held
        lock.write_text(str(os.getpid()))
        with pytest.raises(TimeoutError, match="could not acquire"):
            with pid_lock(lock):
                pass  # pragma: no cover
        assert lock.read_text() == str(os.getpid())
