"""The two file primitives the report writers and both stores share.

* :func:`atomic_file` -- write a file all at once or not at all: a temp
  file in the target's directory, ``os.replace`` onto the target on
  success, unlinked on failure.  ``durable=True`` adds the fsyncs that
  make the write survive a power cut (reports and checkpoint snapshots);
  ``durable=False`` skips them (the trace store, a cache whose torn
  entries are already caught by their sha256 sidecars).
* :func:`pid_lock` -- an ``O_CREAT|O_EXCL`` lockfile stamped with its
  owner's pid, so concurrent writers of one entry take turns and a
  writer killed while holding it does not wedge the next one.

A leaf module: it imports nothing from :mod:`repro`, so the checkpoint
and trace stores can use it without importing the harness.
"""

from __future__ import annotations

import contextlib
import logging
import os
import pathlib
import time
from typing import BinaryIO, Iterator, Optional

logger = logging.getLogger(__name__)

#: a lock older than this is presumed orphaned whatever its pid says;
#: every writer holds its lock for seconds, not minutes
LOCK_STALE_SECONDS = 120.0
#: how long :func:`pid_lock` waits on a live holder before giving up
LOCK_TIMEOUT_SECONDS = 30.0
#: how often :func:`pid_lock` looks at a held lock again
LOCK_POLL_SECONDS = 0.05


@contextlib.contextmanager
def atomic_file(path: pathlib.Path, durable: bool) -> Iterator[BinaryIO]:
    """Replace ``path`` with what the ``with`` body writes, atomically.

    Yields a binary file open on ``<name>.<random>.tmp`` in ``path``'s
    directory (created if missing).  When the body returns, the temp
    file replaces ``path`` by ``os.replace``, so a reader sees the old
    content or the new, never a mix; when it raises, the temp file is
    unlinked and the exception propagates.  A process killed between
    the two leaves only the ``*.tmp``, which no reader mistakes for
    ``path``.  With ``durable`` the file is fsynced before the replace
    and its directory after it, so the rename itself is on disk.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    # created as open() would create it (mode 0o666 less the umask);
    # tempfile.mkstemp's 0o600 would survive the replace
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    if durable:
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        except OSError:
            pass    # some filesystems refuse directory fsync
        finally:
            os.close(directory)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True                 # alive, owned by someone else
    except (OverflowError, ValueError):
        return False
    return True


def _orphaned(lock: pathlib.Path) -> Optional[str]:
    """Why a held lock may be broken -- its holder's pid is dead, or it
    is older than :data:`LOCK_STALE_SECONDS` -- or ``None`` if it may
    not.  A lock that is gone (released while we looked) is not
    orphaned: there is nothing to break, and the next ``O_EXCL``
    attempt takes it."""
    try:
        holder = lock.read_text().strip()
        age = time.time() - lock.stat().st_mtime
    except (OSError, ValueError):
        return None
    if holder.isdigit() and not _pid_alive(int(holder)):
        return f"holder pid {holder} is dead"
    if age > LOCK_STALE_SECONDS:
        return f"{age:.0f}s old"
    return None


def _break(lock: pathlib.Path) -> bool:
    """Unlink ``lock`` if it is still orphaned, as the only breaker;
    return whether it was unlinked.

    Waiters that each judged the lock orphaned must not each unlink it:
    the second unlink would remove the lock the first had just taken.
    So a breaker first takes ``<lock>.break`` with ``O_CREAT|O_EXCL``
    and judges the lock again under it; a waiter that finds the breaker
    taken leaves the lock alone and looks again after its poll.  While
    the breaker is held, no other waiter unlinks the lock, and a dead
    holder cannot release it or let anyone create a new one, so the
    file judged is the file unlinked.  (A stale lock whose live holder
    releases it between the judgment and the unlink is the one case
    left.)  A breaker whose own holder died mid-break is removed when
    it is found orphaned.
    """
    breaker = lock.with_name(lock.name + ".break")
    try:
        fd = os.open(breaker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        reason = _orphaned(breaker)
        if reason:
            logger.warning("breaking breaker %s: %s", breaker, reason)
            with contextlib.suppress(FileNotFoundError):
                breaker.unlink()
        return False
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(str(os.getpid()))
        reason = _orphaned(lock)
        if not reason:
            return False
        logger.warning("breaking lock %s: %s", lock, reason)
        with contextlib.suppress(FileNotFoundError):
            lock.unlink()
        return True
    finally:
        with contextlib.suppress(FileNotFoundError):
            breaker.unlink()


@contextlib.contextmanager
def pid_lock(lock: pathlib.Path) -> Iterator[pathlib.Path]:
    """Hold the lockfile ``lock`` for the ``with`` body.

    The lock is created with ``O_CREAT|O_EXCL`` and stamped with this
    process's pid.  A lock held by someone else is broken at once when
    its pid is dead or it is older than :data:`LOCK_STALE_SECONDS`;
    otherwise it is looked at again every :data:`LOCK_POLL_SECONDS`,
    and :class:`TimeoutError` is raised after
    :data:`LOCK_TIMEOUT_SECONDS`.  Breaking goes through
    :func:`_break`, so of two waiters that find one orphan, only one
    removes it.  The lock is removed on exit.
    """
    lock = pathlib.Path(lock)
    lock.parent.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + LOCK_TIMEOUT_SECONDS
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if _orphaned(lock) and _break(lock):
                continue
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"could not acquire lock {lock} within "
                    f"{LOCK_TIMEOUT_SECONDS:.0f}s") from None
            time.sleep(LOCK_POLL_SECONDS)
    try:
        os.write(fd, str(os.getpid()).encode("ascii"))
    finally:
        os.close(fd)
    try:
        yield lock
    finally:
        with contextlib.suppress(FileNotFoundError):
            lock.unlink()


__all__ = [
    "LOCK_POLL_SECONDS",
    "LOCK_STALE_SECONDS",
    "LOCK_TIMEOUT_SECONDS",
    "atomic_file",
    "pid_lock",
]
