"""Durable, generation-laddered snapshot storage.

Snapshots live under the store's root, one directory per run id::

    <root>/<run_id>/gen-0000000000012345.json
    <root>/<run_id>/gen-0000000000012345.json.sha256

Every write goes through :func:`repro.fileio.atomic_file` with
``durable=True`` (temp file, fsync, ``os.replace``, directory fsync),
data file first and sha256 sidecar second, so a crash between the two
leaves a data file without a sidecar, which :meth:`SnapshotStore.load`
rejects by name.  Writers of one run serialize on a
:func:`repro.fileio.pid_lock`.

Reads are validating and never trust a single generation: ``load``
raises :class:`SnapshotIntegrityError` for truncated/corrupted bytes and
:class:`SnapshotFormatError` for unknown versions, and ``load_latest``
walks the generation ladder newest-first, skipping (and counting) every
invalid generation until one verifies.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
from typing import Any, Dict, List, Optional, Tuple

from repro.checkpoint.state import (
    FORMAT,
    SnapshotFormatError,
    SnapshotIntegrityError,
)
from repro.fileio import atomic_file, pid_lock


class SnapshotStore:
    """Atomic, sha-verified, generation-laddered snapshot files."""

    def __init__(self, root: pathlib.Path):
        self.root = pathlib.Path(root)
        #: invalid generations skipped by :meth:`load_latest`
        self.fallbacks = 0
        #: generations rejected by :meth:`load` (integrity or format)
        self.rejects = 0

    # ---------------------------------------------------------- layout
    def run_dir(self, run_id: str) -> pathlib.Path:
        """Directory holding one run's generation ladder."""
        safe = "".join(ch if (ch.isalnum() or ch in "-_.") else "_"
                       for ch in str(run_id))
        return self.root / safe

    def generations(self, run_id: str) -> List[pathlib.Path]:
        """This run's snapshot files, oldest first."""
        run_dir = self.run_dir(run_id)
        if not run_dir.is_dir():
            return []
        return sorted(path for path in run_dir.glob("gen-*.json"))

    # ------------------------------------------------------------ save
    def save(self, run_id: str, state: Dict[str, Any]) -> pathlib.Path:
        """Commit one generation; returns the snapshot path.

        The generation index is the snapshot's cycle count, so the
        ladder sorts by progress and re-saving the same boundary is
        idempotent.
        """
        cycles = state_cycles(state)
        run_dir = self.run_dir(run_id)
        path = run_dir / f"gen-{cycles:016d}.json"
        data = json.dumps(state, sort_keys=True).encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        with pid_lock(run_dir / ".lock"):
            with atomic_file(path, durable=True) as handle:
                handle.write(data)
            with atomic_file(self._sidecar(path), durable=True) as handle:
                handle.write((digest + "\n").encode("ascii"))
        return path

    # ------------------------------------------------------------ load
    @staticmethod
    def _sidecar(path: pathlib.Path) -> pathlib.Path:
        return path.with_name(path.name + ".sha256")

    def load(self, path: pathlib.Path) -> Dict[str, Any]:
        """Read and fully validate one generation.

        Raises :class:`SnapshotIntegrityError` (missing file/sidecar,
        digest mismatch, undecodable JSON) or
        :class:`SnapshotFormatError` (unknown format version).
        """
        path = pathlib.Path(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            self.rejects += 1
            raise SnapshotIntegrityError(
                f"snapshot {path} is unreadable: {exc}") from exc
        try:
            recorded = self._sidecar(path).read_text().strip()
        except OSError as exc:
            self.rejects += 1
            raise SnapshotIntegrityError(
                f"snapshot {path} has no sha256 sidecar "
                "(interrupted write?)") from exc
        digest = hashlib.sha256(data).hexdigest()
        if digest != recorded:
            self.rejects += 1
            raise SnapshotIntegrityError(
                f"snapshot {path} fails its sha256 check "
                f"(recorded {recorded[:12]}..., actual {digest[:12]}...)")
        try:
            state = json.loads(data)
        except ValueError as exc:
            self.rejects += 1
            raise SnapshotIntegrityError(
                f"snapshot {path} is not valid JSON: {exc}") from exc
        if not isinstance(state, dict) or state.get("format") != FORMAT:
            self.rejects += 1
            raise SnapshotFormatError(
                f"snapshot {path} has format "
                f"{state.get('format') if isinstance(state, dict) else '?'!r},"
                f" supported format is {FORMAT}")
        return state

    def load_latest(self, run_id: str) -> Tuple[Optional[Dict[str, Any]],
                                                Optional[pathlib.Path]]:
        """Newest generation that verifies, or ``(None, None)``.

        Invalid generations (corrupted, truncated, wrong format) are
        skipped and counted in :attr:`fallbacks` -- the recovery ladder:
        a damaged newest generation silently falls back to the previous
        good one instead of failing the load.
        """
        for path in reversed(self.generations(run_id)):
            try:
                return self.load(path), path
            except (SnapshotIntegrityError, SnapshotFormatError):
                self.fallbacks += 1
        return None, None

    # ----------------------------------------------------- maintenance
    def delete_run(self, run_id: str) -> None:
        """Remove a run's entire ladder (end-of-campaign cleanup)."""
        shutil.rmtree(self.run_dir(run_id), ignore_errors=True)


def state_cycles(state: Dict[str, Any]) -> int:
    """The cycle coordinate a snapshot was taken at (machine or multi)."""
    if state.get("kind") == "multi":
        return int(state["cycles"])
    return int(state["pipeline"]["stats"]["cycles"])


__all__ = [
    "SnapshotStore",
    "state_cycles",
]
