"""Bit-exact checkpoint/restore of a simulated machine.

A snapshot is the whole machine state at a quiescent cycle boundary, as
JSON; restoring it into a fresh machine and running on finishes
bit-identical to a run that was never interrupted.  The fuzz oracle,
the equivalence campaign (:mod:`repro.harness.equivalence`) and
perfbench's os-boot workload all run through it.  This package
provides:

* :mod:`repro.checkpoint.state` -- bit-exact capture/restore of a
  :class:`~repro.core.processor.Machine` or
  :class:`~repro.multi.system.MultiMachine` at a drained, quiescent
  cycle boundary, the one snapshot-JSON-restore round trip every
  equivalence check uses (:func:`~repro.checkpoint.state.round_trip`),
  and the named error family (:class:`CheckpointError` and friends);
* :mod:`repro.checkpoint.store` -- :class:`SnapshotStore`: atomic,
  fsync-durable, sha256-sidecar-verified generation ladders whose
  ``load_latest`` falls back past damaged generations.
"""

from repro.checkpoint.state import (
    FORMAT,
    CheckpointError,
    QuiescenceTimeout,
    SnapshotConfigError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    drain_machine,
    drain_multi,
    machine_state,
    multi_state,
    restore_machine,
    restore_multi,
)
from repro.checkpoint.store import SnapshotStore

__all__ = [
    "FORMAT",
    "CheckpointError",
    "QuiescenceTimeout",
    "SnapshotConfigError",
    "SnapshotFormatError",
    "SnapshotIntegrityError",
    "SnapshotStore",
    "drain_machine",
    "drain_multi",
    "machine_state",
    "multi_state",
    "restore_machine",
    "restore_multi",
]
