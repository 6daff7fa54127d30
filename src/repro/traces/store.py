"""Content-addressed binary trace store: capture once, replay many.

The MIPS-X cache and branch studies were trace-driven: an address trace
was captured once per workload and then swept against every candidate
organization (the ATUM/A. J. Smith methodology).  :class:`TraceStore`
gives the repo the same shape.  A *descriptor* -- a small JSON-able dict
that names everything the captured streams depend on (workload or
synthetic-program parameters, trace length, reorganization scheme,
capture format version) -- is canonicalised and hashed into a
content-addressed key; the captured streams live in one ``.npz`` per key
under ``.trace_cache/``.  Change any input and the key changes, so stale
traces can never be replayed silently.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.fileio import atomic_file, pid_lock

logger = logging.getLogger(__name__)

#: bump when the capture format or stream semantics change -- it is part
#: of every cache key, so old .npz files are simply never matched again
FORMAT = 1

REPO_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_ROOT = REPO_ROOT / ".trace_cache"

_META_KEY = "__meta__"


@dataclasses.dataclass
class CapturedTrace:
    """Named event-stream arrays plus their JSON-able capture metadata."""

    arrays: Dict[str, np.ndarray]
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays.values())

    def save(self, path: Path) -> None:
        meta_blob = np.frombuffer(
            json.dumps(self.meta, sort_keys=True).encode(), dtype=np.uint8)
        payload = dict(self.arrays)
        payload[_META_KEY] = meta_blob
        with atomic_file(path, durable=False) as handle:
            np.savez_compressed(handle, **payload)

    @classmethod
    def load(cls, path: Path) -> "CapturedTrace":
        with np.load(path) as npz:
            meta = json.loads(bytes(npz[_META_KEY]).decode())
            arrays = {name: npz[name] for name in npz.files
                      if name != _META_KEY}
        return cls(arrays=arrays, meta=meta)


def canonical_json(material: object) -> str:
    """The canonical JSON text of a JSON-able value.

    Key-sorted, minimal separators, no whitespace variance: two
    structurally equal values (whatever their dict insertion order, and
    with tuples and lists interchangeable) canonicalise to the same
    text.  The trace-store descriptor keys derive their sha256 content
    addresses from it.
    """
    return json.dumps(material, sort_keys=True, separators=(",", ":"))


def descriptor_key(descriptor: Dict[str, object]) -> str:
    """The content-addressed key of a capture descriptor."""
    material = dict(descriptor)
    material["format"] = FORMAT
    return hashlib.sha256(canonical_json(material).encode()).hexdigest()[:24]


class TraceStore:
    """On-disk cache of captured traces keyed by capture descriptor.

    Integrity: every entry carries a ``.sha256`` sidecar with the digest
    of the ``.npz`` payload bytes.  :meth:`get` verifies it -- a corrupt,
    truncated, or sidecar-less entry is a counted-and-logged **miss**
    (``integrity_failures``), never a silent wrong replay.  :meth:`put`
    holds a per-entry lockfile so two concurrent producers (parallel
    sweeps racing on a cold cache) cannot interleave the payload and its
    digest.  Writes are atomic but not fsynced
    (:func:`repro.fileio.atomic_file` with ``durable=False``): the store
    is a cache, and an entry torn by a power cut is a counted miss.
    """

    #: a writer SIGKILLed mid-save leaves a ``*.tmp``; ones older than
    #: this are swept on a cache miss (a live writer finishes in seconds)
    TMP_STALE_SECONDS = 120.0

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else DEFAULT_ROOT
        self.hits = 0
        self.misses = 0
        self.integrity_failures = 0

    def path_for(self, descriptor: Dict[str, object]) -> Path:
        return self.root / f"{descriptor_key(descriptor)}.npz"

    def digest_path_for(self, descriptor: Dict[str, object]) -> Path:
        return self.path_for(descriptor).with_suffix(".sha256")

    def lock_path_for(self, descriptor: Dict[str, object]) -> Path:
        """The lockfile :meth:`put` holds while it writes an entry."""
        return self.path_for(descriptor).with_suffix(".lock")

    def get(self, descriptor: Dict[str, object]) -> Optional[CapturedTrace]:
        path = self.path_for(descriptor)
        if not path.exists():
            self.misses += 1
            self._sweep_stale_tmp()
            return None
        try:
            payload = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        digest_path = self.digest_path_for(descriptor)
        try:
            expected = digest_path.read_text().strip()
        except OSError:
            expected = None
        actual = hashlib.sha256(payload).hexdigest()
        if expected != actual:
            self.integrity_failures += 1
            self.misses += 1
            reason = ("no sha256 sidecar" if expected is None
                      else f"sha256 mismatch (expected {expected[:12]}..., "
                           f"got {actual[:12]}...)")
            logger.warning("trace store: %s for %s; treating as a miss",
                           reason, path.name)
            return None
        try:
            trace = CapturedTrace.load(path)
        except (OSError, ValueError, KeyError):
            # digest matched but the archive does not parse: a corrupt
            # payload was stored wholesale (writer bug, not bit rot)
            self.integrity_failures += 1
            self.misses += 1
            logger.warning("trace store: undecodable entry %s; treating "
                           "as a miss", path.name)
            return None
        self.hits += 1
        return trace

    def _sweep_stale_tmp(self) -> None:
        """Age out ``*.tmp`` debris left by writers killed mid-save.

        A SIGKILL inside :func:`~repro.fileio.atomic_file`, before its
        ``os.replace``, orphans the temp file; it can never be mistaken
        for an entry (entries end in ``.npz``), but it would accumulate
        forever.  Swept lazily on a miss so the hot hit path never pays
        for it.
        """
        try:
            candidates = list(self.root.glob("*.tmp"))
        except OSError:
            return
        now = time.time()
        for tmp in candidates:
            try:
                if now - tmp.stat().st_mtime > self.TMP_STALE_SECONDS:
                    tmp.unlink()
                    logger.warning("trace store: removed orphaned temp "
                                   "file %s (crashed writer)", tmp.name)
            except OSError:
                pass                        # concurrent sweep or live writer

    def put(self, descriptor: Dict[str, object],
            trace: CapturedTrace) -> Path:
        path = self.path_for(descriptor)
        with pid_lock(self.lock_path_for(descriptor)):
            trace.save(path)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            with atomic_file(self.digest_path_for(descriptor),
                             durable=False) as handle:
                handle.write((digest + "\n").encode("ascii"))
        return path

    def get_or_capture(
            self, descriptor: Dict[str, object],
            capture: Callable[[], CapturedTrace],
            reuse: bool = True) -> Tuple[CapturedTrace, float, bool]:
        """Return ``(trace, capture_seconds, cache_hit)``.

        ``reuse=False`` (the ``--no-trace-reuse`` escape hatch) forces a
        fresh capture; the store entry is refreshed either way.
        """
        if reuse:
            cached = self.get(descriptor)
            if cached is not None:
                return cached, 0.0, True
        start = time.perf_counter()
        trace = capture()
        elapsed = time.perf_counter() - start
        self.put(descriptor, trace)
        return trace, elapsed, False


# ------------------------------------------------- synthetic-trace capture
def synthetic_fetch_descriptor(program, length: int) -> Dict[str, object]:
    return {"kind": "synthetic-fetch",
            "program": dataclasses.asdict(program),
            "length": int(length)}


def capture_synthetic_fetch(program, length: int) -> CapturedTrace:
    addresses = np.fromiter(program.instruction_trace(length),
                            dtype=np.int64, count=length)
    return CapturedTrace(
        arrays={"addresses": addresses},
        meta={"kind": "synthetic-fetch", "length": int(length)})


def synthetic_data_descriptor(program, references: int) -> Dict[str, object]:
    return {"kind": "synthetic-data",
            "program": dataclasses.asdict(program),
            "references": int(references)}


def capture_synthetic_data(program, references: int) -> CapturedTrace:
    addresses = np.empty(references, dtype=np.int64)
    is_store = np.empty(references, dtype=np.int8)
    for i, (address, store) in enumerate(program.data_trace(references)):
        addresses[i] = address
        is_store[i] = store
    return CapturedTrace(
        arrays={"addresses": addresses, "is_store": is_store},
        meta={"kind": "synthetic-data", "references": int(references)})
