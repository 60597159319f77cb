"""Shared-memory cache plane: one copy of the warm numpy state, N readers.

The process backend used to ship every warm cache section into every
worker by pickling it through the pool initializer — per-worker copies of
numpy-heavy embedding matrices, warm-up datasets and distilled rows,
which caps multi-core scaling exactly where the GNN+SVM pipeline should
parallelize best.  This module replaces those per-worker copies with
``multiprocessing.shared_memory``:

* :class:`SharedArrayStore` owns the segments.  The **parent** publishes
  each hot numpy payload into one segment (``share_all`` /
  ``publish_sections``); what crosses the process border is a
  :class:`SharedArrayRef` — ``(segment name, dtype, shape)``, a few dozen
  bytes — instead of the payload itself.  **Workers** attach
  (``attach`` / ``attach_sections``) and get read-only ``np.ndarray``
  views over the very same pages, zero-copy.
* Lifecycle is parent-owned: the creating process (and only it) unlinks
  its segments — via the context manager, an explicit :meth:`close`, the
  ``finally`` of the service's process-backend stream (which runs even
  when the drain loop turned a killed worker into a ``CampaignFailed``),
  and an ``atexit`` hook as the last line of defence.  A fork-inherited
  copy of the store refuses to unlink (``os.getpid()`` guard), so a
  worker exiting can never tear segments out from under the fleet.
* Attaching never registers with the ``resource_tracker`` (the Python
  3.11 tracker would otherwise double-unlink segments the parent owns
  and warn about "leaked" blocks every worker exit).

Values stay *bit-identical*: a shared view contains exactly the bytes
the parent computed, so campaign results cannot differ between the
pickled path, the shared plane, and a cold recomputation.
"""

from __future__ import annotations

import atexit
import gc
import os
import pickle
import secrets
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.core.finetune import value_from_arrays, value_to_arrays

#: Every segment this module creates carries this prefix, so operators
#: (and the CI leak check) can audit ``/dev/shm`` with one glob.
SEGMENT_PREFIX = "reprocache"


@dataclass(frozen=True)
class SharedArrayRef:
    """A pickle-cheap descriptor of one shared numpy payload.

    This — not the array — is what travels to workers: attaching by
    ``name`` reconstructs a read-only view with the exact ``dtype`` and
    ``shape`` the parent published at byte ``offset`` of the segment.
    Many payloads share one segment (:meth:`SharedArrayStore.share_all`
    packs a publication into a single arena), so a worker maps each
    segment once no matter how many arrays it carries.
    """

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int = 0

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


_ATTACH_LOCK = threading.Lock()


def _noop_register(name, rtype) -> None:
    """Stand-in for ``resource_tracker.register`` while attaching."""


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without resource-tracker registration.

    Python 3.11 registers every attach with the resource tracker, which
    then "cleans up" (unlinks) segments it never owned when the attaching
    process exits — exactly wrong for parent-owned lifecycle (and, when
    attacher and owner share one tracker, unregistering after the fact
    would strip the *owner's* registration instead).  3.13 grew
    ``track=False`` for this; on older interpreters registration is
    suppressed for the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        pass
    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = _noop_register
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SharedArrayStore:
    """Create, attach and deterministically clean up shared numpy segments.

    One store per role: the parent's store *owns* (creates and unlinks)
    segments; a worker's store only *attaches* (closes its mappings,
    never unlinks).  ``close()`` is idempotent and safe to call with
    views still outstanding — references the store handed out are dropped
    first, and a mapping that still has foreign exports is skipped rather
    than crashed on (its name is unlinked regardless, so the segment
    disappears from ``/dev/shm`` the moment the last process exits).
    """

    def __init__(self) -> None:
        self._owned: dict[str, shared_memory.SharedMemory] = {}
        self._attached: dict[str, shared_memory.SharedMemory] = {}
        #: id(array) -> ref for arrays this store already backs, so
        #: publishing one again is free (no second copy, same segment).
        #: Holds strong references deliberately: the arrays' buffers
        #: live in our segments.
        self._ref_of: dict[int, SharedArrayRef] = {}
        self._keepalive: dict[int, np.ndarray] = {}
        self._owner_pid = os.getpid()
        self._closed = False
        atexit.register(self.close)

    # -- parent side ----------------------------------------------------

    def _new_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        name = f"{SEGMENT_PREFIX}_{os.getpid()}_{secrets.token_hex(6)}"
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, nbytes)
        )
        self._owned[segment.name.lstrip("/")] = segment
        return segment

    #: Arena alignment of packed payloads (cache-line sized).
    _ALIGN = 64

    def share_all(self, arrays: "list[np.ndarray]") -> "list[SharedArrayRef]":
        """Publish many arrays, packed into one arena segment.

        The per-segment cost (``shm_open`` + ``ftruncate`` + ``mmap``,
        and one attach syscall per worker) is paid once per *publication*
        rather than once per array — a fleet's whole warm payload rides
        in a single segment.  Arrays the store already backs keep their
        existing descriptors; only the rest are copied.
        """
        if self._closed:
            raise ValueError("cannot share through a closed SharedArrayStore")
        refs: list = [None] * len(arrays)
        pending: list[tuple[int, np.ndarray]] = []
        for position, array in enumerate(arrays):
            known = self._ref_of.get(id(array))
            if known is not None:
                refs[position] = known
            else:
                pending.append((position, np.ascontiguousarray(array)))
        if pending:
            offsets = []
            total = 0
            for _, source in pending:
                total = -(-total // self._ALIGN) * self._ALIGN
                offsets.append(total)
                total += source.nbytes
            segment = self._new_segment(total)
            name = segment.name.lstrip("/")
            for (position, source), offset in zip(pending, offsets):
                view = np.ndarray(
                    source.shape,
                    dtype=source.dtype,
                    buffer=segment.buf,
                    offset=offset,
                )
                view[...] = source
                del view  # no exported buffers left on our mapping
                ref = SharedArrayRef(
                    name=name,
                    dtype=str(source.dtype),
                    shape=tuple(source.shape),
                    offset=offset,
                )
                self._remember(arrays[position], ref)
                refs[position] = ref
        return refs

    def _remember(self, array: np.ndarray, ref: SharedArrayRef) -> None:
        self._ref_of[id(array)] = ref
        self._keepalive[id(array)] = array

    # -- worker side ----------------------------------------------------

    def attach(self, ref: SharedArrayRef) -> np.ndarray:
        """A read-only zero-copy view of the segment ``ref`` names."""
        if self._closed:
            raise ValueError("cannot attach through a closed SharedArrayStore")
        segment = self._owned.get(ref.name) or self._attached.get(ref.name)
        if segment is None:
            segment = _attach_segment(ref.name)
            self._attached[ref.name] = segment
        view = np.ndarray(
            ref.shape,
            dtype=np.dtype(ref.dtype),
            buffer=segment.buf,
            offset=ref.offset,
        )
        view.flags.writeable = False
        self._remember(view, ref)
        return view

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "SharedArrayStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release every view and mapping; unlink what this process owns.

        Idempotent.  Unlinking happens first (the name disappears even if
        some mapping still has live exports elsewhere in this process),
        and only in the creating process — a fork-inherited store closes
        its mappings but leaves the parent's segments alone.

        Views handed out by :meth:`attach` are INVALID after close —
        numpy releases its buffer export eagerly, so nothing pins the
        mapping and reading a stale view is
        undefined behaviour (the same contract as ``SharedMemory``
        itself).  Close only once every consumer is done.
        """
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        self._ref_of.clear()
        self._keepalive.clear()
        collected = False

        def close_segment(segment) -> None:
            # A collection pass is only worth its cost when a mapping
            # actually still has exported buffers (a view the caller let
            # go of but the GC has not reaped yet).
            nonlocal collected
            try:
                segment.close()
                return
            except BufferError:
                pass
            if not collected:
                collected = True
                gc.collect()
            try:
                segment.close()
            except BufferError:
                # A cache entry still references the view; the mapping
                # dies with the process, and the name is already gone.
                pass

        owner = os.getpid() == self._owner_pid
        for segment in self._owned.values():
            if owner:
                try:
                    segment.unlink()
                except FileNotFoundError:
                    pass
            close_segment(segment)
        self._owned.clear()
        for segment in self._attached.values():
            close_segment(segment)
        self._attached.clear()


# ----------------------------------------------------------------------
# cache sections <-> descriptor payloads
# ----------------------------------------------------------------------
#
# :func:`repro.core.finetune.value_to_arrays` says which values carry
# arrays (``embed`` matrices, ``warmup``/``distill`` datasets); here each
# array becomes a :class:`SharedArrayRef` and anything else (``assign``
# cluster ids) rides along pickled.

def publish_sections(entries: dict, store: SharedArrayStore) -> dict:
    """``kind -> [(key, value)]`` -> ``kind -> [(key, encoded)]``.

    The result is what crosses the pool initializer: ``(value kind,
    *descriptors)`` for the numpy payloads, ``("pickled", bytes)`` for
    the rest — pickling in O(bytes of the descriptor), not of the value.
    Every array of the publication is packed into one arena segment
    (:meth:`SharedArrayStore.share_all`), so each worker attaches a
    single mapping regardless of entry count.
    """
    encoded = [
        (kind, key, value, *value_to_arrays(value))
        for kind, items in entries.items()
        for key, value in items
    ]
    refs = iter(
        store.share_all([array for *_, parts in encoded for array in parts])
    )
    payload: dict = {kind: [] for kind in entries}
    for kind, key, value, value_kind, parts in encoded:
        if value_kind == "pickled":
            body = [pickle.dumps(value, pickle.HIGHEST_PROTOCOL)]
        else:
            body = [next(refs) for _ in parts]
        payload[kind].append((key, (value_kind, *body)))
    return payload


def decode_value(encoded: tuple, store: SharedArrayStore):
    """One :func:`publish_sections` entry back to a value whose arrays
    are zero-copy views of the parent's pages."""
    kind, *body = encoded
    if kind == "pickled":
        return pickle.loads(body[0])
    return value_from_arrays(kind, map(store.attach, body))


def attach_sections(payload: dict, store: SharedArrayStore) -> dict:
    """The worker-side inverse of :func:`publish_sections`."""
    return {
        kind: [(key, decode_value(encoded, store)) for key, encoded in items]
        for kind, items in payload.items()
    }
