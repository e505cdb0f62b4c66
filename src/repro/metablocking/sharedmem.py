"""Shared-memory transport for the CSR index's numeric buffers.

Under a process executor the broadcast CSR index used to travel *inside* the
pickled stage chain: every worker deserialised a multi-MB copy of the offset
arrays per stage.  The buffers are plain ``int64`` / ``float64`` blocks, so
the driver can instead copy them once into one
:class:`multiprocessing.shared_memory.SharedMemory` segment and ship only the
segment *name* plus a field layout.  Workers attach and wrap each field
as a zero-copy ``np.frombuffer`` view — the index is mapped once per machine,
not pickled per worker.

The generic segment machinery (naming, resource-tracker-safe attach, quiet
close, orphan sweep, attachment cache) lives in :mod:`repro.engine.sharedmem`
and is shared with the shuffle block store; this module keeps only the
numpy-specific layer: packing named numeric fields into one segment and
handing out zero-copy views.

Naming, ownership and unlink responsibilities
---------------------------------------------
* segments are named ``repro-csr-<pid>-<seq>`` (see
  :func:`repro.engine.sharedmem.make_segment_name`); the embedded pid is the
  exporting driver's, which the orphan sweep uses to detect dead owners;
* the driver exports (``create=True``) and owns the segment; it unlinks it in
  :meth:`SharedIndexBuffers.release` — wired to ``EngineContext.stop()``
  through the index's ``release_shared`` hook — and a ``weakref.finalize``
  backstop unlinks on garbage collection / interpreter exit, so no
  ``/dev/shm`` segment outlives the run;
* workers attach (``create=False``) and only ever close their mapping — they
  never unlink; the attach is untracked so a worker's resource tracker never
  claims a name the driver is responsible for unlinking;
* after a pool crash, :func:`sweep_orphaned_segments` unlinks segments whose
  owning process is dead or whose own-pid registration was lost.
"""

from __future__ import annotations

import weakref
from typing import Any

import numpy as np

from repro.engine.sharedmem import (
    _handles,
    _live_owned,
    cache_attachment,
    cached_attachment,
    live_segments as _live_engine_segments,
    make_segment_name,
    attach_untracked as _attach_untracked,
    quiet_close as _quiet_close,
    register_owned,
    release_segment as _release_segment,
    sweep_orphaned_segments,
)
from repro.exceptions import MetaBlockingError

__all__ = [
    "SEGMENT_PREFIX",
    "SharedIndexBuffers",
    "live_segments",
    "sweep_orphaned_segments",
]

SEGMENT_KIND = "csr"

SEGMENT_PREFIX = "repro-csr"

_ITEM_SIZE = 8  # both int64 ('q') and float64 ('d') fields


class SharedIndexBuffers:
    """One shared-memory segment holding a set of named numeric fields.

    ``layout`` maps field name → ``(offset_items, length_items, typecode)``
    with typecode ``"q"`` (int64) or ``"d"`` (float64); it is tiny and rides
    in the pickle next to the segment name.
    """

    def __init__(self, shm, layout: dict[str, tuple[int, int, str]], owner: bool) -> None:
        self.shm = shm
        self.layout = layout
        self.owner = owner
        self.name = shm.name
        self._released = False
        self._finalizer = weakref.finalize(self, _release_segment, shm, owner)

    # ------------------------------------------------------------------ build
    @classmethod
    def export(cls, fields: dict[str, tuple[Any, str]]) -> "SharedIndexBuffers":
        """Copy ``fields`` (name → (buffer, typecode)) into a fresh segment."""
        from multiprocessing import shared_memory

        layout: dict[str, tuple[int, int, str]] = {}
        offset = 0
        for field, (buffer, typecode) in fields.items():
            length = len(buffer)
            layout[field] = (offset, length, typecode)
            offset += length
        name = make_segment_name(SEGMENT_KIND)
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, offset * _ITEM_SIZE)
        )
        for field, (buffer, typecode) in fields.items():
            start, length, _ = layout[field]
            if not length:
                continue
            view = np.frombuffer(
                shm.buf,
                dtype=np.int64 if typecode == "q" else np.float64,
                count=length,
                offset=start * _ITEM_SIZE,
            )
            # A memmap-backed index hands ndarray views here; everything else
            # is a stdlib array reached through the buffer protocol.
            if isinstance(buffer, np.ndarray):
                view[:] = buffer
            else:
                view[:] = np.frombuffer(buffer, dtype=view.dtype)
            del view  # keep the export handle closable
        # Owner handles are deliberately NOT put in the attachment cache: a
        # cached strong reference would keep an abandoned export alive and
        # defeat the garbage-collection unlink backstop.  A same-process
        # attach of an owned segment simply maps it a second time.
        register_owned(name)
        return cls(shm, layout, owner=True)

    @classmethod
    def attach(cls, name: str, layout: dict[str, tuple[int, int, str]]) -> "SharedIndexBuffers":
        """Attach to an exported segment (cached for the process lifetime)."""
        cached = cached_attachment(name)
        if cached is not None:
            return cached
        try:
            shm = _attach_untracked(name)
        except FileNotFoundError as error:
            raise MetaBlockingError(
                f"shared CSR index segment {name!r} is gone — was the owning "
                f"EngineContext stopped while tasks were still running?"
            ) from error
        handle = cls(shm, layout, owner=False)
        cache_attachment(name, handle)
        return handle

    # ------------------------------------------------------------------ views
    def view(self, field: str):
        """Zero-copy ndarray view of one field."""
        start, length, typecode = self.layout[field]
        return np.frombuffer(
            self.shm.buf,
            dtype=np.int64 if typecode == "q" else np.float64,
            count=length,
            offset=start * _ITEM_SIZE,
        )

    def views(self) -> dict[str, Any]:
        """Zero-copy views of every field."""
        return {field: self.view(field) for field in self.layout}

    # -------------------------------------------------------------- lifecycle
    def release(self) -> None:
        """Close the mapping now (and unlink the segment when owning it)."""
        if not self._released:
            self._released = True
            self._finalizer()

    @property
    def released(self) -> bool:
        return self._released

    def __repr__(self) -> str:
        role = "owner" if self.owner else "attached"
        state = "released" if self._released else "live"
        return f"SharedIndexBuffers(name={self.name!r}, {role}, {state})"


def live_segments() -> list[str]:
    """Names of this process's exported CSR segments still in /dev/shm.

    Test helper for the no-leak guarantee; returns an empty list on platforms
    without a /dev/shm view of POSIX shared memory.
    """
    return _live_engine_segments(SEGMENT_KIND)
