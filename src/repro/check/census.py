"""The image census: durable state at every event frontier, chunk-shared.

An ``arm_at_frontier`` crash fires while its event is emitted, before the
event's side effect applies.  So a snapshot of what a crash would leave,
taken as that event goes by in an uninjected reference run, *is* the crash
state of that frontier, without a replay.  :class:`ImageCensus` takes such
snapshots: every PM region's durable image
(:meth:`~repro.sim.machine.Machine.durable_image`, which under eADR
overlays the LLC's dirty lines) and the PM file namespace.

Storage is shared.  Each region's image is held as ``CHUNK_BYTES`` chunks;
a snapshot reuses the previous snapshot's chunk objects wherever the bytes
did not change, and copies only chunks that did.  Whether a region changed
at all is read from its persist generation
(:attr:`~repro.sim.memory.Region.persist_gen`) without touching its bytes,
and under eADR from whether it holds dirty LLC lines.  When nothing
changed since the previous snapshot the census returns the very same
:class:`DurableImage` object, so a consumer can judge a repeated state
once (the litmus campaign does).

:meth:`DurableImage.load_into` powers a fresh system up over a snapshot:
the same regions, bytes and file names, nothing volatile.  The crash
explorer recovers and judges event frontiers that way.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Bytes per shared chunk of a region image.
CHUNK_BYTES = 1 << 16


class DurableImage:
    """Every PM region's durable bytes and the PM file namespace at one instant.

    ``regions`` holds ``(region name, chunks)`` in allocation order, each
    chunk a read-only uint8 array; ``files`` holds ``(path, region name)``
    in creation order.  Immutable; chunks are shared between snapshots.
    """

    __slots__ = ("regions", "files")

    def __init__(self, regions: tuple, files: tuple) -> None:
        self.regions = regions
        self.files = files

    def region_names(self) -> list[str]:
        return [name for name, _chunks in self.regions]

    def region(self, name: str) -> np.ndarray:
        """Region ``name``'s durable bytes as one read-only uint8 array
        (the chunk itself when the region fits in one)."""
        for region_name, chunks in self.regions:
            if region_name == name:
                return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        raise KeyError(name)

    def load_into(self, system) -> None:
        """Power ``system`` (fresh, with no PM yet) up over this image."""
        machine = system.machine
        for name, chunks in self.regions:
            machine.restore_pm(name, chunks)
        for path, name in self.files:
            system.fs.adopt(path, machine.region(name))

    def key(self, digests: dict) -> tuple:
        """A content key: equal for images with equal names and bytes.

        ``digests`` memoizes chunk digests by object id; pass one dict for
        images whose chunks stay alive while it is used.
        """
        parts = []
        for name, chunks in self.regions:
            ids = []
            for chunk in chunks:
                digest = digests.get(id(chunk))
                if digest is None:
                    digest = digests[id(chunk)] = (
                        chunk, hashlib.blake2b(chunk, digest_size=16).digest())
                ids.append(digest[1])
            parts.append((name, tuple(ids)))
        return self.files, tuple(parts)


def _share(image: np.ndarray, previous: tuple | None) -> tuple:
    """``image`` as chunks, reusing ``previous`` chunks whose bytes match
    (``previous`` itself when every chunk does)."""
    out = []
    for i, lo in enumerate(range(0, image.size, CHUNK_BYTES)):
        piece = image[lo:lo + CHUNK_BYTES]
        if previous is not None and np.array_equal(piece, previous[i]):
            out.append(previous[i])
        else:
            chunk = piece.copy()
            chunk.flags.writeable = False
            out.append(chunk)
    out = tuple(out)
    if previous is not None and all(a is b for a, b in zip(out, previous)):
        return previous
    return out


class ImageCensus:
    """Snapshot a machine's durable state on demand, sharing storage.

    ``census()`` returns a :class:`DurableImage` of what a crash now would
    leave; pass ``fs`` (a :class:`~repro.host.filesystem.DaxFilesystem`)
    to record the file namespace too.  Taking a snapshot emits no event,
    advances no clock and changes no image.
    """

    def __init__(self, machine, fs=None) -> None:
        self._machine = machine
        self._fs = fs
        # region token -> (persist_gen, overlaid dirty lines?, chunks)
        self._kept: dict[int, tuple[int, bool, tuple]] = {}
        self._last: DurableImage | None = None

    def __call__(self) -> DurableImage:
        machine = self._machine
        llc = machine.llc if machine.eadr and len(machine.llc) else None
        kept: dict[int, tuple[int, bool, tuple]] = {}
        regions = []
        for region in machine.regions:
            if not region.is_persistent:
                continue
            entry = self._kept.get(region.token)
            gen = region.persist_gen
            # Under eADR the crash drain writes dirty lines' visible bytes
            # back, and those change without a persist: re-read them.
            dirty = llc is not None and bool(llc.dirty_lines(region))
            if entry is not None and entry[0] == gen and not (dirty or entry[1]):
                chunks = entry[2]
            else:
                image = (machine.durable_image(region) if dirty
                         else region.persisted_view(np.uint8))
                chunks = _share(image, entry[2] if entry is not None else None)
            kept[region.token] = (gen, dirty, chunks)
            regions.append((region.name, chunks))
        self._kept = kept
        files = tuple(self._fs.files()) if self._fs is not None else ()
        last = self._last
        if (last is not None and last.files == files
                and len(last.regions) == len(regions)
                and all(a[0] == b[0] and a[1] is b[1]
                        for a, b in zip(last.regions, regions))):
            return last
        self._last = DurableImage(tuple(regions), files)
        return self._last
