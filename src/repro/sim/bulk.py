"""Bulk data paths: the transfer descriptor and shared scratch buffers.

:class:`BulkTransfer` is the descriptor the bulk paths (``Gpu.stream_copy``,
the DMA engine, the CAP pipeline, checkpoint staging) lower to.  It performs
one transfer's data movement with the minimum number of numpy copies:

* distinct source/destination regions: a single ``np.copyto`` between
  views (one copy, the functional floor for a visible-image update);
* overlapping ranges of one region: staged through a reusable scratch
  buffer (matching read-copy-write semantics).

Every transfer is eager: the destination's visible image holds the bytes
as soon as :meth:`BulkTransfer.apply` returns.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# scratch buffers: reusable intermediates for the paths that need staging
# ---------------------------------------------------------------------------

#: Process-wide scratch buffers, keyed by caller-chosen identity (typically
#: a ``Region.token``, which is never reused - see ``repro.sim.memory``).
#: Buffers only grow; callers receive a view of the prefix they asked for
#: and must consume it before requesting the same key again.
_scratch: dict[object, np.ndarray] = {}

#: Cached ``0..n-1`` int64 ramp shared by index-vector builders
#: (:meth:`Region.persist_ranges` and friends); grows monotonically.
_iota = np.empty(0, dtype=np.int64)


def scratch_bytes(key: object, nbytes: int) -> np.ndarray:
    """A reusable uint8 scratch buffer of at least ``nbytes`` (view)."""
    buf = _scratch.get(key)
    if buf is None or buf.size < nbytes:
        buf = np.empty(max(nbytes, 4096), dtype=np.uint8)
        _scratch[key] = buf
    return buf[:nbytes]


def iota64(n: int) -> np.ndarray:
    """A read-only view of ``arange(n, dtype=int64)``, shared by callers."""
    global _iota
    if _iota.size < n:
        _iota = np.arange(max(n, 1024), dtype=np.int64)
        _iota.setflags(write=False)
    return _iota[:n]


# ---------------------------------------------------------------------------
# the transfer descriptor
# ---------------------------------------------------------------------------


class BulkTransfer:
    """One whole-range bulk copy: ``dst[dst_off:+n] <- src[src_off:+n]``.

    The descriptor carries only addressing; :meth:`apply` performs the
    functional data movement.  Timing and event accounting stay with the
    caller (``Gpu.stream_copy``, the DMA engine, the CAP pipeline).
    """

    __slots__ = ("dst", "dst_off", "src", "src_off", "nbytes")

    def __init__(self, dst, dst_off: int, src, src_off: int, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("bulk transfer size must be non-negative")
        self.dst = dst
        self.dst_off = dst_off
        self.src = src
        self.src_off = src_off
        self.nbytes = nbytes

    def overlaps_in_place(self) -> bool:
        """True when src and dst ranges alias within one region."""
        if self.dst is not self.src:
            return False
        a, b = self.dst_off, self.dst_off + self.nbytes
        c, d = self.src_off, self.src_off + self.nbytes
        return a < d and c < b

    def apply(self) -> None:
        """Move the bytes into the destination's visible image."""
        n = self.nbytes
        if n == 0:
            return
        src_view = self.src.read_bytes(self.src_off, n)
        if self.overlaps_in_place():
            tmp = scratch_bytes(("xfer", self.dst.token), n)
            np.copyto(tmp, src_view)
            src_view = tmp
        self.dst.write_from(self.dst_off, src_view)
