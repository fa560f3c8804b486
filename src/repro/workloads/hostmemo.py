"""Host compute that no persistence mode changes, run once per trajectory.

HS, CFD and SRAD step their solvers with numpy on the host, BLK prices its
slices there, and BFS's bulk engine expands each frontier level there.  The
simulated GPU is charged from flop and item counts, so none of that math
reads the persistence mode, the checkpoint rate or the simulated clock: a
workload swept across modes (one row of Fig. 9-12) recomputes the same
trajectory in every cell.  :class:`HostTrajectory` remembers each step's
result so that only the first cell of a row pays for it.

* **Key.**  A sha256 digest of everything the trajectory starts from - the
  initial state arrays and every constant input a step reads - plus the step
  index.  A run hashes once, when it builds its :class:`HostTrajectory`;
  any changed input gives a new digest and misses.
* **Entries** are the step's returned tuple, with every array made
  read-only and shared without copying: each memoized step builds new
  arrays and never writes into its inputs in place.
* **Bound.**  Only the last :data:`TRAJECTORIES` digests are kept (least
  recently used first out).  :func:`clear` drops them all; the experiments
  runner's ``clear_cache`` calls it, so a cleared pass runs cold.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable

import numpy as np

#: Trajectories kept at once.  A mode sweep runs one workload's cells back to
#: back, so a few are enough; each costs at most a few MB.
TRAJECTORIES = 4

_memo: OrderedDict[bytes, dict[int, tuple]] = OrderedDict()


def _digest(inputs: tuple) -> bytes:
    h = hashlib.sha256()
    for x in inputs:
        if isinstance(x, np.ndarray):
            payload = np.ascontiguousarray(x)
            h.update(f"{x.dtype.str}{x.shape}:{payload.nbytes}:".encode())
        else:
            payload = repr(x).encode()
            h.update(f"{type(x).__name__}:{len(payload)}:".encode())
        h.update(payload)
    return h.digest()


class HostTrajectory:
    """One run's handle on the memo for the trajectory that starts at ``inputs``.

    ``inputs`` should lead with a label naming the step function (e.g. the
    workload name), so two workloads starting from equal bytes never share
    entries.
    """

    def __init__(self, *inputs) -> None:
        self.key = _digest(inputs)

    def step(self, index: int, compute: Callable[[], tuple]) -> tuple:
        """Step ``index``'s result: remembered, or ``compute()`` on a miss.

        ``compute`` must return a tuple that depends only on the trajectory's
        inputs and ``index``; its arrays are frozen and kept.
        """
        steps = _memo.get(self.key)
        if steps is None:
            steps = _memo[self.key] = {}
            while len(_memo) > TRAJECTORIES:
                _memo.popitem(last=False)
        else:
            _memo.move_to_end(self.key)
        out = steps.get(index)
        if out is None:
            out = compute()
            for x in out:
                if isinstance(x, np.ndarray):
                    x.setflags(write=False)
            steps[index] = out
        return out


def clear() -> None:
    """Drop every remembered trajectory."""
    _memo.clear()
