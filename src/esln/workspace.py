"""Named memory that a run's blocks reuse, so that a block allocates no large array.

Every 512-trajectory block needs the same multi-MiB arrays: the draws, the
fields, the interpolation and generator windows, the series, the pair rows.
Allocated and freed anew in each block, they send the C allocator back to the
kernel for fresh pages every block.  A run instead makes one Workspace per
process, passes it to every block and drops it when the run ends.
"""

from __future__ import annotations

import math
import mmap

import numpy as np


class Workspace:
    """Memory kept under names, each grown to its largest request.

    ``array(name, shape, dtype)`` returns an uninitialised array of ``shape``
    in the memory of ``name``; a smaller request (a short last block) is a
    prefix of it.  The next request for a name overwrites what the last one
    returned, so a name holds one live array at a time.  A function that
    takes a workspace documents the names it uses; those of the arrays it does
    not return are dead when it returns.  Arrays whose lifetimes do not
    overlap share memory through ``shared``, which maps a name to the name
    whose memory it uses.
    """

    def __init__(self, shared: dict | None = None):
        self._memory = {}
        self._shared = dict(shared or {})

    def array(self, name: str, shape: tuple, dtype=complex) -> np.ndarray:
        name = self._shared.get(name, name)
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        memory = self._memory.get(name)
        if memory is None or memory.size < nbytes:
            # mapped apart from the heap, so that memory outgrown in the first
            # block goes back to the system instead of staying resident
            memory = self._memory[name] = np.frombuffer(mmap.mmap(-1, max(nbytes, 1)), np.uint8)
        return memory[:nbytes].view(dtype).reshape(shape)
