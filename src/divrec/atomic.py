"""Whole-file writes: a reader of the target sees the old file or the new one."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager

# read once, so a new file gets the mode that open(path, "w") would give it
_UMASK = os.umask(0o022)
os.umask(_UMASK)


@contextmanager
def write_whole(path):
    """Yield a binary file on a new, uniquely named temporary file beside the
    file ``path`` names through any links, and rename it onto that file when
    the block ends; if the block raises, the temporary file is removed and the
    file keeps its bytes. A FIFO or a device is written in place, since a
    rename would replace it."""
    # tested before resolving: /dev/stdout on a pipe resolves to no path
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            yield fh
        return
    path = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(prefix=f"{os.path.basename(path)}.", suffix=".tmp",
                               dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fd, 0o666 & ~_UMASK)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
