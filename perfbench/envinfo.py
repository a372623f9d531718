"""The environment block attached to every result.

BLAS threads are reported, never pinned: the benchmark measures divrec as a
user runs it, with the BLAS library's default thread count.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path


def commit(root: Path) -> str:
    """HEAD of the checkout's own .git, or "unknown" when it has none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over divrec's source files, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "divrec").rglob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_info() -> dict:
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (TypeError, KeyError):
        pass
    # numpy wheels bundle OpenBLAS next to the package; ask it for its thread count
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs_dir.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                info["threads"] = func()
                return info
    return info


def environment(root: Path, seed: int, workers: int) -> dict:
    import numpy as np

    return {
        "commit": commit(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "workers": workers,
        "seed": seed,
    }
