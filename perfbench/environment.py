"""What a result was measured on: machine, interpreter, libraries, code.

Two results are comparable only when ``describe()`` agrees on both sides
(the ``code`` entry aside, which names what is being compared).
"""

import ctypes
import glob
import hashlib
import os
import platform
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas(package):
    """Runtime configuration and thread count of a wheel's bundled
    OpenBLAS, or None when the package bundles none."""
    libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                        package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix,
                              None)
            config = getattr(lib, "scipy_openblas_get_config" + suffix, None)
            if threads is None or config is None:
                continue
            threads.restype = ctypes.c_int
            threads.argtypes = []
            config.restype = ctypes.c_char_p
            config.argtypes = []
            return {"library": os.path.basename(path),
                    "config": config().decode(), "threads": threads()}
    return None


def describe():
    """Environment of the current process; numpy and scipy get imported."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _openblas(numpy),
        "scipy_blas": _openblas(scipy),
        "thread_env": {k: os.environ.get(k) for k in _THREAD_VARS},
    }


def code_identity(root):
    """Commit of the checkout when it is a git work tree, and a digest of
    every file under ``src/`` either way."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"commit": _git_head(root), "src_sha256": digest.hexdigest()[:16]}


def _git_head(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None
