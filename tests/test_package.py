# tests/test_package.py
"""The public API: every exported name exists, and each is exported once;
importing the package pins BLAS to one thread unless told otherwise."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpsmap


def test_all_names_resolve_once():
    names = dpsmap.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(dpsmap, name)] == []


# the OpenBLAS thread lookup of bench/child.py, run in a fresh interpreter
_THREADS = r"""
import ctypes, os, sys
FIRST
import numpy as np
threads = None
libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
for fname in sorted(os.listdir(libdir)) if os.path.isdir(libdir) else ():
    if "openblas" not in fname:
        continue
    lib = ctypes.CDLL(os.path.join(libdir, fname))
    for sym in ("scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(threads)
"""

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_blas_threads(first, **env_vars):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    src = str(Path(dpsmap.__file__).parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_vars)
    out = subprocess.run([sys.executable, "-c", _THREADS.replace("FIRST", first)],
                         env=env, capture_output=True, text=True, check=True).stdout
    return None if out.strip() == "None" else int(out)


def test_importing_dpsmap_starts_one_blas_thread():
    threads = _child_blas_threads("import dpsmap")
    if threads is None:
        pytest.skip("numpy is not linked against a bundled OpenBLAS")
    assert threads == 1
    if (os.cpu_count() or 1) > 1:
        # a thread count the user chose, or numpy imported first, is kept
        assert _child_blas_threads("import dpsmap", OMP_NUM_THREADS="2") == 2
        assert _child_blas_threads("import numpy, dpsmap") > 1
