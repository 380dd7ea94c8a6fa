# tests/test_package.py
"""The public API: every exported name exists, and each is exported once;
importing the package pins BLAS to one thread unless told otherwise; a CLI
run loads no more than it uses."""
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


def _child_output(code, **env_vars):
    """Standard output of ``code`` run in a fresh interpreter on this dpsmap."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    src = str(Path(dpsmap.__file__).parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_vars)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def _child_blas_threads(first, **env_vars):
    out = _child_output(_THREADS.replace("FIRST", first), **env_vars)
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


# what a CLI command leaves loaded, printed by a fresh interpreter after it
_AFTER_COMMAND = r"""
import contextlib, io, sys
from dpsmap import cli, gf2n
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(ARGV)
print(code, sorted(NAMES & set(WHERE)))
"""


def _loaded_after(argv, names, where):
    code = (_AFTER_COMMAND.replace("ARGV", repr(argv))
            .replace("NAMES", repr(set(names))).replace("WHERE", where))
    return _child_output(code).strip()


def test_verify_loads_neither_numpy_random_nor_openssl():
    """The suites draw from the stdlib generator: no numpy.random, whose
    import pulls in secrets, hashlib and OpenSSL."""
    assert _loaded_after(["verify", "--suite", "all", "--n", "3"],
                         ("numpy.random", "secrets", "hashlib", "_hashlib"),
                         "sys.modules") == "0 []"


def test_field_dump_builds_no_q_by_q_character_table():
    assert _loaded_after(["field", "--n", "8"],
                         ("char_matrix", "char_matrix_c", "xor_grid"),
                         "vars(gf2n.field_context(8))") == "0 []"
