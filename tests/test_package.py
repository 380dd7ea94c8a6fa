# tests/test_package.py
"""The public API: every exported name exists, and each is exported once;
importing the package pins BLAS to one thread unless told otherwise; a CLI
run loads no more than it uses; the package holds no function the CLI never
runs; each module stays small enough to compile in one parser token
array; the CI workflow's smoke steps pass."""
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import dpsmap


def test_all_names_resolve_once():
    names = dpsmap.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(dpsmap, name)] == []


@pytest.mark.parametrize("path", sorted(Path(dpsmap.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_module_fits_one_parser_token_array(path):
    """CPython 3.11's parser holds a module's tokens in an array of 4,096
    and doubles it past that: a suites.py past that size raised the compile
    peak under tracemalloc from 1.48 to 1.77 MB, which a process that
    compiles the package from source (PYTHONDONTWRITEBYTECODE=1) pays in
    peak RSS.  Tokens are counted as tokenize lists them, without comments,
    non-logical newlines and the encoding marker."""
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with path.open("rb") as fh:
        count = sum(tok.type not in skipped for tok in tokenize.tokenize(fh.readline))
    assert count < 4096


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


def test_map_loads_neither_argparse_nor_gettext(tmp_path):
    """The CLI parses its arguments from its own option table."""
    assert _loaded_after(["map", "--n", "2", "--out", str(tmp_path / "x")],
                         ("argparse", "gettext"), "sys.modules") == "0 []"


def test_field_dump_builds_no_q_by_q_character_table():
    assert _loaded_after(["field", "--n", "8"],
                         ("char_matrix", "char_matrix_c", "xor_grid", "trace_form"),
                         "vars(gf2n.field_context(8))") == "0 []"


# a fixed CLI sweep run in-process under sys.setprofile; prints every function
# defined in the package that no command entered, as "module.qualname"
_SWEEP = r"""
import contextlib, inspect, io, json, os, sys, tempfile
from pathlib import Path
from dpsmap import cli, mubrot

pkg = Path(cli.__file__).parent
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

os.chdir(tempfile.mkdtemp())
Path("amps.json").write_text(json.dumps({"amplitudes": [[0.5, 0]] * 4}))
sweep = [["map", "--n", "2", "--state", state, "--format", fmt, "--project"]
         for state in ("ghz", "w", "coherent", "logical:01", "@amps.json")
         for fmt in ("json", "csv", "gnuplot")]
sweep += [["map", "--n", "2", "--s", "1", "--format", "csv", "--project", "--out", "p"],
          ["map", "--n", "2", "--s", "-1", "--project", "--out", "m"],
          ["verify", "--suite", "all", "--n", "3"],
          ["verify", "--suite", "all", "--n", "4"],
          ["field", "--n", "3", "--out", "field.json"]]
sweep += [["mub", "--n", "3", "--scheme", scheme] for scheme in mubrot.SCHEMES]
sweep += [["diff", f"dpsmap-ghz-n2-s0-tomographic-p1.{kind}.json",
           f"dpsmap-w-n2-s0-tomographic-p1.{kind}.json"] for kind in ("grid", "proj")]
sweep += [["--help"], ["map", "--help"]]
sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in sweep]
sys.setprofile(None)
assert codes == [0] * (len(codes) - 4) + [1, 1, 0, 0], codes

never = []
for path in sorted(pkg.glob("*.py")):
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if inspect.iscode(const):
                stack.append(const)
                func = const.co_flags & inspect.CO_OPTIMIZED
                key = (const.co_filename, const.co_firstlineno)
                if func and not const.co_name.startswith("<") and key not in entered:
                    never.append(f"{path.stem}.{const.co_qualname}")
print(json.dumps(sorted(never)))
"""

# function -> why it stays in the package although the sweep never runs it
_NOT_ON_A_CLI_PATH = {
    "gf2n.FieldContext.__repr__": "debugging aid; no output prints a context",
    "pauli.PhaseConvention.__repr__": "debugging aid; no output prints a convention",
    "pauli.PhaseConvention._exponent_table": "abstract; every convention overrides it",
    "pauli.permutation_op": "traced by bench/tracing.py, which looks it up",
    "symproj.ProjectedFunction.entries": "read by bench/checks.py, which looks a "
                                         "projection's values up by orbit label",
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")
def test_every_function_in_the_package_runs_on_a_cli_path(tmp_path):
    """Test-only code belongs in tests/oracles.py, not in the package."""
    never = json.loads(_child_output(_SWEEP, TMPDIR=str(tmp_path)))
    assert never == sorted(_NOT_ON_A_CLI_PATH)


_ROOT = Path(__file__).resolve().parents[1]


def test_ci_workflow_smoke_steps_pass(tmp_path):
    """Every ``run:`` step of the CI workflow but the install and tier-1
    steps, run from the repository root in the shell GitHub uses."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((_ROOT / ".github/workflows/tests.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]
             if "run" in step]
    smoke = [step for step in steps
             if "pip install" not in step["run"] and "pytest" not in step["run"]]
    assert len(smoke) == len(steps) - 2
    # the steps call ``python``: make it this interpreter; their mktemp
    # directories go under tmp_path
    (tmp_path / "bin").mkdir()
    (tmp_path / "bin" / "python").symlink_to(sys.executable)
    env = dict(os.environ, PATH=f"{tmp_path / 'bin'}{os.pathsep}{os.environ['PATH']}",
               TMPDIR=str(tmp_path))
    running = []
    for i, step in enumerate(smoke):
        script = tmp_path / f"step{i}.sh"
        script.write_text(step["run"])
        # the steps share no files, so they run side by side
        running.append((step["name"], subprocess.Popen(
            ["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script)],
            cwd=_ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)))
    failed = []
    for name, proc in running:
        out, err = proc.communicate()
        if proc.returncode:
            failed.append((name, proc.returncode, out[-2000:], err[-2000:]))
    assert failed == []
