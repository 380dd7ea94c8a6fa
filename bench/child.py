"""One workload pass in a fresh process: ``python3 child.py PLAN.json``.

Run with the pass's own empty working directory as cwd.  The child
imports ``dpsmap`` from the checkout's ``src/`` (no install), records when
the import returned, runs every command of the plan through
``dpsmap.cli.main(argv)`` -- the function behind the ``dpsmap`` console
script -- then checks the outputs and writes ``result.json`` (and, when
traced, ``spans.json``) into the working directory.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import dpsmap.cli  # noqa: E402  (the import is what setup_s measures)

SETUP_END = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402


def _blas_info():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    if os.path.isdir(libdir):
        import ctypes
        for fname in sorted(os.listdir(libdir)):
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
    return {"numpy": np.__version__, "blas": name, "blas_threads": threads}


def run_commands(plan, tracer=None):
    """Run every command in order; returns (outcomes, wall seconds)."""
    main = dpsmap.cli.main
    outcomes = []
    start = time.perf_counter()
    for index, command in enumerate(plan["commands"]):
        if tracer is not None:
            tracer.command = index
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(command["argv"]))
        except SystemExit as exc:          # argparse rejects bad arguments
            code = exc.code
        except Exception as exc:           # a crash fails this command only
            code = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        outcomes.append({"code": code, "ms": (t1 - t0) * 1e3,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    return outcomes, time.perf_counter() - start


def main(plan_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    if not os.path.abspath(dpsmap.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported dpsmap from {dpsmap.__file__}, not {SRC}")
    tracer = tracing.Tracer().install() if plan["trace"] else None
    outcomes, wall = run_commands(plan, tracer)
    if tracer is not None:
        tracer.uninstall()
        with open("spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    workdir = os.getcwd()
    results = [{"ms": o["ms"],
                "error": checks.check_command(workdir, cmd, o)}
               for cmd, o in zip(plan["commands"], outcomes)]
    record = {"setup_end": SETUP_END, "wall_s": wall, "commands": results,
              "env": _blas_info()}
    with open("result.json", "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1])
