"""Output checks for one workload pass, made from outside the program.

Runs inside the child after the timed command list, so its cost counts in
no end-to-end time.  Grids are read back through the package's own loader
(``serialize.load_symbol``); the text formats are parsed here.  Each check
returns an error string, or None when the output is correct.
"""

from __future__ import annotations

import json
import os

import numpy as np

from dpsmap import serialize

TOL = 1e-9


def _read(workdir, name):
    with open(os.path.join(workdir, name)) as fh:
        return fh.read()


def _load(workdir, name):
    return serialize.load_symbol(_read(workdir, name))


def _check_grid(workdir, spec, outcome):
    psf = _load(workdir, spec["file"])
    q = 2 ** spec["n"]
    grid = np.asarray(psf.grid)
    if grid.shape != (q, q):
        return f"grid shape {grid.shape}, expected {(q, q)}"
    # every state the workloads map is a normalized pure state: Tr rho = 1
    mass = abs(complex(grid.sum()) - q)
    if mass > TOL:
        return f"|total - q Tr rho| = {mass:.3e}"
    if spec["hermitian"]:
        imag = float(np.max(np.abs(grid.imag)))
        if imag > TOL:
            return f"hermitian convention gave imaginary part {imag:.3e}"
    return None


def _check_proj(workdir, spec, outcome):
    proj = _load(workdir, spec["file"])
    grid = _load(workdir, spec["grid"])
    dev = abs(proj.total() - complex(np.asarray(grid.grid).sum()))
    if dev > TOL:
        return f"projection total differs from grid total by {dev:.3e}"
    return None


def _text_values(text, fmt):
    """Complex values of a csv or gnuplot export, in file order."""
    values = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        cols = line.split("," if fmt == "csv" else None)
        if not cols[0].isdigit():
            continue                       # csv column header
        # grids: a b re im; projections: m n k re im R
        re, im = (cols[2], cols[3]) if len(cols) == 4 else (cols[3], cols[4])
        values.append(complex(float(re), float(im)))
    return np.array(values)


def _check_text(workdir, spec, outcome):
    values = _text_values(_read(workdir, spec["file"]), spec["format"])
    ref = _load(workdir, spec["ref"])
    if hasattr(ref, "grid"):
        expect = np.asarray(ref.grid).ravel()
    else:
        expect = np.array([ref.entries[key] for key in sorted(ref.entries)])
    if values.shape != expect.shape:
        return f"{values.size} rows, expected {expect.size}"
    dev = float(np.max(np.abs(values - expect)))
    if dev > TOL:
        return f"differs from the JSON export by {dev:.3e}"
    return None


def _check_verify(workdir, spec, outcome):
    report = json.loads(_read(workdir, spec["file"]))
    if report.get("n") != spec["n"]:
        return f"report is for n={report.get('n')}"
    if report.get("passed") is not True:
        return "verify report did not pass"
    return None


def _check_diff_self(workdir, spec, outcome):
    report = json.loads(outcome["stdout"])
    if report["max_deviation"] != 0.0:
        return f"self-diff max deviation {report['max_deviation']}"
    return None


def _check_mub(workdir, spec, outcome):
    record = json.loads(_read(workdir, spec["file"]))
    q = 2 ** spec["n"]
    bases = [np.array([[complex(re, im) for re, im in vec] for vec in states])
             for states in record["bases"].values()]
    if len(bases) != q + 1:
        return f"{len(bases)} bases, expected {q + 1}"
    for b in bases:
        if b.shape != (q, q):
            return f"basis of shape {b.shape}, expected {(q, q)}"
        if np.max(np.abs(b.conj() @ b.T - np.eye(q))) > TOL:
            return "basis vectors are not orthonormal"
    for i, a in enumerate(bases):
        for b in bases[i + 1:]:
            if np.max(np.abs(np.abs(a.conj() @ b.T) ** 2 - 1.0 / q)) > TOL:
                return "two bases are not mutually unbiased"
    return None


def _check_field(workdir, spec, outcome):
    record = json.loads(_read(workdir, spec["file"]))
    if record.get("n") != spec["n"]:
        return f"field dump is for n={record.get('n')}"
    return None


_CHECKS = {"grid": _check_grid, "proj": _check_proj, "text": _check_text,
           "verify": _check_verify, "diff-self": _check_diff_self,
           "mub": _check_mub, "field": _check_field}


def check_command(workdir, command, outcome):
    """The first problem with one command's outputs, or None."""
    if outcome["code"] != 0:
        return f"exit code {outcome['code']}"
    for spec in command["checks"]:
        try:
            error = _CHECKS[spec["kind"]](workdir, spec, outcome)
        except Exception as exc:      # an unreadable output is a failed check
            error = f"{spec['kind']} check raised {type(exc).__name__}: {exc}"
        if error:
            return f"{spec.get('file', spec['kind'])}: {error}"
    return None
