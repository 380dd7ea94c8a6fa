"""Deterministic export/import of symbols and projections.

Grid symbols serialize row-major over (alpha, beta) in polynomial-basis
integer order, with the self-dual coordinate strings included per CSV row.
All writers sort keys and use shortest-round-trip float formatting, so a
fixed configuration produces byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .errors import ConfigurationError
from .gf2n import FieldContext
from .kernels import PhaseSpaceFunction
from .symproj import ProjectedFunction, r_factor


def _c2pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _fmt(x: float) -> str:
    return repr(float(x))


def _coord_string(ctx: FieldContext, x: int) -> str:
    return "".join(str(c) for c in ctx.to_coords(x))


def _metadata(obj, config=None, constants=None) -> dict:
    fid = getattr(obj, "fiducial", None)
    return {
        "version": __version__,
        "n": obj.n,
        "s": obj.s,
        "convention": obj.convention,
        "convention_invariant": obj.convention_invariant,
        "fiducial": None if fid is None else [_c2pair(z) for z in np.asarray(fid)],
        "provenance": obj.provenance,
        "config": config,
        "constants": constants,
    }


# ----------------------------------------------------------------------
# grid symbols
# ----------------------------------------------------------------------

def psf_to_json(psf: PhaseSpaceFunction, config=None, constants=None) -> str:
    record = _metadata(psf, config, constants)
    record["kind"] = "grid"
    record["grid"] = [[_c2pair(v) for v in row] for row in np.asarray(psf.grid)]
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def psf_from_json(text: str) -> PhaseSpaceFunction:
    record = json.loads(text)
    if record.get("kind") != "grid":
        raise ConfigurationError("not a grid-symbol record")
    grid = np.array([[complex(re, im) for re, im in row] for row in record["grid"]])
    fid = record.get("fiducial")
    return PhaseSpaceFunction(
        n=record["n"], s=record["s"], grid=grid,
        convention=record["convention"],
        convention_invariant=record.get("convention_invariant", False),
        fiducial=None if fid is None else np.array([complex(re, im) for re, im in fid]),
        provenance=record.get("provenance", ""))


def psf_to_csv(ctx: FieldContext, psf: PhaseSpaceFunction,
               config=None, constants=None) -> str:
    meta = _metadata(psf, config, constants)
    lines = [f"# {key}: {json.dumps(meta[key], sort_keys=True)}"
             for key in sorted(meta)]
    lines.append("a_coords,b_coords,re,im")
    grid = np.asarray(psf.grid)
    for a in range(ctx.order):
        sa = _coord_string(ctx, a)
        for b in range(ctx.order):
            v = complex(grid[a, b])
            lines.append(f"{sa},{_coord_string(ctx, b)},{_fmt(v.real)},{_fmt(v.imag)}")
    return "\n".join(lines) + "\n"


def psf_to_gnuplot(psf: PhaseSpaceFunction) -> str:
    """Blocks of `a b re im` rows separated by blank lines (splot input)."""
    out = [f"# grid symbol n={psf.n} s={psf.s} convention={psf.convention}",
           "# columns: alpha beta re im"]
    grid = np.asarray(psf.grid)
    q = grid.shape[0]
    for a in range(q):
        for b in range(q):
            v = complex(grid[a, b])
            out.append(f"{a} {b} {_fmt(v.real)} {_fmt(v.imag)}")
        out.append("")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# projected symbols
# ----------------------------------------------------------------------

def proj_to_json(proj: ProjectedFunction, config=None, constants=None) -> str:
    record = _metadata(proj, config, constants)
    record["kind"] = "projected"
    record["entries"] = [
        [list(key), _c2pair(proj.entries[key]), r_factor(proj.n, *key)]
        for key in sorted(proj.entries)]
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def proj_from_json(text: str) -> ProjectedFunction:
    record = json.loads(text)
    if record.get("kind") != "projected":
        raise ConfigurationError("not a projected-symbol record")
    entries = {tuple(key): complex(re, im)
               for key, (re, im), _r in record["entries"]}
    fid = record.get("fiducial")
    return ProjectedFunction(
        n=record["n"], s=record["s"], entries=entries,
        convention=record["convention"],
        convention_invariant=record.get("convention_invariant", False),
        fiducial=None if fid is None else np.array([complex(re, im) for re, im in fid]),
        provenance=record.get("provenance", ""))


def proj_to_csv(proj: ProjectedFunction, config=None, constants=None) -> str:
    meta = _metadata(proj, config, constants)
    lines = [f"# {key}: {json.dumps(meta[key], sort_keys=True)}"
             for key in sorted(meta)]
    lines.append("m,n,k,re,im,R")
    for key in sorted(proj.entries):
        v = complex(proj.entries[key])
        m, nn, k = key
        lines.append(f"{m},{nn},{k},{_fmt(v.real)},{_fmt(v.imag)},"
                     f"{r_factor(proj.n, *key)}")
    return "\n".join(lines) + "\n"


def proj_to_gnuplot(proj: ProjectedFunction) -> str:
    out = [f"# projected symbol n={proj.n} s={proj.s} convention={proj.convention}",
           "# columns: m n k re im R"]
    for key in sorted(proj.entries):
        v = complex(proj.entries[key])
        m, nn, k = key
        out.append(f"{m} {nn} {k} {_fmt(v.real)} {_fmt(v.imag)} "
                   f"{r_factor(proj.n, *key)}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

@dataclass
class DiffReport:
    kind: str
    points: int
    max_deviation: float
    avg_deviation: float
    worst: object = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "points": self.points,
                "max_deviation": self.max_deviation,
                "avg_deviation": self.avg_deviation,
                "worst": self.worst}


def diff_grids(a: PhaseSpaceFunction, b: PhaseSpaceFunction) -> DiffReport:
    ga, gb = np.asarray(a.grid), np.asarray(b.grid)
    if ga.shape != gb.shape:
        raise ConfigurationError("grid shapes differ")
    dev = np.abs(ga - gb)
    worst = np.unravel_index(int(np.argmax(dev)), dev.shape)
    return DiffReport("grid", dev.size, float(dev.max()), float(dev.mean()),
                      [int(worst[0]), int(worst[1])])


def diff_projected(a: ProjectedFunction, b: ProjectedFunction) -> DiffReport:
    if a.n != b.n:
        raise ConfigurationError("projected symbols have different qubit counts")
    keys = sorted(set(a.entries) | set(b.entries))
    devs = [abs(a.value(*k) - b.value(*k)) for k in keys]
    worst = keys[int(np.argmax(devs))] if keys else None
    return DiffReport("projected", len(keys),
                      float(max(devs, default=0.0)),
                      float(np.mean(devs)) if devs else 0.0,
                      list(worst) if worst else None)


def parse_json(text: str, what: str):
    """Parse JSON input text; malformed text is a configuration error."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ConfigurationError(f"{what} is not valid JSON: {exc}") from exc


def load_symbol(text: str):
    """Load either kind of symbol record from JSON text."""
    record = parse_json(text, "symbol record")
    kind = record.get("kind") if isinstance(record, dict) else None
    if kind not in ("grid", "projected"):
        raise ConfigurationError(f"unrecognized symbol record kind {kind!r}")
    try:
        return (psf_from_json if kind == "grid" else proj_from_json)(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed symbol record: {exc!r}") from exc


def mub_to_json(family, config=None) -> str:
    """A MUB family as JSON arrays of amplitude pairs, one list per basis."""
    bases = {}
    for slope, states in family.bases.items():
        key = "vertical" if slope is None else str(slope)
        bases[key] = [[_c2pair(z) for z in state] for state in states]
    record = {"version": __version__, "kind": "mub", "n": family.ctx.n,
              "scheme": family.scheme, "config": config, "bases": bases}
    return json.dumps(record, sort_keys=True, indent=2) + "\n"
