"""Deterministic export/import of symbols and projections.

Grid symbols serialize row-major over (alpha, beta) in polynomial-basis
integer order, with the self-dual coordinate strings included per CSV row.
All writers sort keys and use shortest-round-trip float formatting, so a
fixed configuration produces byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from ._version import __version__
from .errors import ConfigurationError
from .gf2n import MAX_N, FieldContext
from .kernels import PhaseSpaceFunction, SymbolMeta
from .symproj import ProjectedFunction, r_factor, valid_triples


def _c2pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _fmt(x: float) -> str:
    return repr(float(x))


def _metadata(sym: SymbolMeta, config=None, constants=None) -> dict:
    record = {f.name: getattr(sym, f.name) for f in fields(SymbolMeta)}
    if sym.fiducial is not None:
        record["fiducial"] = [_c2pair(z) for z in np.asarray(sym.fiducial)]
    record.update(version=__version__, config=config, constants=constants)
    return record


def _to_json(sym: SymbolMeta, kind: str, body: str, values, config, constants) -> str:
    record = _metadata(sym, config, constants)
    record["kind"] = kind
    record[body] = values
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _to_csv(sym: SymbolMeta, header: str, rows, config, constants) -> str:
    meta = _metadata(sym, config, constants)
    lines = [f"# {key}: {json.dumps(meta[key], sort_keys=True)}" for key in sorted(meta)]
    return "\n".join([*lines, header, *rows]) + "\n"


def _to_gnuplot(sym: SymbolMeta, kind: str, columns: str, rows) -> str:
    return "\n".join([f"# {kind} symbol n={sym.n} s={sym.s} convention={sym.convention}",
                      f"# columns: {columns}", *rows]) + "\n"


def _from_record(record: dict, kind: str):
    """The symbol held by a parsed record of the given kind."""
    if record.get("kind") != kind:
        raise ConfigurationError(f"not a {kind}-symbol record")
    n = record["n"]
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_N:
        raise ConfigurationError(f"record n must be an integer in 1..{MAX_N}, got {n!r}")
    meta = {f.name: record[f.name] for f in fields(SymbolMeta) if f.name in record}
    if meta.get("fiducial") is not None:
        meta["fiducial"] = np.array([complex(re, im) for re, im in meta["fiducial"]])
        if meta["fiducial"].shape != (1 << n,):
            raise ConfigurationError(f"fiducial must hold {1 << n} amplitudes for n = {n}")
    if kind == "grid":
        grid = np.array([[complex(re, im) for re, im in row] for row in record["grid"]])
        if grid.shape != (1 << n, 1 << n):
            raise ConfigurationError(
                f"grid must be {1 << n}x{1 << n} for n = {n}, got shape {grid.shape}")
        return PhaseSpaceFunction(grid=grid, **meta)
    entries = {tuple(key): complex(re, im) for key, (re, im), _r in record["entries"]}
    bad = set(entries) - set(valid_triples(n))
    if bad:
        raise ConfigurationError(
            f"projection keys {sorted(bad)} are not (m, n, k) orbits for n = {n}")
    return ProjectedFunction(entries=entries, **meta)


# ----------------------------------------------------------------------
# grid symbols
# ----------------------------------------------------------------------

def psf_to_json(psf: PhaseSpaceFunction, config=None, constants=None) -> str:
    grid = [[_c2pair(v) for v in row] for row in np.asarray(psf.grid)]
    return _to_json(psf, "grid", "grid", grid, config, constants)


def psf_from_json(text: str) -> PhaseSpaceFunction:
    return _from_record(json.loads(text), "grid")


def psf_to_csv(ctx: FieldContext, psf: PhaseSpaceFunction,
               config=None, constants=None) -> str:
    coords = ["".join(map(str, ctx.to_coords(x))) for x in range(ctx.order)]
    rows = [f"{coords[a]},{coords[b]},{_fmt(v.real)},{_fmt(v.imag)}"
            for a, row in enumerate(np.asarray(psf.grid))
            for b, v in enumerate(map(complex, row))]
    return _to_csv(psf, "a_coords,b_coords,re,im", rows, config, constants)


def psf_to_gnuplot(psf: PhaseSpaceFunction) -> str:
    """Blocks of `a b re im` rows separated by blank lines (splot input)."""
    rows = []
    for a, row in enumerate(np.asarray(psf.grid)):
        rows += [f"{a} {b} {_fmt(v.real)} {_fmt(v.imag)}"
                 for b, v in enumerate(map(complex, row))]
        rows.append("")
    return _to_gnuplot(psf, "grid", "alpha beta re im", rows)


# ----------------------------------------------------------------------
# projected symbols
# ----------------------------------------------------------------------

def proj_to_json(proj: ProjectedFunction, config=None, constants=None) -> str:
    entries = [[list(key), _c2pair(proj.entries[key]), r_factor(proj.n, *key)]
               for key in sorted(proj.entries)]
    return _to_json(proj, "projected", "entries", entries, config, constants)


def proj_from_json(text: str) -> ProjectedFunction:
    return _from_record(json.loads(text), "projected")


def _proj_rows(proj: ProjectedFunction, sep: str) -> list:
    rows = []
    for key in sorted(proj.entries):
        v = complex(proj.entries[key])
        rows.append(sep.join([*map(str, key), _fmt(v.real), _fmt(v.imag),
                              str(r_factor(proj.n, *key))]))
    return rows


def proj_to_csv(proj: ProjectedFunction, config=None, constants=None) -> str:
    return _to_csv(proj, "m,n,k,re,im,R", _proj_rows(proj, ","), config, constants)


def proj_to_gnuplot(proj: ProjectedFunction) -> str:
    return _to_gnuplot(proj, "projected", "m n k re im R", _proj_rows(proj, " "))


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
        return _from_record(record, kind)
    except ConfigurationError:
        raise
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
