"""Deterministic export/import of symbols and projections.

Grid symbols serialize row-major over (alpha, beta) in polynomial-basis
integer order, with the self-dual coordinate strings included per CSV row.
All writers sort keys and use shortest-round-trip float formatting, so a
fixed configuration produces byte-identical files.

JSON exports are byte for byte what ``json.dumps(record, sort_keys=True,
indent=2)`` writes, but only the small metadata dict goes through the
encoder (which is pure Python whenever ``indent`` is set).  The grid, the
projection entries and the MUB bases are formatted from ``float.__repr__``
lists, with JSON's ``NaN`` / ``Infinity`` / ``-Infinity`` tokens for values
that are not finite, and spliced in at their top-level key.  CSV and
gnuplot rows use the same ``float.__repr__`` text.  The one reader,
``load_symbol``, is plain ``json.loads`` and dispatches on ``kind``.
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


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _reprs(x: np.ndarray) -> list:
    """``float.__repr__`` of every value of a float array, in C order."""
    return list(map(float.__repr__, x.ravel().tolist()))


def _json_list(items: list, depth: int) -> str:
    """The ``indent=2`` JSON list of preformatted items, its "[" at nesting
    depth ``depth``."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return f"[{pad}{(',' + pad).join(items)}\n{'  ' * depth}]"


def _pairs_json(values, depth: int) -> list:
    """A complex array as ``json.dumps(..., indent=2)`` would write it as
    nested ``[re, im]`` pairs, one text per item of its first axis, each
    item at nesting depth ``depth``.

    Floats are ``float.__repr__`` (what ``json`` writes for finite floats),
    with JSON's ``NaN`` / ``Infinity`` / ``-Infinity`` tokens otherwise.
    """
    z = np.asarray(values, dtype=complex)
    re, im = _reprs(z.real), _reprs(z.imag)
    if not np.isfinite(z).all():
        re, im = ([_JSON_NONFINITE.get(t, t) for t in part] for part in (re, im))
    depth += z.ndim - 1
    pad = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth + "]"
    items = [f"[{pad}{r},{pad}{i}{close}" for r, i in zip(re, im)]
    for size in z.shape[:0:-1]:
        depth -= 1
        items = [_json_list(items[k:k + size], depth)
                 for k in range(0, len(items), size)]
    return items


def _metadata(sym: SymbolMeta, config=None, constants=None) -> dict:
    record = {f.name: getattr(sym, f.name) for f in fields(SymbolMeta)}
    if sym.fiducial is not None:
        fid = np.asarray(sym.fiducial, dtype=complex)
        record["fiducial"] = np.column_stack([fid.real, fid.imag]).tolist()
    record.update(version=__version__, config=config, constants=constants)
    return record


def _splice(record: dict, key: str, body: str) -> str:
    """``json.dumps(record, sort_keys=True, indent=2)`` plus a newline, with
    the top-level ``key`` holding the preformatted JSON text ``body``.

    The key's line is the only place where a newline, two spaces and an
    unescaped quote meet: nested keys sit deeper and JSON escapes every
    newline and quote inside a string value.
    """
    marker = f"\n  {json.dumps(key)}: "
    text = json.dumps({**record, key: None}, sort_keys=True, indent=2)
    head, _, tail = text.partition(marker + "null")
    return f"{head}{marker}{body}{tail}\n"


def _to_json(sym: SymbolMeta, kind: str, key: str, body: str, config, constants) -> str:
    return _splice(dict(_metadata(sym, config, constants), kind=kind), key, body)


def _to_csv(sym: SymbolMeta, header: str, rows, config, constants) -> str:
    meta = _metadata(sym, config, constants)
    lines = [f"# {key}: {json.dumps(meta[key], sort_keys=True)}" for key in sorted(meta)]
    return "\n".join([*lines, header, *rows]) + "\n"


def _to_gnuplot(sym: SymbolMeta, kind: str, columns: str, rows) -> str:
    return "\n".join([f"# {kind} symbol n={sym.n} s={sym.s} convention={sym.convention}",
                      f"# columns: {columns}", *rows]) + "\n"


def _from_record(record: dict, kind: str):
    """The symbol held by a parsed record of the given kind."""
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
    grid = _json_list(_pairs_json(psf.grid, 2), 1)
    return _to_json(psf, "grid", "grid", grid, config, constants)


def _grid_rows(psf: PhaseSpaceFunction, labels: list, sep: str) -> list:
    """One `a sep b sep re sep im` row per grid point, row-major."""
    z = np.asarray(psf.grid, dtype=complex)
    cells = [f"{labels[a]}{sep}{labels[b]}"
             for a in range(z.shape[0]) for b in range(z.shape[1])]
    return [sep.join(row) for row in zip(cells, _reprs(z.real), _reprs(z.imag))]


def psf_to_csv(ctx: FieldContext, psf: PhaseSpaceFunction,
               config=None, constants=None) -> str:
    coords = ["".join(map(str, ctx.to_coords(x))) for x in range(ctx.order)]
    return _to_csv(psf, "a_coords,b_coords,re,im", _grid_rows(psf, coords, ","),
                   config, constants)


def psf_to_gnuplot(psf: PhaseSpaceFunction) -> str:
    """Blocks of `a b re im` rows separated by blank lines (splot input)."""
    rows_n, cols = np.shape(psf.grid)
    flat = _grid_rows(psf, list(map(str, range(max(rows_n, cols)))), " ")
    rows = []
    for a in range(rows_n):
        rows += flat[a * cols:(a + 1) * cols]
        rows.append("")
    return _to_gnuplot(psf, "grid", "alpha beta re im", rows)


# ----------------------------------------------------------------------
# projected symbols
# ----------------------------------------------------------------------

def proj_to_json(proj: ProjectedFunction, config=None, constants=None) -> str:
    keys = sorted(proj.entries)
    pairs = _pairs_json([proj.entries[key] for key in keys], 3)
    entries = [_json_list([_json_list(list(map(str, key)), 3), pair,
                           str(r_factor(proj.n, *key))], 2)
               for key, pair in zip(keys, pairs)]
    return _to_json(proj, "projected", "entries", _json_list(entries, 1),
                    config, constants)


def _proj_rows(proj: ProjectedFunction, sep: str) -> list:
    keys = sorted(proj.entries)
    z = np.array([proj.entries[key] for key in keys], dtype=complex)
    return [sep.join([*map(str, key), re, im, str(r_factor(proj.n, *key))])
            for key, re, im in zip(keys, _reprs(z.real), _reprs(z.imag))]


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
    bases = {"vertical" if slope is None else str(slope): _json_list(_pairs_json(states, 3), 2)
             for slope, states in family.bases.items()}
    body = ",".join(f"\n    {json.dumps(key)}: {bases[key]}" for key in sorted(bases))
    record = {"version": __version__, "kind": "mub", "n": family.ctx.n,
              "scheme": family.scheme, "config": config}
    return _splice(record, "bases", "{" + body + "\n  }" if bases else "{}")
