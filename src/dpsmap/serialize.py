"""Deterministic export/import of symbols and projections.

Grid symbols serialize row-major over (alpha, beta) in polynomial-basis
integer order, with the self-dual coordinate strings included per CSV row.
All writers sort keys and use shortest-round-trip float formatting, so a
fixed configuration produces byte-identical files.

Every JSON output, the ``verify`` and ``diff`` reports included, is byte for
byte what ``json.dumps(record, sort_keys=True, indent=2)`` writes, but none
goes through that encoder, which is pure Python whenever ``indent`` is set;
it survives only as the test oracle.  ``_dumps`` writes the plain values
(str through the C ``encode_basestring_ascii``, floats as ``float.__repr__``
with JSON's ``NaN`` / ``Infinity`` / ``-Infinity`` tokens) and a complex
ndarray (a grid, a fiducial, a MUB basis) as nested ``[re, im]`` pairs from
``float.__repr__`` lists, made once per distinct 64-bit pattern (same bytes)
when an array of over 64 values has two equal among its first 64 real parts;
projection entries and MUB bases are spliced in at their top-level key.  CSV
and gnuplot rows use the same ``float.__repr__`` text.  The one reader,
``load_symbol``, runs ``json.loads``, dispatches on ``kind`` and fills each
array with one ``np.fromiter`` pass, after checking every length.

A projection is written and read as its orbit-indexed array, one entry
``[[m, n, k], [re, im], R]`` per orbit in ``orbit_weights`` order; a record
that lists any other keys, or an orbit twice or out of order, does not load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii

import numpy as np

from ._version import __version__
from .errors import ConfigurationError
from .gf2n import MAX_N, FieldContext, field_context
from .kernels import PhaseSpaceFunction, SymbolMeta
from .symproj import ProjectedFunction


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _reprs(z: np.ndarray) -> tuple[list, list]:
    """``float.__repr__`` of the real and imaginary parts of a complex array, in C order;
    above 64 values, once per 64-bit pattern if two of the first 64 real parts are equal."""
    re = z.real.ravel().tolist()
    if z.size <= 64 or len(set(re[:64])) == 64:
        im = z.imag.ravel().tolist()
        return list(map(float.__repr__, re)), list(map(float.__repr__, im))
    flat = np.stack([z.real, z.imag]).ravel()
    # return_index sorts stably, as the orbit runs do; the default sort adds 0.3 MB RSS
    _, first, inv = np.unique(flat.view(np.int64), return_index=True, return_inverse=True)
    texts = list(map(float.__repr__, flat[first].tolist()))
    out = list(map(texts.__getitem__, inv.tolist()))
    return out[:z.size], out[z.size:]


def _json_list(items: list, depth: int, brackets: str = "[]") -> str:
    """The ``indent=2`` JSON list (with ``brackets`` "{}", object) of preformatted
    items, its opening bracket at nesting depth ``depth``."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}\n{'  ' * depth}{brackets[1]}"


def _pairs_json(values, depth: int) -> list:
    """A complex array as ``json.dumps(..., indent=2)`` would write it as
    nested ``[re, im]`` pairs, one text per item of its first axis, each
    item at nesting depth ``depth``.

    Floats are ``float.__repr__`` (what ``json`` writes for finite floats),
    with JSON's ``NaN`` / ``Infinity`` / ``-Infinity`` tokens otherwise.
    """
    z = np.asarray(values, dtype=complex)
    re, im = _reprs(z)
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


def _dumps(obj, depth: int = 0) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for the values dpsmap
    writes, with the outermost bracket at nesting depth ``depth``.

    Dict keys must be str.  A complex ndarray is written as its nested
    ``[re, im]`` pairs, as the encoder writes ``[[z.real, z.imag], ...]``.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _JSON_NONFINITE.get(text, text)
    if isinstance(obj, dict):
        return _json_list([f"{encode_basestring_ascii(key)}: {_dumps(obj[key], depth + 1)}"
                           for key in sorted(obj)], depth, "{}")
    if isinstance(obj, (list, tuple)):
        return _json_list([_dumps(item, depth + 1) for item in obj], depth)
    if isinstance(obj, np.ndarray):
        return _json_list(_pairs_json(obj, depth + 1), depth)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _pair_lists(z: np.ndarray) -> list:
    """A complex array as the nested ``[re, im]`` lists the encoder writes."""
    return np.stack([z.real, z.imag], axis=-1).tolist()


def _metadata(sym: SymbolMeta, config=None, constants=None) -> dict:
    record = {f.name: getattr(sym, f.name) for f in fields(SymbolMeta)}
    if sym.fiducial is not None:
        record["fiducial"] = np.asarray(sym.fiducial, dtype=complex)
    record.update(version=__version__, config=config, constants=constants)
    return record


def _splice(record: dict, key: str, body: str) -> str:
    """``_dumps(record)`` plus a newline, with the top-level ``key`` holding
    the preformatted JSON text ``body``.

    The key's line is the only place where a newline, two spaces and an
    unescaped quote meet: nested keys sit deeper and JSON escapes every
    newline and quote inside a string value.
    """
    marker = f"\n  {encode_basestring_ascii(key)}: "
    head, _, tail = _dumps({**record, key: None}).partition(marker + "null")
    return f"{head}{marker}{body}{tail}\n"


def _to_csv(sym: SymbolMeta, header: str, rows, config, constants) -> str:
    meta = _metadata(sym, config, constants)
    lines = [f"# {key}: {json.dumps(meta[key], sort_keys=True, default=_pair_lists)}"
             for key in sorted(meta)]
    return "\n".join([*lines, header, *rows]) + "\n"


def _to_gnuplot(sym: SymbolMeta, kind: str, columns: str, rows) -> str:
    return "\n".join([f"# {kind} symbol n={sym.n} s={sym.s} convention={sym.convention}",
                      f"# columns: {columns}", *rows]) + "\n"


def _complexes(pairs: list, count: int, must: str):
    """An iterator of ``complex(re, im)`` over ``count`` ``[re, im]`` pairs, for
    ``np.fromiter``.  That drops items past its count, so every length is checked
    here first; a wrong one raises ``must`` with what was found."""
    if len(pairs) != count or set(map(len, pairs)) != {2}:
        at = next((i for i, pair in enumerate(pairs) if len(pair) != 2), None)
        raise ConfigurationError(f"{must}, got {len(pairs)} pairs" if at is None
                                 else f"{must}, got pair {at} of length {len(pairs[at])}")
    return starmap(complex, pairs)


def _from_record(record: dict, kind: str):
    """The symbol held by a parsed record of the given kind."""
    n = record["n"]
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_N:
        raise ConfigurationError(f"record n must be an integer in 1..{MAX_N}, got {n!r}")
    q = 1 << n
    meta = {f.name: record[f.name] for f in fields(SymbolMeta) if f.name in record}
    if meta.get("fiducial") is not None:
        must = f"fiducial must hold {q} amplitudes for n = {n}"
        meta["fiducial"] = np.fromiter(_complexes(meta["fiducial"], q, must), complex, q)
    if kind == "grid":
        rows, must = record["grid"], f"grid must be {q}x{q} for n = {n}"
        if len(rows) != q:
            raise ConfigurationError(f"{must}, got {len(rows)} rows")
        cells = [_complexes(row, q, f"{must} (row {a})") for a, row in enumerate(rows)]
        grid = np.fromiter(chain.from_iterable(cells), complex, q * q).reshape(q, q)
        return PhaseSpaceFunction(grid=grid, **meta)
    orbits = list(field_context(n).orbit_sizes)
    keys = [tuple(key) for key, _z, _r in record["entries"]]
    if keys != orbits:
        got, want = keys + ["nothing"], orbits + ["nothing"]
        at = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        raise ConfigurationError(
            f"projection keys are not (m, n, k) orbits for n = {n}, each once in "
            f"order: entry {at} is {got[at]}, expected {want[at]}")
    values = _complexes([z for _key, z, _r in record["entries"]], len(orbits),
                        "projection values must be [re, im] pairs")
    return ProjectedFunction(values=np.fromiter(values, complex, len(orbits)), **meta)


# ----------------------------------------------------------------------
# grid symbols
# ----------------------------------------------------------------------

def psf_to_json(psf: PhaseSpaceFunction, config=None, constants=None) -> str:
    record = dict(_metadata(psf, config, constants), kind="grid", grid=np.asarray(psf.grid))
    return _dumps(record) + "\n"


def _grid_rows(psf: PhaseSpaceFunction, labels: list, sep: str) -> list:
    """One `a sep b sep re sep im` row per grid point, row-major."""
    z = np.asarray(psf.grid, dtype=complex)
    cells = [f"{labels[a]}{sep}{labels[b]}"
             for a in range(z.shape[0]) for b in range(z.shape[1])]
    return [sep.join(row) for row in zip(cells, *_reprs(z))]


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

@lru_cache(maxsize=None)
def _entry_frames(n: int) -> list:
    """The JSON text of each orbit's entry ``[[m, n, k], [re, im], R]`` before
    and after its value pair, at the depth ``proj_to_json`` writes it, in
    orbit order."""
    pad = "\n" + "  " * 3
    return [(f"[{pad}{_json_list(list(map(str, key)), 3)},{pad}", f",{pad}{r}\n    ]")
            for key, r in field_context(n).orbit_sizes.items()]


def proj_to_json(proj: ProjectedFunction, config=None, constants=None) -> str:
    entries = [head + pair + tail for (head, tail), pair
               in zip(_entry_frames(proj.n), _pairs_json(proj.values, 3), strict=True)]
    return _splice(dict(_metadata(proj, config, constants), kind="projected"),
                   "entries", _json_list(entries, 1))


def _proj_rows(proj: ProjectedFunction, sep: str) -> list:
    z, sizes = proj.values, field_context(proj.n).orbit_sizes
    return [sep.join([*map(str, key), re, im, str(r)]) for (key, r), re, im
            in zip(sizes.items(), *_reprs(z), strict=True)]


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


def diff_grids(a: PhaseSpaceFunction, b: PhaseSpaceFunction) -> DiffReport:
    ga, gb = np.asarray(a.grid), np.asarray(b.grid)
    if ga.shape != gb.shape:
        raise ConfigurationError("grid shapes differ")
    with np.errstate(invalid="ignore"):         # inf - inf deviates by NaN
        dev = np.abs(ga - gb)
    worst = np.unravel_index(int(np.argmax(dev)), dev.shape)
    return DiffReport("grid", dev.size, float(dev.max()), float(dev.mean()),
                      [int(worst[0]), int(worst[1])])


def diff_projected(a: ProjectedFunction, b: ProjectedFunction) -> DiffReport:
    if a.n != b.n:
        raise ConfigurationError("projected symbols have different qubit counts")
    with np.errstate(invalid="ignore"):         # inf - inf deviates by NaN
        d = a.values - b.values
    # hypot is abs(complex) bit for bit; np.abs of a complex array is not
    dev = np.hypot(d.real, d.imag)
    worst = int(np.argmax(dev))
    # np.max, unlike max(), keeps a NaN wherever it is, as diff_grids does
    return DiffReport("projected", dev.size, float(np.max(dev)), float(np.mean(dev)),
                      field_context(a.n).orbit_weights[worst].tolist())


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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"malformed symbol record: {exc!r}") from exc


def mub_to_json(family, config=None) -> str:
    """A MUB family as JSON arrays of amplitude pairs, one list per basis."""
    q = family.ctx.order
    texts = _pairs_json(family.states.reshape(q + 1, q, q), 2)
    bases = sorted(zip([*map(str, range(q)), "vertical"], texts))
    return _splice({"version": __version__, "kind": "mub", "n": family.ctx.n,
                    "scheme": family.scheme, "config": config}, "bases", _json_list(
        [f"{encode_basestring_ascii(key)}: {text}" for key, text in bases], 1, "{}"))
