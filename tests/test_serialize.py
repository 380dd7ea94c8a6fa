# tests/test_serialize.py
import dataclasses
import functools
import itertools
import json
import operator
import warnings

import numpy as np
import pytest
from oracles import (REFERENCE_IDS, all_lines, diff_projected_by_keys, r_factor,
                     record_arrays, reference_symbol, valid_triples)

from dpsmap import (ConfigurationError, cli, PhaseSpaceFunction, ProjectedFunction,
                    build_kernel, convention_from_name, diff_grids,
                    diff_projected, field_context, forward_map, ghz_state,
                    load_symbol, mub_family, mub_to_json, project,
                    proj_to_csv, proj_to_gnuplot, proj_to_json, psf_to_csv,
                    psf_to_gnuplot, psf_to_json, spin_coherent)
from dpsmap import serialize
from dpsmap._version import __version__
from dpsmap.kernels import SymbolMeta
from dpsmap.mubrot import SCHEMES
from dpsmap.serialize import _dumps, _reprs

PERMINV = convention_from_name("perminv-f0")


def sample_psf(n=2, s=-1.0):
    ctx = field_context(n)
    fid = spin_coherent(ctx, 0.5 * np.exp(1j * np.pi / 4))
    kern = build_kernel(ctx, s, PERMINV, fiducial=fid)
    rho = np.outer(ghz_state(ctx), ghz_state(ctx).conj())
    return ctx, forward_map(kern, rho, provenance="state=ghz")


# ---------------------------------------------------------
# grid symbols
# ---------------------------------------------------------

def test_grid_json_roundtrip_exact():
    _, psf = sample_psf()
    text = psf_to_json(psf, config={"n": 2}, constants={"c": [1.0, 0.0]})
    back = load_symbol(text)
    assert back.n == psf.n and back.s == psf.s
    assert back.convention == psf.convention
    assert back.convention_invariant == psf.convention_invariant
    assert back.provenance == psf.provenance
    assert np.array_equal(back.grid, psf.grid)  # bit-exact through repr
    assert np.array_equal(back.fiducial, psf.fiducial)


def test_grid_json_metadata_fields():
    _, psf = sample_psf()
    record = json.loads(psf_to_json(psf, config={"seed": 0}))
    assert record["kind"] == "grid"
    assert record["version"] == __version__
    assert record["config"] == {"seed": 0}
    assert record["n"] == 2
    assert len(record["grid"]) == 4
    assert all(len(row) == 4 and len(cell) == 2
               for row in record["grid"] for cell in row)


def test_grid_csv_layout():
    ctx, psf = sample_psf()
    text = psf_to_csv(ctx, psf)
    lines = text.strip().split("\n")
    headers = [ln for ln in lines if ln.startswith("#")]
    # header comments are sorted by key and json-parseable
    keys = [ln.split(":", 1)[0][2:] for ln in headers]
    assert keys == sorted(keys)
    for ln in headers:
        json.loads(ln.split(":", 1)[1])
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "a_coords,b_coords,re,im"
    assert len(body) == 1 + 16
    # coordinates are bit strings in table order
    first = body[1].split(",")
    assert set(first[0]) <= {"0", "1"} and len(first[0]) == 2


def test_grid_gnuplot_blocks():
    _, psf = sample_psf()
    text = psf_to_gnuplot(psf)
    blocks = [b for b in text.split("\n\n") if b.strip() and "#" not in b.split("\n")[0][:1]]
    data_lines = [ln for ln in text.split("\n")
                  if ln and not ln.startswith("#")]
    assert len(data_lines) == 16
    assert all(len(ln.split()) == 4 for ln in data_lines)


# ---------------------------------------------------------
# projected symbols
# ---------------------------------------------------------

def test_projected_json_roundtrip():
    ctx, psf = sample_psf()
    proj = project(ctx, psf)
    back = load_symbol(proj_to_json(proj))
    assert back.n == proj.n and back.s == proj.s
    assert list(back.entries) == list(proj.entries) == valid_triples(2)
    assert np.array_equal(back.values, proj.values)
    assert np.array_equal(back.fiducial, proj.fiducial)


def test_projected_json_embeds_orbit_sizes():
    ctx, psf = sample_psf()
    record = json.loads(proj_to_json(project(ctx, psf)))
    assert record["kind"] == "projected"
    for key, _value, r in record["entries"]:
        assert r == r_factor(2, *key)


def test_projected_csv_layout():
    ctx, psf = sample_psf()
    text = proj_to_csv(project(ctx, psf))
    body = [ln for ln in text.strip().split("\n") if not ln.startswith("#")]
    assert body[0] == "m,n,k,re,im,R"
    assert len(body) == 1 + len(valid_triples(2))


def test_projected_gnuplot_has_all_rows():
    ctx, psf = sample_psf()
    text = proj_to_gnuplot(project(ctx, psf))
    rows = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    assert len(rows) == len(valid_triples(2))


# ---------------------------------------------------------
# diffs and auto-detection
# ---------------------------------------------------------

def test_diff_grid_zero_and_perturbed():
    _, psf = sample_psf()
    text = psf_to_json(psf)
    rep = diff_grids(load_symbol(text), load_symbol(text))
    assert rep.kind == "grid"
    assert rep.max_deviation == 0.0
    assert rep.points == 16
    other = load_symbol(text)
    other.grid[1, 2] += 0.5
    rep2 = diff_grids(psf, other)
    assert abs(rep2.max_deviation - 0.5) < 1e-12
    assert list(rep2.worst) == [1, 2]
    assert rep2.avg_deviation < rep2.max_deviation


def test_diff_grids_of_equal_infinities_is_quiet(tmp_path, monkeypatch, capsys):
    """inf - inf deviates by NaN, with no numpy warning to turn into an error."""
    _, psf = sample_psf()
    psf.grid[1, 2] = complex(np.inf, -np.inf)
    (tmp_path / "i.grid.json").write_text(psf_to_json(psf))
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = diff_grids(psf, psf)
        code = cli.main(["diff", "i.grid.json", "i.grid.json"])
    assert np.isnan(rep.max_deviation) and rep.worst == [1, 2]
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert json.loads(out)["worst"] == [1, 2]


def test_diff_projected():
    ctx, psf = sample_psf()
    pa = project(ctx, psf)
    pb = project(ctx, psf)
    assert diff_projected(pa, pb).max_deviation == 0.0
    pb.values[valid_triples(2).index((1, 1, 0))] += 1j
    rep = diff_projected(pa, pb)
    assert abs(rep.max_deviation - 1) < 1e-12
    assert list(rep.worst) == [1, 1, 0]


@pytest.mark.parametrize("n", range(1, 6))
def test_diff_projected_is_the_per_key_loop(n):
    """Same report, NaN and infinities included, as the loop over the
    union of the orbit keys."""
    rng = np.random.default_rng(30 + n)
    count = len(valid_triples(n))
    for trial in range(40):
        re, im = rng.normal(size=(2, 2, count)) * 10.0 ** rng.uniform(-6, 6, size=(2, 2, count))
        a, b = re + 1j * im
        if trial % 2:
            b = a + (rng.random(count) < 0.3) * rng.normal(size=count) * 1e-9
        for z in (a, b):
            spots = rng.integers(0, count, size=rng.integers(0, 3))
            z[spots] = rng.choice([np.nan, np.inf, -np.inf, complex(0, np.nan)], size=spots.size)
        pa, pb = (ProjectedFunction(n=n, s=0.0, values=z, convention="plain") for z in (a, b))
        for x, y in ((pa, pb), (pb, pa), (pa, pa)):
            want = dataclasses.asdict(diff_projected_by_keys(x, y))
            assert repr(dataclasses.asdict(diff_projected(x, y))) == repr(want)


def test_diff_shape_mismatch_rejected():
    _, psf2 = sample_psf(2)
    _, psf3 = sample_psf(3)
    with pytest.raises(ConfigurationError):
        diff_grids(psf2, psf3)


@pytest.mark.parametrize("n", (3, 4))
def test_reference_symbols_roundtrip_with_provenance(n):
    ctx = field_context(n)
    for which in REFERENCE_IDS:
        sym = reference_symbol(ctx, which)
        grid = isinstance(sym, PhaseSpaceFunction)
        back = load_symbol((psf_to_json if grid else proj_to_json)(sym))
        assert type(back) is type(sym)
        assert back.provenance == sym.provenance
        assert back.provenance.startswith(f"closed-form[{which}] as-printed")
        assert back.fiducial is None
        assert (back.n, back.s, back.convention, back.convention_invariant) == (
            sym.n, sym.s, sym.convention, sym.convention_invariant)
        if grid:
            assert np.array_equal(back.grid, sym.grid)
        else:
            assert np.array_equal(back.values, sym.values)


def test_symbols_take_metadata_by_keyword_only():
    with pytest.raises(TypeError):
        ProjectedFunction(3, 0.0, np.zeros(20), "perminv-f0", True, "provenance")
    with pytest.raises(TypeError):
        PhaseSpaceFunction(3, 0.0, np.zeros((8, 8)), "plain")


def test_load_rejects_grid_shape_not_matching_n():
    """A 4x4 grid recorded with n = 3 (and the reverse) is not a symbol."""
    for n, q in ((3, 4), (2, 8)):
        psf = PhaseSpaceFunction(n=n, s=0.0, grid=np.zeros((q, q)), convention="plain")
        with pytest.raises(ConfigurationError, match="grid must be"):
            load_symbol(psf_to_json(psf))


@pytest.mark.parametrize("text", ('{"kind": "grid"}', '{"kind": "projected", "n": 2}',
                                  '{"kind": "mub"}', '[]'))
def test_load_rejects_incomplete_records(text):
    with pytest.raises(ConfigurationError):
        load_symbol(text)


@pytest.mark.parametrize("n", (0, 9, "3", True, None))
def test_load_rejects_bad_record_n(n):
    record = json.loads(psf_to_json(sample_psf(2)[1]))
    record["n"] = n
    with pytest.raises(ConfigurationError):
        load_symbol(json.dumps(record))


def test_load_rejects_fiducial_not_matching_n():
    record = json.loads(psf_to_json(sample_psf(2)[1]))
    for fiducial in (record["fiducial"][:3], record["fiducial"] * 2):
        with pytest.raises(ConfigurationError, match="fiducial must hold 4"):
            load_symbol(json.dumps(dict(record, fiducial=fiducial)))


# JSON values a record's pairs may hold: signed zeros, non-finite tokens,
# ints (one past 2**53, which complex() rounds), bools, subnormals and long
# reprs; an odd count, so each value turns up as a real and an imaginary part
ODD_VALUES = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 0, -3, 2 ** 53 + 1,
              True, False, 5e-324, 1e-310, 1 / 3, -1e300, 0.1]


def odd_record(n: int, kind: str) -> dict:
    """A parsed record of the kind, with a fiducial, whose every [re, im] pair
    holds values from ODD_VALUES in turn."""
    ctx, q = field_context(n), 1 << n
    meta = dict(n=n, s=0.0, convention="plain", fiducial=np.zeros(q, complex))
    text = (psf_to_json(PhaseSpaceFunction(grid=np.zeros((q, q)), **meta)) if kind == "grid"
            else proj_to_json(ProjectedFunction(values=np.zeros(len(ctx.orbit_sizes)), **meta)))
    record, values = json.loads(text), itertools.cycle(ODD_VALUES)
    for pair in (*record["fiducial"], *(cell for row in record.get("grid", ()) for cell in row),
                 *(entry[1] for entry in record.get("entries", ()))):
        pair[:] = next(values), next(values)
    return record


@pytest.mark.parametrize("kind", ["grid", "projected"])
@pytest.mark.parametrize("n", range(1, 6))
def test_load_matches_the_per_value_oracle_bitwise(n, kind):
    text = json.dumps(odd_record(n, kind))
    sym, want = load_symbol(text), record_arrays(json.loads(text))
    key = "grid" if kind == "grid" else "values"
    got = {"fiducial": sym.fiducial, key: getattr(sym, key)}
    assert got.keys() == want.keys()
    for key, array in want.items():
        assert got[key].dtype == array.dtype == complex and got[key].shape == array.shape
        assert np.array_equal(_bits(got[key]), _bits(array)), key


@pytest.mark.parametrize("value", ["1.5", None, [1.5], 10 ** 400],
                         ids=["string", "null", "list", "huge-int"])
@pytest.mark.parametrize("kind, pair", [("grid", ("grid", 0, 0)), ("grid", ("fiducial", 0)),
                                        ("projected", ("entries", 0, 1))],
                         ids=["grid", "fiducial", "entries"])
def test_load_refuses_values_complex_refuses(kind, pair, value):
    """Strings, nulls and nested lists are not numbers, as for complex(); an
    integer too large for a float is refused, not raised as OverflowError."""
    record = odd_record(2, kind)
    functools.reduce(operator.getitem, pair, record)[0] = value
    with pytest.raises(ConfigurationError, match="malformed symbol record"):
        load_symbol(json.dumps(record))


@pytest.mark.parametrize("change, message", [
    (lambda g: g[2].pop(), "grid must be 4x4 for n = 2 \\(row 2\\), got 3 pairs"),
    (lambda g: g[1].append([0.0, 0.0]), "grid must be 4x4 for n = 2 \\(row 1\\), got 5 pairs"),
    (lambda g: g[3][1].append(0.0), "\\(row 3\\), got pair 1 of length 3"),
    (lambda g: g[0][2].pop(), "\\(row 0\\), got pair 2 of length 1"),
    (lambda g: g[0].__setitem__(0, []), "\\(row 0\\), got pair 0 of length 0"),
    (lambda g: g.pop(), "grid must be 4x4 for n = 2, got 3 rows"),
], ids=["short-row", "long-row", "3-number-pair", "1-number-pair", "empty-pair", "3-rows"])
def test_load_names_the_row_or_pair_of_a_misshapen_grid(change, message):
    record = odd_record(2, "grid")
    change(record["grid"])
    with pytest.raises(ConfigurationError, match=message):
        load_symbol(json.dumps(record))


def test_load_names_the_pair_of_a_misshapen_fiducial_or_entry():
    record = odd_record(2, "projected")
    record["fiducial"][1].append(0.0)
    with pytest.raises(ConfigurationError, match="fiducial must hold 4 amplitudes for n = 2, "
                                                 "got pair 1 of length 3"):
        load_symbol(json.dumps(record))
    record = odd_record(2, "projected")
    record["entries"][3][1].pop()
    with pytest.raises(ConfigurationError, match="projection values must be \\[re, im\\] "
                                                 "pairs, got pair 3 of length 1"):
        load_symbol(json.dumps(record))


def test_load_rejects_projection_keys_off_the_orbits():
    ctx, psf = sample_psf(2)
    record = json.loads(proj_to_json(project(ctx, psf)))
    assert load_symbol(json.dumps(record)).n == 2
    for key in ([1, 1, 1], [3, 0, 3], [0, 0, 0, 0]):
        bad = dict(record, entries=[*record["entries"], [key, [0.0, 0.0], 0]])
        with pytest.raises(ConfigurationError, match="not \\(m, n, k\\) orbits"):
            load_symbol(json.dumps(bad))


def _reshuffled_entries(entries, how):
    """A projection record's entries with one orbit listed twice, two orbits
    left out, or two orbits swapped."""
    if how == "duplicated":
        return [*entries[:4], entries[3], *entries[4:]]
    if how == "missing":
        return [*entries[:2], *entries[4:]]
    return [entries[1], entries[0], *entries[2:]]


@pytest.mark.parametrize("how, message", [
    ("duplicated", "entry 4 is (1, 0, 1), expected (1, 1, 0)"),
    ("missing", "entry 2 is (1, 1, 0), expected (0, 2, 2)"),
    ("reordered", "entry 0 is (0, 1, 1), expected (0, 0, 0)")])
def test_load_takes_each_orbit_exactly_once_in_order(how, message):
    """A projection record lists every orbit of n once, in the written order;
    a repeat is not read as its last value, nor a gap as 0."""
    ctx, psf = sample_psf(2)
    record = json.loads(proj_to_json(project(ctx, psf)))
    assert [tuple(key) for key, _z, _r in record["entries"]] == valid_triples(2)
    bad = dict(record, entries=_reshuffled_entries(record["entries"], how))
    with pytest.raises(ConfigurationError, match="not \\(m, n, k\\) orbits") as info:
        load_symbol(json.dumps(bad))
    assert str(info.value).endswith(message)
    with pytest.raises(ConfigurationError, match="expected nothing"):
        load_symbol(json.dumps(dict(record, entries=record["entries"] * 2)))
    with pytest.raises(ConfigurationError, match="entry 0 is nothing"):
        load_symbol(json.dumps(dict(record, entries=[])))


def test_load_symbol_detects_kind():
    ctx, psf = sample_psf()
    grid = load_symbol(psf_to_json(psf))
    proj = load_symbol(proj_to_json(project(ctx, psf)))
    assert hasattr(grid, "grid")
    assert hasattr(proj, "values")
    with pytest.raises(ConfigurationError):
        load_symbol(json.dumps({"kind": "other"}))


def test_diff_report_dict():
    _, psf = sample_psf()
    d = dataclasses.asdict(diff_grids(psf, psf))
    assert set(d) >= {"kind", "points", "max_deviation", "avg_deviation"}


# ---------------------------------------------------------
# basis families
# ---------------------------------------------------------

def test_mub_json_structure():
    ctx = field_context(2)
    record = json.loads(mub_to_json(mub_family(ctx)))
    assert record["n"] == 2
    assert record["scheme"] == "p1"
    assert set(record["bases"]) == {"0", "1", "2", "3", "vertical"}
    vert = record["bases"]["vertical"]
    assert len(vert) == 4 and len(vert[0]) == 4
    # vertical basis states are uniform-magnitude character rows
    amp = complex(*vert[0][0])
    assert abs(abs(amp) - 0.5) < 1e-12


@pytest.mark.parametrize("n", range(1, 5))
def test_mub_json_matches_the_encoder_oracle_for_every_scheme(n):
    ctx = field_context(n)
    for scheme in SCHEMES:
        try:
            family = mub_family(ctx, scheme)
        except ConfigurationError:
            assert int(scheme[1:]) > n      # p = 2 and 4 need n >= p
            continue
        assert mub_to_json(family, {"n": n}) == oracle_mub_json(family, {"n": n})


class _CountingFloat:
    """Stands in for ``float`` inside ``serialize``, counting ``__repr__``."""

    calls = 0

    @staticmethod
    def __repr__(x):
        _CountingFloat.calls += 1
        return float.__repr__(x)


@pytest.mark.parametrize("kind", ["mub", "random", "repeat-head", "short"])
def test_reprs_formats_each_distinct_pattern_once_when_a_sample_repeats(kind, monkeypatch):
    rng = np.random.default_rng(5)
    if kind == "mub":
        z = mub_family(field_context(4)).states
    elif kind == "random":
        z = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    elif kind == "short":                               # 64 values: too few to sample
        z = np.full(64, 0.5 + 0.5j)
    else:
        z = np.zeros(164, dtype=complex)
        z.real = np.concatenate([np.full(64, -0.0), rng.normal(size=100)])
    monkeypatch.setattr(serialize, "float", _CountingFloat, raising=False)
    _CountingFloat.calls = 0
    re, im = _reprs(z)
    assert (re, im) == (list(map(float.__repr__, z.real.ravel().tolist())),
                        list(map(float.__repr__, z.imag.ravel().tolist())))
    distinct = len(set(np.stack([z.real, z.imag]).view(np.int64).ravel().tolist()))
    assert _CountingFloat.calls == (2 * z.size if kind in ("random", "short") else distinct)
    if kind == "mub":
        assert distinct == 4                            # 0, +-1/4 and 1
    if kind == "repeat-head":
        assert re[0] == "-0.0" and im[0] == "0.0"


# ---------------------------------------------------------
# writers against the json-encoder oracle
# ---------------------------------------------------------
# The writers format floats themselves instead of passing every value
# through json.dumps(indent=2).  The functions below are the encoder-based
# writers they replace, kept as the oracle for byte-identical output.

def _oracle_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _oracle_metadata(sym, config, constants):
    record = {f.name: getattr(sym, f.name) for f in dataclasses.fields(SymbolMeta)}
    if sym.fiducial is not None:
        record["fiducial"] = [_oracle_pair(z) for z in np.asarray(sym.fiducial)]
    record.update(version=__version__, config=config, constants=constants)
    return record


def oracle_psf_json(psf, config=None, constants=None):
    record = _oracle_metadata(psf, config, constants)
    record.update(kind="grid", grid=[[_oracle_pair(v) for v in row]
                                     for row in np.asarray(psf.grid)])
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def oracle_proj_json(proj, config=None, constants=None):
    record = _oracle_metadata(proj, config, constants)
    record.update(kind="projected", entries=[
        [list(key), _oracle_pair(value), r_factor(proj.n, *key)]
        for key, value in zip(valid_triples(proj.n), proj.values, strict=True)])
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def oracle_psf_csv(ctx, psf, config=None, constants=None):
    meta = _oracle_metadata(psf, config, constants)
    lines = [f"# {key}: {json.dumps(meta[key], sort_keys=True)}" for key in sorted(meta)]
    coords = ["".join(map(str, ctx.to_coords(x))) for x in range(ctx.order)]
    rows = [f"{coords[a]},{coords[b]},{float(v.real)!r},{float(v.imag)!r}"
            for a, row in enumerate(np.asarray(psf.grid))
            for b, v in enumerate(map(complex, row))]
    return "\n".join([*lines, "a_coords,b_coords,re,im", *rows]) + "\n"


def oracle_psf_gnuplot(psf):
    rows = [f"# grid symbol n={psf.n} s={psf.s} convention={psf.convention}",
            "# columns: alpha beta re im"]
    for a, row in enumerate(np.asarray(psf.grid)):
        rows += [f"{a} {b} {float(v.real)!r} {float(v.imag)!r}"
                 for b, v in enumerate(map(complex, row))]
        rows.append("")
    return "\n".join(rows) + "\n"


def oracle_mub_json(family, config=None):
    bases = {}
    for line, state in zip(all_lines(family.ctx), family.states, strict=True):
        key = "vertical" if line.slope is None else str(line.slope)
        bases.setdefault(key, []).append([_oracle_pair(z) for z in state])
    record = {"version": __version__, "kind": "mub", "n": family.ctx.n,
              "scheme": family.scheme, "config": config, "bases": bases}
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310,
           1e300, -1e300, 1 / 3, -1 / 3, 1.0, 2.5e-8, 123456789.125, 0.1]


def special_grid(finite=False):
    """A 4x4 grid whose parts hold signed zeros, non-finite values,
    subnormals and values with long shortest-round-trip reprs."""
    values = np.array(SPECIAL)
    if finite:
        values[~np.isfinite(values)] = [7.0, -1e-5, 2.0 ** -1074 * 3]
    grid = np.empty((4, 4), dtype=complex)
    grid.real = values.reshape(4, 4)
    grid.imag = np.roll(values, 5).reshape(4, 4)
    return grid


def special_psf(finite=False, provenance="special values"):
    ctx = field_context(2)
    fid = np.array([-0.0, 0.5 if finite else np.nan, 1e-310, 1.0 if finite else -np.inf])
    return ctx, PhaseSpaceFunction(n=2, s=0.0, grid=special_grid(finite),
                                   convention="plain", fiducial=fid.astype(complex),
                                   provenance=provenance)


def special_proj(provenance="special values"):
    values = np.roll(special_grid().ravel(), 3)[:len(valid_triples(2))]
    return ProjectedFunction(n=2, s=0.0, values=values, convention="plain",
                             provenance=provenance)


def _bits(z):
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag]).view(np.uint64)


def test_special_values_match_encoder_oracle():
    ctx, psf = special_psf()
    config, constants = {"n": 2, "s": -0.0}, {"c": [np.inf, -0.0]}
    assert psf_to_json(psf, config, constants) == oracle_psf_json(psf, config, constants)
    assert (psf_to_csv(ctx, psf, config, constants)
            == oracle_psf_csv(ctx, psf, config, constants))
    assert psf_to_gnuplot(psf) == oracle_psf_gnuplot(psf)
    text = psf_to_json(psf)
    assert "NaN" in text and "-Infinity" in text and "5e-324" in text and "1e-310" in text
    proj = special_proj()
    assert not np.isfinite(proj.values).all()
    assert proj_to_json(proj, config) == oracle_proj_json(proj, config)


def test_special_values_roundtrip_bitwise():
    _, psf = special_psf(finite=True)
    back = load_symbol(psf_to_json(psf))
    assert np.array_equal(_bits(back.grid), _bits(psf.grid))  # signs of zeros too
    assert np.array_equal(_bits(back.fiducial), _bits(psf.fiducial))
    assert np.signbit(back.grid.real[0, 0]) and not np.signbit(back.grid.real[0, 1])
    # non-finite values come back as the same kind of value
    _, psf = special_psf()
    back = load_symbol(psf_to_json(psf))
    for part in ("real", "imag"):
        got, want = getattr(back.grid, part), getattr(psf.grid, part)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(got[~np.isnan(want)], want[~np.isnan(want)])
    proj = special_proj()
    back = load_symbol(proj_to_json(proj))
    finite = np.isfinite(proj.values)
    assert finite.any()
    assert np.array_equal(_bits(back.values)[:, finite], _bits(proj.values)[:, finite])


@pytest.mark.parametrize("tag", ("grid", "entries", "bases", "vertical", "0"))
def test_placeholder_text_in_strings_and_nested_keys(tag):
    """Key lines of a spliced body, written inside string values and as
    nested keys, stay text and do not move the body."""
    provenance = f'\n  "{tag}": null\n  "{tag}": []\n    "{tag}": null "grid": '
    config = {tag: None, "grid": None, "nested": {tag: None, "entries": [None]},
              f'\n  "{tag}": null': provenance}
    ctx, psf = special_psf(finite=True, provenance=provenance)
    text = psf_to_json(psf, config)
    assert text == oracle_psf_json(psf, config)
    back = load_symbol(text)
    assert back.provenance == provenance
    assert np.array_equal(_bits(back.grid), _bits(psf.grid))
    proj = special_proj(provenance)
    assert proj_to_json(proj, config) == oracle_proj_json(proj, config)
    assert load_symbol(proj_to_json(proj, config)).provenance == provenance
    family = mub_family(ctx, "graph+")
    assert mub_to_json(family, config) == oracle_mub_json(family, config)


# ---------------------------------------------------------
# the indent-2 writer against the encoder
# ---------------------------------------------------------

DUMPS_VALUES = [
    None, True, False, 0, 1, -1, 2 ** 80, -(3 ** 60),
    0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, 1e16, 5e-324, -1e-310, 1 / 3, 1e300,
    np.float64(0.1), np.float64(-np.inf),
    "", "plain", "caf\u00e9 \u6f22 \U0001f600", "\x00\x1f\t\n\"\\/\x7f",
    [], {}, [[]], [{}], {"a": {}}, {"a": []},
    [1, "x", None, [2.5, [True, False]], {"k": [], "j": {"i": -0.0}}],
    {"b": 1, "a": [False, 1], "\u00e9": None, "": {"z": [{}], "y": np.nan}},
    (1, (2.0, "t")),
]


@pytest.mark.parametrize("value", DUMPS_VALUES)
def test_dumps_matches_the_encoder(value):
    for obj in (value, [value], {"nested": {"deeper": [value, value]}}):
        assert _dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_dumps_writes_complex_arrays_as_pairs():
    fiducial = np.array([0.5 + 0.5j, complex(-0.0, 1e-310), complex(np.nan, -np.inf),
                         complex(1e16, 5e-324)])
    record = {"fiducial": fiducial, "grid": special_grid(), "empty": np.zeros(0, complex),
              "cube": special_grid().reshape(2, 2, 4)}
    oracle = {key: np.vectorize(_oracle_pair, otypes=[object])(z).tolist()
              for key, z in record.items()}
    assert _dumps(record) == json.dumps(oracle, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), 1j, object(), {1: 2}])
def test_dumps_refuses_what_dpsmap_does_not_write(value):
    with pytest.raises(TypeError):
        _dumps(value)
