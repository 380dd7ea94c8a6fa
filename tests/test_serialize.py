# tests/test_serialize.py
import json

import numpy as np
import pytest

from dpsmap import (REFERENCE_IDS, ConfigurationError, PhaseSpaceFunction,
                    ProjectedFunction, build_kernel, convention_from_name,
                    diff_grids, diff_projected, field_context, forward_map,
                    ghz_state, load_symbol, mub_family, mub_to_json, project,
                    proj_from_json, proj_to_csv, proj_to_gnuplot, proj_to_json,
                    psf_from_json, psf_to_csv, psf_to_gnuplot, psf_to_json,
                    r_factor, reference_symbol, spin_coherent, valid_triples)
from dpsmap._version import __version__

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
    back = psf_from_json(text)
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


def test_grid_json_rejects_projected_record():
    ctx, psf = sample_psf()
    proj_text = proj_to_json(project(ctx, psf))
    with pytest.raises(ConfigurationError):
        psf_from_json(proj_text)


# ---------------------------------------------------------
# projected symbols
# ---------------------------------------------------------

def test_projected_json_roundtrip():
    ctx, psf = sample_psf()
    proj = project(ctx, psf)
    back = proj_from_json(proj_to_json(proj))
    assert back.n == proj.n and back.s == proj.s
    assert back.support() == proj.support()
    for key in proj.support():
        assert back.value(*key) == proj.value(*key)
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
    rep = diff_grids(psf_from_json(text), psf_from_json(text))
    assert rep.kind == "grid"
    assert rep.max_deviation == 0.0
    assert rep.points == 16
    other = psf_from_json(text)
    other.grid[1, 2] += 0.5
    rep2 = diff_grids(psf, other)
    assert abs(rep2.max_deviation - 0.5) < 1e-12
    assert list(rep2.worst) == [1, 2]
    assert rep2.avg_deviation < rep2.max_deviation


def test_diff_projected():
    ctx, psf = sample_psf()
    pa = project(ctx, psf)
    pb = project(ctx, psf)
    assert diff_projected(pa, pb).max_deviation == 0.0
    pb.entries[(1, 1, 0)] += 1j
    rep = diff_projected(pa, pb)
    assert abs(rep.max_deviation - 1) < 1e-12
    assert list(rep.worst) == [1, 1, 0]


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
            assert back.entries == sym.entries


def test_symbols_take_metadata_by_keyword_only():
    with pytest.raises(TypeError):
        ProjectedFunction(3, 0.0, {}, "perminv-f0", True, "provenance")
    with pytest.raises(TypeError):
        PhaseSpaceFunction(3, 0.0, np.zeros((8, 8)), "plain")


def test_load_rejects_grid_shape_not_matching_n():
    """A 4x4 grid recorded with n = 3 (and the reverse) is not a symbol."""
    for n, q in ((3, 4), (2, 8)):
        psf = PhaseSpaceFunction(n=n, s=0.0, grid=np.zeros((q, q)), convention="plain")
        for load in (load_symbol, psf_from_json):
            with pytest.raises(ConfigurationError, match="grid must be"):
                load(psf_to_json(psf))


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


def test_load_rejects_projection_keys_off_the_orbits():
    ctx, psf = sample_psf(2)
    record = json.loads(proj_to_json(project(ctx, psf)))
    assert load_symbol(json.dumps(record)).n == 2
    for key in ([1, 1, 1], [3, 0, 3], [0, 0, 0, 0]):
        bad = dict(record, entries=[*record["entries"], [key, [0.0, 0.0], 0]])
        with pytest.raises(ConfigurationError, match="not \\(m, n, k\\) orbits"):
            load_symbol(json.dumps(bad))


def test_load_symbol_detects_kind():
    ctx, psf = sample_psf()
    grid = load_symbol(psf_to_json(psf))
    proj = load_symbol(proj_to_json(project(ctx, psf)))
    assert hasattr(grid, "grid")
    assert hasattr(proj, "entries")
    with pytest.raises(ConfigurationError):
        load_symbol(json.dumps({"kind": "other"}))


def test_diff_report_dict():
    _, psf = sample_psf()
    d = diff_grids(psf, psf).to_dict()
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
