# tests/test_cli.py
"""End-to-end checks of the command-line front end, driven through main()
with a couple of subprocess smoke tests for the installed entry point."""
import functools
import json
import operator
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

from oracles import SELFDUAL_BASES

from dpsmap import (IRREDUCIBLE_POLYS, ConfigurationError, build_kernel,
                    convention_from_name, field_context, forward_map,
                    ghz_state)
from dpsmap import cli, serialize
from dpsmap._version import __version__
from dpsmap.cli import RunConfig, build_state, main, parse_complex
from dpsmap.serialize import load_symbol


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------

def test_parse_complex_forms():
    assert parse_complex("1,0") == 1
    assert parse_complex("-0.5,2") == -0.5 + 2j
    assert abs(parse_complex("0.5@90") - 0.5j) < 1e-12
    assert abs(parse_complex("2@45") - 2 * np.exp(1j * np.pi / 4)) < 1e-12
    for bad in ("", "1;2", "abc", "1@2@3"):
        with pytest.raises(ConfigurationError):
            parse_complex(bad)
    for bad in ("nan,0", "0,-inf", "1e309@0", "1@nan", "inf@45"):
        with pytest.raises(ConfigurationError, match="is not finite"):
            parse_complex(bad)


def test_runconfig_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(n=9).validate()
    with pytest.raises(ConfigurationError):
        RunConfig(s=0.5).validate()
    with pytest.raises(ConfigurationError):
        RunConfig(conv="wigner").validate()
    RunConfig().validate()  # defaults are fine


def test_build_state_specs(tmp_path):
    ctx = field_context(2)
    assert np.allclose(build_state(ctx, "ghz", 1), ghz_state(ctx))
    ket = build_state(ctx, "logical:01", 1)
    assert abs(np.linalg.norm(ket) - 1) < 1e-12
    amp_file = tmp_path / "amp.json"
    amp_file.write_text(json.dumps(
        {"amplitudes": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
    ket = build_state(ctx, f"@{amp_file}", 1)
    assert np.allclose(ket, ghz_state(ctx))
    with pytest.raises(ConfigurationError):
        build_state(ctx, "logical:0", 1)  # wrong bit count
    with pytest.raises(ConfigurationError):
        build_state(ctx, "bell", 1)


def test_main_reuses_its_parser(tmp_path, monkeypatch, capsys):
    """The parser is built once per process: two calls print the same, and
    a bad flag after a good call still exits 2."""
    monkeypatch.chdir(tmp_path)
    outputs = []
    for _ in range(2):
        assert run("verify", "--n", "2", "--suite", "field") == 0
        outputs.append(capsys.readouterr())
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert outputs[0] == outputs[1]
    assert run("verify", "--n", "2", "--bogus") == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert run("verify", "--n", "2", "--suite", "field") == 0
    assert capsys.readouterr() == outputs[0]


def test_version_flag(capsys):
    assert run("--version") == 0
    assert capsys.readouterr().out.strip() == __version__


@pytest.mark.parametrize("argv", [
    ("map", "--bogus"), ("map", "--proj"), ("map", "--threads", "2"),
    ("frobnicate",), ("--bogus",), (),
    ("map", "--n", "x"), ("map", "--s", "x"), ("diff", "a", "b", "--tol", "x"),
    ("map", "--format", "xml"), ("verify", "--suite", "nope"), ("mub", "--scheme=p9"),
    ("map", "--n"), ("map", "--format"), ("map", "--project=1"),
    ("diff",), ("diff", "onlyone"), ("diff", "a", "b", "c"),
])
def test_usage_errors_are_one_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [(), ("field",), ("map",), ("mub",), ("verify",),
                                  ("diff",)])
def test_help_lists_every_flag_of_the_table(capsys, argv):
    table = cli.build_parser()
    names = [f"--{flag}" for flag in table[argv[0]].flags] if argv else list(table)
    for flag in ("-h", "--help"):
        assert run(*argv, flag) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith(" ".join(("usage: dpsmap",) + argv))
        assert all(name in out for name in names)


# ---------------------------------------------------------
# field
# ---------------------------------------------------------

def test_field_prints_and_exports(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("field", "--n", "3", "--out", "ctx.json") == 0
    out = capsys.readouterr().out
    assert "GF(2^3)" in out
    assert "gram check: ok" in out
    assert (tmp_path / "ctx.json").exists()


@pytest.mark.parametrize("n", range(1, 9))
def test_field_export_is_the_tabled_modulus_and_its_selfdual_basis(tmp_path, capsys, n):
    assert run("field", "--n", str(n), "--out", str(tmp_path / "ctx.json")) == 0
    record = {"n": n, "poly": IRREDUCIBLE_POLYS[n], "selfdual_basis": list(SELFDUAL_BASES[n])}
    assert (tmp_path / "ctx.json").read_text() == json.dumps(record, sort_keys=True) + "\n"
    assert capsys.readouterr().out.endswith(f"{tmp_path / 'ctx.json'}\n")


# ---------------------------------------------------------
# map
# ---------------------------------------------------------

def test_map_default_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("map") == 0
    path = tmp_path / "dpsmap-ghz-n2-s0-tomographic-p1.grid.json"
    assert path.exists()
    assert str(path.name) in capsys.readouterr().out
    sym = load_symbol(path.read_text())
    ctx = field_context(2)
    kern = build_kernel(ctx, 0.0, convention_from_name("tomographic-p1"))
    rho = np.outer(ghz_state(ctx), ghz_state(ctx).conj())
    assert np.max(np.abs(sym.grid - forward_map(kern, rho).grid)) < 1e-12
    record = json.loads(path.read_text())
    assert record["config"]["state"] == "ghz"
    assert abs(record["constants"]["overlap_constant"][0] - 4) < 1e-9
    assert abs(record["constants"]["convolution_prefactor"][0] - 0.25) < 1e-9


def test_map_project_writes_both_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("map", "--n", "3", "--s", "-1", "--conv", "perminv-f0",
               "--project", "--out", "g") == 0
    grid = load_symbol((tmp_path / "g.grid.json").read_text())
    proj = load_symbol((tmp_path / "g.proj.json").read_text())
    assert grid.s == -1 and proj.s == -1
    assert proj.convention_invariant
    assert abs(proj.values.sum() - grid.grid.sum()) < 1e-9


def test_map_formats(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("map", "--format", "csv", "--out", "a") == 0
    assert (tmp_path / "a.grid.csv").read_text().startswith("# config:")
    assert run("map", "--format", "gnuplot", "--out", "b") == 0
    assert (tmp_path / "b.grid.dat").exists()


def test_map_deterministic_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ("map", "--n", "3", "--state", "w", "--conv", "perminv-f0",
            "--project", "--out", "run")
    assert run(*args) == 0
    first = ((tmp_path / "run.grid.json").read_bytes(),
             (tmp_path / "run.proj.json").read_bytes())
    assert run(*args) == 0
    second = ((tmp_path / "run.grid.json").read_bytes(),
              (tmp_path / "run.proj.json").read_bytes())
    assert first == second


def test_map_state_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "amp.json").write_text(json.dumps(
        [[1, 0], [1, 0], [0, 0], [0, 0]]))
    assert run("map", "--state", "@amp.json", "--out", "f") == 0
    assert (tmp_path / "f.grid.json").exists()
    (tmp_path / "short.json").write_text(json.dumps([[1, 0]]))
    assert run("map", "--state", "@short.json") == 2
    assert run("map", "--state", "@missing.json") == 2


@pytest.mark.parametrize("text", ["{not json", '{"amps": [[1, 0]]}', "[[1]]",
                                  '[["a", "b"]]', "7"])
def test_map_malformed_state_file(tmp_path, monkeypatch, capsys, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(text)
    assert run("map", "--state", "@bad.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("amps", ["[[NaN, 0], [1, 0], [0, 0], [0, 0]]",
                                  '{"amplitudes": [[1, 0], [0, Infinity], [0, 0], [0, 0]]}',
                                  "[[1, 0], [-Infinity, 0], [0, 0], [0, 0]]",
                                  pytest.param(f"[[1{'0' * 400}, 0], [1, 0], [0, 0], [0, 0]]",
                                               id="int-past-float-range")])
def test_map_non_finite_state_file(tmp_path, monkeypatch, capsys, amps):
    """Amplitudes that are not finite, or an integer too large for a float:
    one error line, exit 2, no numpy warning and no output file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(amps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("map", "--n", "2", "--state", "@bad.json", "--out", "x") == 2
    err = capsys.readouterr().err
    assert err == "error: amplitude file 'bad.json' holds amplitudes that are not finite\n"
    assert not list(tmp_path.glob("x.*"))


def test_map_large_finite_state_file_is_normalized(tmp_path, monkeypatch):
    """Large amplitudes whose norm is finite map as their normalized state."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.json").write_text("[[1e150, 0], [1e150, 0], [0, 0], [0, 0]]")
    (tmp_path / "unit.json").write_text("[[1, 0], [1, 0], [0, 0], [0, 0]]")
    assert run("map", "--n", "2", "--state", "@big.json", "--out", "big") == 0
    assert run("map", "--n", "2", "--state", "@unit.json", "--out", "unit") == 0
    big, unit = (np.array(json.loads((tmp_path / f"{stem}.grid.json").read_text())["grid"])
                 for stem in ("big", "unit"))
    assert np.allclose(big, unit, rtol=0, atol=1e-12)


def test_map_all_zero_state_file_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zero.json").write_text("[[0, 0], [0, 0], [0, 0], [0, 0]]")
    assert run("map", "--n", "2", "--state", "@zero.json", "--out", "x") == 2
    assert capsys.readouterr().err == "error: amplitude vector is numerically zero\n"
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("amps, unit", [
    ("[[1e308, 0], [1e308, 0], [0, 0], [0, 0]]", "[[1, 0], [1, 0], [0, 0], [0, 0]]"),
    ("[[1e200, 1e200], [0, 0], [0, 0], [0, 0]]", "[[1, 1], [0, 0], [0, 0], [0, 0]]")],
    ids=["1e308-real", "1e200-complex"])
def test_map_state_file_whose_sum_of_squares_overflows(tmp_path, monkeypatch, amps, unit):
    """A finite norm whose sum of squares overflows: the state is normalized
    without a numpy warning and maps like its unit-scale copy."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.json").write_text(amps)
    (tmp_path / "unit.json").write_text(unit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("map", "--n", "2", "--state", "@big.json", "--out", "big") == 0
    assert run("map", "--n", "2", "--state", "@unit.json", "--out", "unit") == 0
    big, unit = (np.array(json.loads((tmp_path / f"{stem}.grid.json").read_text())["grid"])
                 for stem in ("big", "unit"))
    assert np.allclose(big, unit, rtol=0, atol=1e-12)


def test_map_size_and_mode_rules(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # n = 5 falls back to the lazy path automatically for s = 0
    assert run("map", "--n", "5", "--state", "w", "--out", "big") == 0
    assert (tmp_path / "big.grid.json").exists()
    capsys.readouterr()
    for argv, line in ((("--n", "5", "--mode", "dense"), "dense kernels are capped at n <= 4"),
                       (("--n", "5", "--s", "-1"), "map --n 5 supports s = 0 only, got s = -1"),
                       (("--n", "3", "--mode", "lazy", "--s", "1"),
                        "map --mode lazy supports s = 0 only, got s = 1"),
                       (("--n", "6"), "map is capped at n <= 5")):
        assert run("map", *argv, "--state", "w") == 2
        assert capsys.readouterr().err == f"error: {line}\n"
    assert run("map", "--s", "0.5") == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_map_fiducial_gate(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # an equatorial fiducial kills the P map but leaves the Q map legal
    assert run("map", "--s", "1", "--fiducial", "1@0", "--out", "p") == 2
    assert "fiducial" in capsys.readouterr().err
    assert run("map", "--s", "-1", "--fiducial", "1@0", "--out", "q") == 0
    assert (tmp_path / "q.grid.json").exists()


@pytest.mark.parametrize("flag, head", [("zeta", ("--state", "coherent")),
                                        ("fiducial", ("--s", "1"))])
def test_negative_complex_values_are_flag_values(tmp_path, monkeypatch, flag, head):
    """A value token starting with '-' is the flag's value, as with '='."""
    exports = []
    for form in ((f"--{flag}", "-0.5,0.2"), (f"--{flag}=-0.5,0.2",)):
        workdir = tmp_path / str(len(exports))
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert run("map", *head, *form, "--out", "x") == 0
        exports.append((workdir / "x.grid.json").read_bytes())
    assert exports[0] == exports[1]


@pytest.mark.parametrize("argv, line", [
    (("--s", "1", "--fiducial", "nan,0"), "complex number 'nan,0' is not finite"),
    (("--s", "-1", "--fiducial", "1e309@0"), "complex number '1e309@0' is not finite"),
    (("--state", "coherent", "--zeta", "0,inf"), "complex number '0,inf' is not finite"),
    (("--s", "1", "--fiducial", "1e308,1e308"),
     "coherent-state parameter (1e+308+1e+308j) is too large to normalize"),
    (("--state", "coherent", "--zeta", "1e200,0"),
     "coherent-state parameter (1e+200+0j) is too large to normalize"),
])
def test_map_bad_complex_parameters_are_one_error_line(tmp_path, monkeypatch, capsys,
                                                       argv, line):
    monkeypatch.chdir(tmp_path)
    assert run("map", "--n", "2", *argv) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [("map", "--state", "@sub"), ("map", "--config", "sub"),
                                  ("diff", "sub", "x.grid.json"),
                                  ("diff", "x.grid.json", "sub")])
def test_directory_inputs_are_one_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run("map", "--out", "x") == 0
    (tmp_path / "sub").mkdir()
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'sub'" in err and err.count("\n") == 1


def test_map_gnuplot_grid_has_a_row_per_point(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("map", "--n", "2", "--format", "gnuplot", "--out", "pd") == 0
    text = (tmp_path / "pd.grid.dat").read_text()
    rows = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    assert len(rows) == 16


# ---------------------------------------------------------
# config file and environment
# ---------------------------------------------------------

def test_config_file_seeds_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"n": 3, "state": "w", "conv": "perminv-f0"}))
    assert run("map", "--config", "cfg.json") == 0
    assert (tmp_path / "dpsmap-w-n3-s0-perminv-f0.grid.json").exists()


def test_cli_flags_override_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"n": 3, "state": "w"}))
    assert run("map", "--config", "cfg.json", "--n", "2", "--out", "o") == 0
    record = json.loads((tmp_path / "o.grid.json").read_text())
    assert record["config"]["n"] == 2
    assert record["config"]["state"] == "w"


def test_config_rejects_unknown_keys(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"qubits": 3}))
    assert run("map", "--config", "cfg.json") == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_threads_env_and_override(tmp_path, monkeypatch, capsys):
    """The worker-count knob is gone: no flag, no config key, no env var."""
    monkeypatch.chdir(tmp_path)
    assert run("map", "--threads", "2", "--out", "flag") == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --threads\n"
    (tmp_path / "cfg.json").write_text(json.dumps({"threads": 2}))
    assert run("map", "--config", "cfg.json") == 2
    assert "unknown config keys: ['threads']" in capsys.readouterr().err
    monkeypatch.setenv("DPSMAP_THREADS", "3")
    assert run("map", "--out", "env") == 0
    assert "threads" not in json.loads((tmp_path / "env.grid.json").read_text())["config"]


def test_config_invalid_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"n": 3,')
    assert run("map", "--config", "cfg.json") == 2
    assert "not valid JSON" in capsys.readouterr().err
    (tmp_path / "cfg.json").write_text("[3]")
    assert run("map", "--config", "cfg.json") == 2


@pytest.mark.parametrize("stored", [{"n": "x"}, {"n": [3]}, {"n": True}, {"s": "0"},
                                    {"state": 5}, {"zeta": 1}, {"seed": "x"},
                                    {"project": 1}, {"out": 3}])
def test_config_rejects_wrong_types(tmp_path, monkeypatch, capsys, stored):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(stored))
    assert run("map", "--config", "cfg.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key") and err.count("\n") == 1


def test_config_accepts_json_numbers_and_nulls(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"n": 2, "s": -1, "out": None, "fiducial": None, "project": True}))
    assert run("map", "--config", "cfg.json", "--out", "c") == 0
    assert json.loads((tmp_path / "c.grid.json").read_text())["config"]["s"] == -1.0


@pytest.mark.parametrize("name", [
    "tomographic-px", "tomographic-p", "tomographic-p 01", "tomographic-p+4",
    "tomographic-p0_1", "tomographic-p01", "tomographic-p1 ", "tomographic-p\u0661",
    pytest.param("tomographic-p" + "1" * 5000, id="tomographic-p with 5000 digits")])
def test_malformed_convention_name_is_one_error_line(tmp_path, monkeypatch, capsys,
                                                     name):
    """Only a convention's own name selects it: int() reads all but the
    first two as a power of two (and refuses 5,000 digits)."""
    monkeypatch.chdir(tmp_path)
    assert run("map", "--n", "2", "--conv", name) == 2
    (tmp_path / "cfg.json").write_text(json.dumps({"conv": name}))
    assert run("map", "--config", "cfg.json") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: unknown phase convention {name!r}"] * 2


# ---------------------------------------------------------
# mub / verify / diff
# ---------------------------------------------------------

def test_mub_stdout_and_schemes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("mub", "--n", "2", "--scheme", "p2") == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record["bases"]) == {"0", "1", "2", "3", "vertical"}
    assert run("mub", "--n", "2", "--scheme", "p4") == 2  # p too large


def test_verify_passes_and_reports(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("verify", "--n", "2", "--suite", "field") == 0
    record = json.loads(capsys.readouterr().out)
    assert record["passed"] is True
    assert record["version"] == __version__
    assert record["config"]["suite"] == "field"
    assert record["checks"]


def test_verify_all_with_outfile(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("verify", "--n", "2", "--out", "report.json") == 0
    record = json.loads((tmp_path / "report.json").read_text())
    assert record["passed"] is True


def test_verify_out_of_range_suite(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("verify", "--n", "6", "--suite", "kernel") == 2
    assert "error:" in capsys.readouterr().err
    # "all" at the same size simply skips what cannot run
    assert run("verify", "--n", "6", "--suite", "all") == 0


def test_diff_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("map", "--out", "x") == 0
    assert run("map", "--out", "y") == 0
    assert run("map", "--state", "w", "--out", "z") == 0
    assert run("diff", "x.grid.json", "y.grid.json") == 0
    capsys.readouterr()
    assert run("diff", "x.grid.json", "z.grid.json") == 1
    report = json.loads(capsys.readouterr().out)
    assert report["max_deviation"] > 0.1
    assert run("diff", "x.grid.json", "missing.json") == 2


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "-1e-300"])
def test_diff_refuses_a_tolerance_that_is_not_finite_and_nonnegative(
        tmp_path, monkeypatch, capsys, tol):
    monkeypatch.chdir(tmp_path)
    assert run("map", "--out", "x") == 0
    capsys.readouterr()
    assert run("diff", "x.grid.json", "x.grid.json", f"--tol={tol}") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --tol must be finite and >= 0, got {float(tol)!r}\n"


def test_diff_zero_tolerance_passes_identical_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("map", "--out", "x") == 0
    assert run("diff", "x.grid.json", "x.grid.json", "--tol", "0") == 0


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"kind": "grid"}'])
def test_diff_malformed_inputs(tmp_path, monkeypatch, capsys, text):
    monkeypatch.chdir(tmp_path)
    assert run("map", "--out", "x") == 0
    (tmp_path / "bad.json").write_text(text)
    capsys.readouterr()
    for pair in (("bad.json", "x.grid.json"), ("x.grid.json", "bad.json")):
        assert run("diff", *pair) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("path, pair", [("x.grid.json", ("grid", 1, 2)),
                                        ("x.grid.json", ("fiducial", 3)),
                                        ("x.proj.json", ("entries", 2, 1))],
                         ids=["grid", "fiducial", "entries"])
def test_diff_of_a_record_holding_a_huge_integer_is_one_error_line(
        tmp_path, monkeypatch, capsys, path, pair):
    """complex() raises OverflowError on an int past the float range."""
    monkeypatch.chdir(tmp_path)
    assert run("map", "--n", "2", "--s", "1", "--project", "--out", "x") == 0
    record = json.loads((tmp_path / path).read_text())
    functools.reduce(operator.getitem, pair, record)[0] = 10 ** 400
    (tmp_path / "big.json").write_text(json.dumps(record))
    capsys.readouterr()
    assert run("diff", "big.json", "big.json") == 2
    assert capsys.readouterr().err == (
        "error: malformed symbol record: OverflowError('int too large to convert to float')\n")


@pytest.mark.parametrize("row, message", [
    (lambda row: row.pop(), "(row 1), got 3 pairs"),
    (lambda row: row[2].append(0.0), "(row 1), got pair 2 of length 3"),
], ids=["ragged", "3-number-pair"])
def test_diff_of_a_misshapen_grid_names_its_row_and_pair(
        tmp_path, monkeypatch, capsys, row, message):
    monkeypatch.chdir(tmp_path)
    assert run("map", "--n", "2", "--out", "x") == 0
    record = json.loads((tmp_path / "x.grid.json").read_text())
    row(record["grid"][1])
    (tmp_path / "bad.json").write_text(json.dumps(record))
    capsys.readouterr()
    # files load in argument order: the first's error is the one reported
    for pair in (("x.grid.json", "bad.json"), ("bad.json", "missing.json")):
        assert run("diff", *pair) == 2
        assert capsys.readouterr().err == f"error: grid must be 4x4 for n = 2 {message}\n"


def test_diff_parses_a_file_named_twice_once(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("map", "--n", "2", "--project", "--out", "x") == 0
    assert run("map", "--n", "2", "--state", "w", "--project", "--out", "y") == 0
    texts, parse_json = [], serialize.parse_json

    def counted(text, what):
        texts.append(text)
        return parse_json(text, what)

    monkeypatch.setattr(serialize, "parse_json", counted)
    for part in ("grid", "proj"):
        for b, calls, code in ((f"x.{part}.json", 1, 0), (f"y.{part}.json", 2, 1)):
            texts.clear()
            assert run("diff", f"x.{part}.json", b) == code
            assert len(texts) == calls
    # a NaN still fails a self-diff, though both sides are one object
    record = json.loads((tmp_path / "x.grid.json").read_text())
    record["grid"][2][3][1] = float("nan")
    (tmp_path / "nan.grid.json").write_text(json.dumps(record))
    capsys.readouterr()
    assert run("diff", "nan.grid.json", "nan.grid.json") == 1
    report = json.loads(capsys.readouterr().out)
    assert np.isnan(report["max_deviation"]) and report["worst"] == [2, 3]


@pytest.mark.parametrize("how", ["duplicated", "missing", "reordered"])
def test_diff_rejects_a_projection_without_each_orbit_once(tmp_path, monkeypatch, capsys, how):
    monkeypatch.chdir(tmp_path)
    assert run("map", "--n", "2", "--project", "--out", "x") == 0
    record = json.loads((tmp_path / "x.proj.json").read_text())
    entries = record["entries"]
    record["entries"] = {"duplicated": [*entries, entries[1]],
                         "missing": entries[:1] + entries[3:],
                         "reordered": entries[::-1]}[how]
    (tmp_path / "bad.json").write_text(json.dumps(record))
    capsys.readouterr()
    for pair in (("bad.json", "x.proj.json"), ("x.proj.json", "bad.json")):
        assert run("diff", *pair) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "not (m, n, k) orbits for n = 2" in err


def test_diff_rejects_grid_not_matching_n(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("map", "--n", "2", "--out", "x") == 0
    record = json.loads((tmp_path / "x.grid.json").read_text())
    (tmp_path / "bad.json").write_text(json.dumps(dict(record, n=3)))
    capsys.readouterr()
    assert run("diff", "x.grid.json", "bad.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid must be 8x8 for n = 3") and err.count("\n") == 1


def test_diff_rejects_kind_mismatch(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("map", "--conv", "perminv-f0", "--project", "--out", "m") == 0
    assert run("diff", "m.grid.json", "m.proj.json") == 2


def test_diff_projected_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = ("map", "--conv", "perminv-f0", "--project")
    assert run(*base, "--out", "a") == 0
    assert run(*base, "--state", "w", "--out", "b") == 0
    assert run("diff", "a.proj.json", "a.proj.json") == 0
    assert run("diff", "a.proj.json", "b.proj.json") == 1


@pytest.mark.parametrize("kind, where", [("grid", 0), ("proj", 0), ("proj", -1)])
def test_diff_counts_a_nan_as_a_difference(tmp_path, monkeypatch, capsys, kind, where):
    """A NaN anywhere in either file is the max deviation, and fails."""
    monkeypatch.chdir(tmp_path)
    assert run("map", "--conv", "perminv-f0", "--project", "--out", "a") == 0
    record = json.loads((tmp_path / f"a.{kind}.json").read_text())
    if kind == "grid":
        record["grid"][0][0][0] = float("nan")
    else:
        record["entries"][where][1][0] = float("nan")
    (tmp_path / f"b.{kind}.json").write_text(json.dumps(record))
    capsys.readouterr()
    assert run("diff", f"a.{kind}.json", f"b.{kind}.json") == 1
    report = json.loads(capsys.readouterr().out)
    assert np.isnan(report["max_deviation"])
    if kind == "proj":
        assert report["worst"] == record["entries"][where][0]


# ---------------------------------------------------------
# installed entry point
# ---------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def run_console(*argv):
    """The ``dpsmap`` script when installed, else ``python -m dpsmap`` from src/.

    Either way the script must be declared as ``dpsmap.cli:main``; the
    declaration is read with ``tomllib`` where it exists (Python >= 3.11)
    and matched as text otherwise.
    """
    text = (ROOT / "pyproject.toml").read_text()
    if tomllib is not None:
        assert tomllib.loads(text)["project"]["scripts"]["dpsmap"] == "dpsmap.cli:main"
    else:
        scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        assert 'dpsmap = "dpsmap.cli:main"' in scripts.splitlines()
    if shutil.which("dpsmap"):
        return subprocess.run(["dpsmap", *argv], capture_output=True, text=True)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dpsmap", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def test_console_script_runs():
    res = run_console("--version")
    assert res.returncode == 0
    assert res.stdout.strip() == __version__


def test_console_script_verify():
    res = run_console("verify", "--n", "1", "--suite", "mub")
    assert res.returncode == 0
    assert json.loads(res.stdout)["passed"] is True
