# tests/test_cli.py
"""End-to-end checks of the command-line front end, driven through main()
with a couple of subprocess smoke tests for the installed entry point."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

from dpsmap import (ConfigurationError, FieldContext, build_kernel,
                    convention_from_name, field_context, forward_map,
                    ghz_state)
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


# ---------------------------------------------------------
# field
# ---------------------------------------------------------

def test_field_prints_and_exports(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("field", "--n", "3", "--out", "ctx.json") == 0
    out = capsys.readouterr().out
    assert "GF(2^3)" in out
    assert "gram check: ok" in out
    restored = FieldContext.from_json((tmp_path / "ctx.json").read_text())
    assert restored.n == 3


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
    assert abs(sum(proj.entries.values()) - grid.grid.sum()) < 1e-9


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


def test_map_size_and_mode_rules(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # n = 5 falls back to the lazy path automatically for s = 0
    assert run("map", "--n", "5", "--state", "w", "--out", "big") == 0
    assert (tmp_path / "big.grid.json").exists()
    assert run("map", "--n", "5", "--s", "-1", "--state", "w") == 2
    assert run("map", "--n", "5", "--mode", "dense", "--state", "w") == 2
    assert run("map", "--n", "6") == 2
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


def test_plotdata_forces_gnuplot(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("plotdata", "--n", "2", "--out", "pd") == 0
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
    with pytest.raises(SystemExit) as exc:
        run("map", "--threads", "2", "--out", "flag")
    assert exc.value.code == 2
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
