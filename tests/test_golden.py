# tests/test_golden.py
"""`map` and `mub` exports and `verify` and `diff` reports compared byte for
byte with files kept under tests/data.

The files pin float formatting, key order, row order and the embedded
config of grid, projection and MUB exports, and the layout of the JSON
reports.  Each was written by the command the test reruns, from inside
tests/data (a report is that command's standard output); a change of
`__version__` changes every file but the `diff` reports and means writing
them again the same way.  The last test covers report_goldens_diff.py,
which shows how the report goldens differ from a git revision's.
"""
import json
from pathlib import Path

import pytest

from dpsmap.cli import main
from dpsmap.mubrot import SCHEMES

DATA = Path(__file__).parent / "data"

RUNS = ([(3, "tomographic-p1", "0", fmt) for fmt in ("json", "csv", "gnuplot")]
        + [(3, "perminv-f0", "-1", fmt) for fmt in ("json", "csv", "gnuplot")]
        + [(4, "perminv-sqrt", "1", "json")])


@pytest.mark.parametrize("n, conv, s, fmt", RUNS)
def test_map_export_matches_golden_file(tmp_path, monkeypatch, n, conv, s, fmt):
    monkeypatch.chdir(tmp_path)
    base = f"n{n}-{conv}-s{s}"
    assert main(["map", "--n", str(n), "--conv", conv, "--s", s, "--project",
                 "--format", fmt, "--out", base]) == 0
    ext = {"json": "json", "csv": "csv", "gnuplot": "dat"}[fmt]
    for tag in ("grid", "proj"):
        name = f"{base}.{tag}.{ext}"
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


# every scheme that is valid at each n: p4 needs n >= 3
MUB_RUNS = ([(2, scheme) for scheme in SCHEMES if scheme != "p4"]
            + [(3, scheme) for scheme in SCHEMES])


@pytest.mark.parametrize("n, scheme", MUB_RUNS)
def test_mub_export_matches_golden_file(tmp_path, monkeypatch, n, scheme):
    monkeypatch.chdir(tmp_path)
    name = f"n{n}-{scheme}.mub.json"
    assert main(["mub", "--n", str(n), "--scheme", scheme, "--out", name]) == 0
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


REPORTS = [
    ("verify-all-n3-seed0.json", ("verify", "--suite", "all", "--n", "3", "--seed", "0"), 0),
    ("verify-kernel-n4.json", ("verify", "--suite", "kernel", "--n", "4"), 0),
    ("diff-grid.json", ("diff", "n3-tomographic-p1-s0.grid.json",
                        "n3-perminv-f0-s-1.grid.json"), 1),
    ("diff-proj.json", ("diff", "n3-tomographic-p1-s0.proj.json",
                        "n3-perminv-f0-s-1.proj.json"), 1),
    ("verify-all-n4-seed0.json", ("verify", "--suite", "all", "--n", "4", "--seed", "0"), 0),
    ("verify-all-n5-seed1.json", ("verify", "--suite", "all", "--n", "5", "--seed", "1"), 0),
]


@pytest.mark.parametrize("name, argv, code", REPORTS)
def test_report_matches_golden_file(monkeypatch, capsys, name, argv, code):
    monkeypatch.chdir(DATA)
    assert main(list(argv)) == code
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes(), name


def test_goldens_diff_lists_added_removed_and_changed_checks(tmp_path, monkeypatch, capsys):
    import report_goldens_diff

    def report(*checks, passed=True):
        return {"suite": "s", "n": 3, "passed": passed, "checks": [
            {"name": name, "passed": ok, "detail": detail} for name, ok, detail in checks]}

    old = report(("kept", True, "a"), ("dropped", True, "b"))
    monkeypatch.setattr(report_goldens_diff, "DATA", tmp_path)
    monkeypatch.setattr(report_goldens_diff.subprocess, "run",
                        lambda argv, **kw: type("Done", (), {"stdout": json.dumps(old)}))
    (tmp_path / "verify-x.json").write_text(json.dumps(
        report(("added", True, "c"), ("kept", True, "a2"))))
    assert report_goldens_diff.main("REV") == 0
    assert capsys.readouterr().out.splitlines() == [
        "verify-x.json: s: - dropped: 'b'",
        "verify-x.json: s: + added: 'c'",
        "verify-x.json: s: kept: 'a' -> 'a2'"]
    # a changed passed flag, of a check or of the suite, still exits 1
    for new in (report(("kept", False, "a")), report(("kept", True, "a"), passed=False)):
        (tmp_path / "verify-x.json").write_text(json.dumps(new))
        assert report_goldens_diff.main("REV") == 1
