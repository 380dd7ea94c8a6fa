# tests/test_golden.py
"""`map` and `mub` exports compared byte for byte with files kept under
tests/data.

The files pin float formatting, key order, row order and the embedded
config of grid, projection and MUB exports.  Each was written by the command
the test reruns, from inside tests/data; a change of `__version__` changes
every file and means writing them again the same way.
"""
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
