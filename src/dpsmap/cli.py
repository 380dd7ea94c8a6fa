"""Batch command-line front end.

Subcommands
-----------
field     print a field context (tables, self-dual basis, Gram check)
map       compute a state's phase-space symbol, optionally projected
mub       dump a full MUB family as JSON amplitude lists
verify    run a named verification suite, exit 1 on failure
diff      compare two exported symbol files
plotdata  like ``map`` but emits gnuplot-ready text

Exit codes: 0 success, 1 verification/comparison failure, 2 bad
configuration or input file.  A JSON file mirroring RunConfig can seed any
run via ``--config`` (explicit flags win).  ``--mode`` is only a size rule:
dense allows n <= 4, lazy allows n <= 5 at s = 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import gf2n, kernels, mubrot, pauli, serialize, suites, symproj
from ._version import __version__
from .errors import ConfigurationError, FiducialError

STATE_SPECS = "ghz | w | coherent | logical:<bits> | @<file.json>"
FORMATS = ("json", "csv", "gnuplot")
MUB_SCHEMES = ("p1", "p2", "p4", "graph+", "graph-")


def parse_complex(text: str) -> complex:
    """`re,im` or `mag@deg` (e.g. ``0.5@45``)."""
    text = text.strip()
    try:
        if "@" in text:
            mag, deg = text.split("@")
            return float(mag) * np.exp(1j * np.deg2rad(float(deg)))
        re, im = text.split(",")
        return complex(float(re), float(im))
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(
            f"cannot parse complex number {text!r}; use re,im or mag@deg") from exc


@dataclass
class RunConfig:
    """Everything a run depends on; embedded verbatim in output metadata."""

    n: int = 2
    s: float = 0.0
    conv: str = "tomographic-p1"
    state: str = "ghz"
    zeta: str = "1,0"
    fiducial: str | None = None
    project: bool = False
    format: str = "json"
    out: str | None = None
    mode: str | None = None
    suite: str = "all"
    scheme: str = "p1"
    seed: int = 0

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        cfg = cls()
        if getattr(args, "config", None):
            stored = serialize.parse_json(Path(args.config).read_text(),
                                          f"config file {args.config!r}")
            if not isinstance(stored, dict):
                raise ConfigurationError(f"config file {args.config!r} must hold an object")
            bad = set(stored) - {f.name for f in fields(cls)}
            if bad:
                raise ConfigurationError(f"unknown config keys: {sorted(bad)}")
            types = get_type_hints(cls)
            for key, value in stored.items():
                want = (int, float) if types[key] is float else types[key]
                if (isinstance(value, bool) != (types[key] is bool)
                        or not isinstance(value, want)):
                    raise ConfigurationError(
                        f"config key {key!r} must be {cls.__annotations__[key]}, "
                        f"got {value!r}")
                setattr(cfg, key, value)
        for f in fields(cls):
            value = getattr(args, f.name, None)
            if value is not None:
                setattr(cfg, f.name, value)
        cfg.validate()
        return cfg

    def validate(self):
        if not 1 <= int(self.n) <= gf2n.MAX_N:
            raise ConfigurationError(f"n must be in 1..{gf2n.MAX_N}, got {self.n}")
        self.n = int(self.n)
        self.s = float(self.s)
        if self.s not in (-1.0, 0.0, 1.0):
            raise ConfigurationError("the CLI restricts s to -1, 0, or +1")
        if self.format not in FORMATS:
            raise ConfigurationError(f"format must be one of {FORMATS}")
        if self.mode not in (None, "dense", "lazy"):
            raise ConfigurationError("mode must be dense or lazy")
        if self.suite not in suites.SUITE_NAMES:
            raise ConfigurationError(f"suite must be one of {suites.SUITE_NAMES}")
        if self.scheme not in MUB_SCHEMES:
            raise ConfigurationError(f"scheme must be one of {MUB_SCHEMES}")
        pauli.convention_from_name(self.conv)


def build_state(ctx: gf2n.FieldContext, spec: str, zeta: complex) -> np.ndarray:
    if spec == "ghz":
        return pauli.ghz_state(ctx)
    if spec == "w":
        return pauli.w_state(ctx)
    if spec == "coherent":
        return pauli.spin_coherent(ctx, zeta)
    if spec.startswith("logical:"):
        bits = spec.split(":", 1)[1]
        if len(bits) != ctx.n or set(bits) - {"0", "1"}:
            raise ConfigurationError(
                f"logical state needs {ctx.n} bits, got {bits!r}")
        return pauli.logical_state(ctx, ctx.from_coords([int(b) for b in bits]))
    if spec.startswith("@"):
        record = serialize.parse_json(Path(spec[1:]).read_text(),
                                      f"amplitude file {spec[1:]!r}")
        try:
            amps = record["amplitudes"] if isinstance(record, dict) else record
            vec = np.array([complex(re, im) for re, im in amps])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"amplitude file {spec[1:]!r} must hold [re, im] pairs: {exc!r}") from exc
        if vec.shape != (ctx.order,):
            raise ConfigurationError(
                f"amplitude file must hold {ctx.order} entries for n={ctx.n}")
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            raise ConfigurationError("amplitude vector is numerically zero")
        return vec / norm
    raise ConfigurationError(f"unknown state spec {spec!r}; use {STATE_SPECS}")


def _state_slug(spec: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in spec).strip("-") or "state"


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)
    print(path)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_field(args) -> int:
    cfg = RunConfig.from_args(args)
    ctx = gf2n.field_context(cfg.n)
    gram = ctx.gram_matrix()
    print(f"GF(2^{ctx.n}), modulus {bin(ctx.poly)}")
    print(f"self-dual basis: {list(ctx.selfdual_basis)}")
    for theta in ctx.selfdual_basis:
        print(f"  theta={theta:3d}  coords={''.join(map(str, ctx.to_coords(theta)))}"
              f"  tr={ctx.trace(theta)}")
    ok = bool(np.array_equal(gram, np.eye(ctx.n, dtype=gram.dtype)))
    print(f"gram check: {'ok' if ok else 'FAILED'}")
    print(f"trace split: {int(np.sum(ctx.trace_table == 0))} elements with tr=0, "
          f"{int(np.sum(ctx.trace_table == 1))} with tr=1")
    if cfg.out:
        _write(cfg.out, ctx.to_json() + "\n")
    return 0 if ok else 1


def _map_pipeline(cfg: RunConfig):
    if cfg.n > 5:
        raise ConfigurationError("map is capped at n <= 5")
    mode = cfg.mode or ("dense" if cfg.n <= kernels.MAX_DENSE_N else "lazy")
    if mode == "lazy" and cfg.s != 0:
        raise ConfigurationError("lazy maps support s = 0 only")
    ctx = gf2n.field_context(cfg.n)
    conv = pauli.convention_from_name(cfg.conv)
    fid_zeta = (pauli.DEFAULT_FIDUCIAL_ZETA if cfg.fiducial is None
                else parse_complex(cfg.fiducial))
    fiducial = pauli.spin_coherent(ctx, fid_zeta) if cfg.s != 0 else None
    kernel = kernels.build_kernel(ctx, cfg.s, conv, fiducial, mode=mode)
    zeta = parse_complex(cfg.zeta)
    state = build_state(ctx, cfg.state, zeta)
    rho = np.outer(state, state.conj())
    provenance = f"state={cfg.state}" + (
        f" zeta={cfg.zeta}" if cfg.state == "coherent" else "")
    psf = kernels.forward_map(kernel, rho, provenance=provenance)
    try:
        dual = (kernel if cfg.s == 0 else
                kernels.build_kernel(ctx, -cfg.s, conv, fiducial, mode=mode))
    except FiducialError:
        # the s = -1 grid can be legal while its s = +1 dual is not;
        # there is then no overlap relation to fit constants from
        return ctx, psf, None
    pref, report = kernels.convolution_prefactor(kernel, dual)
    constants = {
        "overlap_constant": [report.constant.real, report.constant.imag],
        "overlap_max_offdiag": report.max_offdiag,
        "convolution_prefactor": [pref.real, pref.imag],
    }
    return ctx, psf, constants


def _export_symbol(cfg: RunConfig, ctx, psf, constants) -> int:
    config_dict = asdict(cfg)
    base = cfg.out or (f"dpsmap-{_state_slug(cfg.state)}-n{cfg.n}"
                       f"-s{cfg.s:g}-{cfg.conv}")
    ext = {"json": "json", "csv": "csv", "gnuplot": "dat"}[cfg.format]
    if cfg.format == "json":
        grid_text = serialize.psf_to_json(psf, config_dict, constants)
    elif cfg.format == "csv":
        grid_text = serialize.psf_to_csv(ctx, psf, config_dict, constants)
    else:
        grid_text = serialize.psf_to_gnuplot(psf)
    _write(f"{base}.grid.{ext}", grid_text)
    if cfg.project:
        proj = symproj.project(ctx, psf)
        if cfg.format == "json":
            proj_text = serialize.proj_to_json(proj, config_dict, constants)
        elif cfg.format == "csv":
            proj_text = serialize.proj_to_csv(proj, config_dict, constants)
        else:
            proj_text = serialize.proj_to_gnuplot(proj)
        _write(f"{base}.proj.{ext}", proj_text)
    return 0


def cmd_map(args) -> int:
    cfg = RunConfig.from_args(args)
    ctx, psf, constants = _map_pipeline(cfg)
    return _export_symbol(cfg, ctx, psf, constants)


def cmd_plotdata(args) -> int:
    cfg = RunConfig.from_args(args)
    cfg.format = "gnuplot"
    ctx, psf, constants = _map_pipeline(cfg)
    return _export_symbol(cfg, ctx, psf, constants)


def cmd_mub(args) -> int:
    cfg = RunConfig.from_args(args)
    ctx = gf2n.field_context(cfg.n)
    family = mubrot.mub_family(ctx, cfg.scheme)
    family.validate()
    text = serialize.mub_to_json(family, asdict(cfg))
    if cfg.out:
        _write(cfg.out, text)
    else:
        print(text, end="")
    return 0


def cmd_verify(args) -> int:
    cfg = RunConfig.from_args(args)
    report = suites.run_suite(cfg.suite, cfg.n, cfg.seed)
    report["version"] = __version__
    report["config"] = asdict(cfg)
    text = json.dumps(report, sort_keys=True, indent=2)
    if cfg.out:
        _write(cfg.out, text + "\n")
    else:
        print(text)
    return 0 if report["passed"] else 1


def cmd_diff(args) -> int:
    sym_a, sym_b = (serialize.load_symbol(Path(path).read_text())
                    for path in (args.a, args.b))
    if type(sym_a) is not type(sym_b):
        raise ConfigurationError("cannot compare a grid with a projection")
    if isinstance(sym_a, kernels.PhaseSpaceFunction):
        report = serialize.diff_grids(sym_a, sym_b)
    else:
        report = serialize.diff_projected(sym_a, sym_b)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0 if report.max_deviation <= args.tol else 1


# ----------------------------------------------------------------------

def _add_common(sub, *names):
    if "n" in names:
        sub.add_argument("--n", type=int, default=None, help="number of qubits")
    if "config" in names:
        sub.add_argument("--config", default=None,
                         help="JSON file with RunConfig defaults")
    if "out" in names:
        sub.add_argument("--out", default=None, help="output path (or prefix)")
    if "seed" in names:
        sub.add_argument("--seed", type=int, default=None, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsmap",
        description="Discrete phase-space mappings for n qubits over GF(2^n).")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("field", help="print a field context")
    _add_common(p, "n", "config", "out")
    p.set_defaults(func=cmd_field)

    for name, func in (("map", cmd_map), ("plotdata", cmd_plotdata)):
        p = subs.add_parser(name, help=f"{name}: compute a state symbol")
        _add_common(p, "n", "config", "out")
        p.add_argument("--state", default=None, help=STATE_SPECS)
        p.add_argument("--s", type=float, default=None,
                       help="kernel parameter, one of -1, 0, 1")
        p.add_argument("--conv", default=None, help="phase convention name")
        p.add_argument("--zeta", default=None,
                       help="coherent-state parameter (re,im or mag@deg)")
        p.add_argument("--fiducial", default=None,
                       help="fiducial zeta (re,im or mag@deg); default 0.5@45")
        p.add_argument("--project", action="store_true", default=None,
                       help="also export the (m,n,k) projection")
        p.add_argument("--mode", default=None, choices=("dense", "lazy"),
                       help="size rule: dense for n <= 4, lazy for n <= 5 at s = 0")
        if name == "map":
            p.add_argument("--format", default=None, choices=FORMATS)
        p.set_defaults(func=func)

    p = subs.add_parser("mub", help="dump a MUB family as JSON")
    _add_common(p, "n", "config", "out")
    p.add_argument("--scheme", default=None, choices=MUB_SCHEMES)
    p.set_defaults(func=cmd_mub)

    p = subs.add_parser("verify", help="run a verification suite")
    _add_common(p, "n", "config", "out", "seed")
    p.add_argument("--suite", default=None, choices=suites.SUITE_NAMES)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("diff", help="compare two exported symbol files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_diff)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, FiducialError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
