"""Batch command-line front end.

Subcommands
-----------
field     print a field context (tables, self-dual basis, Gram check)
map       compute a state's phase-space symbol, optionally projected
mub       dump a full MUB family as JSON amplitude lists
verify    run a named verification suite, exit 1 on failure
diff      compare two exported symbol files

Arguments are read from one option table, ``build_parser()``, which also
writes the ``-h``/``--help`` text.  A flag is written ``--flag value`` or
``--flag=value`` with its name in full; its value token is taken as it is,
so ``--zeta -0.5,0.2`` works.

Exit codes: 0 success (also for ``--help`` and ``--version``), 1
verification/comparison failure, 2 bad usage, configuration or input file,
reported as one ``error:`` line on stderr.  A JSON file mirroring RunConfig
can give the defaults of any run via ``--config`` (explicit flags win).
``map`` takes n <= 5, and n = 5 only at s = 0; ``--mode`` only narrows that
rule: dense to n <= 4, lazy to s = 0.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple, get_type_hints

import numpy as np

from . import gf2n, kernels, mubrot, pauli, serialize, suites, symproj
from ._version import __version__
from .errors import ConfigurationError, FiducialError

STATE_SPECS = "ghz | w | coherent | logical:<bits> | @<file.json>"
FORMATS = ("json", "csv", "gnuplot")
MODES = ("dense", "lazy")
MUB_SCHEMES = tuple(mubrot.SCHEMES)


def parse_complex(text: str) -> complex:
    """`re,im` or `mag@deg` (e.g. ``0.5@45``), both parts finite."""
    text = text.strip()
    polar = "@" in text
    try:
        a, b = map(float, text.split("@" if polar else ","))
    except ValueError as exc:
        raise ConfigurationError(
            f"cannot parse complex number {text!r}; use re,im or mag@deg") from exc
    # checked before the arithmetic, which warns on infinities
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigurationError(f"complex number {text!r} is not finite")
    return a * np.exp(1j * np.deg2rad(b)) if polar else complex(a, b)


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
    def from_args(cls, args: SimpleNamespace) -> "RunConfig":
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
        if self.mode not in (None, *MODES):
            raise ConfigurationError("mode must be dense or lazy")
        if self.suite not in suites.SUITE_NAMES:
            raise ConfigurationError(f"suite must be one of {suites.SUITE_NAMES}")
        if self.scheme not in MUB_SCHEMES:
            raise ConfigurationError(f"scheme must be one of {MUB_SCHEMES}")
        pauli.convention_from_name(self.conv)

    def as_dict(self) -> dict:
        """The fields by name; a shallow copy, as every field is a scalar."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
        q, must = ctx.order, f"amplitude file must hold {ctx.order} entries for n={ctx.n}"
        try:
            amps = record["amplitudes"] if isinstance(record, dict) else record
            vec = np.fromiter(serialize._complexes(amps, q, must), complex, q)
        except OverflowError:
            vec = None                          # a part too large for a float
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"amplitude file {spec[1:]!r} must hold [re, im] pairs: {exc!r}") from exc
        if vec is None or not np.isfinite(vec).all():
            raise ConfigurationError(
                f"amplitude file {spec[1:]!r} holds amplitudes that are not finite")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(vec)
        if np.isinf(norm):
            # the sum of squares overflowed, not the norm: scale by the
            # largest real or imaginary part first
            vec = vec / np.abs(vec.view(float)).max()
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
    if cfg.mode == "dense" and cfg.n > kernels.MAX_DENSE_N:
        raise ConfigurationError(f"dense kernels are capped at n <= {kernels.MAX_DENSE_N}")
    if cfg.s != 0 and (cfg.n == 5 or cfg.mode == "lazy"):
        asked = "--mode lazy" if cfg.mode == "lazy" else "--n 5"
        raise ConfigurationError(f"map {asked} supports s = 0 only, got s = {cfg.s:g}")
    ctx = gf2n.field_context(cfg.n)
    conv = pauli.convention_from_name(cfg.conv)
    fid_zeta = (pauli.DEFAULT_FIDUCIAL_ZETA if cfg.fiducial is None
                else parse_complex(cfg.fiducial))
    fiducial = pauli.spin_coherent(ctx, fid_zeta) if cfg.s != 0 else None
    kernel = kernels.build_kernel(ctx, cfg.s, conv, fiducial)
    zeta = parse_complex(cfg.zeta)
    state = build_state(ctx, cfg.state, zeta)
    rho = np.outer(state, state.conj())
    provenance = f"state={cfg.state}" + (
        f" zeta={cfg.zeta}" if cfg.state == "coherent" else "")
    psf = kernels.forward_map(kernel, rho, provenance=provenance)
    try:
        dual = (kernel if cfg.s == 0 else
                kernels.build_kernel(ctx, -cfg.s, conv, fiducial))
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
    meta = (cfg.as_dict(), constants)
    base = cfg.out or (f"dpsmap-{_state_slug(cfg.state)}-n{cfg.n}"
                       f"-s{cfg.s:g}-{cfg.conv}")
    ext = {"json": "json", "csv": "csv", "gnuplot": "dat"}[cfg.format]
    symbols = {"grid": psf}
    if cfg.project:
        symbols["proj"] = symproj.project(ctx, psf)
    for tag, sym in symbols.items():
        grid = tag == "grid"
        if cfg.format == "json":
            text = (serialize.psf_to_json if grid else serialize.proj_to_json)(sym, *meta)
        elif cfg.format == "csv":
            text = (serialize.psf_to_csv(ctx, sym, *meta) if grid
                    else serialize.proj_to_csv(sym, *meta))
        else:
            text = (serialize.psf_to_gnuplot if grid else serialize.proj_to_gnuplot)(sym)
        _write(f"{base}.{tag}.{ext}", text)
    return 0


def cmd_map(args) -> int:
    cfg = RunConfig.from_args(args)
    ctx, psf, constants = _map_pipeline(cfg)
    return _export_symbol(cfg, ctx, psf, constants)


def cmd_mub(args) -> int:
    cfg = RunConfig.from_args(args)
    ctx = gf2n.field_context(cfg.n)
    family = mubrot.mub_family(ctx, cfg.scheme)
    text = serialize.mub_to_json(family, cfg.as_dict())
    if cfg.out:
        _write(cfg.out, text)
    else:
        print(text, end="")
    return 0


def cmd_verify(args) -> int:
    cfg = RunConfig.from_args(args)
    report = suites.run_suite(cfg.suite, cfg.n)
    report["version"] = __version__
    report["config"] = cfg.as_dict()
    text = serialize._dumps(report)
    if cfg.out:
        _write(cfg.out, text + "\n")
    else:
        print(text)
    return 0 if report["passed"] else 1


def cmd_diff(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ConfigurationError(f"--tol must be finite and >= 0, got {args.tol!r}")
    loaded = {path: serialize.load_symbol(Path(path).read_text())
              for path in dict.fromkeys((args.a, args.b))}
    sym_a, sym_b = loaded[args.a], loaded[args.b]
    if type(sym_a) is not type(sym_b):
        raise ConfigurationError("cannot compare a grid with a projection")
    if isinstance(sym_a, kernels.PhaseSpaceFunction):
        report = serialize.diff_grids(sym_a, sym_b)
    else:
        report = serialize.diff_projected(sym_a, sym_b)
    print(serialize._dumps(asdict(report)))
    return 0 if report.max_deviation <= args.tol else 1


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

class Flag(NamedTuple):
    """One ``--name`` option.  ``kind`` is the type its value converts with
    (int, float or str), a tuple of the values it allows, or bool for a
    flag that takes no value and stores True."""

    kind: type | tuple
    help: str
    default: object = None


class Command(NamedTuple):
    """A subcommand: its handler, help line, flags and positionals."""

    func: Callable[[SimpleNamespace], int]
    help: str
    flags: dict[str, Flag]
    positionals: tuple[str, ...] = ()


def build_parser() -> dict[str, Command]:
    """The option table: each subcommand's handler, flags and positionals.

    Parsing and ``--help`` both read it; see ``parse_args``.
    """
    common = {"n": Flag(int, "number of qubits"),
              "config": Flag(str, "JSON file with RunConfig defaults"),
              "out": Flag(str, "output path (or prefix)")}
    return {
        "field": Command(cmd_field, "print a field context", common),
        "map": Command(cmd_map, "compute a state's phase-space symbol", {
            **common,
            "state": Flag(str, STATE_SPECS),
            "s": Flag(float, "kernel parameter, one of -1, 0, 1"),
            "conv": Flag(str, "phase convention name"),
            "zeta": Flag(str, "coherent-state parameter (re,im or mag@deg)"),
            "fiducial": Flag(str, "fiducial zeta (re,im or mag@deg); default 0.5@45"),
            "project": Flag(bool, "also export the (m,n,k) projection"),
            "mode": Flag(MODES, "narrow the size rule: dense to n <= 4, lazy to s = 0"),
            "format": Flag(FORMATS, "output format")}),
        "mub": Command(cmd_mub, "dump a MUB family as JSON",
                       {**common, "scheme": Flag(MUB_SCHEMES, "rotation scheme")}),
        "verify": Command(cmd_verify, "run a verification suite", {
            **common, "seed": Flag(int, "no effect: no suite draws samples"),
            "suite": Flag(suites.SUITE_NAMES, "suite to run")}),
        "diff": Command(cmd_diff, "compare two exported symbol files",
                        {"tol": Flag(float, "largest deviation that still matches",
                                     1e-10)},
                        ("a", "b")),
    }


def _help(table: dict[str, Command], name: str | None) -> str:
    if name is None:
        return "\n".join([
            "usage: dpsmap [-h] [--version] COMMAND [options]", "",
            "Discrete phase-space mappings for n qubits over GF(2^n).", "",
            "commands:",
            *(f"  {cmd:<8}{spec.help}" for cmd, spec in table.items()), "",
            "Flags are written --flag value or --flag=value;",
            "'dpsmap COMMAND --help' lists a command's flags."])
    spec = table[name]
    rows = [(f"--{flag}" if f.kind is bool else
             f"--{flag} {{{','.join(f.kind)}}}" if isinstance(f.kind, tuple) else
             f"--{flag} {flag.upper()}",
             f.help + ("" if f.default is None else f" (default {f.default:g})"))
            for flag, f in spec.flags.items()]
    rows.append(("-h, --help", "print this help and exit"))
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([
        f"usage: dpsmap {name} {''.join(p.upper() + ' ' for p in spec.positionals)}"
        "[options]", "", spec.help, "", "options:",
        *(f"  {left:<{width}}{text}" for left, text in rows)])


def parse_args(table: dict[str, Command], argv: list[str]) -> SimpleNamespace | str:
    """``argv`` as a namespace of the command's flags (their default, mostly
    None, when absent), positionals, ``command`` and ``func``; or, for
    ``--help`` and ``--version``, the text to print.

    A flag's value is the rest of its token after ``=``, else the next
    token taken as it is, even when it starts with ``-``.  Names must be
    spelled out.  Every mistake raises ConfigurationError.
    """
    if argv and argv[0] in ("-h", "--help", "--version"):
        return __version__ if argv[0] == "--version" else _help(table, None)
    if not argv:
        raise ConfigurationError(f"missing command; choose from {', '.join(table)}")
    name, *rest = argv
    if name not in table:
        raise ConfigurationError(
            f"invalid command {name!r}; choose from {', '.join(table)}")
    spec = table[name]
    values = {flag: f.default for flag, f in spec.flags.items()}
    positionals = []
    tokens = iter(rest)
    for token in tokens:
        if token == "--":   # every later token is a positional
            positionals += tokens
            break
        if token in ("-h", "--help"):
            return _help(table, name)
        if not token.startswith("--"):
            positionals.append(token)
            continue
        flag, eq, value = token[2:].partition("=")
        f = spec.flags.get(flag)
        if f is None:
            raise ConfigurationError(f"unrecognized arguments: {token}")
        if f.kind is bool:
            if eq:
                raise ConfigurationError(f"argument --{flag}: takes no value")
            values[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ConfigurationError(f"argument --{flag}: expected one argument")
        if isinstance(f.kind, tuple):
            if value not in f.kind:
                raise ConfigurationError(
                    f"argument --{flag}: invalid choice {value!r} "
                    f"(choose from {', '.join(f.kind)})")
        else:
            try:
                value = f.kind(value)
            except ValueError:
                raise ConfigurationError(
                    f"argument --{flag}: invalid {f.kind.__name__} value: {value!r}"
                ) from None
        values[flag] = value
    if len(positionals) > len(spec.positionals):
        raise ConfigurationError(
            f"unrecognized arguments: {positionals[len(spec.positionals)]}")
    missing = spec.positionals[len(positionals):]
    if missing:
        raise ConfigurationError(
            f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=name, func=spec.func, **values,
                           **dict(zip(spec.positionals, positionals)))


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:   # built once per process; parse_args keeps no state in it
        _PARSER = build_parser()
    try:
        args = parse_args(_PARSER, sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            print(args)
            return 0
        return args.func(args)
    except (ConfigurationError, FiducialError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
