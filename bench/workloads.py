"""Workload plans: the CLI command lists, their generated inputs, and the
checks each command's outputs must pass.

Stdlib only, so run.py can build a plan without numpy.  A plan is a
dict::

    {"workload": name, "seed": seed,
     "inputs": {filename: text, ...},          # written before the child starts
     "commands": [{"argv": [...], "checks": [{...}, ...]}, ...]}

Every command is a distinct configuration (state, s, convention, format),
so nothing but shared field data can be reused from one command to the
next.  The same seed always gives the same plan.
"""

from __future__ import annotations

import json
import random

CONVENTIONS = ("tomographic-p1", "perminv-sqrt", "perminv-f0", "perminv-f1",
               "graph-plus", "graph-minus", "plain")
# conventions whose displacements are Hermitian, so the symbol of a density
# matrix is real; "plain" is the only non-hermitian one
HERMITIAN = frozenset(CONVENTIONS) - {"plain"}
S_VALUES = (-1, 0, 1)
MUB_SCHEMES = ("p1", "p2", "graph+", "graph-")
SUITES = ("field", "pauli", "mub", "kernel", "tomographic", "symmetric",
          "theorem")
HEAVY_SUITES = ("tomographic", "symmetric")

NAMES = ("map-sweep", "verify-suites", "export-io")


def _random_state_text(rng: random.Random, q: int) -> str:
    amps = [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(q)]
    return json.dumps({"amplitudes": amps}) + "\n"


def _state_pool(rng: random.Random, q: int, randoms: int):
    """GHZ, W, one seeded coherent state and ``randoms`` seeded pure states.

    Returns (specs, inputs): specs are (state, zeta) pairs for the CLI.
    """
    mag = rng.uniform(0.2, 1.5)
    deg = rng.uniform(0.0, 360.0)
    specs = [("ghz", None), ("w", None), ("coherent", f"{mag:.4f}@{deg:.2f}")]
    inputs = {}
    for i in range(randoms):
        name = f"state{i}.json"
        inputs[name] = _random_state_text(rng, q)
        specs.append((f"@{name}", None))
    return specs, inputs


def _state_args(spec):
    state, zeta = spec
    return ["--state", state] + (["--zeta", zeta] if zeta else [])


def _grid_checks(base: str, n: int, conv: str) -> list:
    return [{"kind": "grid", "file": f"{base}.grid.json", "n": n,
             "hermitian": conv in HERMITIAN},
            {"kind": "proj", "file": f"{base}.proj.json",
             "grid": f"{base}.grid.json"}]


def map_sweep(seed: int, n: int = 4) -> dict:
    """``map --project`` over every convention and s in {-1, 0, +1}."""
    rng = random.Random(seed)
    specs, inputs = _state_pool(rng, 2 ** n, randoms=4)
    configs = [(conv, s) for conv in CONVENTIONS for s in S_VALUES]
    # a fixed kind of state per command, so the seed changes the states'
    # values but not the mix of work
    states = [specs[i % len(specs)] for i in range(len(configs))]
    commands = []
    for i, ((conv, s), spec) in enumerate(zip(configs, states)):
        base = f"m{i:02d}"
        argv = (["map", "--n", str(n), "--s", str(s), "--conv", conv]
                + _state_args(spec) + ["--project", "--out", base])
        commands.append({"argv": argv, "checks": _grid_checks(base, n, conv)})
    return {"workload": "map-sweep", "seed": seed, "inputs": inputs,
            "commands": commands}


def verify_suites(seed: int, ns=(3, 4, 5)) -> dict:
    """``verify --suite <name>`` for every suite at each n, seeded.

    One command per suite rather than one ``--suite all`` per n: with three
    commands a pass, the median command latency would flip between the n=3
    and n=4 calls, whose latencies are close.  At the largest n the
    ``HEAVY_SUITES`` are left out: they took 1.9 s of a 4.4 s pass, and a
    run of long passes samples too few of the host's quiet stretches.
    """
    commands = []
    for n in ns:
        for suite in SUITES:
            if n == max(ns) and suite in HEAVY_SUITES:
                continue
            out = f"verify-{suite}{n}.json"
            commands.append({
                "argv": ["verify", "--suite", suite, "--n", str(n),
                         "--seed", str(seed), "--out", out],
                "checks": [{"kind": "verify", "file": out, "n": n}]})
    return {"workload": "verify-suites", "seed": seed, "inputs": {},
            "commands": commands}


def export_io(seed: int, n: int = 5, mub_ns=(4, 3), field_n: int = 8) -> dict:
    """Lazy s=0 maps in every format, diffs of the JSON files read back,
    MUB dumps and a field dump.

    No ``mub --n 5``: its 0.2 s of BLAS work was half the pass, and its
    fastest pass spread by up to 30% from run to run on a shared host.
    """
    rng = random.Random(seed)
    specs, inputs = _state_pool(rng, 2 ** n, randoms=4)
    states = [specs[i % len(specs)] for i in range(len(CONVENTIONS))]
    commands = []
    for c, (conv, spec) in enumerate(zip(CONVENTIONS, states)):
        base = f"e{c}"
        head = (["map", "--n", str(n), "--mode", "lazy", "--s", "0",
                 "--conv", conv] + _state_args(spec) + ["--project"])
        commands.append({"argv": head + ["--format", "json", "--out", base],
                         "checks": _grid_checks(base, n, conv)})
        for fmt, ext in (("csv", "csv"), ("gnuplot", "dat")):
            commands.append({
                "argv": head + ["--format", fmt, "--out", base],
                "checks": [{"kind": "text", "file": f"{base}.grid.{ext}",
                            "format": fmt, "ref": f"{base}.grid.json"},
                           {"kind": "text", "file": f"{base}.proj.{ext}",
                            "format": fmt, "ref": f"{base}.proj.json"}]})
    for c in range(len(CONVENTIONS)):
        for part in ("grid", "proj"):
            path = f"e{c}.{part}.json"
            commands.append({"argv": ["diff", path, path],
                             "checks": [{"kind": "diff-self"}]})
    for i, mn in enumerate(mub_ns):
        scheme = "p1" if i == 0 else rng.choice(MUB_SCHEMES)
        out = f"mub{mn}.json"
        commands.append({
            "argv": ["mub", "--n", str(mn), "--scheme", scheme, "--out", out],
            "checks": [{"kind": "mub", "file": out, "n": mn}]})
    commands.append({
        "argv": ["field", "--n", str(field_n), "--out", "field.json"],
        "checks": [{"kind": "field", "file": "field.json", "n": field_n}]})
    return {"workload": "export-io", "seed": seed, "inputs": inputs,
            "commands": commands}


def build(name: str, seed: int, small: bool = False) -> dict:
    """The plan for one workload; ``small`` shrinks every size for self-tests."""
    if name == "map-sweep":
        return map_sweep(seed, n=2 if small else 4)
    if name == "verify-suites":
        return verify_suites(seed, ns=(3, 4) if small else (3, 4, 5))
    if name == "export-io":
        if small:
            return export_io(seed, n=3, mub_ns=(3, 2), field_n=4)
        return export_io(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")

