"""Self-contained verification suites used by the CLI `verify` command.

Each suite returns a JSON-serializable report::

    {"suite": name, "n": n, "passed": bool, "checks": [
        {"name": ..., "passed": ..., "detail": ...}, ...]}

The checks mirror the library's defining identities at desk scale; suites
are deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from . import gf2n, kernels, mubrot, pauli, symproj
from .errors import ConfigurationError

TOL = 1e-10

SUITE_NAMES = ("field", "pauli", "mub", "kernel", "tomographic",
               "symmetric", "theorem", "all")


def _check(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": str(detail)}


def _report(suite, n, checks):
    return {"suite": suite, "n": n, "passed": all(c["passed"] for c in checks),
            "checks": checks}


def _random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


def _random_pure(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# ----------------------------------------------------------------------

def field_suite(n: int, seed: int = 0) -> dict:
    ctx = gf2n.field_context(n)
    rng = np.random.default_rng(seed)
    q = ctx.order
    checks = []

    mt = ctx.mul_table
    if n <= 4:
        a = np.arange(q)
        assoc = np.array_equal(mt[mt[a][:, :, None], a[None, None, :]],
                               mt[a[:, None, None], mt[a][None, :, :]])
        dist_dev = 0
        for x in range(q):
            dist_dev = max(dist_dev, int(np.max(
                np.abs(mt[x, ctx.xor_grid] - (mt[x][:, None] ^ mt[x][None, :])))))
        distrib = dist_dev == 0
        scope = "exhaustive"
    else:
        trips = rng.integers(0, q, size=(2000, 3))
        assoc = all(ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
                    for x, y, z in trips)
        distrib = all(ctx.mul(x, y ^ z) == (ctx.mul(x, y) ^ ctx.mul(x, z))
                      for x, y, z in trips)
        scope = "sampled 2000 triples"
    checks.append(_check("multiplication associative", assoc, scope))
    checks.append(_check("multiplication distributes over xor", distrib, scope))
    checks.append(_check("commutativity", np.array_equal(mt, mt.T), "table symmetry"))
    inv_ok = all(ctx.mul(x, ctx.inv(x)) == 1 for x in range(1, q))
    checks.append(_check("multiplicative inverses", inv_ok, "all nonzero elements"))

    tr = ctx.trace_table
    lin = np.array_equal(tr[ctx.xor_grid], (tr[:, None] + tr[None, :]) % 2)
    checks.append(_check("trace additive", lin, "exhaustive pair table"))
    frob = np.array_equal(tr, tr[[ctx.mul(x, x) for x in range(q)]])
    checks.append(_check("tr(x) = tr(x^2)", frob, "exhaustive"))

    gram = ctx.gram_matrix()
    checks.append(_check("self-dual Gram matrix = I",
                         np.array_equal(gram, np.eye(n, dtype=gram.dtype)),
                         f"basis {ctx.selfdual_basis}"))
    unit_coords = ctx.to_coords(1) == (1,) * n
    checks.append(_check("field unit has all-ones coordinates", unit_coords,
                         "tr(theta_i) = 1 for every self-dual element"))
    return _report("field", n, checks)


# ----------------------------------------------------------------------

CONVENTION_NAMES = ("tomographic-p1", "perminv-sqrt", "perminv-f0",
                    "perminv-f1", "graph-plus", "plain")


def pauli_suite(n: int, seed: int = 0) -> dict:
    ctx = gf2n.field_context(n)
    rng = np.random.default_rng(seed)
    q = ctx.order
    checks = []

    pairs = ([(g, d) for g in range(q) for d in range(q)] if n <= 3
             else [tuple(int(x) for x in p)
                   for p in rng.integers(0, q, size=(50, 2))])
    scope = "all 4^n pairs" if n <= 3 else "sampled 50 pairs"

    z_ok = x_ok = comm_ok = True
    eye = np.eye(q)
    sample = pairs if n <= 3 else pairs[:20]
    for g, d in sample:
        z, x = pauli.build_Z(ctx, g), pauli.build_X(ctx, d)
        z_ok &= np.allclose(z @ z.conj().T, eye, atol=TOL)
        x_ok &= np.allclose(x @ x.conj().T, eye, atol=TOL)
        comm_ok &= np.allclose(z @ x, ctx.chi(ctx.mul(g, d)) * (x @ z), atol=TOL)
    checks.append(_check("Z_a, X_b unitary", z_ok and x_ok, scope))
    checks.append(_check("Z_a X_b = chi(ab) X_b Z_a", comm_ok, scope))

    for name in CONVENTION_NAMES:
        conv = pauli.convention_from_name(name)
        exps = conv.exponent_table(ctx)
        vals = pauli.I4[exps]
        boundary = np.all(exps[0, :] == 0) and np.all(exps[:, 0] == 0)
        checks.append(_check(f"{name}: phi = 1 on axes", boundary, ""))
        herm_pointwise = np.allclose(
            vals * vals, ctx.char_matrix_c, atol=TOL)
        checks.append(_check(
            f"{name}: hermitian flag matches phi^2 = chi(gd)",
            herm_pointwise == conv.hermitian,
            f"flag={conv.hermitian}"))
        d_ok = True
        for g, d in (pairs if n <= 2 else sample)[:40]:
            dm = pauli.displacement(ctx, conv, g, d)
            d_ok &= np.allclose(dm @ dm.conj().T, eye, atol=TOL)
            if conv.hermitian:
                d_ok &= np.allclose(dm, dm.conj().T, atol=TOL)
        checks.append(_check(f"{name}: displacements unitary"
                             + (" and hermitian" if conv.hermitian else ""),
                             d_ok, scope))
    return _report("pauli", n, checks)


# ----------------------------------------------------------------------

def mub_suite(n: int, seed: int = 0) -> dict:
    ctx = gf2n.field_context(n)
    rng = np.random.default_rng(seed)
    q = ctx.order
    checks = []

    powers = [p for p in (1, 2, 4) if p <= max(1, 2 ** (n - 1))]
    for p in powers:
        ok = all(mubrot.coeffs_closed_form(ctx, xi, p).verify(ctx)
                 for xi in range(1, q))
        checks.append(_check(f"recurrence exact, closed form p={p}", ok,
                             "all nonzero slopes"))
    for sign, tag in ((1, "graph+"), (-1, "graph-")):
        ok = all(mubrot.coeffs_graph(ctx, xi, sign).verify(ctx)
                 for xi in range(1, q))
        checks.append(_check(f"recurrence exact, {tag}", ok, "all nonzero slopes"))

    slopes = range(1, q) if n <= 3 else rng.integers(1, q, size=6)
    sq_ok = comm_ok = True
    for xi in slopes:
        v = mubrot.build_V(ctx, mubrot.coeffs_closed_form(ctx, int(xi), 1))
        sq_ok &= np.allclose(v @ v, pauli.build_X(ctx, ctx.sqrt(int(xi))), atol=TOL)
        nu = int(rng.integers(0, q))
        x = pauli.build_X(ctx, nu)
        comm_ok &= np.allclose(v @ x, x @ v, atol=TOL)
    checks.append(_check("V_xi^2 = X_sqrt(xi)", sq_ok, "p=1 family"))
    checks.append(_check("[V_xi, X_nu] = 0", comm_ok, "one random nu per slope"))

    if n <= 3:
        family = mubrot.mub_family(ctx, "p1")
        family.validate()
        worst = 0.0
        slopes_list = list(family.bases)
        for i, sa in enumerate(slopes_list):
            for sb in slopes_list[i + 1:]:
                worst = max(worst, mubrot.check_unbiased(
                    ctx, family.bases[sa], family.bases[sb]))
        checks.append(_check("full family pairwise unbiased", worst < TOL,
                             f"max | |<a|b>|^2 - 1/q | = {worst:.2e}"))
    return _report("mub", n, checks)


# ----------------------------------------------------------------------

def kernel_suite(n: int, seed: int = 0) -> dict:
    ctx = gf2n.field_context(n)
    rng = np.random.default_rng(seed)
    q = ctx.order
    checks = []
    fid = pauli.spin_coherent(ctx, pauli.DEFAULT_FIDUCIAL_ZETA)

    for name in ("tomographic-p1", "perminv-f0"):
        conv = pauli.convention_from_name(name)
        k0 = kernels.build_kernel(ctx, 0, conv)
        checks.append(_check(f"{name}: sum of kernels = 2^n I",
                             k0.normalization_residual() < TOL, "s=0"))
        herm = all(np.allclose(k, k.conj().T, atol=TOL)
                   for k in (k0.at(a, b) for a, b in k0.points()))
        checks.append(_check(f"{name}: kernels hermitian", herm, "s=0, all points"))

        cov_ok = True
        for _ in range(50):
            ka, la, a, b = (int(x) for x in rng.integers(0, q, size=4))
            dm = pauli.displacement(ctx, conv, ka, la)
            lhs = dm @ k0.at(a, b) @ dm.conj().T
            cov_ok &= np.allclose(lhs, k0.at(a ^ ka, b ^ la), atol=TOL)
        checks.append(_check(f"{name}: covariance", cov_ok, "50 random tuples"))

        km = kernels.build_kernel(ctx, -1, conv, fid)
        kp = kernels.build_kernel(ctx, +1, conv, fid)
        proj_ok = True
        for a, b in km.points():
            coh = pauli.displacement(ctx, conv, a, b) @ fid
            proj_ok &= np.allclose(km.at(a, b), np.outer(coh, coh.conj()), atol=TOL)
        checks.append(_check(f"{name}: s=-1 kernels are coherent-state projectors",
                             proj_ok, "exhaustive"))

        rt_dev = 0.0
        for fwd, dual in ((k0, k0), (km, kp), (kp, km)):
            for _ in range(6):
                op = _random_hermitian(rng, q)
                w = kernels.forward_map(fwd, op)
                rt_dev = max(rt_dev, float(np.max(np.abs(
                    kernels.inverse_map(dual, w) - op))))
        checks.append(_check(f"{name}: inverse(forward) = identity",
                             rt_dev < TOL, f"max dev {rt_dev:.2e}, s in {{-1,0,1}}"))

        pref, rep = kernels.convolution_prefactor(kp, km)
        checks.append(_check(
            f"{name}: overlap diagonal",
            rep.max_diag_dev < TOL and rep.max_offdiag < TOL,
            f"fitted constant {rep.constant.real:.6g}"))
        f, g = _random_hermitian(rng, q), _random_hermitian(rng, q)
        tc = kernels.trace_convolution(kernels.forward_map(kp, f),
                                       kernels.forward_map(km, g), pref)
        checks.append(_check(f"{name}: trace convolution matches Tr(fg)",
                             abs(tc - np.trace(f @ g)) < 1e-8,
                             f"dev {abs(tc - np.trace(f @ g)):.2e}"))
    return _report("kernel", n, checks)


# ----------------------------------------------------------------------

def tomographic_suite(n: int, seed: int = 0) -> dict:
    ctx = gf2n.field_context(n)
    rng = np.random.default_rng(seed)
    q = ctx.order
    checks = []
    conv = pauli.convention_from_name("tomographic-p1")
    k0 = kernels.build_kernel(ctx, 0, conv)
    family = mubrot.mub_family(ctx, "p1")

    worst = 0.0
    for _ in range(10):
        psi = _random_pure(rng, q)
        rho = np.outer(psi, psi.conj())
        for line in mubrot.all_lines(ctx):
            res = kernels.tomographic_check(k0, rho, line,
                                            family.bases[line.slope])
            worst = max(worst, res.deviation)
    checks.append(_check("line sums = Born probabilities", worst < TOL,
                         f"10 random pure states, all lines, max dev {worst:.2e}"))

    line_ok = True
    slopes = list(family.bases) if n <= 3 else [0, 1, mubrot.VERTICAL]
    for slope in slopes:
        for nu in range(q):
            state = family.bases[slope][nu]
            w = kernels.forward_map(k0, np.outer(state, state.conj())).grid
            expect = np.zeros((q, q))
            for a, b in mubrot.LineSpec(slope, nu).points(ctx):
                expect[a, b] = 1.0
            line_ok &= np.allclose(w, expect, atol=TOL)
    checks.append(_check("line-state symbols are delta lines", line_ok,
                         f"slopes checked: {len(slopes)}"))

    if n <= 3:
        wk = kernels.wootters_kernel(ctx, family)
        dev = max(float(np.max(np.abs(wk.at(a, b) - k0.at(a, b))))
                  for a, b in wk.points())
        checks.append(_check("line-projector kernel equals character-sum kernel",
                             dev < TOL, f"max entry dev {dev:.2e}"))
        tr_ok = all(abs(np.trace(wk.at(a, b)) - 1) < TOL for a, b in wk.points())
        checks.append(_check("Tr of every kernel = 1", tr_ok, ""))
    return _report("tomographic", n, checks)


# ----------------------------------------------------------------------

def symmetric_suite(n: int, seed: int = 0) -> dict:
    ctx = gf2n.field_context(n)
    rng = np.random.default_rng(seed)
    q = ctx.order
    checks = []
    conv = pauli.convention_from_name("perminv-f0")
    k0 = kernels.build_kernel(ctx, 0, conv)

    rep = symproj.check_kernel_invariance(k0)
    checks.append(_check("invariant-convention kernel commutes with swaps",
                         rep.invariant and rep.max_deviation == 0.0,
                         f"max dev {rep.max_deviation:.2e} over "
                         f"{rep.transpositions} transpositions"))

    dep_ok = True
    count = 50 if n <= 3 else 20
    for _ in range(count):
        op = pauli.symmetrize(ctx, _random_hermitian(rng, q))
        w = kernels.forward_map(k0, op)
        flag, _witness = symproj.symbol_depends_only_on_h(ctx, w)
        dep_ok &= flag
    checks.append(_check("symmetric-operator symbols constant on orbits",
                         dep_ok, f"{count} random symmetrized operators"))

    pref, _rep = kernels.convolution_prefactor(k0, k0)
    conv_dev = 0.0
    for _ in range(10):
        psi = _random_pure(rng, q)
        rho = np.outer(psi, psi.conj())
        s_op = pauli.symmetrize(ctx, _random_hermitian(rng, q))
        wr = symproj.project(ctx, kernels.forward_map(k0, rho))
        ws = symproj.project(ctx, kernels.forward_map(k0, s_op))
        got = symproj.symmetric_average(wr, ws, pref)
        conv_dev = max(conv_dev, abs(got - np.trace(rho @ s_op)))
    checks.append(_check("projected convolution reproduces Tr(rho S)",
                         conv_dev < TOL, f"max dev {conv_dev:.2e}"))

    psi = _random_pure(rng, q)
    w = kernels.forward_map(k0, np.outer(psi, psi.conj()))
    proj = symproj.project(ctx, w)
    mass = abs(proj.total() - w.total())
    checks.append(_check("projection preserves total mass", mass < 1e-12,
                         f"dev {mass:.2e}"))
    return _report("symmetric", n, checks)


# ----------------------------------------------------------------------

def theorem_suite(n: int, seed: int = 0) -> dict:
    ctx = gf2n.field_context(n)
    checks = []
    if n >= 4:
        wit = symproj.find_theorem_witness(ctx)
        checks.append(_check(
            "sign-flip witness found", wit.flipped,
            f"(p,q,r,s)=({wit.p},{wit.q},{wit.r},{wit.s}) "
            f"alpha={wit.alpha} beta={wit.beta} xi={wit.xi} "
            f"chi: {wit.chi_original} -> {wit.chi_transposed}"))
        restored = [ctx.transpose_coords(
            ctx.transpose_coords(x, wit.r, wit.s), wit.r, wit.s)
            for x in range(ctx.order)]
        checks.append(_check("transposition is an involution",
                             restored == list(range(ctx.order)), ""))
    else:
        report = symproj.search_invariant_phases(ctx)
        detail = (f"{report.hits} of {report.assignments} invariant hermitian "
                  f"phases satisfy every line recurrence; closed-form p=1 "
                  f"among them: {report.includes_closed_form_p1}")
        checks.append(_check("exploratory phase search completed", True, detail))
    return _report("theorem", n, checks)


# ----------------------------------------------------------------------

# suite -> (function, min n, max n); bounds keep every suite desk-scale
_SUITES = {
    "field": (field_suite, 1, 8),
    "pauli": (pauli_suite, 1, 5),
    "mub": (mub_suite, 1, 5),
    "kernel": (kernel_suite, 1, 5),
    "tomographic": (tomographic_suite, 1, 5),
    "symmetric": (symmetric_suite, 1, 5),
    "theorem": (theorem_suite, 2, 6),
}


def run_suite(name: str, n: int, seed: int = 0) -> dict:
    """Run one named suite, or all applicable ones under ``name="all"``."""
    if name == "all":
        reports = []
        for suite_name, (fn, lo, hi) in _SUITES.items():
            if lo <= n <= hi:
                reports.append(fn(n, seed))
            else:
                reports.append({"suite": suite_name, "n": n, "passed": True,
                                "skipped": f"suite supports n in {lo}..{hi}",
                                "checks": []})
        return {"suite": "all", "n": n,
                "passed": all(r["passed"] for r in reports),
                "suites": reports}
    if name not in _SUITES:
        raise ConfigurationError(
            f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    fn, lo, hi = _SUITES[name]
    if not lo <= n <= hi:
        raise ConfigurationError(f"suite {name!r} supports n in {lo}..{hi}, got {n}")
    return fn(n, seed)
