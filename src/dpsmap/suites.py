"""Self-contained verification suites used by the CLI `verify` command.

Each suite returns a JSON-serializable report::

    {"suite": name, "n": n, "passed": bool, "checks": [
        {"name": ..., "passed": ..., "detail": ...}, ...]}

The checks mirror the library's defining identities at desk scale; suites
are deterministic for a fixed seed.  A check that measures one number
passes when it is below the check's tolerance, so a NaN fails it.
"""

from __future__ import annotations

import math

import numpy as np

from . import gf2n, kernels, mubrot, pauli, symproj
from .errors import ConfigurationError
from .sampling import Sampler

TOL = 1e-10

#: the largest stacked complex temporary a check builds: 4096 entries (64 KB)
_STACK_ENTRIES = 4096

SUITE_NAMES = ("field", "pauli", "mub", "kernel", "tomographic",
               "symmetric", "theorem", "all")


def _check(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": str(detail)}


def _measured(name, value, detail="", tol=TOL):
    """The check that ``value < tol``, never met by a NaN; ``detail`` is
    formatted with the value."""
    return _check(name, value < tol, detail.format(value))


def _dev(a, b) -> float:
    """Largest entry of |a - b|; a NaN counts as infinitely far."""
    dev = float(np.abs(a - b).max())
    return math.inf if math.isnan(dev) else dev


def _chunks(ctx, count):
    """Slices of ``count`` samples, each small enough that a (P, q, q)
    complex stack of them holds at most ``_STACK_ENTRIES`` entries."""
    step = max(1, _STACK_ENTRIES // ctx.order ** 2)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _dagger(ops):
    return ops.conj().swapaxes(-1, -2)


def _report(suite, n, checks):
    return {"suite": suite, "n": n, "passed": all(c["passed"] for c in checks),
            "checks": checks}


# ----------------------------------------------------------------------

def field_suite(n: int, seed: int = 0) -> dict:
    ctx = gf2n.field_context(n)
    rng = Sampler(seed)
    q = ctx.order
    checks = []

    mt = ctx.mul_table
    if n <= 4:
        a = np.arange(q)
        assoc = np.array_equal(mt[mt[a][:, :, None], a[None, None, :]],
                               mt[a[:, None, None], mt[a][None, :, :]])
        distrib = np.array_equal(mt[:, ctx.xor_grid], mt[:, :, None] ^ mt[:, None, :])
        scope = "exhaustive"
    else:
        x, y, z = rng.integers(0, q, (2000, 3)).T
        assoc = np.array_equal(mt[mt[x, y], z], mt[x, mt[y, z]])
        distrib = np.array_equal(mt[x, y ^ z], mt[x, y] ^ mt[x, z])
        scope = "sampled 2000 triples"
    checks.append(_check("multiplication associative", assoc, scope))
    checks.append(_check("multiplication distributes over xor", distrib, scope))
    checks.append(_check("commutativity", np.array_equal(mt, mt.T), "table symmetry"))
    units = np.arange(1, q)
    inv_ok = np.all(mt[units, ctx.inv_table[units]] == 1)
    checks.append(_check("multiplicative inverses", inv_ok, "all nonzero elements"))

    tr = ctx.trace_table
    lin = np.array_equal(tr[ctx.xor_grid], (tr[:, None] + tr[None, :]) % 2)
    checks.append(_check("trace additive", lin, "exhaustive pair table"))
    frob = np.array_equal(tr, tr[np.diagonal(mt)])
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
    rng = Sampler(seed)
    q = ctx.order
    checks = []

    pairs = ([(g, d) for g in range(q) for d in range(q)] if n <= 3
             else [tuple(int(x) for x in p)
                   for p in rng.integers(0, q, (50, 2))])
    scope = "all 4^n pairs" if n <= 3 else "sampled 50 pairs"

    unit_dev = comm_dev = 0.0
    eye = np.eye(q)
    sample = pairs if n <= 3 else pairs[:20]
    gs, ds = np.array(sample).T
    for part in _chunks(ctx, len(sample)):
        g, d = gs[part], ds[part]
        z, x = pauli.build_Z(ctx, g), pauli.build_X(ctx, d)
        unit_dev = max(unit_dev, _dev(z @ _dagger(z), eye), _dev(x @ _dagger(x), eye))
        chi = ctx.chi_table[ctx.mul_table[g, d]][:, None, None]
        comm_dev = max(comm_dev, _dev(z @ x, chi * (x @ z)))
    checks.append(_measured("Z_a, X_b unitary", unit_dev, scope))
    checks.append(_measured("Z_a X_b = chi(ab) X_b Z_a", comm_dev, scope))

    for name in CONVENTION_NAMES:
        conv = pauli.convention_from_name(name)
        exps = conv.exponent_table(ctx)
        vals = pauli.I4[exps]
        boundary = np.all(exps[0, :] == 0) and np.all(exps[:, 0] == 0)
        checks.append(_check(f"{name}: phi = 1 on axes", boundary, ""))
        herm_pointwise = _dev(vals * vals, ctx.char_matrix_c) < TOL
        checks.append(_check(
            f"{name}: hermitian flag matches phi^2 = chi(gd)",
            herm_pointwise == conv.hermitian,
            f"flag={conv.hermitian}"))
        d_dev = 0.0
        gs, ds = np.array((pairs if n <= 2 else sample)[:40]).T
        for part in _chunks(ctx, len(gs)):
            dm = pauli.displacement(ctx, conv, gs[part], ds[part])
            d_dev = max(d_dev, _dev(dm @ _dagger(dm), eye))
            if conv.hermitian:
                d_dev = max(d_dev, _dev(dm, _dagger(dm)))
        checks.append(_measured(f"{name}: displacements unitary"
                                + (" and hermitian" if conv.hermitian else ""),
                                d_dev, scope))
    return _report("pauli", n, checks)


# ----------------------------------------------------------------------

def mub_suite(n: int, seed: int = 0) -> dict:
    ctx = gf2n.field_context(n)
    rng = Sampler(seed)
    q = ctx.order
    checks = []

    for scheme, name in mubrot.SCHEMES.items():
        conv = pauli.convention_from_name(name)
        tomographic = isinstance(conv, pauli.TomographicPhase)
        if tomographic and conv.p > 1 << (n - 1):
            continue
        # rows[xi, kappa] = e(kappa, xi kappa): the convention on slope xi
        rows = conv.exponent_table(ctx)[np.arange(q), ctx.mul_table]
        ok = mubrot.recurrence_holds(ctx, np.arange(1, q), rows[1:]).all()
        label = f"closed form p={conv.p}" if tomographic else scheme
        checks.append(_check(f"recurrence exact, {label}", ok, "all nonzero slopes"))

    slopes = np.arange(1, q) if n <= 3 else rng.integers(1, q, (6,))
    tomo = pauli.convention_from_name("tomographic-p1")
    vs = mubrot.build_V(ctx, tomo, slopes)
    nus = rng.integers(0, q, slopes.shape)
    sq_dev = comm_dev = 0.0
    for part in _chunks(ctx, len(slopes)):
        v = vs[part]
        sq_dev = max(sq_dev, _dev(v @ v, pauli.build_X(ctx, ctx.sqrt_table[slopes[part]])))
        x = pauli.build_X(ctx, nus[part])
        comm_dev = max(comm_dev, _dev(v @ x, x @ v))
    checks.append(_measured("V_xi^2 = X_sqrt(xi)", sq_dev, "p=1 family"))
    checks.append(_measured("[V_xi, X_nu] = 0", comm_dev, "one random nu per slope"))

    if n <= 3:
        bases = mubrot.mub_family(ctx, "p1").states.reshape(q + 1, q, q)
        checks.append(_measured("full family pairwise unbiased", max(
            _dev(mubrot.check_unbiased(ctx, sa, bases[i + 1:].reshape(-1, q)), 0)
            for i, sa in enumerate(bases[:-1])), "max | |<a|b>|^2 - 1/q | = {:.2e}"))
    return _report("mub", n, checks)


# ----------------------------------------------------------------------

def kernel_suite(n: int, seed: int = 0) -> dict:
    ctx = gf2n.field_context(n)
    rng = Sampler(seed)
    q = ctx.order
    checks = []
    fid = pauli.spin_coherent(ctx, pauli.DEFAULT_FIDUCIAL_ZETA)

    for name in ("tomographic-p1", "perminv-f0"):
        conv = pauli.convention_from_name(name)
        k0 = kernels.build_kernel(ctx, 0, conv)
        checks.append(_measured(f"{name}: sum of kernels = 2^n I",
                                k0.normalization_residual(), "s=0"))
        checks.append(_measured(f"{name}: kernels hermitian",
                                k0.hermiticity_residual(), "s=0, all points"))

        cov_dev = 0.0
        ka, la, a, b = rng.integers(0, q, (50, 4)).T
        for part in _chunks(ctx, 50):
            dm = pauli.displacement(ctx, conv, ka[part], la[part])
            lhs = dm @ k0.at(a[part], b[part]) @ _dagger(dm)
            moved = k0.at(a[part] ^ ka[part], b[part] ^ la[part])
            cov_dev = max(cov_dev, _dev(lhs, moved))
        checks.append(_measured(f"{name}: covariance", cov_dev, "50 random tuples"))

        km = kernels.build_kernel(ctx, -1, conv, fid)
        kp = kernels.build_kernel(ctx, +1, conv, fid)
        checks.append(_measured(f"{name}: s=-1 kernels are coherent-state projectors",
                                km.coherent_projector_residual(), "exhaustive"))

        rt_dev = 0.0
        for fwd, dual in ((k0, k0), (km, kp), (kp, km)):
            for part in _chunks(ctx, 6):
                ops = rng.hermitian(q, part.stop - part.start)
                back = kernels.inverse_map(dual, kernels.forward_map(fwd, ops))
                rt_dev = max(rt_dev, _dev(back, ops))
        checks.append(_measured(f"{name}: inverse(forward) = identity", rt_dev,
                                "max dev {:.2e}, s in {{-1,0,1}}"))

        pref, rep = kernels.convolution_prefactor(kp, km)
        checks.append(_measured(f"{name}: overlap diagonal", rep.max_offdiag,
                                f"fitted constant {rep.constant.real:.6g}"))
        f, g = rng.hermitian(q, 2)
        tc = kernels.trace_convolution(kernels.forward_map(kp, f),
                                       kernels.forward_map(km, g), pref)
        checks.append(_measured(f"{name}: trace convolution matches Tr(fg)",
                                abs(tc - np.trace(f @ g)), "dev {:.2e}", 1e-8))
    return _report("kernel", n, checks)


# ----------------------------------------------------------------------

def tomographic_suite(n: int, seed: int = 0) -> dict:
    ctx = gf2n.field_context(n)
    rng = Sampler(seed)
    q = ctx.order
    checks = []
    conv = pauli.convention_from_name("tomographic-p1")
    k0 = kernels.build_kernel(ctx, 0, conv)
    family = mubrot.mub_family(ctx, "p1")

    worst = 0.0
    for _ in range(10):
        psi = rng.pure(q)
        rho = np.outer(psi, psi.conj())
        worst = max(worst, _dev(kernels.tomographic_check(k0, rho, family).deviation, 0))
    checks.append(_measured("line sums = Born probabilities", worst,
                            "10 random pure states, all lines, max dev {:.2e}"))

    line_dev = 0.0
    # every line, or those of slopes 0 and 1 and of the vertical pencil
    rows = np.arange(q * q + q) if n <= 3 else np.r_[:2 * q, q * q:q * q + q]
    states, points = family.states[rows], ctx.line_points[rows]
    for part in _chunks(ctx, len(states)):
        psi = states[part]
        w = kernels.forward_map(k0, psi[:, :, None] * psi.conj()[:, None, :]).grid
        expect = np.zeros((len(psi), q * q))
        np.put_along_axis(expect, points[part], 1.0, axis=1)
        line_dev = max(line_dev, _dev(w, expect.reshape(-1, q, q)))
    checks.append(_measured("line-state symbols are delta lines", line_dev,
                            f"slopes checked: {len(rows) // q}"))

    if n <= 3:
        wk = kernels.wootters_kernel(ctx, family).reshape(q * q, q, q)
        a, b = np.divmod(np.arange(q * q), q)
        dev = max(_dev(wk[part], k0.at(a[part], b[part])) for part in _chunks(ctx, q * q))
        checks.append(_measured("line-projector kernel equals character-sum kernel",
                                dev, "max entry dev {:.2e}"))
        checks.append(_measured("Tr of every kernel = 1",
                                _dev(np.trace(wk, axis1=1, axis2=2), 1)))
    return _report("tomographic", n, checks)


# ----------------------------------------------------------------------

def symmetric_suite(n: int, seed: int = 0) -> dict:
    ctx = gf2n.field_context(n)
    rng = Sampler(seed)
    q = ctx.order
    checks = []
    conv = pauli.convention_from_name("perminv-f0")
    k0 = kernels.build_kernel(ctx, 0, conv)

    rep = symproj.check_kernel_invariance(k0)
    checks.append(_check("invariant-convention kernel commutes with swaps",
                         rep.invariant and rep.max_deviation == 0.0,
                         f"max dev {rep.max_deviation:.2e} over "
                         f"{rep.transpositions} transpositions"))

    # the orbit sums P_o, which span the symmetric operators, and their
    # projections K[m, o]; the dense symmetrization is the oracle at n <= 3
    order, bounds = ctx.orbit_runs
    sizes = np.diff(bounds)
    count = len(sizes)
    dep_ok, dense_dev, cols = True, 0.0, []
    for part in _chunks(ctx, count):
        w = symproj.orbit_sum_symbols(k0, part)
        dep_ok &= symproj.symbol_depends_only_on_h(ctx, w)[0]
        cols.append(symproj.project(ctx, w).values)
        if n <= 3:
            g, d = np.divmod(order[bounds[part]], q)
            ops = pauli.symmetrize(ctx, pauli.build_Z(ctx, g) @ pauli.build_X(ctx, d))
            dense = kernels.forward_map(k0, sizes[part, None, None] * ops)
            dense_dev = max(dense_dev, _dev(dense.grid, w.grid))
    checks.append(_check("symmetric-operator symbols constant on orbits",
                         dep_ok, f"all {count} orbit sums"))
    if n <= 3:
        checks.append(_measured("orbit-sum symbols match dense symmetrization",
                                dense_dev, "max dev {:.2e}"))

    # the projected convolution of every pair: pref K^T diag(1/R) K = Tr(P_o P_o')
    pref, _rep = kernels.convolution_prefactor(k0, k0)
    proj = symproj.ProjectedFunction(n=n, s=0, convention=conv.name, values=np.hstack(cols),
                                     convention_invariant=k0.convention_invariant)
    gram_dev = _dev(symproj.symmetric_average(proj, proj, pref), symproj.orbit_sum_traces(ctx))
    checks.append(_measured("projected convolution reproduces Tr(rho S)", gram_dev,
                            "max dev {:.2e} over all orbit-sum pairs"))
    # |q R_o chi| >= q, so an error below q / count keeps the Gram matrix, and K, nonsingular
    full = count * gram_dev < q and count == math.comb(n + 3, 3)
    checks.append(_check("projection is lossless", full,
                         f"rank {count} = C(n+3, 3)" if full else "full rank not certified"))

    psi = rng.pure(q)
    w = kernels.forward_map(k0, np.outer(psi, psi.conj()))
    proj = symproj.project(ctx, w)
    checks.append(_measured("projection preserves total mass",
                            abs(proj.total() - w.total()), "dev {:.2e}", 1e-12))
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
