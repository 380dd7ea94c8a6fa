"""Self-contained verification suites used by the CLI `verify` command.

Each suite returns a JSON-serializable report::

    {"suite": name, "n": n, "passed": bool, "checks": [
        {"name": ..., "passed": ..., "detail": ...}, ...]}

The field, pauli and mub suites draw nothing.  Field and pauli check every
input through the generators 2^i (the product is bilinear, and Z, X represent
(GF(2^n), +)), mub through X-covariance.  The tomographic suite checks every
line and every kernel through the q + 1 pencil heads and the origin kernel
(each line state is an X_nu or Z_nu shift of its head, and the kernels are
covariant); its Born check and the other suites check seeded samples.  A
check of one measured number passes below its tolerance, so a NaN fails it.
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
    """Slices of ``count`` items, each small enough that a (P, q, q)
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
    q = ctx.order
    checks = []

    # x(y + z) = xy + xz iff column y = column y - t xor column t (y = t zeroes
    # column 0); a commuting bilinear product is associative if it is on the basis
    mt = ctx.mul_table
    powers = [1 << i for i in range(n)]
    linear = all((mt[:, t:2 * t] == mt[:, :t] ^ mt[:, t, None]).all() for t in powers)
    rows = mt[powers]
    basis = rows[:, powers]
    assoc = (mt[basis[..., None], powers] == rows[:, basis]).all()
    checks.append(_check("multiplication associative", assoc, f"the {n ** 3} basis triples"))
    checks.append(_check("multiplication distributes over xor", linear,
                         "xy = x(y - t) + xt for all x, y; t the highest bit of y"))
    checks.append(_check("commutativity", (mt == mt.T).all(), "table symmetry"))
    checks.append(_check("1 is the multiplicative identity", (mt[1] == np.arange(q)).all(),
                         "1x = x for every x"))
    units = np.arange(1, q)
    inv_ok = (mt[units, ctx.inv_table[units]] == 1).all()
    checks.append(_check("multiplicative inverses", inv_ok, "all nonzero elements"))

    tr = ctx.trace_table
    lin = all((tr[t:2 * t] == tr[:t] ^ tr[t]).all() for t in powers)
    checks.append(_check("trace additive", lin, "tr(y) = tr(y - t) + tr(t) for every y"))
    frob = (tr == tr[np.diagonal(mt)]).all()
    checks.append(_check("tr(x) = tr(x^2)", frob, "exhaustive"))

    checks.append(_check("self-dual Gram matrix = I", (ctx.gram_matrix() == np.eye(n)).all(),
                         f"basis {ctx.selfdual_basis}"))
    checks.append(_check("field unit has all-ones coordinates", ctx.to_coords(1) == (1,) * n,
                         "tr(theta_i) = 1 for every self-dual element"))
    return _report("field", n, checks)


# ----------------------------------------------------------------------

CONVENTION_NAMES = ("tomographic-p1", "perminv-sqrt", "perminv-f0",
                    "perminv-f1", "graph-plus", "plain")


def pauli_suite(n: int, seed: int = 0) -> dict:
    ctx = gf2n.field_context(n)
    q = ctx.order
    checks = []
    eye = np.eye(q)
    gens = 1 << np.arange(n)

    # at a = t, Z_a = Z_(a-t) Z_t makes Z_0 = I
    a, top = np.arange(1, q), np.repeat(gens, gens)
    hom_dev = 0.0
    for part in _chunks(ctx, q - 1):
        for build in (pauli.build_Z, pauli.build_X):
            ops = build(ctx, a[part] ^ top[part]) @ build(ctx, top[part])
            hom_dev = max(hom_dev, _dev(build(ctx, a[part]), ops))
    checks.append(_measured("Z_a = Z_(a-t) Z_t and X_a = X_(a-t) X_t", hom_dev,
                            "every a, t its highest bit"))

    # chi(ab) is bimultiplicative, so the generator pairs give every pair (a, b)
    unit_dev = comm_dev = 0.0
    gs, ds = gens[np.indices((n, n)).reshape(2, -1)]
    for part in _chunks(ctx, n * n):
        g, d = gs[part], ds[part]
        z, x = pauli.build_Z(ctx, g), pauli.build_X(ctx, d)
        unit_dev = max(unit_dev, _dev(z @ _dagger(z), eye), _dev(x @ _dagger(x), eye))
        chi = ctx.chi_table[ctx.mul_table[g, d]][:, None, None]
        comm_dev = max(comm_dev, _dev(z @ x, chi * (x @ z)))
    scope = f"the {n * n} generator pairs (2^i, 2^j)"
    checks.append(_measured("Z_a, X_b unitary", unit_dev, scope))
    checks.append(_measured("Z_a X_b = chi(ab) X_b Z_a", comm_dev, scope))

    for name in CONVENTION_NAMES:
        conv = pauli.convention_from_name(name)
        exps = conv.exponent_table(ctx)
        checks.append(_check(f"{name}: phi = 1 on axes", not (exps[0].any() or exps[:, 0].any())))
        herm_pointwise = _dev(pauli.I4[exps] ** 2, ctx.char_matrix_c) < TOL
        checks.append(_check(f"{name}: hermitian flag matches phi^2 = chi(gd)",
                             herm_pointwise == conv.hermitian, f"flag={conv.hermitian}"))
        d_dev = 0.0
        for part in _chunks(ctx, n):
            dm = pauli.displacement(ctx, conv, gens[part], gens[part])
            d_dev = max(d_dev, _dev(dm @ _dagger(dm), eye))
            if conv.hermitian:
                d_dev = max(d_dev, _dev(dm, _dagger(dm)))
        checks.append(_measured(f"{name}: displacements unitary"
                                + (" and hermitian" if conv.hermitian else ""), d_dev,
                                "pairs (2^i, 2^i); every other pair follows from "
                                "|phi| = 1 and the pointwise phi^2 = chi(gd) check"))
    return _report("pauli", n, checks)


# ----------------------------------------------------------------------

def mub_suite(n: int, seed: int = 0) -> dict:
    ctx = gf2n.field_context(n)
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

    # X_nu moves basis index r to r ^ index(nu), so V commutes with every X_nu iff
    # V[r, c] = V[r ^ c, 0]; so then does V^2, whose column 0 settles V^2 = X_sqrt(xi)
    slopes = np.arange(1, q)
    tomo = pauli.convention_from_name("tomographic-p1")
    heads = np.eye(q, dtype=complex)        # row 0 is |0>; row xi becomes V_xi |0>
    sq_dev = comm_dev = 0.0
    for xi in (slopes[part] for part in _chunks(ctx, q - 1)):
        v = mubrot.build_V(ctx, tomo, xi)
        comm_dev = max(comm_dev, _dev(v, v[:, ctx.xor_grid, 0]))
        sq_dev = max(sq_dev, _dev(v @ v[..., :1], pauli.build_X(ctx, ctx.sqrt_table[xi])[..., :1]))
        heads[xi] = v[..., 0]
    checks.append(_measured("V_xi^2 = X_sqrt(xi)", sq_dev, "p=1 family, every slope"))
    checks.append(_measured("[V_xi, X_nu] = 0", comm_dev, "every slope and every nu"))

    # sloped pencil p holds the X_nu shifts of its head, the vertical one X_nu eigenstates,
    # so each pencil against the other heads covers every pair of states in two pencils
    dual = mubrot.dual_basis_matrix(ctx).T
    checks.append(_measured("full family pairwise unbiased", max(_dev(mubrot.check_unbiased(
        ctx, heads[np.arange(q) != p], heads[p][ctx.xor_grid] if p < q else dual), 0)
        for p in range(q + 1)), "max | |<a|b>|^2 - 1/q | = {:.2e}"))
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

    psi = np.array([rng.pure(q) for _ in range(10)])
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    checks.append(_measured("line sums = Born probabilities",
                            _dev(kernels.tomographic_check(k0, rho, family), 0),
                            "10 random pure states, all lines, max dev {:.2e}"))

    # row xi q + nu holds X_nu times its pencil's head, row q^2 + nu holds Z_nu times
    # |0~>, and the kernels are covariant, so the heads' symbols settle every line's
    line_dev = 0.0
    states, points = family.states[::q], ctx.line_points[::q]
    for part in _chunks(ctx, q + 1):
        psi = states[part]
        w = kernels.forward_map(k0, psi[:, :, None] * psi.conj()[:, None, :]).grid
        expect = np.zeros((len(psi), q * q))
        np.put_along_axis(expect, points[part], 1.0, axis=1)
        line_dev = max(line_dev, _dev(w, expect.reshape(-1, q, q)))
    checks.append(_measured("line-state symbols are delta lines", line_dev,
                            f"intercept 0 of all {q + 1} pencils"))

    # both kernels obey Delta(a, b) = X_b Z_a Delta(0, 0) Z_a^dagger X_b
    wk = kernels.wootters_kernel(ctx, family)
    checks.append(_measured("line-projector kernel equals character-sum kernel",
                            _dev(wk, k0.at(0, 0)), "at the origin, max entry dev {:.2e}"))
    checks.append(_measured("Tr of every kernel = 1", _dev(np.trace(wk), 1),
                            "at the origin; the others are its conjugates"))
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
        checks.append(_check("some invariant hermitian phase satisfies every line recurrence",
                             report.hits > 0, detail))
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
