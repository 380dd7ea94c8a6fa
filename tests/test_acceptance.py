# tests/test_acceptance.py
"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
every criterion asserts, so a plain pytest run enforces them too.  Tolerance
is 1e-10 unless a criterion states otherwise.
"""
import math

import numpy as np
from oracles import (all_lines, dense, fit_constant, line_exponents,
                     line_points_of, reference_symbol, su2_group_element,
                     wootters_kernel_by_points)

from dpsmap import (build_kernel, check_kernel_invariance,
                    convention_from_name, convolution_prefactor, displacement,
                    field_context, find_theorem_witness, forward_map,
                    ghz_state, inverse_map, logical_state, mub_family,
                    overlap_check, project, run_suite,
                    search_invariant_phases, spin_coherent,
                    symbol_depends_only_on_h, symmetric_average, symmetrize,
                    tomographic_check, trace_convolution, build_V, build_X,
                    check_unbiased, wootters_kernel)
from dpsmap.mubrot import recurrence_holds

TOL = 1e-10
TOMO = convention_from_name("tomographic-p1")
PERMINV = convention_from_name("perminv-f0")
ALL_CONVENTIONS = ("tomographic-p1", "perminv-sqrt", "perminv-f0",
                   "perminv-f1", "graph-plus", "graph-minus", "plain")


def _verdict(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[{tag}] criterion {num:2d}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label} {suffix}"


def random_hermitian(q, rng):
    A = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    return A + A.conj().T


def random_pure(q, rng):
    psi = rng.normal(size=q) + 1j * rng.normal(size=q)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------

def test_criterion_01_field_suite():
    ok = True
    for n in range(1, 9):
        report = run_suite("field", n)
        ok &= report["passed"]
        details = {c["name"]: c["detail"] for c in report["checks"]}
        # complete at every n: the axioms on the n^3 basis triples and the
        # linear columns, nothing drawn from the seed
        ok &= details["multiplication associative"] == f"the {n ** 3} basis triples"
        ok &= not any("sampled" in detail for detail in details.values())
        ok &= run_suite("field", n, seed=1) == report
    _verdict(1, "field axioms, trace identities, self-dual Gram", ok,
             "n=1..8 complete through the basis")


def test_criterion_02_displacement_suite():
    worst = 0.0
    flags_ok = True
    boundary_ok = True
    for n in (1, 2, 3):
        ctx = field_context(n)
        eye = np.eye(ctx.order)
        for name in ALL_CONVENTIONS:
            conv = convention_from_name(name)
            phis = conv.value_table(ctx)
            herm_all = True
            square_all = True
            for g in range(ctx.order):
                for d in range(ctx.order):
                    D = displacement(ctx, conv, g, d)
                    worst = max(worst, float(np.max(np.abs(D @ D.conj().T - eye))))
                    herm_all &= bool(np.max(np.abs(D - D.conj().T)) < TOL)
                    phi = phis[g, d]
                    square_all &= abs(phi ** 2 - ctx.chi(ctx.mul(g, d))) < TOL
                boundary_ok &= phis[g, 0] == 1
                boundary_ok &= phis[0, g] == 1
            # hermitian displacements exactly when the phase squares to chi
            flags_ok &= (herm_all == square_all == conv.hermitian)
    ok = worst < TOL and flags_ok and boundary_ok
    _verdict(2, "displacement unitarity, hermiticity iff phi^2=chi, "
                "unit boundary phases", ok,
             f"n<=3, 7 conventions, max unitarity dev {worst:.1e}")


def test_criterion_03_kernel_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (1, 2, 3):
        ctx = field_context(n)
        q = ctx.order
        fid = spin_coherent(ctx, 0.5 * np.exp(1j * np.pi / 4))
        for conv in (TOMO, PERMINV):
            kern = build_kernel(ctx, 0.0, conv)
            total = np.zeros((q, q), dtype=complex)
            for a, b in np.ndindex(q, q):
                K = kern.at(a, b)
                total += K
                worst = max(worst, float(np.max(np.abs(K - K.conj().T))))
            worst = max(worst, float(np.max(np.abs(total - q * np.eye(q)))))
            for _ in range(50):
                a, b, da, db = (int(x) for x in rng.integers(0, q, size=4))
                D = displacement(ctx, conv, da, db)
                moved = D @ kern.at(a, b) @ D.conj().T
                worst = max(worst, float(np.max(np.abs(
                    moved - kern.at(a ^ da, b ^ db)))))
            kq = build_kernel(ctx, -1.0, conv, fiducial=fid)
            for a, b in [(0, 0), (1, 0), (q - 1, q - 1)]:
                ket = displacement(ctx, conv, a, b) @ fid
                worst = max(worst, float(np.max(np.abs(
                    kq.at(a, b) - np.outer(ket, ket.conj())))))
    ok = worst < TOL
    _verdict(3, "kernel completeness, covariance, hermiticity, "
                "coherent-state Q kernels", ok,
             f"n<=3, two conventions, max dev {worst:.1e}")


def test_criterion_04_duality_suite():
    rng = np.random.default_rng(4)
    worst_rt = 0.0
    worst_offdiag = 0.0
    worst_tc = 0.0
    constants = []
    for n in (1, 2, 3):
        ctx = field_context(n)
        q = ctx.order
        fid = spin_coherent(ctx, 0.5 * np.exp(1j * np.pi / 4))
        kernels_by_s = {s: build_kernel(ctx, s, TOMO, fiducial=fid)
                        for s in (-1.0, 0.0, 1.0)}
        for s in (-1.0, 0.0, 1.0):
            fwd, inv = kernels_by_s[s], kernels_by_s[-s]
            for _ in range(20):
                op = random_hermitian(q, rng)
                back = inverse_map(inv, forward_map(fwd, op))
                worst_rt = max(worst_rt, float(np.max(np.abs(back - op))))
            rep = overlap_check(fwd, inv)
            constants.append((n, s, rep.constant.real))
            worst_offdiag = max(worst_offdiag, rep.max_offdiag)
            pre, _ = convolution_prefactor(fwd, inv)
            for _ in range(5):
                f, g = random_hermitian(q, rng), random_hermitian(q, rng)
                val = trace_convolution(forward_map(fwd, f),
                                        forward_map(inv, g), pre)
                worst_tc = max(worst_tc, abs(val - np.trace(f @ g)))
    ok = worst_rt < TOL and worst_offdiag < TOL and worst_tc < TOL
    fitted = ", ".join(f"n={n}: {c:.6g}" for n, s, c in constants if s == 0)
    _verdict(4, "inverse/forward duality, diagonal overlap relation, "
                "trace convolution", ok,
             f"fitted overlap constants {fitted}; max dev "
             f"{max(worst_rt, worst_offdiag, worst_tc):.1e}")


def test_criterion_05_mub_suite():
    recurrence_ok = True
    worst = 0.0
    for n in (1, 2, 3, 4):
        ctx = field_context(n)
        q = ctx.order
        p_values = [p for p in (1, 2, 4) if p <= 1 << (n - 1)]
        for xi in range(1, q):
            for name in [f"tomographic-p{p}" for p in p_values] + [
                    "graph-plus", "graph-minus"]:
                exps = line_exponents(ctx, convention_from_name(name), xi)
                recurrence_ok &= bool(recurrence_holds(ctx, xi, exps))
            V = build_V(ctx, TOMO, xi)
            worst = max(worst, float(np.max(np.abs(
                V @ V - build_X(ctx, ctx.sqrt_table[xi])))))
            for nu in (1, q - 1):
                X = build_X(ctx, nu)
                worst = max(worst, float(np.max(np.abs(V @ X - X @ V))))
    unbiased_dev = 0.0
    for n in (1, 2, 3):
        ctx = field_context(n)
        q = ctx.order
        bases = mub_family(ctx).states.reshape(q + 1, q, q)
        for i, ka in enumerate(bases):
            for kb in bases[i + 1:]:
                unbiased_dev = max(unbiased_dev, check_unbiased(ctx, ka, kb))
    suite_ok = True
    for n in range(1, 6):
        report = run_suite("mub", n)
        suite_ok &= report["passed"]
        # complete at every n through X-covariance, nothing drawn from the seed
        details = {c["name"]: c["detail"] for c in report["checks"]}
        suite_ok &= "full family pairwise unbiased" in details
        suite_ok &= not any("random" in detail for detail in details.values())
        suite_ok &= run_suite("mub", n, seed=1) == report
    ok = recurrence_ok and worst < TOL and unbiased_dev < TOL and suite_ok
    _verdict(5, "rotation recurrence (exact), V^2 and commutation, "
                "full-family unbiasedness", ok,
             f"n<=4 recurrence, n<=3 dense family dev {unbiased_dev:.1e}, "
             "suite n=1..5 complete through X-covariance")


def test_criterion_06_tomography_suite():
    rng = np.random.default_rng(6)
    worst_tc = 0.0
    for n in (1, 2, 3, 4):
        ctx = field_context(n)
        kern = build_kernel(ctx, 0.0, TOMO)
        fam = mub_family(ctx)
        for _ in range(10):
            rho = np.outer(*(lambda v: (v, v.conj()))(random_pure(ctx.order, rng)))
            worst_tc = max(worst_tc, tomographic_check(kern, rho, fam).max())
    worst_line = 0.0
    for n in (1, 2):
        ctx = field_context(n)
        kern = build_kernel(ctx, 0.0, TOMO)
        fam = mub_family(ctx)
        for line, ket in zip(all_lines(ctx), fam.states, strict=True):
            psf = forward_map(kern, np.outer(ket, ket.conj()))
            expect = np.zeros((ctx.order, ctx.order))
            for a, b in line_points_of(ctx, line):
                expect[a, b] = 1.0
            worst_line = max(worst_line, float(np.max(np.abs(psf.grid - expect))))
    worst_w = 0.0
    for n in (1, 2, 3):
        ctx = field_context(n)
        kern = build_kernel(ctx, 0.0, TOMO)
        fam = mub_family(ctx)
        woot = wootters_kernel_by_points(ctx, fam)
        assert np.array_equal(wootters_kernel(ctx, fam), woot[0, 0])
        for a, b in np.ndindex(ctx.order, ctx.order):
            worst_w = max(worst_w, float(np.max(np.abs(
                woot[a, b] - kern.at(a, b)))))
    suite_ok = all(run_suite("tomographic", n)["passed"] for n in range(1, 6))
    ok = worst_tc < TOL and worst_line < TOL and worst_w < TOL and suite_ok
    _verdict(6, "line sums = Born probabilities, delta-line states, "
                "projector form of the kernel", ok,
             f"10 states/size n<=4, TC dev {worst_tc:.1e}, "
             f"kernel match {worst_w:.1e}, suite n=1..5 through the pencil heads")


def test_criterion_07_symmetry_suite():
    rng = np.random.default_rng(7)
    invariance_exact = True
    for n in (2, 3, 4):
        rep = check_kernel_invariance(build_kernel(field_context(n), 0.0, PERMINV))
        invariance_exact &= rep.invariant and rep.max_deviation == 0.0
    h_ok = True
    counted = 0
    for n, reps in ((3, 50), (4, 10)):
        ctx = field_context(n)
        kern = build_kernel(ctx, 0.0, PERMINV)
        for _ in range(reps):
            S = symmetrize(ctx, random_hermitian(ctx.order, rng))
            flat, witness = symbol_depends_only_on_h(ctx, forward_map(kern, S))
            h_ok &= flat and witness is None
            counted += 1
    worst_avg = 0.0
    for n in (2, 3, 4):
        ctx = field_context(n)
        q = ctx.order
        kern = build_kernel(ctx, 0.0, PERMINV)
        pre, _ = convolution_prefactor(kern, kern)
        for _ in range(5):
            rho = np.outer(*(lambda v: (v, v.conj()))(random_pure(q, rng)))
            S = symmetrize(ctx, random_hermitian(q, rng))
            got = symmetric_average(project(ctx, forward_map(kern, rho)),
                                    project(ctx, forward_map(kern, S)), pre)
            worst_avg = max(worst_avg, abs(got - np.trace(rho @ S)))
    ok = invariance_exact and h_ok and worst_avg < TOL
    _verdict(7, "kernel permutation invariance, orbit-constant symbols, "
                "projected averages", ok,
             f"{counted} symmetrized ops, projected-average dev {worst_avg:.1e}")


def test_criterion_08_theorem_demonstration():
    witnesses_ok = True
    details = []
    for n in (4, 5, 6):
        w = find_theorem_witness(field_context(n))
        witnesses_ok &= w.flipped and w.chi_original == -w.chi_transposed
        details.append(f"n={n}: chi {w.chi_original:+d}->{w.chi_transposed:+d} "
                       f"at (p,q,r,s)=({w.p},{w.q},{w.r},{w.s})")
    explored, found = [], True
    for n in (2, 3):
        rep = search_invariant_phases(field_context(n))
        found &= rep.hits > 0
        explored.append(f"n={n}: {rep.hits}/{rep.assignments} invariant "
                        f"hermitian phases satisfy the line-sum condition"
                        + (" (incl. closed form)" if rep.includes_closed_form_p1
                           else " (closed form excluded)"))
    ok = witnesses_ok and found
    _verdict(8, "sign-flip witness for n=4,5,6; invariant hermitian phases "
                "satisfy every line recurrence at n=2,3", ok,
             "; ".join(details + explored))


def test_criterion_09_closed_form_reproduction():
    # equatorial coherent state: W = 1 exactly on the alpha = 0 row
    worst_eq = 0.0
    for n in (1, 2, 3, 4):
        ctx = field_context(n)
        kern = build_kernel(ctx, 0.0, TOMO)
        ket = spin_coherent(ctx, 1.0)
        psf = forward_map(kern, np.outer(ket, ket.conj()))
        expect = np.zeros((ctx.order, ctx.order))
        expect[0, :] = 1.0
        worst_eq = max(worst_eq, float(np.max(np.abs(psf.grid - expect))))
        worst_eq = max(worst_eq, float(np.max(np.abs(
            reference_symbol(ctx, "equatorial_w0").grid - expect))))

    # projected GHZ Q vs closed form, fitted constant, residual < 1e-8
    worst_q_resid = 0.0
    q_consts = []
    for n in (2, 3, 4):
        ctx = field_context(n)
        rho = np.outer(ghz_state(ctx), ghz_state(ctx).conj())
        for zeta_abs in (0.5, 1.0, 2.0):
            fid = spin_coherent(ctx, zeta_abs * np.exp(1j * np.pi / 4))
            kq = build_kernel(ctx, -1.0, PERMINV, fiducial=fid)
            num = dense(project(ctx, forward_map(kq, rho)))
            ref = dense(reference_symbol(ctx, "ghz_q_proj", zeta_abs=zeta_abs))
            c, resid = fit_constant(ref, num)
            worst_q_resid = max(worst_q_resid, resid, abs(c - 1))
            q_consts.append(c.real)

    # projected GHZ Wigner: delta combs exact, interference proportional
    worst_comb = 0.0
    worst_int_resid = 0.0
    int_consts = []
    for n in (2, 3, 4):
        ctx = field_context(n)
        comb = np.zeros((n + 1,) * 3)
        for k in range(n + 1):
            comb[k, 0, k] += 0.5 * math.comb(n, k)
            comb[n - k, n, k] += 0.5 * math.comb(n, n - k)
        raw = dense(reference_symbol(ctx, "ghz_w0_proj"))
        interference_printed = raw - comb
        kern = build_kernel(ctx, 0.0, PERMINV)
        rho = np.outer(ghz_state(ctx), ghz_state(ctx).conj())
        num = dense(project(ctx, forward_map(kern, rho)))
        c, resid = fit_constant(interference_printed, num - comb)
        worst_int_resid = max(worst_int_resid, resid)
        int_consts.append(c.real)
        worst_comb = max(worst_comb, float(np.max(np.abs(
            (num - c * interference_printed) - comb))))

    # SU(2) group-element symbol, 10 random Euler triples, n <= 3
    rng = np.random.default_rng(9)
    worst_su2 = 0.0
    for n in (1, 2, 3):
        ctx = field_context(n)
        kern = build_kernel(ctx, 0.0, PERMINV)
        for _ in range(10):
            phi, theta, psi = rng.uniform(-np.pi, np.pi, size=3)
            U = su2_group_element(ctx, phi, theta, psi)
            ref = reference_symbol(ctx, "su2_element", euler=(phi, theta, psi))
            c, resid = fit_constant(ref.grid, forward_map(kern, U).grid)
            worst_su2 = max(worst_su2, resid, abs(c - 1))

    ok = (worst_eq < 1e-12 and worst_q_resid < 1e-8
          and worst_comb < 1e-8 and worst_int_resid < 1e-8
          and worst_su2 < 1e-8)
    _verdict(9, "closed forms: equatorial delta, GHZ Q (fitted), GHZ Wigner "
                "combs + interference, SU(2) symbol", ok,
             f"GHZ-Q constants ~{q_consts[0]:.6f}, interference constants "
             + ", ".join(f"n={n}: {c:.6f}" for n, c in zip((2, 3, 4), int_consts))
             + f"; worst residual {max(worst_q_resid, worst_int_resid, worst_su2):.1e}")


def test_criterion_10_interference_contrast():
    n = 4
    ctx = field_context(n)
    zero = logical_state(ctx, 0)
    ones = logical_state(ctx, 1)  # the field unit has all-ones coordinates
    rho_diag = 0.5 * (np.outer(zero, zero.conj()) + np.outer(ones, ones.conj()))
    rho_cross = 0.5 * (np.outer(zero, ones.conj()) + np.outer(ones, zero.conj()))

    def peak_ratio(kern):
        diag = dense(project(ctx, forward_map(kern, rho_diag)))
        cross = dense(project(ctx, forward_map(kern, rho_cross)))
        return float(np.max(np.abs(cross)) / np.max(np.abs(diag)))

    # |zeta| sets the Q-side smoothing scale: the cross-term peak is bounded
    # while the principal peaks grow like |zeta|^(2n-N), so a polarized
    # fiducial (|zeta| = 1/3 here) makes the suppression unambiguous at N=4.
    fid = spin_coherent(ctx, (1.0 / 3.0) * np.exp(1j * np.pi / 4))
    ratio_w = peak_ratio(build_kernel(ctx, 0.0, PERMINV))
    ratio_q = peak_ratio(build_kernel(ctx, -1.0, PERMINV, fiducial=fid))
    contrast = ratio_w / ratio_q
    ok = contrast >= 10.0
    _verdict(10, "GHZ interference visible in the projected Wigner map, "
                 "suppressed in the projected Q map", ok,
             f"n=4 interference/peak: Wigner {ratio_w:.4f}, Q {ratio_q:.6f}, "
             f"contrast {contrast:.1f}x")
