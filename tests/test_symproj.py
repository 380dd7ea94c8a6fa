# tests/test_symproj.py
import itertools
import math

import numpy as np
import pytest

from dpsmap import (DEFAULT_FIDUCIAL_ZETA, ConfigurationError, build_kernel,
                    check_kernel_invariance, convention_from_name,
                    convolution_prefactor, displacement, field_context,
                    find_theorem_witness, fit_constant, forward_map, ghz_state,
                    mub_family, pair_counts, permutation_op, project, r_factor,
                    reference_symbol, search_invariant_phases, spin_coherent,
                    symbol_depends_only_on_h, symmetric_average, symmetrize,
                    theorem_witness, trace_convolution, valid_triples, w_state,
                    wootters_kernel)
from dpsmap import REFERENCE_IDS
from dpsmap.kernels import KernelSet

TOMO = convention_from_name("tomographic-p1")
PERMINV = convention_from_name("perminv-f0")
ALL_CONVENTIONS = ("tomographic-p1", "perminv-sqrt", "perminv-f0",
                   "perminv-f1", "graph-plus", "graph-minus", "plain")


def brute_orbit_sizes(ctx):
    """Count grid points per (m, n, k) by direct enumeration."""
    sizes = {}
    hw = ctx.hweight_table
    for a in ctx.elements():
        for b in ctx.elements():
            key = (int(hw[a]), int(hw[b]), int(hw[a ^ b]))
            sizes[key] = sizes.get(key, 0) + 1
    return sizes


# ---------------------------------------------------------
# orbit combinatorics
# ---------------------------------------------------------

def test_r_factor_matches_brute_force():
    for n in (1, 2, 3, 4):
        ctx = field_context(n)
        sizes = brute_orbit_sizes(ctx)
        for m in range(n + 1):
            for nn in range(n + 1):
                for k in range(n + 1):
                    assert r_factor(n, m, nn, k) == sizes.get((m, nn, k), 0)


def test_r_factor_frozen_values():
    assert r_factor(2, 1, 1, 2) == 2
    assert r_factor(2, 1, 1, 0) == 2
    assert r_factor(2, 1, 1, 1) == 0  # parity-forbidden triple
    assert r_factor(3, 1, 1, 2) == 6


def test_orbit_sizes_cover_the_grid():
    for n in range(1, 6):
        assert sum(r_factor(n, *t) for t in valid_triples(n)) == 4 ** n


def test_pair_counts_consistency():
    """The four pair counts are nonnegative and resum to (m, n, k)."""
    for n in (2, 3, 4):
        for m, nn, k in valid_triples(n):
            n11, n10, n01, n00 = pair_counts(n, m, nn, k)
            assert min(n11, n10, n01, n00) >= 0
            assert n11 + n10 == m
            assert n11 + n01 == nn
            assert n10 + n01 == k
            assert n11 + n10 + n01 + n00 == n
        assert pair_counts(2, 1, 1, 1) is None


def test_valid_triples_sorted_unique():
    for n in (2, 3):
        triples = valid_triples(n)
        assert triples == sorted(set(triples))


# ---------------------------------------------------------
# projection
# ---------------------------------------------------------

def test_uniform_grid_projects_to_orbit_sizes():
    ctx = field_context(3)
    kern = build_kernel(ctx, 0.0, PERMINV)
    psf = forward_map(kern, np.eye(8, dtype=complex))
    proj = project(ctx, psf)
    for t in valid_triples(3):
        assert abs(proj.value(*t) - r_factor(3, *t)) < 1e-12


def test_projection_preserves_mass():
    rng = np.random.default_rng(3)
    ctx = field_context(3)
    kern = build_kernel(ctx, 0.0, PERMINV)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    psf = forward_map(kern, A + A.conj().T)
    proj = project(ctx, psf)
    assert abs(proj.total() - psf.total()) < 1e-10
    assert proj.support() == valid_triples(3)


def test_projected_function_dense_layout():
    ctx = field_context(2)
    kern = build_kernel(ctx, 0.0, PERMINV)
    proj = project(ctx, forward_map(kern, np.eye(4, dtype=complex)))
    cube = proj.dense()
    assert cube.shape == (3, 3, 3)
    assert abs(cube[1, 1, 0] - proj.value(1, 1, 0)) < 1e-12
    assert cube[1, 1, 1] == 0  # forbidden triple stays empty


def test_project_rejects_wrong_grid():
    ctx = field_context(2)
    kern = build_kernel(ctx, 0.0, PERMINV)
    psf = forward_map(kern, np.eye(4, dtype=complex))
    with pytest.raises(ConfigurationError):
        project(field_context(3), psf)


# ---------------------------------------------------------
# symmetrized averages
# ---------------------------------------------------------

def test_projected_convolution_reproduces_trace():
    """Tr(rho S) computed entirely inside the 3D orbit space."""
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        ctx = field_context(n)
        q = ctx.order
        k0 = build_kernel(ctx, 0.0, PERMINV)
        psi = rng.normal(size=q) + 1j * rng.normal(size=q)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        A = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        S = symmetrize(ctx, A + A.conj().T)
        pre, _ = convolution_prefactor(k0, k0)
        expect = np.trace(rho @ S)
        got = symmetric_average(project(ctx, forward_map(k0, rho)),
                                project(ctx, forward_map(k0, S)), pre)
        assert abs(got - expect) < 1e-10


def test_projected_convolution_dual_pair():
    rng = np.random.default_rng(21)
    ctx = field_context(3)
    fid = spin_coherent(ctx, 0.5 * np.exp(1j * np.pi / 4))
    kq = build_kernel(ctx, -1.0, PERMINV, fiducial=fid)
    kp = build_kernel(ctx, 1.0, PERMINV, fiducial=fid)
    rho = np.outer(ghz_state(ctx), ghz_state(ctx).conj())
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    S = symmetrize(ctx, A + A.conj().T)
    pre, _ = convolution_prefactor(kq, kp)
    got = symmetric_average(project(ctx, forward_map(kq, rho)),
                            project(ctx, forward_map(kp, S)), pre)
    assert abs(got - np.trace(rho @ S)) < 1e-9


def test_symmetric_average_validation():
    ctx = field_context(2)
    k0 = build_kernel(ctx, 0.0, PERMINV)
    kp = build_kernel(ctx, 1.0, PERMINV)
    eye = np.eye(4, dtype=complex)
    p0 = project(ctx, forward_map(k0, eye))
    pp = project(ctx, forward_map(kp, eye))
    with pytest.raises(ConfigurationError):
        symmetric_average(pp, pp, 0.25)  # s values not dual
    p3 = project(field_context(3), forward_map(
        build_kernel(field_context(3), 0.0, PERMINV), np.eye(8, dtype=complex)))
    with pytest.raises(ConfigurationError):
        symmetric_average(p0, p3, 0.25)  # different qubit counts
    k_tomo = build_kernel(ctx, 0.0, TOMO)
    pt = project(ctx, forward_map(k_tomo, eye))
    with pytest.raises(ConfigurationError):
        symmetric_average(p0, pt, 0.25)  # mixed conventions
    with pytest.raises(ConfigurationError):
        symmetric_average(pt, pt, 0.25)  # projection not faithful here


# ---------------------------------------------------------
# invariance checks
# ---------------------------------------------------------

def test_perminv_kernel_invariance_exact():
    for n in (2, 3, 4):
        ctx = field_context(n)
        kern = build_kernel(ctx, 0.0, PERMINV)
        rep = check_kernel_invariance(kern)
        assert rep.invariant
        assert rep.max_deviation == 0.0
        assert rep.transpositions == n * (n - 1) // 2


def test_tomographic_kernel_not_invariant():
    ctx = field_context(3)
    rep = check_kernel_invariance(build_kernel(ctx, 0.0, TOMO))
    assert not rep.invariant
    assert rep.witness is not None
    assert rep.max_deviation > 0.1


def point_deviation(kernel, i, j, a, b):
    """Max entry of P_ij Delta(a, b) P_ij - Delta(a', b')."""
    ctx = kernel.ctx
    pmat = permutation_op(ctx, i, j)
    lhs = pmat @ kernel.at(a, b) @ pmat
    rhs = kernel.at(ctx.transpose_coords(a, i, j), ctx.transpose_coords(b, i, j))
    return float(np.max(np.abs(lhs - rhs)))


@pytest.mark.parametrize("s", (-1.0, 0.0, 1.0))
@pytest.mark.parametrize("name", ALL_CONVENTIONS)
@pytest.mark.parametrize("n", (1, 2, 3))
def test_table_invariance_matches_operator_oracle(n, name, s):
    """The table form against the operator-level loop over every point."""
    ctx = field_context(n)
    fid = spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA)
    kern = build_kernel(ctx, s, convention_from_name(name), fiducial=fid)
    worst = max((point_deviation(kern, i, j, a, b)
                 for i, j in itertools.combinations(range(1, n + 1), 2)
                 for a, b in kern.points()), default=0.0)
    rep = check_kernel_invariance(kern)
    assert abs(rep.max_deviation - worst) < 1e-12
    assert rep.invariant == (worst <= 1e-12)
    if rep.witness is not None:
        assert abs(point_deviation(kern, *rep.witness) - worst) < 1e-12


@pytest.mark.parametrize("name", ALL_CONVENTIONS)
def test_transposition_maps_displacements(name):
    """P_ij D(gamma, delta) P_ij = phi(g, d) / phi(Tg, Td) D(Tg, Td): the
    lemma that reduces the invariance check to the w*phi table."""
    conv = convention_from_name(name)
    for n in (2, 3):
        ctx = field_context(n)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            pmat = permutation_op(ctx, i, j)
            for g in ctx.elements():
                for d in ctx.elements():
                    tg, td = ctx.transpose_coords(g, i, j), ctx.transpose_coords(d, i, j)
                    ratio = conv.value(ctx, g, d) / conv.value(ctx, tg, td)
                    moved = pmat @ displacement(ctx, conv, g, d) @ pmat
                    assert np.max(np.abs(moved - ratio * displacement(ctx, conv, tg, td))) < 1e-12


def test_table_backed_invariance_takes_point_check():
    """Table-backed kernels are checked point by point, against the oracle."""
    kerns = [wootters_kernel(ctx, mub_family(ctx)) for ctx in map(field_context, (2, 3))]
    ctx = field_context(3)
    tomo = build_kernel(ctx, 0.0, TOMO)
    table = np.array([[tomo.at(a, b) for b in ctx.elements()] for a in ctx.elements()])
    table[0, 0] = np.eye(ctx.order)     # invariant at (0, 0): the witness lies elsewhere
    kerns.append(KernelSet.from_table(ctx, 0.0, table, "tomographic-p1 table"))
    for kern in kerns:
        n = kern.ctx.n
        worst = max(point_deviation(kern, i, j, a, b)
                    for i, j in itertools.combinations(range(1, n + 1), 2)
                    for a, b in kern.points())
        rep = check_kernel_invariance(kern)
        assert rep.max_deviation == pytest.approx(worst, abs=1e-12)
        assert rep.invariant == (worst <= 1e-12)
        if rep.witness is not None:
            assert point_deviation(kern, *rep.witness) == pytest.approx(worst, abs=1e-12)


def test_symbol_h_dependence():
    rng = np.random.default_rng(0)
    ctx = field_context(3)
    kern = build_kernel(ctx, 0.0, PERMINV)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    A = A + A.conj().T
    ok, witness = symbol_depends_only_on_h(ctx, forward_map(kern, symmetrize(ctx, A)))
    assert ok and witness is None
    ok, witness = symbol_depends_only_on_h(ctx, forward_map(kern, A))
    assert not ok and witness is not None
    (a1, b1), (a2, b2) = witness
    hw = ctx.hweight_table
    assert (hw[a1], hw[b1], hw[a1 ^ b1]) == (hw[a2], hw[b2], hw[a2 ^ b2])


# ---------------------------------------------------------
# the incompatibility witness
# ---------------------------------------------------------

def test_frozen_witness_four_qubits():
    ctx = field_context(4)
    w = theorem_witness(ctx, 1, 3, 2, 4)
    assert (w.alpha, w.beta, w.xi, w.epsilon) == (12, 5, 13, 4)
    assert w.chi_original == -1 and w.chi_transposed == 1
    assert w.flipped


def test_witness_found_for_each_size():
    for n in (4, 5, 6):
        w = find_theorem_witness(field_context(n))
        assert w.flipped
        assert w.chi_original == -w.chi_transposed
        # the slope is the inverse of the transposition element
        ctx = field_context(n)
        assert ctx.mul(w.xi, w.epsilon) == 1


def test_witness_preconditions_enforced():
    ctx = field_context(4)
    with pytest.raises(ConfigurationError):
        theorem_witness(ctx, 1, 1, 2, 3)  # repeated index
    with pytest.raises(ConfigurationError):
        theorem_witness(ctx, 1, 2, 3, 4)  # trace condition fails here
    with pytest.raises(ConfigurationError):
        find_theorem_witness(field_context(3))  # construction needs n >= 4


def test_witness_chi_is_reproducible():
    """chi_original equals the character of alpha*beta*xi directly."""
    ctx = field_context(5)
    w = find_theorem_witness(ctx)
    prod = ctx.mul(ctx.mul(w.alpha, w.beta), w.xi)
    assert w.chi_original == ctx.chi(prod)


# ---------------------------------------------------------
# exhaustive phase search at small n
# ---------------------------------------------------------

def test_search_single_qubit():
    rep = search_invariant_phases(field_context(1))
    assert rep.assignments == 2
    assert rep.hits == 2  # both sign choices pass; no transpositions exist
    assert rep.includes_closed_form_p1


def test_search_two_qubits():
    rep = search_invariant_phases(field_context(2))
    assert rep.assignments == 32
    assert rep.hits == 8
    assert rep.includes_closed_form_p1
    assert len(rep.free_orbits) == 5


def test_search_three_qubits():
    """Solutions still exist at n=3, but the standard closed form is no
    longer among them."""
    rep = search_invariant_phases(field_context(3))
    assert rep.assignments == 8192
    assert rep.hits == 16
    assert not rep.includes_closed_form_p1
    assert len(rep.free_orbits) == 13


def test_search_cap():
    with pytest.raises(ConfigurationError):
        search_invariant_phases(field_context(4))


# ---------------------------------------------------------
# closed-form reference symbols
# ---------------------------------------------------------

def test_reference_ids_all_buildable():
    ctx = field_context(2)
    for which in REFERENCE_IDS:
        ref = reference_symbol(ctx, which)
        assert ref.n == 2


def test_equatorial_symbol_is_alpha_delta():
    for n in (1, 2, 3, 4):
        ctx = field_context(n)
        ref = reference_symbol(ctx, "equatorial_w0")
        kern = build_kernel(ctx, 0.0, TOMO)
        ket = spin_coherent(ctx, 1.0)
        psf = forward_map(kern, np.outer(ket, ket.conj()))
        assert np.max(np.abs(psf.grid - ref.grid)) < 1e-10
        # exact statement: 1 on the alpha = 0 row, 0 elsewhere
        expect = np.zeros((ctx.order, ctx.order))
        expect[0, :] = 1
        assert np.max(np.abs(ref.grid - expect)) < 1e-12


def test_ghz_wigner_closed_form():
    for n in (2, 3):
        ctx = field_context(n)
        ref = reference_symbol(ctx, "ghz_w0")
        kern = build_kernel(ctx, 0.0, TOMO)
        rho = np.outer(ghz_state(ctx), ghz_state(ctx).conj())
        assert np.max(np.abs(forward_map(kern, rho).grid - ref.grid)) < 1e-10


def test_w_state_wigner_closed_form():
    for n in (2, 3):
        ctx = field_context(n)
        ref = reference_symbol(ctx, "wstate_w0")
        kern = build_kernel(ctx, 0.0, TOMO)
        rho = np.outer(w_state(ctx), w_state(ctx).conj())
        assert np.max(np.abs(forward_map(kern, rho).grid - ref.grid)) < 1e-10


def test_su2_element_symbol_closed_form():
    rng = np.random.default_rng(14)
    for n in (2, 3):
        ctx = field_context(n)
        kern = build_kernel(ctx, 0.0, PERMINV)
        for _ in range(4):
            phi, theta, psi = rng.uniform(-np.pi, np.pi, size=3)
            from dpsmap import su2_group_element
            U = su2_group_element(ctx, phi, theta, psi)
            ref = reference_symbol(ctx, "su2_element", euler=(phi, theta, psi))
            num = forward_map(kern, U)
            assert np.max(np.abs(num.grid - ref.grid)) < 1e-9


def test_ghz_q_projection_closed_form():
    """Projected GHZ Q symbol: closed form matches the numeric projection
    with fitted constant exactly one."""
    for n in (2, 3):
        ctx = field_context(n)
        for zeta_abs in (0.5, 1.0):
            fid = spin_coherent(ctx, zeta_abs * np.exp(1j * np.pi / 4))
            kq = build_kernel(ctx, -1.0, PERMINV, fiducial=fid)
            rho = np.outer(ghz_state(ctx), ghz_state(ctx).conj())
            num = project(ctx, forward_map(kq, rho))
            ref = reference_symbol(ctx, "ghz_q_proj", zeta_abs=zeta_abs)
            c, resid = fit_constant(ref.dense(), num.dense())
            assert abs(c - 1) < 1e-8
            assert resid < 1e-8


def test_ghz_wigner_projection_delta_combs():
    ctx = field_context(3)
    ref = reference_symbol(ctx, "ghz_w0_proj", normalized=True)
    kern = build_kernel(ctx, 0.0, PERMINV)
    rho = np.outer(ghz_state(ctx), ghz_state(ctx).conj())
    num = project(ctx, forward_map(kern, rho))
    assert np.max(np.abs(num.dense() - ref.dense())) < 1e-10
    # without normalization the interference term is 2^n times larger
    raw = reference_symbol(ctx, "ghz_w0_proj", normalized=False)
    diff = raw.dense() - ref.dense()
    assert np.max(np.abs(diff)) > 0.1


def test_reference_symbol_rejects_unknown():
    with pytest.raises(ConfigurationError):
        reference_symbol(field_context(2), "nope")


def test_fit_constant_behaviour():
    rng = np.random.default_rng(31)
    ref = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    c, resid = fit_constant(ref, (2 - 1j) * ref)
    assert abs(c - (2 - 1j)) < 1e-12
    assert resid < 1e-12
    _, resid = fit_constant(ref, rng.normal(size=(4, 4)))
    assert resid > 0.1
