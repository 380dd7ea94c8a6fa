# tests/test_symproj.py
import itertools

import numpy as np
import pytest
from oracles import (REFERENCE_IDS, dense, fit_constant, pair_counts, r_factor,
                     reference_symbol, su2_group_element, valid_triples)

from dpsmap import (DEFAULT_FIDUCIAL_ZETA, ConfigurationError, build_kernel,
                    check_kernel_invariance, convention_from_name,
                    convolution_prefactor, displacement, field_context,
                    find_theorem_witness, forward_map, ghz_state,
                    permutation_op, project, search_invariant_phases,
                    spin_coherent, symbol_depends_only_on_h, symmetric_average,
                    symmetrize, theorem_witness, w_state)
from dpsmap import (FieldContext, InvarianceReport, PhaseSearchReport,
                    PhaseSpaceFunction, ProjectedFunction, TomographicPhase,
                    build_X, build_Z, pauli)
from dpsmap.kernels import coefficient_residual
from dpsmap.mubrot import recurrence_holds
from dpsmap.suites import run_suite
from dpsmap.symproj import orbit_sum_symbols, orbit_sum_traces

TOMO = convention_from_name("tomographic-p1")
PERMINV = convention_from_name("perminv-f0")
ALL_CONVENTIONS = ("tomographic-p1", "perminv-sqrt", "perminv-f0",
                   "perminv-f1", "graph-plus", "graph-minus", "plain")


def orbit_positions(ctx):
    """Per-point (h(a), h(b), h(a+b)) looked up in valid_triples."""
    hw = ctx.hweight_table
    pos = {t: i for i, t in enumerate(valid_triples(ctx.n))}
    return np.array([[pos[(int(hw[a]), int(hw[b]), int(hw[a ^ b]))]
                      for b in range(ctx.order)] for a in range(ctx.order)])


def project_by_masks(ctx, grid):
    """Reference projection: one boolean mask per (m, n, k) triple, in
    valid_triples order."""
    q = ctx.order
    hw = ctx.hweight_table
    m_arr = np.broadcast_to(hw[:, None], (q, q))
    n_arr = np.broadcast_to(hw[None, :], (q, q))
    k_arr = hw[ctx.xor_grid]
    return np.array([np.sum(grid[(m_arr == m) & (n_arr == nn) & (k_arr == k)])
                     for m, nn, k in valid_triples(ctx.n)], dtype=complex)


def bits(z):
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


def h_dependence_by_buckets(ctx, grid, tol=1e-10):
    """Reference orbit-constancy check: a double loop over buckets."""
    hw = ctx.hweight_table
    buckets = {}
    for a in range(ctx.order):
        for b in range(ctx.order):
            buckets.setdefault((int(hw[a]), int(hw[b]), int(hw[a ^ b])), []).append((a, b))
    for points in buckets.values():
        ref_a, ref_b = points[0]
        for a, b in points[1:]:
            if abs(grid[a, b] - grid[ref_a, ref_b]) > tol:
                return False, ((ref_a, ref_b), (a, b))
    return True, None


def brute_orbit_sizes(ctx):
    """Count grid points per (m, n, k) by direct enumeration."""
    sizes = {}
    hw = ctx.hweight_table
    for a in range(ctx.order):
        for b in range(ctx.order):
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


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_size_map_is_r_factor_once_per_n(n):
    sizes = field_context(n).orbit_sizes
    assert list(sizes) == valid_triples(n)
    assert dict(sizes) == {t: r_factor(n, *t) for t in valid_triples(n)}
    assert field_context(n).orbit_sizes is sizes
    with pytest.raises(TypeError):
        sizes[(0, 0, 0)] = 2


@pytest.mark.parametrize("n, basis", [*((n, []) for n in range(1, 9)),
                                      (4, [9, 10, 12, 14])])
def test_context_orbit_sizes_are_the_closed_form(n, basis):
    """R_mnk counted from a context's own orbit runs, in any self-dual basis,
    is the closed-form multinomial; the map is cached and read-only."""
    ctx = FieldContext.from_json_dict(
        {"n": n, "poly": field_context(n).poly, "selfdual_basis": basis})
    assert ctx.selfdual_basis == (tuple(basis) or field_context(n).selfdual_basis)
    sizes = ctx.orbit_sizes
    assert list(sizes) == valid_triples(ctx.n)
    assert all(type(x) is int for t, r in sizes.items() for x in (*t, r))
    assert dict(sizes) == {t: r_factor(ctx.n, *t) for t in valid_triples(ctx.n)}
    assert ctx.orbit_sizes is sizes
    with pytest.raises(TypeError):
        sizes[(0, 0, 0)] = 2
    with pytest.raises(TypeError):
        del sizes[(0, 0, 0)]


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_index_matches_point_labels(n):
    ctx = FieldContext(n)
    assert np.array_equal(ctx.orbit_index, orbit_positions(ctx))
    assert ctx.orbit_weights.tolist() == [list(t) for t in valid_triples(n)]
    sizes = np.bincount(ctx.orbit_index.ravel())
    assert sizes.tolist() == [r_factor(n, *t) for t in valid_triples(n)]


def test_orbit_index_follows_a_new_basis():
    """A context loaded with another self-dual basis labels its orbits in
    that basis's coordinates."""
    before = FieldContext(4).orbit_index
    loaded = FieldContext.from_json_dict({"n": 4, "poly": 0b10011,
                                          "selfdual_basis": [9, 10, 12, 14]})
    assert loaded.selfdual_basis == (9, 10, 12, 14)
    assert np.array_equal(loaded.orbit_index, orbit_positions(loaded))
    assert not np.array_equal(loaded.orbit_index, before)


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
    assert proj.values.shape == (len(valid_triples(3)),)
    for value, t in zip(proj.values, valid_triples(3)):
        assert abs(value - r_factor(3, *t)) < 1e-12


def test_projection_preserves_mass():
    rng = np.random.default_rng(3)
    ctx = field_context(3)
    kern = build_kernel(ctx, 0.0, PERMINV)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    psf = forward_map(kern, A + A.conj().T)
    proj = project(ctx, psf)
    assert abs(proj.total() - psf.total()) < 1e-10
    assert list(proj.entries) == valid_triples(3)
    assert proj.values.shape == (len(valid_triples(3)),)


def test_projected_function_dense_layout():
    ctx = field_context(2)
    kern = build_kernel(ctx, 0.0, PERMINV)
    proj = project(ctx, forward_map(kern, np.eye(4, dtype=complex)))
    cube = dense(proj)
    assert cube.shape == (3, 3, 3)
    assert abs(cube[1, 1, 0] - proj.entries[(1, 1, 0)]) < 1e-12
    assert cube[1, 1, 1] == 0  # forbidden triple stays empty


@pytest.mark.parametrize("n", range(1, 6))
def test_project_is_bitwise_the_mask_sum(n):
    """Each orbit adds the same numbers in the same order as a mask would."""
    rng = np.random.default_rng(n)
    ctx = field_context(n)
    q = ctx.order
    for _ in range(40):
        scale = 10.0 ** rng.uniform(-8, 8, size=(q, q))
        grid = (rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))) * scale
        psf = PhaseSpaceFunction(n=n, s=0.0, grid=grid, convention="plain")
        assert np.array_equal(bits(project(ctx, psf).values), bits(project_by_masks(ctx, grid)))


def test_project_runs_follow_a_new_basis():
    """The cached orbit runs of a context loaded with another self-dual
    basis group its own orbits."""
    loaded = FieldContext.from_json_dict({"n": 4, "poly": 0b10011,
                                          "selfdual_basis": [9, 10, 12, 14]})
    grid = np.random.default_rng(4).normal(size=(16, 16)) * (1 + 1j)
    psf = PhaseSpaceFunction(n=4, s=0.0, grid=grid, convention="plain")
    assert np.array_equal(project(loaded, psf).values, project_by_masks(loaded, grid))
    assert not np.array_equal(project(loaded, psf).values,
                              project(field_context(4), psf).values)


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_project_is_bitwise_each_grids_own(n):
    """A (2, 3, q, q) stack projects, bit for bit, to each grid's own
    projection and to the plain per-run ``.sum()`` of its orbit runs."""
    rng = np.random.default_rng(100 + n)
    ctx = field_context(n)
    q = ctx.order
    order, bounds = ctx.orbit_runs
    scale = 10.0 ** rng.uniform(-8, 8, size=(2, 3, q, q))
    grids = (rng.normal(size=(2, 3, q, q)) + 1j * rng.normal(size=(2, 3, q, q))) * scale
    stacked = project(ctx, PhaseSpaceFunction(n=n, s=0.0, grid=grids, convention="plain"))
    assert stacked.values.shape == (len(ctx.orbit_weights), 2, 3)
    for i, j in np.ndindex(2, 3):
        one = project(ctx, PhaseSpaceFunction(n=n, s=0.0, grid=grids[i, j], convention="plain"))
        flat = grids[i, j].ravel()[order]
        runs = [flat[a:b].sum() for a, b in zip(bounds, bounds[1:])]
        assert np.array_equal(bits(stacked.values[:, i, j]), bits(one.values))
        assert np.array_equal(bits(one.values), bits(runs))


def test_projection_entries_are_a_read_only_view_by_orbit_label():
    ctx = field_context(3)
    grid = np.random.default_rng(5).normal(size=(8, 8)) * (1 - 2j)
    proj = project(ctx, PhaseSpaceFunction(n=3, s=0.0, grid=grid, convention="plain"))
    assert list(proj.entries) == valid_triples(3)
    assert list(proj.entries.values()) == proj.values.tolist()
    with pytest.raises(TypeError):
        proj.entries[(0, 0, 0)] = 0j


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
# the orbit-sum basis of the symmetric operators
# ---------------------------------------------------------

def dense_orbit_sums(ctx):
    """R_o symmetrize(Z_g X_d) at the first point (g, d) of every orbit o:
    the orbit sum P_o, built from dense operators."""
    order, bounds = ctx.orbit_runs
    g, d = np.divmod(order[bounds[:-1]], ctx.order)
    return np.diff(bounds)[:, None, None] * symmetrize(ctx, build_Z(ctx, g) @ build_X(ctx, d))


@pytest.mark.parametrize("n", (1, 2, 3, 4))
@pytest.mark.parametrize("name, s", [("perminv-f0", 0.0), ("perminv-sqrt", 0.0),
                                     ("perminv-f0", -1.0), ("tomographic-p1", 0.0)])
def test_orbit_sum_symbols_are_the_dense_symmetrization(n, name, s):
    """Every W_o and every column of K against forward_map + project of the
    dense orbit sum; the table formula needs no invariance of the kernel."""
    ctx = field_context(n)
    kern = build_kernel(ctx, s, convention_from_name(name))
    count = len(ctx.orbit_weights)
    w = orbit_sum_symbols(kern, slice(None))
    assert w.grid.shape == (count, ctx.order, ctx.order)
    assert (w.s, w.convention) == (s, name)
    k = project(ctx, w).values
    assert k.shape == (count, count)
    for o, op in enumerate(dense_orbit_sums(ctx)):
        psf = forward_map(kern, op)
        assert np.max(np.abs(w.grid[o] - psf.grid)) < 1e-12
        assert np.max(np.abs(k[:, o] - project(ctx, psf).values)) < 1e-12
    # a slice of the orbits is the same slice of the stack
    assert np.array_equal(orbit_sum_symbols(kern, slice(2, 4)).grid, w.grid[2:4])


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_orbit_sum_projections_have_full_rank(n):
    """K is C(n+3, 3) square and nonsingular, and its Gram identity holds."""
    ctx = field_context(n)
    k0 = build_kernel(ctx, 0.0, PERMINV)
    proj = project(ctx, orbit_sum_symbols(k0, slice(None)))
    assert np.linalg.matrix_rank(proj.values) == [4, 10, 20, 35, 56][n - 1]
    pref, _ = convolution_prefactor(k0, k0)
    assert np.max(np.abs(symmetric_average(proj, proj, pref) - orbit_sum_traces(ctx))) < 1e-10
    if n <= 4:
        dense = dense_orbit_sums(ctx)
        traces = np.einsum("aij,bji->ab", dense, dense)
        assert np.max(np.abs(traces - orbit_sum_traces(ctx))) < 1e-9
    check = [c for c in run_suite("symmetric", n)["checks"]
             if c["name"] == "projection is lossless"]
    assert check == [{"name": "projection is lossless", "passed": True,
                      "detail": f"rank {[4, 10, 20, 35, 56][n - 1]} = C(n+3, 3)"}]


def test_symmetric_average_of_orbit_indexed_stacks_matches_pairs():
    rng = np.random.default_rng(4)
    ctx = field_context(3)
    k0 = build_kernel(ctx, 0.0, PERMINV)
    pref, _ = convolution_prefactor(k0, k0)
    count = len(ctx.orbit_weights)
    a, b = rng.normal(size=(2, count, 3)) + 1j * rng.normal(size=(2, count, 3))

    def projected(values):
        return ProjectedFunction(n=3, s=0.0, values=values, convention=PERMINV.name,
                                 convention_invariant=True)

    stacked = symmetric_average(projected(a), projected(b), pref)
    assert stacked.shape == (3, 3)
    for i, j in np.ndindex(3, 3):
        pair = symmetric_average(projected(a[:, i]), projected(b[:, j]), pref)
        assert isinstance(pair, complex)
        assert abs(stacked[i, j] - pair) < 1e-12


@pytest.mark.parametrize("n", (3, 4))
def test_symmetric_suite_fails_for_a_convention_wrongly_flagged_invariant(monkeypatch, n):
    conv = TomographicPhase(1)
    monkeypatch.setattr(pauli, "convention_from_name", lambda name: conv)
    # unflagged, the projected convolution refuses to average
    with pytest.raises(ConfigurationError):
        run_suite("symmetric", n)
    conv.permutation_invariant = True
    report = run_suite("symmetric", n)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert {"symmetric-operator symbols constant on orbits",
            "projected convolution reproduces Tr(rho S)"} <= failed
    assert not report["passed"]


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


def test_invariance_check_counts_a_nan_coefficient_as_infinitely_far():
    kern = build_kernel(field_context(3), 0.0, PERMINV)
    kern._wphi = kern._wphi.copy()
    kern._wphi[1, 2] = np.nan
    rep = check_kernel_invariance(kern)
    assert not rep.invariant
    assert rep.max_deviation == np.inf
    assert rep.witness == (1, 2, 0, 0)      # the first transposition already sees it


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
                 for a, b in np.ndindex(ctx.order, ctx.order)), default=0.0)
    rep = check_kernel_invariance(kern)
    assert abs(rep.max_deviation - worst) < 1e-12
    assert rep.invariant == (worst <= 1e-12)
    if rep.witness is not None:
        assert abs(point_deviation(kern, *rep.witness) - worst) < 1e-12


def invariance_by_transpose_coords(kernel, tol=1e-12):
    """check_kernel_invariance with each permutation built from q scalar
    transpose_coords calls."""
    ctx = kernel.ctx
    pairs = list(itertools.combinations(range(1, ctx.n + 1), 2))
    worst, witness = 0.0, None
    for i, j in pairs:
        perm = [ctx.transpose_coords(x, i, j) for x in range(ctx.order)]
        dev = coefficient_residual(ctx, kernel._wphi[np.ix_(perm, perm)] - kernel._wphi)
        if dev > worst:
            worst = dev
            if dev > tol:
                witness = (i, j, 0, 0)
    return InvarianceReport(kernel.conv.name, ctx.n, len(pairs), worst, witness)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_invariance_permutations_from_the_coordinate_table(n):
    """Same report, bit for bit, as with the scalar transpose_coords loop."""
    ctx = field_context(n)
    for name in ALL_CONVENTIONS:
        for s in (-1.0, 0.0, 1.0):
            kern = build_kernel(ctx, s, convention_from_name(name))
            rep, oracle = check_kernel_invariance(kern), invariance_by_transpose_coords(kern)
            assert repr(rep) == repr(oracle)
            assert rep.max_deviation == oracle.max_deviation


@pytest.mark.parametrize("name", ALL_CONVENTIONS)
def test_transposition_maps_displacements(name):
    """P_ij D(gamma, delta) P_ij = phi(g, d) / phi(Tg, Td) D(Tg, Td): the
    lemma that reduces the invariance check to the w*phi table."""
    conv = convention_from_name(name)
    for n in (2, 3):
        ctx = field_context(n)
        phis = conv.value_table(ctx)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            pmat = permutation_op(ctx, i, j)
            for g in range(ctx.order):
                for d in range(ctx.order):
                    tg, td = ctx.transpose_coords(g, i, j), ctx.transpose_coords(d, i, j)
                    ratio = phis[g, d] / phis[tg, td]
                    moved = pmat @ displacement(ctx, conv, g, d) @ pmat
                    assert np.max(np.abs(moved - ratio * displacement(ctx, conv, tg, td))) < 1e-12


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


@pytest.mark.parametrize("n", (2, 3, 4))
def test_h_dependence_matches_bucket_loop(n):
    """Same verdict and witness as the double loop, on symbols and raw grids."""
    rng = np.random.default_rng(10 + n)
    ctx = field_context(n)
    q = ctx.order
    for name in ("perminv-f0", "perminv-sqrt", "tomographic-p1"):
        kern = build_kernel(ctx, 0.0, convention_from_name(name))
        for _ in range(3):
            A = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
            for op in (A, symmetrize(ctx, A)):
                psf = forward_map(kern, op)
                assert (symbol_depends_only_on_h(ctx, psf)
                        == h_dependence_by_buckets(ctx, psf.grid))
    values = rng.normal(size=len(valid_triples(n)))
    for _ in range(20):
        grid = values[ctx.orbit_index].astype(complex)
        for a, b in rng.integers(0, q, size=(rng.integers(1, 4), 2)):
            grid[a, b] += rng.choice([1e-11, 1e-9, 1.0])
        psf = PhaseSpaceFunction(n=n, s=0.0, grid=grid, convention="plain")
        assert symbol_depends_only_on_h(ctx, psf) == h_dependence_by_buckets(ctx, grid)


def test_h_dependence_reads_nan_as_a_difference():
    ctx = field_context(3)
    q = ctx.order

    def check(grid):
        return symbol_depends_only_on_h(ctx, PhaseSpaceFunction(
            n=3, s=0.0, grid=grid, convention="plain"))

    assert check(np.full((q, q), np.nan, complex)) == (False, ((0, 0), (0, 0)))
    order, bounds = ctx.orbit_runs
    for orbit in range(len(bounds) - 1):
        run = order[bounds[orbit]:bounds[orbit + 1]]
        first = divmod(int(run[0]), q)
        for point in {int(run[0]), int(run[-1])}:
            grid = np.zeros((q, q), complex)
            grid[divmod(point, q)] = np.nan
            # a NaN differs even from itself, so a one-point orbit fails too
            assert check(grid) == (False, (first, divmod(point, q)))
    # a stack fails on its one NaN grid
    grids = np.zeros((3, q, q), complex)
    grids[2, 5, 6] = complex(0, np.nan)
    ok, witness = check(grids)
    assert not ok and witness[1] == (5, 6)


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


def scalar_phase_search(ctx):
    """The per-assignment loop the batched search replaces: build each
    sign assignment's exponent table and verify every slope's coefficients."""
    triples = valid_triples(ctx.n)
    free = [t for t in triples if t[0] >= 1 and t[1] >= 1]
    labels = orbit_positions(ctx)
    closed_form = TomographicPhase(1).exponent_table(ctx)
    hits, found = 0, False
    for bits in range(1 << len(free)):
        sign_of = {t: (-1 if (bits >> i) & 1 else 1) for i, t in enumerate(free)}
        flipped = np.array([sign_of.get(t) == -1 for t in triples])[labels]
        exps = (ctx.trace_table[ctx.mul_table] + 2 * flipped) % 4
        if all(recurrence_holds(ctx, xi, exps[np.arange(ctx.order), ctx.mul_table[xi]])
               for xi in range(1, ctx.order)):
            hits += 1
            found |= bool(np.array_equal(exps, closed_form))
    return PhaseSearchReport(n=ctx.n, free_orbits=free, assignments=1 << len(free),
                             hits=hits, includes_closed_form_p1=found)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_search_matches_scalar_loop(n):
    """Whole report: free orbits, counts and the closed-form flag."""
    ctx = field_context(n)
    assert search_invariant_phases(ctx) == scalar_phase_search(ctx)


def test_search_cap():
    with pytest.raises(ConfigurationError):
        search_invariant_phases(field_context(4))


def test_sign_solutions_keep_orbit_bits_past_63():
    """n = 6 has 71 free orbits, more sign bits than an int64 holds.  On
    the p = 1 phase as base, every listed solution solves the recurrence on
    every slope."""
    from dpsmap.symproj import _invariant_phase_tables, _sign_solutions
    ctx = field_context(6)
    q = ctx.order
    free, orbit_id, _ = _invariant_phase_tables(ctx)
    assert len(free) == 71
    base = TomographicPhase(1).exponent_table(ctx)
    hits = _sign_solutions(ctx, base, orbit_id, len(free))
    assert len(hits) == 16 and hits[0] == 0 and hits == sorted(set(hits))
    position = np.where(orbit_id >= 0, orbit_id, len(free))
    for bits in hits:
        flips = np.array([bits >> i & 1 for i in range(len(free))] + [0])[position]
        exps = base + 2 * flips
        rows = exps[np.arange(q), ctx.mul_table[1:]]
        assert recurrence_holds(ctx, np.arange(1, q), rows).all()


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
            c, resid = fit_constant(dense(ref), dense(num))
            assert abs(c - 1) < 1e-8
            assert resid < 1e-8


def test_ghz_wigner_projection_delta_combs():
    ctx = field_context(3)
    ref = reference_symbol(ctx, "ghz_w0_proj", normalized=True)
    kern = build_kernel(ctx, 0.0, PERMINV)
    rho = np.outer(ghz_state(ctx), ghz_state(ctx).conj())
    num = project(ctx, forward_map(kern, rho))
    assert np.max(np.abs(dense(num) - dense(ref))) < 1e-10
    # without normalization the interference term is 2^n times larger
    raw = reference_symbol(ctx, "ghz_w0_proj", normalized=False)
    diff = dense(raw) - dense(ref)
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
