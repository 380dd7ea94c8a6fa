# tests/test_pauli.py
from itertools import permutations

import numpy as np
import pytest
from oracles import collective_spin, su2_group_element

from dpsmap import (ConfigurationError, DEFAULT_FIDUCIAL_ZETA, FactorizedPhase,
                    FieldContext, GraphPhase, PlainPhase, SqrtPhase,
                    build_X, build_Z, check_fiducial, convention_from_name,
                    displacement, displacement_overlaps, field_context,
                    ghz_state, logical_state, permutation_matrix,
                    permutation_op, spin_coherent, symmetrize, w_state)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0 + 0j, -1.0])

ALL_CONVENTIONS = ("tomographic-p1", "perminv-sqrt", "perminv-f0",
                   "perminv-f1", "graph-plus", "graph-minus", "plain")


def conv(name):
    return convention_from_name(name)


# ---------------------------------------------------------
# states
# ---------------------------------------------------------

def test_logical_states_are_basis_vectors():
    ctx = field_context(2)
    for kappa in range(ctx.order):
        ket = logical_state(ctx, kappa)
        assert abs(np.linalg.norm(ket) - 1) < 1e-14
        assert ket[ctx.index_table[kappa]] == 1


def test_ghz_and_w_amplitudes():
    ctx = field_context(2)
    ghz = ghz_state(ctx)
    assert np.allclose(ghz, np.array([1, 0, 0, 1]) / np.sqrt(2))
    w = w_state(ctx)
    assert np.allclose(w, np.array([0, 1, 1, 0]) / np.sqrt(2))


def test_w_state_is_uniform_single_excitation():
    for n in (2, 3, 4):
        ctx = field_context(n)
        w = w_state(ctx)
        hot = [i for i, a in enumerate(w) if abs(a) > 1e-14]
        assert len(hot) == n
        # every populated slot is a weight-1 bit string
        assert all(bin(i).count("1") == 1 for i in hot)
        assert np.allclose(w[hot], 1 / np.sqrt(n))


def test_spin_coherent_limits_and_norm():
    ctx = field_context(3)
    assert np.allclose(spin_coherent(ctx, 0), logical_state(ctx, 0))
    for zeta in (0.3, 1j, 0.5 * np.exp(1j * np.pi / 4), 2.0 - 1.0j):
        ket = spin_coherent(ctx, zeta)
        assert abs(np.linalg.norm(ket) - 1) < 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_spin_coherent_is_bitwise_the_kron_loop(n):
    ctx = field_context(n)
    for zeta in (0.3, 0.5 * np.exp(1j * np.pi / 4), 2.0 - 1.0j, 1e-200j):
        q1 = np.array([1.0, zeta], dtype=complex) / np.sqrt(1.0 + abs(zeta) ** 2)
        ref = q1
        for _ in range(n - 1):
            ref = np.kron(ref, q1)
        assert spin_coherent(ctx, zeta).tobytes() == ref.tobytes()


@pytest.mark.parametrize("zeta", (complex(1e308, 1e308), 1e200, -1e155j))
def test_spin_coherent_too_large_to_normalize(zeta):
    with pytest.raises(ConfigurationError, match="too large to normalize"):
        spin_coherent(field_context(2), zeta)


def test_spin_coherent_is_product_state():
    """Amplitudes factor as zeta^(bit count) over the normalization."""
    ctx = field_context(2)
    zeta = 0.7 + 0.2j
    ket = spin_coherent(ctx, zeta)
    norm = (1 + abs(zeta) ** 2)
    expect = np.array([1, zeta, zeta, zeta ** 2]) / norm
    assert np.allclose(ket, expect)


# ---------------------------------------------------------
# Pauli monomials
# ---------------------------------------------------------

def test_single_qubit_monomials_are_paulis():
    ctx = field_context(1)
    assert np.allclose(build_Z(ctx, 1), SZ)
    assert np.allclose(build_X(ctx, 1), SX)


def test_Z_diagonal_character_action():
    for n in (1, 2, 3):
        ctx = field_context(n)
        for gamma in range(ctx.order):
            Z = build_Z(ctx, gamma)
            for kappa in range(ctx.order):
                ket = logical_state(ctx, kappa)
                assert np.allclose(Z @ ket, ctx.chi(ctx.mul(gamma, kappa)) * ket)


def test_X_shifts_logical_labels():
    ctx = field_context(3)
    for delta in range(ctx.order):
        X = build_X(ctx, delta)
        for kappa in range(ctx.order):
            assert np.allclose(X @ logical_state(ctx, kappa),
                               logical_state(ctx, kappa ^ delta))


def test_ZX_commutation_character():
    """Z_g X_d = chi(g d) X_d Z_g."""
    ctx = field_context(2)
    for g in range(ctx.order):
        for d in range(ctx.order):
            Z, X = build_Z(ctx, g), build_X(ctx, d)
            assert np.allclose(Z @ X, ctx.chi(ctx.mul(g, d)) * (X @ Z))


def test_monomials_are_group_homomorphisms():
    ctx = field_context(2)
    for a in range(ctx.order):
        for b in range(ctx.order):
            assert np.allclose(build_Z(ctx, a) @ build_Z(ctx, b), build_Z(ctx, a ^ b))
            assert np.allclose(build_X(ctx, a) @ build_X(ctx, b), build_X(ctx, a ^ b))


# ---------------------------------------------------------
# phase conventions
# ---------------------------------------------------------

def test_boundary_phases_are_one():
    for n in (1, 2, 3):
        ctx = field_context(n)
        for name in ALL_CONVENTIONS:
            phis = conv(name).value_table(ctx)
            for x in range(ctx.order):
                assert phis[x, 0] == 1
                assert phis[0, x] == 1


def _context(reversed_coords):
    """A new GF(8) context, its coordinate table reversed on request."""
    ctx = FieldContext(3)
    if reversed_coords:
        ctx.coords_table = ctx.coords_table[:, ::-1]
    return ctx


def test_exponent_cache_follows_the_field_not_its_id():
    """Uncached contexts are collected and their ids reused; the cached
    table must still belong to the field it is asked for."""
    expect = {r: GraphPhase(1).exponent_table(_context(r)).copy() for r in (False, True)}
    assert not np.array_equal(*expect.values())
    c = GraphPhase(1)
    for i in range(400):
        assert np.array_equal(c.exponent_table(_context(i % 2 == 1)), expect[i % 2 == 1])


def test_phase_tables_are_shared_per_field_and_read_only():
    """Equal conventions share one table on a field; a shared table cannot
    be written."""
    ctx = field_context(3)
    tab = conv("perminv-f0").exponent_table(ctx)
    assert conv("perminv-f0").exponent_table(ctx) is tab
    with pytest.raises(ValueError):
        tab[1, 1] = 0


def test_convention_names_round_trip_and_tell_tables_apart():
    """Phase tables are cached on the convention's name: each name resolves
    to a convention of that name, and no two names share a table.  At n = 6
    every p gives its own table; at n = 3 all three coincide."""
    ctx = field_context(6)
    names = ALL_CONVENTIONS + tuple(f"tomographic-p{p}" for p in (2, 4, 8, 16, 32))
    assert [conv(name).name for name in names] == list(names)
    tables = {tuple(conv(name).exponent_table(ctx).ravel().tolist()) for name in names}
    assert len(tables) == len(names)


def test_phase_values_are_fourth_roots():
    ctx = field_context(3)
    for name in ALL_CONVENTIONS:
        c = conv(name)
        tab = c.value_table(ctx)
        assert np.allclose(np.abs(tab), 1)
        assert np.allclose(tab ** 4, 1)


def test_hermitian_flag_matches_phase_square():
    """D is hermitian iff phi(g,d)^2 = chi(g d), checked for every pair."""
    for n in (1, 2):
        ctx = field_context(n)
        for name in ALL_CONVENTIONS:
            c = conv(name)
            phis = c.value_table(ctx)
            sq_ok = all(
                abs(phis[g, d] ** 2 - ctx.chi(ctx.mul(g, d))) < 1e-12
                for g in range(ctx.order) for d in range(ctx.order))
            assert sq_ok == c.hermitian, name


def test_frozen_single_qubit_phases():
    ctx = field_context(1)
    assert conv("tomographic-p1").value_table(ctx)[1, 1] == -1j
    assert conv("perminv-f0").value_table(ctx)[1, 1] == 1j
    assert conv("plain").value_table(ctx)[1, 1] == 1


def test_factorized_variants_differ_by_sign():
    ctx = field_context(2)
    f0 = FactorizedPhase(0).value_table(ctx)
    f1 = FactorizedPhase(1).value_table(ctx)
    n11 = np.zeros((4, 4), dtype=int)
    for g in range(ctx.order):
        for d in range(ctx.order):
            cg, cd = ctx.to_coords(g), ctx.to_coords(d)
            n11[g, d] = sum(a & b for a, b in zip(cg, cd))
    assert np.allclose(f1, f0 * (-1.0) ** n11)


def sqrt_exponents_by_coords(ctx):
    """Reference table: tr(gamma delta) as the parity of the coordinate
    products in the self-dual basis."""
    coords = np.array([ctx.to_coords(x) for x in range(ctx.order)])
    return (coords[:, None, :] & coords[None, :, :]).sum(axis=2) % 2


def factorized_exponents_by_weights(ctx, f11):
    hw = ctx.hweight_table
    n11 = (hw[:, None] + hw[None, :] - hw[ctx.xor_grid]) // 2
    return (1 + 2 * f11) * n11 % 4


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_conventions_match_point_formulas(n):
    """The orbit-table conventions equal their per-point weight formulas."""
    ctx = field_context(n)
    assert np.array_equal(SqrtPhase().exponent_table(ctx), sqrt_exponents_by_coords(ctx))
    for f11 in (0, 1):
        assert np.array_equal(FactorizedPhase(f11).exponent_table(ctx),
                              factorized_exponents_by_weights(ctx, f11))
    assert not PlainPhase().exponent_table(ctx).any()


def test_graph_phase_sign_conjugate():
    ctx = field_context(2)
    plus = GraphPhase(+1).value_table(ctx)
    minus = GraphPhase(-1).value_table(ctx)
    assert np.allclose(minus, np.conj(plus))


def test_convention_from_name_rejects_unknown():
    with pytest.raises(ConfigurationError):
        convention_from_name("not-a-convention")


def table_transposition_deviation(ctx, c):
    tab = c.value_table(ctx)
    worst = 0.0
    for i in range(1, ctx.n + 1):
        for j in range(i + 1, ctx.n + 1):
            perm = np.array([ctx.transpose_coords(x, i, j) for x in range(ctx.order)])
            worst = max(worst, float(np.max(np.abs(tab[perm][:, perm] - tab))))
    return worst


def test_permutation_invariance_of_tables():
    """Invariant conventions keep phi fixed under coordinate transpositions."""
    for n in (2, 3, 4):
        ctx = field_context(n)
        for name in ALL_CONVENTIONS:
            c = conv(name)
            if c.permutation_invariant:
                assert table_transposition_deviation(ctx, c) < 1e-14, (name, n)


def test_where_invariance_breaks():
    """The non-invariant conventions break at characteristic sizes: the
    tomographic phase survives n=2 (transposition = Frobenius there) but not
    n=3; the graph phases survive up to n=3 and break at n=4."""
    assert table_transposition_deviation(field_context(2), conv("tomographic-p1")) < 1e-14
    assert table_transposition_deviation(field_context(3), conv("tomographic-p1")) > 0.5
    assert table_transposition_deviation(field_context(3), conv("graph-plus")) < 1e-14
    assert table_transposition_deviation(field_context(4), conv("graph-plus")) > 0.5
    assert table_transposition_deviation(field_context(4), conv("graph-minus")) > 0.5


# ---------------------------------------------------------
# displacements
# ---------------------------------------------------------

def test_single_qubit_displacements():
    ctx = field_context(1)
    assert np.allclose(displacement(ctx, conv("tomographic-p1"), 1, 1), SY)
    assert np.allclose(displacement(ctx, conv("perminv-f0"), 1, 1), -SY)


# the scalar builders as they were before they took index arrays

def _build_Z_oracle(ctx, alpha):
    diag = np.empty(ctx.order, dtype=complex)
    diag[ctx.index_table] = ctx.chi_table[ctx.mul_table[alpha]]
    return np.diag(diag)


def _build_X_oracle(ctx, beta):
    q = ctx.order
    mat = np.zeros((q, q), dtype=complex)
    k = np.arange(q)
    mat[ctx.index_table[k ^ beta], ctx.index_table[k]] = 1.0
    return mat


def _displacement_oracle(ctx, c, gamma, delta):
    q = ctx.order
    k = np.arange(q)
    rows = ctx.index_table[k ^ delta]
    vals = c.value_table(ctx)[gamma, delta] * ctx.chi_table[ctx.mul_table[gamma, k ^ delta]]
    mat = np.zeros((q, q), dtype=complex)
    mat[rows, ctx.index_table[k]] = vals
    return mat


def conventions_at(n):
    """Every named convention that is defined at n."""
    return ([f"tomographic-p{1 << j}" for j in range(n)]
            + [name for name in ALL_CONVENTIONS if not name.startswith("tomographic")])


def _same_bits(got, want):
    bits = [np.ascontiguousarray(x).view(np.uint64) for x in (got, want)]
    return (got.dtype == want.dtype == np.complex128 and got.shape == want.shape
            and np.array_equal(*bits))


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_operators_are_bitwise_the_scalar_builders(n):
    ctx = field_context(n)
    q = ctx.order
    # every pair up to n = 4, 128 sampled pairs at n = 5
    g, d = (np.divmod(np.arange(q * q), q) if n <= 4
            else np.random.default_rng(50).integers(0, q, size=(2, 128)))
    z_want = np.array([_build_Z_oracle(ctx, a) for a in range(q)])
    x_want = np.array([_build_X_oracle(ctx, b) for b in range(q)])
    assert _same_bits(build_Z(ctx, np.arange(q)), z_want)
    assert _same_bits(build_X(ctx, np.arange(q)), x_want)
    assert _same_bits(build_Z(ctx, 1), z_want[1])
    assert _same_bits(build_X(ctx, q - 1), x_want[q - 1])
    for name in conventions_at(n):
        c = conv(name)
        want = np.array([_displacement_oracle(ctx, c, a, b) for a, b in zip(g, d)])
        assert _same_bits(displacement(ctx, c, g, d), want), name
        # any index shape, broadcasting; ints give one operator
        assert _same_bits(displacement(ctx, c, g.reshape(-1, 2), d.reshape(-1, 2)),
                          want.reshape(-1, 2, q, q)), name
        assert _same_bits(displacement(ctx, c, g[:3], d[0]),
                          np.array([_displacement_oracle(ctx, c, a, d[0]) for a in g[:3]])), name
        assert _same_bits(displacement(ctx, c, int(g[-1]), int(d[-1])), want[-1]), name


def test_all_displacements_unitary():
    for n in (1, 2, 3):
        ctx = field_context(n)
        eye = np.eye(ctx.order)
        for name in ("tomographic-p1", "perminv-f0", "plain"):
            c = conv(name)
            for g in range(ctx.order):
                for d in range(ctx.order):
                    D = displacement(ctx, c, g, d)
                    assert np.allclose(D @ D.conj().T, eye)


def test_displacement_hermiticity_by_flag():
    ctx = field_context(2)
    for name in ALL_CONVENTIONS:
        c = conv(name)
        herm = all(
            np.allclose(displacement(ctx, c, g, d),
                        displacement(ctx, c, g, d).conj().T)
            for g in range(ctx.order) for d in range(ctx.order))
        assert herm == c.hermitian


def test_displacement_overlaps_match_direct():
    ctx = field_context(2)
    c = conv("tomographic-p1")
    ket = spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA)
    ov = displacement_overlaps(ctx, c, ket)
    for g in range(ctx.order):
        for d in range(ctx.order):
            direct = np.vdot(ket, displacement(ctx, c, g, d) @ ket)
            assert abs(ov[g, d] - direct) < 1e-13


def test_fiducial_check_default_ok_equatorial_not():
    ctx = field_context(2)
    c = conv("tomographic-p1")
    good = check_fiducial(ctx, c, spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA))
    assert good.ok and good.min_abs > 1e-6
    bad = check_fiducial(ctx, c, spin_coherent(ctx, 1.0))
    assert not bad.ok
    assert bad.violations  # at least one vanishing overlap reported


def test_fiducial_check_counts_non_finite_overlaps():
    ctx = field_context(2)
    c = conv("tomographic-p1")
    for bad in (np.nan, np.inf, -np.inf):
        ket = spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA)
        ket[2] = bad
        with np.errstate(invalid="ignore"):
            report = check_fiducial(ctx, c, ket)
        assert not report.ok
        mags = np.abs(report.overlaps)
        expect = np.argwhere(~np.isfinite(mags) | (mags <= 1e-10))
        assert report.violations == [tuple(map(int, p)) for p in expect[:16]]


# ---------------------------------------------------------
# qubit permutations and collective operators
# ---------------------------------------------------------

def test_permutation_matrix_on_logical_states():
    ctx = field_context(3)
    perm = (3, 1, 2)  # cyclic shift: output slot i holds former slot perm[i-1]
    P = permutation_matrix(ctx, perm)
    for x in range(ctx.order):
        bits = ctx.to_coords(x)
        moved = tuple(bits[perm[i] - 1] for i in range(3))
        assert np.allclose(P @ logical_state(ctx, x),
                           logical_state(ctx, ctx.from_coords(moved)))
    with pytest.raises(ValueError):
        permutation_matrix(ctx, (0, 1, 2))


def test_permutation_op_is_transposition():
    ctx = field_context(3)
    P = permutation_op(ctx, 1, 3)
    assert np.allclose(P @ P, np.eye(8))
    assert np.allclose(P, P.conj().T)


def test_symmetrize_projects_and_fixes():
    ctx = field_context(2)
    rng = np.random.default_rng(11)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    S = symmetrize(ctx, A)
    # symmetrizing twice changes nothing, and every transposition fixes S
    assert np.allclose(symmetrize(ctx, S), S)
    P = permutation_op(ctx, 1, 2)
    assert np.allclose(P @ S @ P, S)


def test_symmetrize_cap():
    ctx = field_context(6)
    with pytest.raises(ConfigurationError):
        symmetrize(ctx, np.eye(64))


def _symmetrize_oracle(ctx, op):
    """Average of P op P^dag with every P built as a dense permutation matrix."""
    acc = np.zeros_like(np.asarray(op, dtype=complex))
    count = 0
    for perm in permutations(range(1, ctx.n + 1)):
        p = permutation_matrix(ctx, perm)
        acc += p @ op @ p.conj().T
        count += 1
    return acc / count


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetrize_is_bitwise_the_permutation_matrix_loop(n):
    ctx = field_context(n)
    q = ctx.order
    rng = np.random.default_rng(40 + n)
    for _ in range(3):
        op = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        got, want = symmetrize(ctx, op), _symmetrize_oracle(ctx, op)
        assert got.dtype == want.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetrize_stack_is_bitwise_one_at_a_time(n):
    ctx = field_context(n)
    q = ctx.order
    rng = np.random.default_rng(60 + n)
    ops = rng.normal(size=(2, 3, q, q)) + 1j * rng.normal(size=(2, 3, q, q))
    want = np.array([[symmetrize(ctx, op) for op in row] for row in ops])
    assert _same_bits(symmetrize(ctx, ops), want)


def test_symmetrize_rejects_wrong_shape():
    ctx = field_context(3)
    for bad in (np.eye(4), np.ones(8), np.ones((8, 4))):
        with pytest.raises(ConfigurationError, match="8x8"):
            symmetrize(ctx, bad)


def test_collective_spin_commutators():
    # sums of single-slot Pauli matrices: [Sx, Sy] = 2i Sz and cyclic
    for n in (1, 2, 3):
        ctx = field_context(n)
        Sx, Sy, Sz = (collective_spin(ctx, a) for a in "xyz")
        assert np.allclose(Sx @ Sy - Sy @ Sx, 2j * Sz)
        assert np.allclose(Sy @ Sz - Sz @ Sy, 2j * Sx)
        assert np.allclose(Sz @ Sx - Sx @ Sz, 2j * Sy)


def test_su2_group_element_unitary_and_identity():
    ctx = field_context(2)
    assert np.allclose(su2_group_element(ctx, 0, 0, 0), np.eye(4))
    rng = np.random.default_rng(5)
    for phi, theta, psi in rng.uniform(0, np.pi, size=(5, 3)):
        U = su2_group_element(ctx, phi, theta, psi)
        assert np.allclose(U @ U.conj().T, np.eye(4))
        # collective rotations never leave the symmetric sector
        P12 = permutation_op(ctx, 1, 2)
        assert np.allclose(P12 @ U @ P12, U)
