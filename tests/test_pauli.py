# tests/test_pauli.py
import numpy as np
import pytest

from dpsmap import (ConfigurationError, DEFAULT_FIDUCIAL_ZETA, FactorizedPhase,
                    FieldContext, GraphPhase, PlainPhase, SqrtPhase, TomographicPhase,
                    build_X, build_Z, check_fiducial, collective_spin,
                    convention_from_name, displacement, displacement_overlaps,
                    field_context, ghz_state, logical_state, permutation_matrix,
                    permutation_op, phase_value, spin_coherent,
                    su2_group_element, symmetrize, w_state)

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
    for kappa in ctx.elements():
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
        for gamma in ctx.elements():
            Z = build_Z(ctx, gamma)
            for kappa in ctx.elements():
                ket = logical_state(ctx, kappa)
                assert np.allclose(Z @ ket, ctx.chi(ctx.mul(gamma, kappa)) * ket)


def test_X_shifts_logical_labels():
    ctx = field_context(3)
    for delta in ctx.elements():
        X = build_X(ctx, delta)
        for kappa in ctx.elements():
            assert np.allclose(X @ logical_state(ctx, kappa),
                               logical_state(ctx, kappa ^ delta))


def test_ZX_commutation_character():
    """Z_g X_d = chi(g d) X_d Z_g."""
    ctx = field_context(2)
    for g in ctx.elements():
        for d in ctx.elements():
            Z, X = build_Z(ctx, g), build_X(ctx, d)
            assert np.allclose(Z @ X, ctx.chi(ctx.mul(g, d)) * (X @ Z))


def test_monomials_are_group_homomorphisms():
    ctx = field_context(2)
    for a in ctx.elements():
        for b in ctx.elements():
            assert np.allclose(build_Z(ctx, a) @ build_Z(ctx, b), build_Z(ctx, a ^ b))
            assert np.allclose(build_X(ctx, a) @ build_X(ctx, b), build_X(ctx, a ^ b))


# ---------------------------------------------------------
# phase conventions
# ---------------------------------------------------------

def test_boundary_phases_are_one():
    for n in (1, 2, 3):
        ctx = field_context(n)
        for name in ALL_CONVENTIONS:
            c = conv(name)
            for x in ctx.elements():
                assert c.value(ctx, x, 0) == 1
                assert c.value(ctx, 0, x) == 1


def test_exponent_cache_follows_the_field_not_its_id():
    """Uncached contexts are collected and their ids reused; the cached
    table must still belong to the field it is asked for."""
    polys = (0b1011, 0b1101)
    expect = {p: GraphPhase(1).exponent_table(FieldContext(3, p)).copy() for p in polys}
    assert not np.array_equal(*expect.values())
    c = GraphPhase(1)
    for i in range(400):
        poly = polys[i % 2]
        assert np.array_equal(c.exponent_table(FieldContext(3, poly)), expect[poly])


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
            sq_ok = all(
                abs(c.value(ctx, g, d) ** 2 - ctx.chi(ctx.mul(g, d))) < 1e-12
                for g in ctx.elements() for d in ctx.elements())
            assert sq_ok == c.hermitian, name


def test_frozen_single_qubit_phases():
    ctx = field_context(1)
    assert conv("tomographic-p1").value(ctx, 1, 1) == -1j
    assert conv("perminv-f0").value(ctx, 1, 1) == 1j
    assert conv("plain").value(ctx, 1, 1) == 1


def test_factorized_variants_differ_by_sign():
    ctx = field_context(2)
    f0 = FactorizedPhase(0).value_table(ctx)
    f1 = FactorizedPhase(1).value_table(ctx)
    n11 = np.zeros((4, 4), dtype=int)
    for g in ctx.elements():
        for d in ctx.elements():
            cg, cd = ctx.to_coords(g), ctx.to_coords(d)
            n11[g, d] = sum(a & b for a, b in zip(cg, cd))
    assert np.allclose(f1, f0 * (-1.0) ** n11)


def test_sqrt_phase_signs_are_free():
    ctx = field_context(2)
    base = SqrtPhase().value_table(ctx)
    flipped = SqrtPhase({(1, 1, 0): -1}).value_table(ctx)
    # flipping one orbit sign changes exactly that orbit, and both stay hermitian
    changed = np.argwhere(~np.isclose(base, flipped))
    assert len(changed) > 0
    for g, d in changed:
        assert ctx.hweight(int(g)) == 1 and ctx.hweight(int(d)) == 1


def test_graph_phase_sign_conjugate():
    ctx = field_context(2)
    plus = GraphPhase(+1).value_table(ctx)
    minus = GraphPhase(-1).value_table(ctx)
    assert np.allclose(minus, np.conj(plus))


def test_phase_value_helper_matches_method():
    ctx = field_context(2)
    c = conv("tomographic-p1")
    for g in ctx.elements():
        for d in ctx.elements():
            assert phase_value(c, ctx, g, d) == c.value(ctx, g, d)


def test_convention_from_name_rejects_unknown():
    with pytest.raises(ConfigurationError):
        convention_from_name("not-a-convention")


def table_transposition_deviation(ctx, c):
    tab = c.value_table(ctx)
    worst = 0.0
    for i in range(1, ctx.n + 1):
        for j in range(i + 1, ctx.n + 1):
            perm = np.array([ctx.transpose_coords(x, i, j) for x in ctx.elements()])
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


def test_all_displacements_unitary():
    for n in (1, 2, 3):
        ctx = field_context(n)
        eye = np.eye(ctx.order)
        for name in ("tomographic-p1", "perminv-f0", "plain"):
            c = conv(name)
            for g in ctx.elements():
                for d in ctx.elements():
                    D = displacement(ctx, c, g, d)
                    assert np.allclose(D @ D.conj().T, eye)


def test_displacement_hermiticity_by_flag():
    ctx = field_context(2)
    for name in ALL_CONVENTIONS:
        c = conv(name)
        herm = all(
            np.allclose(displacement(ctx, c, g, d),
                        displacement(ctx, c, g, d).conj().T)
            for g in ctx.elements() for d in ctx.elements())
        assert herm == c.hermitian


def test_displacement_overlaps_match_direct():
    ctx = field_context(2)
    c = conv("tomographic-p1")
    ket = spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA)
    ov = displacement_overlaps(ctx, c, ket)
    for g in ctx.elements():
        for d in ctx.elements():
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


# ---------------------------------------------------------
# qubit permutations and collective operators
# ---------------------------------------------------------

def test_permutation_matrix_on_logical_states():
    ctx = field_context(3)
    perm = (3, 1, 2)  # cyclic shift: output slot i holds former slot perm[i-1]
    P = permutation_matrix(ctx, perm)
    for x in ctx.elements():
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
