# tests/test_kernels.py
"""Kernel construction is cross-checked against a from-scratch assembly that
sums explicit displacement matrices -- no shared code with the vectorized
builder beyond the displacement definition itself."""
import numpy as np
import pytest

from dpsmap import (ConfigurationError, DEFAULT_FIDUCIAL_ZETA, FiducialError,
                    KernelSet, all_lines, build_kernel, convention_from_name,
                    convolution_prefactor, displacement, field_context,
                    forward_map, ghz_state, inverse_map, line_marginal,
                    logical_state, mub_family, overlap_check, spin_coherent,
                    tomographic_check, trace_convolution, w_state,
                    wootters_kernel)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0 + 0j, -1.0])

TOMO = convention_from_name("tomographic-p1")
PERMINV = convention_from_name("perminv-f0")
ALL_CONVENTIONS = ("tomographic-p1", "perminv-sqrt", "perminv-f0",
                   "perminv-f1", "graph-plus", "graph-minus", "plain")


def naive_kernel_point(ctx, s, conv, fiducial, alpha, beta):
    """Direct character sum over all displacements, one matrix at a time."""
    q = ctx.order
    acc = np.zeros((q, q), dtype=complex)
    for g in ctx.elements():
        for d in ctx.elements():
            D = displacement(ctx, conv, g, d)
            weight = 1.0 + 0j
            if s:
                weight = np.vdot(fiducial, D @ fiducial) ** (-s)
            sign = ctx.chi(ctx.mul(alpha, d) ^ ctx.mul(beta, g))
            acc += sign * weight * D
    return acc / q


def random_hermitian(q, rng):
    A = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    return A + A.conj().T


# ---------------------------------------------------------
# construction against the naive oracle
# ---------------------------------------------------------

def test_kernel_matches_naive_assembly():
    rng = np.random.default_rng(0)
    for n in (1, 2):
        ctx = field_context(n)
        fid = spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA)
        for conv in (TOMO, PERMINV):
            for s in (-1.0, 0.0, 1.0):
                kern = build_kernel(ctx, s, conv, fiducial=fid)
                pts = [(int(a), int(b))
                       for a, b in rng.integers(0, ctx.order, size=(6, 2))]
                pts += [(0, 0)]
                for a, b in pts:
                    naive = naive_kernel_point(ctx, s, conv, fid, a, b)
                    assert np.max(np.abs(kern.at(a, b) - naive)) < 1e-12


def test_frozen_single_qubit_wigner_kernel():
    ctx = field_context(1)
    k_tomo = build_kernel(ctx, 0.0, TOMO)
    assert np.allclose(k_tomo.at(0, 0), 0.5 * (np.eye(2) + SX + SY + SZ))
    k_perm = build_kernel(ctx, 0.0, PERMINV)
    assert np.allclose(k_perm.at(0, 0), 0.5 * (np.eye(2) + SX - SY + SZ))


# ---------------------------------------------------------
# algebraic identities
# ---------------------------------------------------------

def test_unit_trace_and_completeness():
    for n in (1, 2, 3):
        ctx = field_context(n)
        q = ctx.order
        for s in (-1.0, 0.0, 1.0):
            kern = build_kernel(ctx, s, TOMO)
            total = np.zeros((q, q), dtype=complex)
            for a, b in kern.points():
                K = kern.at(a, b)
                assert abs(np.trace(K) - 1) < 1e-12
                total += K
            assert np.max(np.abs(total - q * np.eye(q))) < 1e-10
            assert kern.normalization_residual() < 1e-12


def test_hermiticity_follows_convention():
    ctx = field_context(2)
    for name in ("tomographic-p1", "perminv-f0", "plain"):
        conv = convention_from_name(name)
        kern = build_kernel(ctx, 0.0, conv)
        devs = [np.max(np.abs(kern.at(a, b) - kern.at(a, b).conj().T))
                for a, b in kern.points()]
        if conv.hermitian:
            assert max(devs) < 1e-12
        else:
            assert max(devs) > 0.1


def test_covariance_under_displacements():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3):
        ctx = field_context(n)
        kern = build_kernel(ctx, 0.0, TOMO)
        for _ in range(50):
            a, b, da, db = (int(x) for x in rng.integers(0, ctx.order, size=4))
            D = displacement(ctx, TOMO, da, db)
            moved = D @ kern.at(a, b) @ D.conj().T
            assert np.max(np.abs(moved - kern.at(a ^ da, b ^ db))) < 1e-10


def test_q_kernels_are_coherent_projectors():
    """The s = -1 kernels are the rank-one projectors onto displaced
    fiducials."""
    for n in (1, 2, 3):
        ctx = field_context(n)
        fid = spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA)
        kern = build_kernel(ctx, -1.0, TOMO, fiducial=fid)
        for a, b in [(0, 0), (1, 0), (0, 1), (ctx.order - 1, 1)]:
            ket = displacement(ctx, TOMO, a, b) @ fid
            assert np.max(np.abs(kern.at(a, b) - np.outer(ket, ket.conj()))) < 1e-10


# ---------------------------------------------------------
# forward / inverse maps
# ---------------------------------------------------------

def test_frozen_single_qubit_ground_state_symbol():
    ctx = field_context(1)
    kern = build_kernel(ctx, 0.0, TOMO)
    rho = np.outer(logical_state(ctx, 0), logical_state(ctx, 0).conj())
    psf = forward_map(kern, rho)
    assert np.allclose(psf.grid, [[1, 0], [1, 0]], atol=1e-12)


def test_identity_maps_to_flat_symbol():
    ctx = field_context(2)
    kern = build_kernel(ctx, 0.0, PERMINV)
    psf = forward_map(kern, np.eye(4, dtype=complex))
    assert np.allclose(psf.grid, np.ones((4, 4)))


def test_symbol_total_is_scaled_trace():
    rng = np.random.default_rng(9)
    ctx = field_context(2)
    for s in (-1.0, 0.0, 1.0):
        kern = build_kernel(ctx, s, TOMO)
        op = random_hermitian(4, rng)
        psf = forward_map(kern, op)
        assert abs(psf.total() - ctx.order * np.trace(op)) < 1e-10


def test_round_trip_identity():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        ctx = field_context(n)
        q = ctx.order
        pairs = [(0.0, 0.0), (1.0, -1.0), (-1.0, 1.0)]
        for s_fwd, s_inv in pairs:
            k_fwd = build_kernel(ctx, s_fwd, TOMO)
            k_inv = build_kernel(ctx, s_inv, TOMO)
            for _ in range(5):
                op = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
                back = inverse_map(k_inv, forward_map(k_fwd, op))
                assert np.max(np.abs(back - op)) < 1e-10


def test_round_trip_lazy_mode():
    ctx = field_context(3)
    rng = np.random.default_rng(2)
    op = random_hermitian(8, rng)
    k = build_kernel(ctx, 0.0, PERMINV, mode="lazy")
    assert np.max(np.abs(inverse_map(k, forward_map(k, op)) - op)) < 1e-10


def test_inverse_rejects_mismatched_symbols():
    ctx = field_context(2)
    k0 = build_kernel(ctx, 0.0, TOMO)
    kp = build_kernel(ctx, 1.0, TOMO)
    psf = forward_map(kp, np.eye(4, dtype=complex))
    with pytest.raises(ConfigurationError):
        inverse_map(kp, psf)  # needs the s = -1 partner
    k_perm = build_kernel(ctx, 0.0, PERMINV)
    psf0 = forward_map(k0, np.eye(4, dtype=complex))
    with pytest.raises(ConfigurationError):
        inverse_map(k_perm, psf0)  # convention mismatch


def test_forward_rejects_wrong_shape():
    ctx = field_context(2)
    kern = build_kernel(ctx, 0.0, TOMO)
    with pytest.raises(ValueError):
        forward_map(kern, np.eye(3, dtype=complex))


# ---------------------------------------------------------
# overlap relation and trace convolution
# ---------------------------------------------------------

def _flat_tables(kernel):
    """Operator-level oracle: every kernel flattened, plain and transposed."""
    q = kernel.ctx.order
    flat = np.empty((q * q, q * q), dtype=complex)
    flat_t = np.empty((q * q, q * q), dtype=complex)
    for i, (a, b) in enumerate(kernel.points()):
        op = kernel.at(a, b)
        flat[i] = op.reshape(-1)
        flat_t[i] = op.T.reshape(-1)
    return flat, flat_t


def operator_gram(kernel_a, kernel_b):
    """Tr[Delta_a(i) Delta_b(j)] for every pair of grid points."""
    flat_a, _ = _flat_tables(kernel_a)
    _, flat_bt = _flat_tables(kernel_b)
    return flat_a @ flat_bt.T


@pytest.mark.parametrize("s", (-1.0, 0.0, 1.0))
@pytest.mark.parametrize("name", ALL_CONVENTIONS)
@pytest.mark.parametrize("n", (1, 2, 3))
def test_table_checks_match_operator_oracle(n, name, s):
    """Closed-form Gram and table-form normalization against explicit sums."""
    ctx = field_context(n)
    q = ctx.order
    conv = convention_from_name(name)
    fid = spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA)
    ka = build_kernel(ctx, s, conv, fiducial=fid)
    kb = build_kernel(ctx, -s, conv, fiducial=fid)
    gram = operator_gram(ka, kb)
    diag = np.diag(gram)
    constant = diag.mean()
    rep = overlap_check(ka, kb)
    assert abs(rep.constant - constant) < 1e-12
    assert abs(rep.max_diag_dev - np.max(np.abs(diag - constant))) < 1e-12
    assert abs(rep.max_offdiag - np.max(np.abs(gram - np.diag(diag)))) < 1e-12
    total = sum(ka.at(a, b) for a, b in ka.points())
    assert abs(ka.normalization_residual()
               - np.max(np.abs(total - q * np.eye(q)))) < 1e-12


def test_table_backed_overlap_takes_explicit_sum():
    """Line-projector kernels, alone or paired with a convention kernel."""
    ctx = field_context(2)
    k0 = build_kernel(ctx, 0.0, TOMO)
    woot = wootters_kernel(ctx, mub_family(ctx))
    assert woot.normalization_residual() < 1e-12
    for pair in ((woot, woot), (woot, k0), (k0, woot)):
        rep = overlap_check(*pair)
        assert abs(rep.constant - ctx.order) < 1e-12
        assert rep.max_diag_dev < 1e-12 and rep.max_offdiag < 1e-12


def test_overlap_constant_and_diagonality():
    for n in (1, 2):
        ctx = field_context(n)
        for s in (0.0, 1.0):
            ka = build_kernel(ctx, s, TOMO)
            kb = build_kernel(ctx, -s, TOMO)
            rep = overlap_check(ka, kb)
            assert abs(rep.constant - ctx.order) < 1e-10
            assert rep.max_diag_dev < 1e-10
            assert rep.max_offdiag < 1e-10


def test_frozen_overlap_constant_single_qubit():
    ctx = field_context(1)
    k = build_kernel(ctx, 0.0, TOMO)
    assert abs(overlap_check(k, k).constant - 2) < 1e-12


def test_trace_convolution_matches_matrix_trace():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        ctx = field_context(n)
        q = ctx.order
        for s in (0.0, 1.0):
            ka = build_kernel(ctx, s, TOMO)
            kb = build_kernel(ctx, -s, TOMO)
            pre, rep = convolution_prefactor(ka, kb)
            assert abs(pre - 1 / q) < 1e-10
            assert rep.max_offdiag < 1e-10
            for _ in range(5):
                f = random_hermitian(q, rng)
                g = random_hermitian(q, rng)
                val = trace_convolution(forward_map(ka, f), forward_map(kb, g), pre)
                assert abs(val - np.trace(f @ g)) < 1e-9


# ---------------------------------------------------------
# fiducial gate
# ---------------------------------------------------------

def test_equatorial_fiducial_blocks_only_positive_s():
    """Vanishing overlaps make the P-side weights blow up; the Q side stays
    well defined and just records the failed check."""
    ctx = field_context(2)
    equatorial = spin_coherent(ctx, 1.0)
    with pytest.raises(FiducialError):
        build_kernel(ctx, 1.0, TOMO, fiducial=equatorial)
    kq = build_kernel(ctx, -1.0, TOMO, fiducial=equatorial)
    assert kq.fiducial_report is not None and not kq.fiducial_report.ok
    assert kq.normalization_residual() < 1e-10


def test_default_fiducial_passes_check():
    ctx = field_context(3)
    k = build_kernel(ctx, 1.0, TOMO)
    assert k.fiducial_report.ok


def test_wigner_kernel_ignores_fiducial_weighting():
    ctx = field_context(2)
    ka = build_kernel(ctx, 0.0, TOMO)
    kb = build_kernel(ctx, 0.0, TOMO, fiducial=spin_coherent(ctx, 0.3j))
    for a, b in [(0, 0), (2, 3)]:
        assert np.allclose(ka.at(a, b), kb.at(a, b))


# ---------------------------------------------------------
# mode and size caps
# ---------------------------------------------------------

def test_mode_validation():
    ctx = field_context(2)
    with pytest.raises(ConfigurationError):
        build_kernel(ctx, 0.0, TOMO, mode="sparse")


def test_dense_size_cap():
    with pytest.raises(ConfigurationError):
        build_kernel(field_context(5), 0.0, TOMO, mode="dense")


def test_lazy_allows_larger_fields():
    ctx = field_context(5)
    kern = build_kernel(ctx, 0.0, TOMO, mode="lazy")
    K = kern.at(3, 7)
    assert abs(np.trace(K) - 1) < 1e-12
    assert np.max(np.abs(K - K.conj().T)) < 1e-12


# ---------------------------------------------------------
# line sums and the dual construction via basis projectors
# ---------------------------------------------------------

def test_line_state_symbols_are_delta_lines():
    """The Wigner symbol of a line eigenstate is the indicator of its line."""
    for n in (1, 2):
        ctx = field_context(n)
        kern = build_kernel(ctx, 0.0, TOMO)
        fam = mub_family(ctx)
        for line in all_lines(ctx):
            ket = fam.state(line)
            psf = forward_map(kern, np.outer(ket, ket.conj()))
            on = set(line.points(ctx))
            for a in ctx.elements():
                for b in ctx.elements():
                    expect = 1.0 if (a, b) in on else 0.0
                    assert abs(psf.grid[a, b] - expect) < 1e-10


def test_tomographic_check_on_random_states():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        ctx = field_context(n)
        q = ctx.order
        kern = build_kernel(ctx, 0.0, TOMO)
        fam = mub_family(ctx)
        for _ in range(4):
            psi = rng.normal(size=q) + 1j * rng.normal(size=q)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            for line in all_lines(ctx):
                res = tomographic_check(kern, rho, line, fam.basis(line.slope))
                assert res.deviation < 1e-10


def test_line_marginal_equals_born_probability():
    ctx = field_context(2)
    kern = build_kernel(ctx, 0.0, TOMO)
    fam = mub_family(ctx)
    rho = np.outer(ghz_state(ctx), ghz_state(ctx).conj())
    psf = forward_map(kern, rho)
    for line in all_lines(ctx):
        ket = fam.state(line)
        born = np.vdot(ket, rho @ ket)
        assert abs(line_marginal(ctx, psf, line) - born) < 1e-10


def test_wootters_form_equals_character_sum():
    """Sum of line projectors through a point minus identity, compared
    entrywise with the character-sum construction."""
    for n in (1, 2, 3):
        ctx = field_context(n)
        kern = build_kernel(ctx, 0.0, TOMO)
        woot = wootters_kernel(ctx, mub_family(ctx))
        for a, b in [(0, 0), (1, 1), (0, ctx.order - 1), (2 % ctx.order, 1)]:
            assert np.max(np.abs(woot.at(a, b) - kern.at(a, b))) < 1e-10


def test_wootters_kernel_cap():
    with pytest.raises(ConfigurationError):
        wootters_kernel(field_context(5), mub_family(field_context(5)))


def test_wstate_symbol_is_real_for_hermitian_convention():
    ctx = field_context(3)
    for conv in (TOMO, PERMINV):
        kern = build_kernel(ctx, 0.0, conv)
        rho = np.outer(w_state(ctx), w_state(ctx).conj())
        psf = forward_map(kern, rho)
        assert np.max(np.abs(psf.grid.imag)) < 1e-12
