# tests/test_kernels.py
"""Kernel construction is cross-checked against a from-scratch assembly that
sums explicit displacement matrices -- no shared code with the vectorized
builder beyond the displacement definition itself."""
import dataclasses

import numpy as np
import pytest
from oracles import (all_lines, line_marginal, line_points_of, line_state,
                     wootters_kernel_by_points)

from dpsmap import kernels, pauli
from dpsmap import (ConfigurationError, DEFAULT_FIDUCIAL_ZETA, FiducialError,
                    KernelSet, build_kernel, convention_from_name,
                    convolution_prefactor, displacement, field_context,
                    forward_map, ghz_state, inverse_map, logical_state,
                    mub_family, overlap_check, spin_coherent,
                    tomographic_check, trace_convolution, w_state,
                    wootters_kernel)
from dpsmap.mubrot import SCHEMES

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
    for g in range(ctx.order):
        for d in range(ctx.order):
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
            for a, b in np.ndindex(q, q):
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
                for a, b in np.ndindex(ctx.order, ctx.order)]
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
    k = build_kernel(ctx, 0.0, PERMINV)
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


@pytest.mark.parametrize("shape", ((3, 3), (2, 4, 3), (4,)))
def test_forward_map_names_the_operator_shape(shape):
    kern = build_kernel(field_context(2), 0.0, TOMO)
    with pytest.raises(ConfigurationError, match=r"4x4 operators for n = 2, got shape"):
        forward_map(kern, np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("shape", ((3, 3), (2, 4, 3), (4, 8)))
def test_inverse_map_names_the_grid_shape(shape):
    kern = build_kernel(field_context(2), 0.0, TOMO)
    psf = dataclasses.replace(forward_map(kern, np.eye(4)), grid=np.zeros(shape))
    with pytest.raises(ConfigurationError, match=r"4x4 grids for n = 2, got shape"):
        inverse_map(kern, psf)


# ---------------------------------------------------------
# overlap relation and trace convolution
# ---------------------------------------------------------

def _flat_tables(kernel):
    """Operator-level oracle: every kernel flattened, plain and transposed."""
    q = kernel.ctx.order
    flat = np.empty((q * q, q * q), dtype=complex)
    flat_t = np.empty((q * q, q * q), dtype=complex)
    for i, (a, b) in enumerate(np.ndindex(q, q)):
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
    assert np.max(np.abs(diag - constant)) < 1e-12
    assert abs(rep.max_offdiag - np.max(np.abs(gram - np.diag(diag)))) < 1e-12
    total = sum(ka.at(a, b) for a, b in np.ndindex(q, q))
    assert abs(ka.normalization_residual()
               - np.max(np.abs(total - q * np.eye(q)))) < 1e-12


def point_residuals(kernel, conv, fid):
    """The per-point loops the residual methods replace: the largest entry
    of Delta - Delta^dagger and of Delta(a, b) - D(a, b)|xi><xi|D(a, b)^dagger."""
    ctx = kernel.ctx
    herm = proj = 0.0
    for a, b in np.ndindex(ctx.order, ctx.order):
        op = kernel.at(a, b)
        coh = displacement(ctx, conv, a, b) @ fid
        herm = max(herm, np.max(np.abs(op - op.conj().T)))
        proj = max(proj, np.max(np.abs(op - np.outer(coh, coh.conj()))))
    return herm, proj


@pytest.mark.parametrize("s", (-1.0, 0.0, 1.0))
@pytest.mark.parametrize("name", ALL_CONVENTIONS)
@pytest.mark.parametrize("n", (1, 2, 3))
def test_residuals_match_point_oracle(n, name, s):
    """Closed-form hermiticity and coherent-projector residuals."""
    ctx = field_context(n)
    conv = convention_from_name(name)
    fid = spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA)
    kern = KernelSet(ctx, s, conv, fid)
    herm, proj = point_residuals(kern, conv, fid)
    assert abs(kern.hermiticity_residual() - herm) < 1e-12
    assert abs(kern.coherent_projector_residual() - proj) < 1e-12
    # only the plain convention's s = 0 kernels are not hermitian, and only
    # its s = -1 kernels are not the coherent-state projectors
    assert (herm < 1e-12) == (conv.hermitian or s != 0)
    if s == -1:
        assert (proj < 1e-12) == conv.hermitian


def test_coherent_projector_residual_needs_fiducial():
    with pytest.raises(ConfigurationError):
        build_kernel(field_context(2), 0.0, TOMO).coherent_projector_residual()


def test_overlap_constant_and_diagonality():
    for n in (1, 2):
        ctx = field_context(n)
        for s in (0.0, 1.0):
            ka = build_kernel(ctx, s, TOMO)
            kb = build_kernel(ctx, -s, TOMO)
            rep = overlap_check(ka, kb)
            assert abs(rep.constant - ctx.order) < 1e-10
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
    well defined and just records the failed check.  Both constructors
    check."""
    ctx = field_context(2)
    for fiducial in (spin_coherent(ctx, 1.0), logical_state(ctx, 0)):
        kernels_q = []
        for make in (KernelSet, build_kernel):
            with pytest.raises(FiducialError, match="vanishing displacement overlaps"):
                make(ctx, 1.0, TOMO, fiducial)
            with pytest.raises(FiducialError):
                make(ctx, 1.0, convention_from_name("plain"), fiducial)
            kq = make(ctx, -1.0, TOMO, fiducial)
            assert kq.fiducial_report is not None and not kq.fiducial_report.ok
            assert kq.normalization_residual() < 1e-10
            kernels_q.append(kq)
        assert kernels_q[0]._wphi.tobytes() == kernels_q[1]._wphi.tobytes()


def test_default_fiducial_passes_check():
    ctx = field_context(3)
    made = [make(ctx, 1.0, TOMO, None) for make in (KernelSet, build_kernel)]
    for k in made:
        assert k.fiducial_report.ok
        assert np.array_equal(k.fiducial, spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA))
        assert np.all(np.isfinite(k._wphi))
    assert made[0]._wphi.tobytes() == made[1]._wphi.tobytes()
    assert KernelSet(ctx, 0.0, TOMO).fiducial_report is None


@pytest.mark.parametrize("s", (-1.0, 1.0))
def test_one_overlap_table_per_kernel(monkeypatch, s):
    """The table check_fiducial computed is the one the weights come from."""
    tables = []

    def counting(*args):
        tables.append(real(*args))
        return tables[-1]

    real = pauli.displacement_overlaps
    monkeypatch.setattr(pauli, "displacement_overlaps", counting)
    monkeypatch.setattr(kernels, "displacement_overlaps", counting)
    ctx = field_context(3)
    for conv in (TOMO, PERMINV):
        tables.clear()
        kern = KernelSet(ctx, s, conv)
        assert len(tables) == 1
        assert kern.fiducial_report.overlaps is tables[0]
        wphi = real(ctx, conv, kern.fiducial) ** (-s) * conv.value_table(ctx)
        assert kern._wphi.tobytes() == wphi.tobytes()


def test_non_finite_fiducial_blocks_positive_s():
    ctx = field_context(2)
    for bad in (np.nan, np.inf):
        fiducial = spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA)
        fiducial[1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(FiducialError):
            KernelSet(ctx, 1.0, TOMO, fiducial)


@pytest.mark.parametrize("s", (-1.0, 1.0))
def test_non_finite_fiducial_is_refused_for_any_nonzero_s(s):
    ctx = field_context(2)
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        fiducial = spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA)
        fiducial[1] = bad
        with pytest.raises(FiducialError, match="amplitudes are not finite"):
            KernelSet(ctx, s, TOMO, fiducial)
    # the s = 0 kernel never reads the fiducial
    assert KernelSet(ctx, 0.0, TOMO, fiducial).fiducial_report is None


@pytest.mark.parametrize("s", (-1.0, 0.0, 1.0))
def test_fiducial_of_the_wrong_length_is_refused(s):
    ctx = field_context(3)
    for fiducial in (spin_coherent(field_context(2), 0.5), np.ones(16) / 4):
        with pytest.raises(ConfigurationError, match="fiducial must hold 8 amplitudes"):
            KernelSet(ctx, s, TOMO, fiducial)


def test_wigner_kernel_ignores_fiducial_weighting():
    ctx = field_context(2)
    ka = build_kernel(ctx, 0.0, TOMO)
    kb = build_kernel(ctx, 0.0, TOMO, fiducial=spin_coherent(ctx, 0.3j))
    for a, b in [(0, 0), (2, 3)]:
        assert np.allclose(ka.at(a, b), kb.at(a, b))


# ---------------------------------------------------------
# size cap
# ---------------------------------------------------------

def test_dense_size_cap():
    """The library's only kernel cap is the operator cap, n <= 6."""
    for make in (KernelSet, build_kernel):
        with pytest.raises(ConfigurationError, match="capped at n <= 6"):
            make(field_context(7), 0.0, TOMO)


def test_lazy_allows_larger_fields():
    ctx = field_context(5)
    kern = build_kernel(ctx, 0.0, TOMO)
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
        for line, ket in zip(all_lines(ctx), fam.states, strict=True):
            psf = forward_map(kern, np.outer(ket, ket.conj()))
            on = set(line_points_of(ctx, line))
            for a in range(ctx.order):
                for b in range(ctx.order):
                    expect = 1.0 if (a, b) in on else 0.0
                    assert abs(psf.grid[a, b] - expect) < 1e-10


def per_line_tomographic_check(kern, rho, fam):
    """The per-line loop tomographic_check replaces: a forward map, a line
    sum and a Born probability for every line, one deviation per line."""
    ctx = kern.ctx
    return np.array([abs(line_marginal(ctx, kernels.forward_map(kern, rho), line)
                         - ket.conj() @ rho @ ket)
                     for line, ket in zip(all_lines(ctx), fam.states, strict=True)])


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
            res = tomographic_check(kern, rho, fam)
            assert res.shape == (q * (q + 1),)
            assert res.max() < 1e-10
            # row r is line r of all_lines
            assert np.abs(res - per_line_tomographic_check(kern, rho, fam)).max() < 1e-15


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("scheme", ("p1", "graph+"))
def test_tomographic_check_of_a_stack_is_its_rows(n, scheme):
    """A (10, q, q) stack gives, bit for bit, the rows of its states checked
    one at a time, and a (2, 5, q, q) stack the same rows."""
    ctx = field_context(n)
    q = ctx.order
    kern = build_kernel(ctx, 0.0, convention_from_name(SCHEMES[scheme]))
    fam = mub_family(ctx, scheme)
    rng = np.random.default_rng(n)
    psi = rng.normal(size=(10, q)) + 1j * rng.normal(size=(10, q))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    res = tomographic_check(kern, rho, fam)
    assert res.shape == (10, q * (q + 1))
    rows = np.array([tomographic_check(kern, r, fam) for r in rho])
    assert res.tobytes() == rows.tobytes()
    assert tomographic_check(kern, rho.reshape(2, 5, q, q), fam).tobytes() == res.tobytes()
    assert res.max() < 1e-10


@pytest.mark.parametrize("n", (1, 2, 3))
def test_tomographic_check_reports_the_perturbed_line(monkeypatch, n):
    """The symbol is shifted by eps Tr rho on every point of one line, as
    kernels shifted by eps I there would shift it, so that line's sum is off
    by eps and every other line's by at most eps / q: its row is the argmax."""
    ctx = field_context(n)
    q = ctx.order
    kern = build_kernel(ctx, 0.0, TOMO)
    fam = mub_family(ctx)
    rho = np.outer(ghz_state(ctx), ghz_state(ctx).conj())
    lines = list(all_lines(ctx))
    unbent = kernels.forward_map
    for row in (0, q + 1, q * q - 1, q * (q + 1) - 1):
        def bent(kernel, op, provenance="", target=lines[row]):
            psf = unbent(kernel, op, provenance)
            for a, b in line_points_of(ctx, target):
                psf.grid[a, b] += 1e-3 * np.trace(op)
            return psf
        monkeypatch.setattr(kernels, "forward_map", bent)
        res = tomographic_check(kern, rho, fam)
        assert np.argmax(res) == row
        assert abs(res[row] - 1e-3) < 1e-12
        assert np.abs(res - per_line_tomographic_check(kern, rho, fam)).max() < 1e-15


def test_tomographic_tables_are_built_once_and_read_only():
    ctx = field_context(3)
    fam = mub_family(ctx)
    assert ctx.line_points is ctx.line_points
    assert fam.states is fam.states
    assert not ctx.line_points.flags.writeable
    assert not fam.states.flags.writeable
    # row r of the state table is the state of line r of all_lines
    assert np.array_equal(fam.states, [line_state(ctx, fam.scheme, line)
                                       for line in all_lines(ctx)])


@pytest.mark.parametrize("n", (2, 3, 4))
def test_tomographic_report_is_the_same_without_the_caches(monkeypatch, capsys, n):
    from dpsmap import cli, gf2n
    argv = ["verify", "--suite", "tomographic", "--n", str(n), "--seed", "7"]
    assert cli.main(argv) == 0
    cached = capsys.readouterr().out
    # a plain property rebuilds the line point table on every read
    monkeypatch.setattr(gf2n.FieldContext, "line_points",
                        property(vars(gf2n.FieldContext)["line_points"].func))
    ctx = field_context(n)
    assert ctx.line_points is not ctx.line_points
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == cached


def test_line_marginal_equals_born_probability():
    ctx = field_context(2)
    kern = build_kernel(ctx, 0.0, TOMO)
    fam = mub_family(ctx)
    rho = np.outer(ghz_state(ctx), ghz_state(ctx).conj())
    psf = forward_map(kern, rho)
    for line, ket in zip(all_lines(ctx), fam.states, strict=True):
        born = np.vdot(ket, rho @ ket)
        assert abs(line_marginal(ctx, psf, line) - born) < 1e-10


def test_wootters_form_equals_character_sum():
    """Sum of line projectors through a point minus identity, from the
    per-point oracle, compared entrywise with the character-sum construction
    at every point; the table sums to q I and holds hermitian kernels of unit
    trace."""
    for n in (1, 2, 3):
        ctx = field_context(n)
        q = ctx.order
        kern = build_kernel(ctx, 0.0, TOMO)
        woot = wootters_kernel_by_points(ctx, mub_family(ctx))
        a, b = np.divmod(np.arange(q * q), q)
        assert np.max(np.abs(woot.reshape(q * q, q, q) - kern.at(a, b))) < 1e-10
        assert np.max(np.abs(woot.sum(axis=(0, 1)) - q * np.eye(q))) < 1e-12
        assert np.max(np.abs(woot - np.conj(np.swapaxes(woot, 2, 3)))) < 1e-12
        assert np.max(np.abs(np.trace(woot, axis1=2, axis2=3) - 1)) < 1e-12


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("scheme", ("p1", "graph+"))
def test_wootters_kernel_is_bitwise_the_per_point_sum(n, scheme):
    """The q x q origin kernel adds the same projectors in the same order as
    the loop over points."""
    ctx = field_context(n)
    fam = mub_family(ctx, scheme)
    got = wootters_kernel(ctx, fam)
    assert got.shape == (ctx.order, ctx.order)
    assert np.array_equal(got.view(np.uint64),
                          wootters_kernel_by_points(ctx, fam)[0, 0].view(np.uint64))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_both_kernels_are_conjugates_of_the_origin_kernel(n):
    """Delta(a, b) = X_b Z_a Delta(0, 0) Z_a^dagger X_b for the line-projector
    and the character-sum kernel: the origin settles every point."""
    ctx = field_context(n)
    q = ctx.order
    kern = build_kernel(ctx, 0.0, TOMO)
    woot = wootters_kernel_by_points(ctx, mub_family(ctx))
    for a, b in np.ndindex(q, q):
        u = pauli.build_X(ctx, b) @ pauli.build_Z(ctx, a)
        for table in (woot, kern.at(np.arange(q)[:, None], np.arange(q))):
            assert np.max(np.abs(u @ table[0, 0] @ u.conj().T - table[a, b])) < 1e-12


@pytest.mark.parametrize("n", range(1, 6))
def test_every_line_state_is_a_shift_of_its_pencils_head(n):
    """Row xi q + nu of the family is X_nu times row xi q, and row q^2 + nu is
    Z_nu times row q^2, for every scheme."""
    ctx = field_context(n)
    q = ctx.order
    nu = np.arange(q)
    for scheme in ("p1", "graph+"):
        pencils = mub_family(ctx, scheme).states.reshape(q + 1, q, q)
        heads = pencils[:, 0]
        shifted = np.einsum("vrc,xc->xvr", pauli.build_X(ctx, nu), heads[:q])
        assert np.max(np.abs(pencils[:q] - shifted)) < 1e-12
        assert np.max(np.abs(pencils[q] - pauli.build_Z(ctx, nu) @ heads[q])) < 1e-12


def test_wstate_symbol_is_real_for_hermitian_convention():
    ctx = field_context(3)
    for conv in (TOMO, PERMINV):
        kern = build_kernel(ctx, 0.0, conv)
        rho = np.outer(w_state(ctx), w_state(ctx).conj())
        psf = forward_map(kern, rho)
        assert np.max(np.abs(psf.grid.imag)) < 1e-12


# ---------------------------------------------------------
# stacks against the one-at-a-time code
# ---------------------------------------------------------

@pytest.mark.parametrize("s", (-1.0, 0.0, 1.0))
def test_only_at_builds_the_origin_kernel(s):
    """Building a kernel set and mapping with it leave the origin table
    unbuilt; ``at`` builds it once and reuses it."""
    ctx = field_context(3)
    rng = np.random.default_rng(5)
    op = rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))
    kern, dual = build_kernel(ctx, s, TOMO), build_kernel(ctx, -s, TOMO)
    inverse_map(dual, forward_map(kern, op))
    assert "_origin" not in vars(kern) and "_origin" not in vars(dual)
    kern.at(1, 2)
    origin = vars(kern)["_origin"]
    kern.at(np.arange(8), 3)
    assert vars(kern)["_origin"] is origin


def _at_oracle(kernel, alpha, beta):
    """KernelSet.at as it was before it took index arrays."""
    ctx = kernel.ctx
    q = ctx.order
    xg = ctx.xor_grid
    stable = (ctx.char_matrix_c @ kernel._wphi).T
    chi_a = ctx.char_matrix_c[alpha]
    bmu = (np.arange(q) ^ beta)[:, None]
    vals = chi_a[xg] * stable[xg, bmu] / q
    out = np.empty((q, q), dtype=complex)
    out[ctx.index_table[:, None], ctx.index_table[None, :]] = vals
    return out


def _same_bits(got, want):
    bits = [np.ascontiguousarray(x).view(np.uint64) for x in (got, want)]
    return (got.dtype == want.dtype == np.complex128 and got.shape == want.shape
            and np.array_equal(*bits))


def _conventions_at(n):
    return ([f"tomographic-p{1 << j}" for j in range(n)]
            + [name for name in ALL_CONVENTIONS if not name.startswith("tomographic")])


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_kernels_are_bitwise_the_scalar_at(n):
    ctx = field_context(n)
    q = ctx.order
    rng = np.random.default_rng(70 + n)
    # every point up to n = 3, 64 sampled points above
    a, b = (np.divmod(np.arange(q * q), q) if n <= 3
            else rng.integers(0, q, size=(2, 64)))
    for name in _conventions_at(n):
        for s in (-1.0, 0.0, 1.0):
            kern = KernelSet(ctx, s, convention_from_name(name))
            want = np.array([_at_oracle(kern, x, y) for x, y in zip(a, b)])
            assert _same_bits(kern.at(a, b), want), (name, s)
            assert _same_bits(kern.at(a[:4].reshape(2, 2), b[:4].reshape(2, 2)),
                              want[:4].reshape(2, 2, q, q)), (name, s)
            assert _same_bits(kern.at(int(a[-1]), int(b[-1])), want[-1]), (name, s)


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_forward_map_is_bitwise_one_operator_at_a_time(n):
    ctx = field_context(n)
    q = ctx.order
    rng = np.random.default_rng(80 + n)
    ops = rng.normal(size=(2, 3, q, q)) + 1j * rng.normal(size=(2, 3, q, q))
    for name in ("tomographic-p1", "perminv-f0", "plain"):
        conv = convention_from_name(name)
        for s in (-1.0, 0.0, 1.0):
            fwd = KernelSet(ctx, s, conv)
            grids = [[forward_map(fwd, op).grid for op in row] for row in ops]
            assert _same_bits(forward_map(fwd, ops).grid, np.array(grids)), (name, s)


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_inverse_map_is_bitwise_one_symbol_at_a_time(n):
    ctx = field_context(n)
    q = ctx.order
    rng = np.random.default_rng(90 + n)
    ops = rng.normal(size=(2, 3, q, q)) + 1j * rng.normal(size=(2, 3, q, q))
    fid = spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA)
    for name in ("tomographic-p1", "perminv-f0", "plain"):
        conv = convention_from_name(name)
        for s in (-1.0, 0.0, 1.0):
            fwd, dual = KernelSet(ctx, s, conv, fid), KernelSet(ctx, -s, conv, fid)
            w = forward_map(fwd, ops)
            want = [[inverse_map(dual, dataclasses.replace(w, grid=grid)) for grid in row]
                    for row in w.grid]
            assert _same_bits(inverse_map(dual, w), np.array(want)), (name, s)
