"""s-parametrized phase-space mapping kernels over the GF(2^n) grid.

The kernel at a grid point (alpha, beta) is

    Delta^(s)(alpha, beta) = 2^-n sum_(gamma, delta) chi(alpha delta + beta gamma)
                             [<xi| D(gamma, delta) |xi>]^(-s) D(gamma, delta)

with a fiducial |xi> whose displacement overlaps must all be nonzero when
s != 0.  Operator symbols are W_f = Tr[f Delta^(s)], inverted through the
dual kernel: f = 2^-n sum W_f Delta^(-s).

Everything is evaluated through character sums against the chi(xy) matrix,
which keeps the full forward/inverse transforms at O(8^n) flops without
materializing displacement operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FiducialError
from .gf2n import FieldContext
from .mubrot import MubFamily
from .pauli import (DEFAULT_FIDUCIAL_ZETA, PhaseConvention, PlainPhase,
                    check_fiducial, displacement_overlaps, require_operator_n,
                    spin_coherent)

#: size cap of ``map --mode dense``
MAX_DENSE_N = 4


@dataclass(eq=False, kw_only=True)
class SymbolMeta:
    """What both kinds of symbol record about how they were made."""

    n: int
    s: float
    convention: str
    convention_invariant: bool = False
    fiducial: np.ndarray | None = None
    provenance: str = ""


@dataclass(eq=False, kw_only=True)
class PhaseSpaceFunction(SymbolMeta):
    """An operator symbol W(alpha, beta) sampled on the full grid.

    ``grid[a, b]`` is indexed by field integers in polynomial-basis order.
    """

    grid: np.ndarray

    def total(self) -> complex:
        return complex(self.grid.sum())


class KernelSet:
    """All 4^n kernels for one (s, convention, fiducial) choice.

    Every kernel is evaluated by character sums from the q x q table
    ``w * phi`` of its displacement coefficients.  When s != 0 the fiducial
    (by default the spin-coherent state at ``DEFAULT_FIDUCIAL_ZETA``) is
    checked and the result kept as ``fiducial_report``; otherwise that is
    None.  Vanishing displacement overlaps are fatal only when the kernel
    has to invert them (s > 0): the s = -1 family of coherent-state
    projectors is well defined for any fiducial, it merely stops being
    informationally complete.
    """

    def __init__(self, ctx: FieldContext, s: float, conv: PhaseConvention,
                 fiducial: np.ndarray | None = None):
        require_operator_n(ctx)
        if s != 0 and fiducial is None:
            fiducial = spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA)
        if fiducial is not None and np.shape(fiducial) != (ctx.order,):
            raise ConfigurationError(
                f"fiducial must hold {ctx.order} amplitudes for n = {ctx.n}")
        self.fiducial_report = None
        weights = 1
        if s != 0:
            if not np.isfinite(fiducial).all():
                raise FiducialError("fiducial amplitudes are not finite")
            report = check_fiducial(ctx, conv, fiducial)
            if s > 0 and not report.ok:
                raise FiducialError(
                    f"fiducial has vanishing displacement overlaps (min {report.min_abs:.2e}) "
                    f"at points {report.violations[:4]}; cannot raise them to a "
                    f"negative power")
            self.fiducial_report = report
            weights = report.overlaps ** (-s)
        self.ctx = ctx
        self.s = s
        self.conv = conv
        self.fiducial = fiducial
        # wphi[gamma, delta]: the coefficient of Z_gamma X_delta in every kernel
        self._wphi = weights * conv.value_table(ctx)
        # stable[delta, t] = sum_gamma chi(gamma t) w[gamma, delta] phi[gamma, delta],
        # both axes permuted to Hilbert-space basis order
        basis = ctx.element_of_index
        self._stable = (ctx.char_matrix_c @ self._wphi).T[np.ix_(basis, basis)]

    # -- access -----------------------------------------------------------

    def at(self, alpha, beta) -> np.ndarray:
        """Delta(alpha, beta); a (..., q, q) stack over the broadcast shape
        of index arrays."""
        ctx = self.ctx
        q = ctx.order
        alpha, beta = np.broadcast_arrays(alpha, beta)
        # the basis index is linear over GF(2), so in basis order entry (r, c)
        # is chi(alpha d) stable[d, e] / q at d = r ^ c and e = r ^ index(beta)
        chi_a = ctx.char_matrix_c[alpha.reshape(-1)][:, ctx.element_of_index]
        tab = chi_a[:, :, None] * self._stable
        tab /= q
        rows = np.arange(q) ^ ctx.index_table[beta.reshape(-1, 1)]
        out = tab[np.arange(len(tab))[:, None, None], ctx.xor_grid, rows[:, :, None]]
        return out.reshape(alpha.shape + (q, q))

    @property
    def convention_invariant(self) -> bool:
        return self.conv.permutation_invariant

    def normalization_residual(self) -> float:
        """Max-norm of sum_(alpha,beta) Delta - 2^n I; that sum is q wphi(0,0) I."""
        q = self.ctx.order
        return float(abs(q * self._wphi[0, 0] - q))

    def hermiticity_residual(self) -> float:
        """Largest entry of Delta - Delta^dagger over all points.

        (Z_g X_d)^dagger = chi(g d) Z_g X_d, so the difference has the
        coefficient table wphi - conj(wphi) chi(g d).
        """
        return coefficient_residual(
            self.ctx, self._wphi - np.conj(self._wphi) * self.ctx.char_matrix)

    def coherent_projector_residual(self) -> float:
        """Largest entry of Delta(a, b) - D(a, b)|xi><xi|D(a, b)^dagger.

        |xi><xi| has the coefficient table conj(<xi|Z_g X_d|xi>) / q, and
        conjugating by D(a, b) multiplies it by chi(a d + b g), as the kernel
        sum does; s = -1 kernels match it exactly for hermitian conventions.
        """
        ctx = self.ctx
        if self.fiducial is None:
            raise ConfigurationError("coherent-state projectors need a fiducial")
        pauli_coeffs = np.conj(displacement_overlaps(ctx, PlainPhase(), self.fiducial))
        return coefficient_residual(ctx, self._wphi - pauli_coeffs)

    def _psf(self, grid, provenance):
        return PhaseSpaceFunction(
            n=self.ctx.n, s=self.s, grid=grid, convention=self.conv.name,
            convention_invariant=self.convention_invariant,
            fiducial=self.fiducial, provenance=provenance)


def coefficient_residual(ctx: FieldContext, coeffs: np.ndarray) -> float:
    """Largest entry, over all points, of the kernels with coefficient table
    ``coeffs``: Delta(a, b) = sum chi(a d + b g) coeffs[g, d] Z_g X_d / q.

    Entry (kappa + d, kappa) of Delta(a, b) is chi(a d) (C coeffs)[b + kappa + d, d] / q
    with C = chi(xy), so the largest one is max |C coeffs| / q.
    """
    return float(np.max(np.abs(ctx.char_matrix_c @ coeffs))) / ctx.order


def build_kernel(ctx: FieldContext, s: float, conv: PhaseConvention,
                 fiducial: np.ndarray | None = None) -> KernelSet:
    """The checked kernel set; the same as ``KernelSet(ctx, s, conv, fiducial)``."""
    return KernelSet(ctx, s, conv, fiducial)


# ----------------------------------------------------------------------
# forward / inverse maps
# ----------------------------------------------------------------------

def forward_map(kernel: KernelSet, op: np.ndarray,
                provenance: str = "") -> PhaseSpaceFunction:
    """Symbol W_f(alpha, beta) = Tr[f Delta^(s)(alpha, beta)].

    A (..., q, q) stack of operators gives one symbol whose grid is
    stacked the same way, as the batch checks and ``tomographic_check`` use.
    """
    ctx = kernel.ctx
    q = ctx.order
    op = np.asarray(op, dtype=complex)
    if op.shape[-2:] != (q, q):
        raise ValueError(f"operator must be {q}x{q}")
    a_idx = ctx.index_table
    c = ctx.char_matrix_c
    # monomial traces Tr[f D(gamma, delta)] via one character transform; each
    # stage replaces the last, so a stack's earlier stages are freed early
    t = op[..., a_idx[ctx.xor_grid], a_idx[None, :]]         # [delta, mu]
    t = t @ c                                                # [delta, gamma]
    t = kernel._wphi * t.swapaxes(-1, -2)
    t = (c @ t @ c).swapaxes(-1, -2) / q
    return kernel._psf(t, provenance)


def inverse_map(kernel: KernelSet, psf: PhaseSpaceFunction) -> np.ndarray:
    """Reconstruct f = 2^-n sum W(alpha, beta) Delta^(-s)(alpha, beta).

    ``kernel`` must be the dual of the kernel that produced ``psf``: s
    values opposite, same convention and same fiducial.  A stacked grid
    gives the (..., q, q) stack of operators.
    """
    ctx = kernel.ctx
    if psf.n != ctx.n:
        raise ConfigurationError("dimension mismatch between symbol and kernel")
    if abs(psf.s + kernel.s) > 1e-12:
        raise ConfigurationError(
            f"need the dual kernel: symbol has s = {psf.s}, kernel has s = {kernel.s}")
    if psf.convention != kernel.conv.name:
        raise ConfigurationError(
            f"convention mismatch: {psf.convention!r} vs {kernel.conv.name!r}")
    if (kernel.s != 0 and psf.fiducial is not None and kernel.fiducial is not None
            and psf.fiducial is not kernel.fiducial
            and not np.allclose(psf.fiducial, kernel.fiducial)):
        raise ConfigurationError("fiducial mismatch between symbol and kernel")
    w = np.asarray(psf.grid, dtype=complex)
    c = ctx.char_matrix_c
    # each stage replaces the last, so a stack's earlier stages are freed early
    t = (c @ w @ c).swapaxes(-1, -2) / ctx.order ** 2        # [gamma, delta]
    t = c @ (t * kernel._wphi)                               # [mu, delta]
    out = np.zeros(w.shape, complex)
    out[..., ctx.index_table[:, None], ctx.index_table[ctx.xor_grid]] = t
    return out


# ----------------------------------------------------------------------
# overlap relation and trace convolution
# ----------------------------------------------------------------------

@dataclass
class OverlapReport:
    """Fit of Tr[Delta^(s) Delta^(-s)'] = constant * delta_(points)."""

    n: int
    constant: complex
    max_offdiag: float


def overlap_check(kernel_a: KernelSet, kernel_b: KernelSet) -> OverlapReport:
    """Pairwise traces of a dual kernel pair; fits the diagonal constant.

    Tr[D(gamma, delta) D(gamma', delta')] is q chi(gamma delta) when the
    displacements coincide and 0 otherwise (Gibbons, Hoffman and Wootters,
    PRA 70, 062101 (2004)), so Tr[Delta_a(a, b) Delta_b(a', b')] has the
    closed form t[b + b', a + a'] with t = C g C / q, C = chi(xy) and
    g = w_a phi_a w_b phi_b chi(gamma delta): the diagonal is t[0, 0] exactly.
    """
    ctx = kernel_a.ctx
    if ctx is not kernel_b.ctx:
        raise ConfigurationError("kernels live on different fields")
    c = ctx.char_matrix_c
    t = c @ (kernel_a._wphi * kernel_b._wphi * ctx.char_matrix) @ c / ctx.order
    constant = complex(t[0, 0])
    t[0, 0] = 0
    return OverlapReport(ctx.n, constant, float(np.max(np.abs(t))))


def convolution_prefactor(kernel_a: KernelSet, kernel_b: KernelSet):
    """Prefactor c/4^n for Tr(fg) = pref * sum W_f^(s) W_g^(-s).

    Returned alongside the overlap report; never hardcoded.
    """
    report = overlap_check(kernel_a, kernel_b)
    points = kernel_a.ctx.order ** 2
    return report.constant / points, report


def trace_convolution(wf: PhaseSpaceFunction, wg: PhaseSpaceFunction,
                      prefactor: complex) -> complex:
    """Tr(fg) from the two symbols of a dual pair."""
    if wf.n != wg.n:
        raise ConfigurationError("symbol dimension mismatch")
    if abs(wf.s + wg.s) > 1e-12:
        raise ConfigurationError("trace convolution needs dual s values")
    if wf.convention != wg.convention:
        raise ConfigurationError("trace convolution needs one convention")
    return complex(prefactor * np.sum(wf.grid * wg.grid))


# ----------------------------------------------------------------------
# line-projector (tomographic) kernel and checks
# ----------------------------------------------------------------------

def wootters_kernel(ctx: FieldContext, family: MubFamily) -> np.ndarray:
    """The q x q line-projector kernel at the origin,
    Delta^(0)(0, 0) = |0~><0~| + sum_xi P^xi_0 - I.

    P^xi_0 projects on the state of the line of slope xi through the origin,
    the head of its pencil (rows ``::q`` of ``family.states``).  It equals the
    s = 0 kernel of the matching tomographic phase convention at the origin
    (Wootters, Ann. Phys. 176, 1 (1987)), and both forms obey
    Delta(a, b) = X_b Z_a Delta(0, 0) Z_a^dagger X_b, so the tomographic suite
    compares them there.
    """
    require_operator_n(ctx)
    q = ctx.order
    heads = family.states[::q]
    proj = heads[:, :, None] * heads.conj()[:, None, :]
    # the slopes in increasing order, as the per-point sum adds them
    return sum(proj[:q], proj[q] - np.eye(q))


def tomographic_check(kernel: KernelSet, rho: np.ndarray,
                      family: MubFamily) -> np.ndarray:
    """|line sum - Born probability| of every line, for one state or a
    (..., q, q) stack of them: an array of shape (..., q(q+1)) whose row r
    is line r of ``ctx.line_points``.

    A line sum is 2^-n sum W_rho(a, b) over the line's points, from one
    stacked forward map; its Born probability is <psi|rho|psi> for the
    line's state, the same row of ``family.states``.
    """
    ctx = kernel.ctx
    q = ctx.order
    rho = np.asarray(rho, dtype=complex)
    values = forward_map(kernel, rho).grid.reshape(rho.shape[:-2] + (q * q,))
    # added one point at a time in each row's order, so that every sum is
    # bitwise the plain sum over that line's points
    points = ctx.line_points.T
    lhs = values[..., points[0]]
    for column in points[1:]:
        lhs += values[..., column]
    lhs /= q
    states = family.states
    pencils = states.reshape(-1, q, q).conj()   # q x q products, per pencil and state
    for r, row in zip(rho.reshape(-1, q, q), lhs.reshape(-1, len(states))):
        born = (pencils @ r).reshape(states.shape)
        born *= states
        row -= born.sum(axis=1)
    return np.abs(lhs)
