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
from .mubrot import VERTICAL, LineSpec, MubFamily
from .pauli import (DEFAULT_FIDUCIAL_ZETA, PhaseConvention, check_fiducial,
                    displacement_overlaps, require_operator_n, spin_coherent)

#: size caps behind ``mode``; both modes evaluate kernels the same way
MAX_DENSE_N = 4
MAX_LAZY_N = 6


@dataclass(eq=False)
class PhaseSpaceFunction:
    """An operator symbol W(alpha, beta) sampled on the full grid.

    ``grid[a, b]`` is indexed by field integers in polynomial-basis order.
    """

    n: int
    s: float
    grid: np.ndarray
    convention: str
    convention_invariant: bool = False
    fiducial: np.ndarray | None = None
    provenance: str = ""

    def total(self) -> complex:
        return complex(self.grid.sum())


class KernelSet:
    """All 4^n kernels for one (s, convention, fiducial) choice.

    Either backed by a phase convention (character-sum evaluation from the
    q x q table ``w * phi``) or directly by a table of operators (used for
    the line-projector construction).
    """

    def __init__(self, ctx: FieldContext, s: float, conv: PhaseConvention | None,
                 fiducial: np.ndarray | None, label: str, hermitian: bool):
        require_operator_n(ctx)
        self.ctx = ctx
        self.s = s
        self.conv = conv
        self.fiducial = fiducial
        self.label = label
        self.hermitian = hermitian
        self.fiducial_report = None
        self._table = None
        self._wphi = None
        self._stable = None
        if conv is not None:
            self._prepare_character_data()

    # -- construction ---------------------------------------------------

    def _prepare_character_data(self):
        ctx = self.ctx
        phi = self.conv.value_table(ctx)
        if self.s == 0:
            weights = np.ones((ctx.order, ctx.order), dtype=complex)
        else:
            overlaps = displacement_overlaps(ctx, self.conv, self.fiducial)
            weights = overlaps ** (-self.s)
        # wphi[gamma, delta]: the coefficient of Z_gamma X_delta in every kernel
        self._wphi = weights * phi
        # stable[delta, t] = sum_gamma chi(gamma t) w[gamma, delta] phi[gamma, delta]
        self._stable = (ctx.char_matrix_c @ self._wphi).T

    def _point(self, alpha: int, beta: int) -> np.ndarray:
        ctx = self.ctx
        q = ctx.order
        xg = ctx.xor_grid
        chi_a = ctx.char_matrix_c[alpha]
        bmu = (np.arange(q) ^ beta)[:, None]
        vals = chi_a[xg] * self._stable[xg, bmu] / q
        out = np.empty((q, q), dtype=complex)
        out[ctx.index_table[:, None], ctx.index_table[None, :]] = vals
        return out

    @classmethod
    def from_table(cls, ctx: FieldContext, s: float, table: np.ndarray,
                   label: str, fiducial: np.ndarray | None = None,
                   hermitian: bool = True) -> "KernelSet":
        self = cls(ctx, s, None, fiducial, label, hermitian)
        self._table = np.asarray(table, dtype=complex)
        return self

    # -- access -----------------------------------------------------------

    def at(self, alpha: int, beta: int) -> np.ndarray:
        if self._table is not None:
            return self._table[alpha, beta]
        return self._point(alpha, beta)

    def points(self):
        q = self.ctx.order
        return [(a, b) for a in range(q) for b in range(q)]

    @property
    def convention_invariant(self) -> bool:
        return self.conv.permutation_invariant if self.conv is not None else False

    def normalization_residual(self) -> float:
        """Max-norm of sum_(alpha,beta) Delta - 2^n I; that sum is q wphi(0,0) I."""
        q = self.ctx.order
        if self._table is None:
            return float(abs(q * self._wphi[0, 0] - q))
        acc = self._table.sum(axis=(0, 1))
        return float(np.max(np.abs(acc - q * np.eye(q))))

    def _psf(self, grid, provenance):
        return PhaseSpaceFunction(
            n=self.ctx.n, s=self.s, grid=grid, convention=self.label,
            convention_invariant=self.convention_invariant,
            fiducial=self.fiducial, provenance=provenance)


def build_kernel(ctx: FieldContext, s: float, conv: PhaseConvention,
                 fiducial: np.ndarray | None = None,
                 mode: str | None = None) -> KernelSet:
    """Construct the kernel set, checking the fiducial when s != 0.

    ``mode`` ("dense" or "lazy") only selects which size cap applies; the
    kernels are evaluated the same way in both.

    Vanishing displacement overlaps are fatal only when the kernel has to
    invert them (s > 0): the s = -1 family of coherent-state projectors is
    well defined for any fiducial, it merely stops being informationally
    complete.  The check result is attached as ``fiducial_report`` either
    way.
    """
    require_operator_n(ctx)
    caps = {"dense": MAX_DENSE_N, "lazy": MAX_LAZY_N}
    mode = mode or ("dense" if ctx.n <= MAX_DENSE_N else "lazy")
    if mode not in caps:
        raise ConfigurationError(f"unknown kernel mode {mode!r}")
    if ctx.n > caps[mode]:
        raise ConfigurationError(f"{mode} kernels are capped at n <= {caps[mode]}")
    report = None
    if s != 0:
        if fiducial is None:
            fiducial = spin_coherent(ctx, DEFAULT_FIDUCIAL_ZETA)
        report = check_fiducial(ctx, conv, fiducial)
        if s > 0 and not report.ok:
            raise FiducialError(
                f"fiducial has vanishing displacement overlaps (min {report.min_abs:.2e}) "
                f"at points {report.violations[:4]}; cannot raise them to a "
                f"negative power")
    kernel = KernelSet(ctx, s, conv, fiducial, conv.name, conv.hermitian)
    kernel.fiducial_report = report
    return kernel


# ----------------------------------------------------------------------
# forward / inverse maps
# ----------------------------------------------------------------------

def forward_map(kernel: KernelSet, op: np.ndarray,
                provenance: str = "") -> PhaseSpaceFunction:
    """Symbol W_f(alpha, beta) = Tr[f Delta^(s)(alpha, beta)]."""
    ctx = kernel.ctx
    q = ctx.order
    op = np.asarray(op, dtype=complex)
    if op.shape != (q, q):
        raise ValueError(f"operator must be {q}x{q}")
    if kernel.conv is not None:
        a_idx = ctx.index_table
        # monomial traces Tr[f D(gamma, delta)] via one character transform
        v = op[a_idx[ctx.xor_grid], a_idx[None, :]]          # v[delta, mu]
        t = v @ ctx.char_matrix_c                            # t[delta, gamma]
        f_tab = kernel._wphi * t.T
        grid = (ctx.char_matrix_c @ f_tab @ ctx.char_matrix_c).T / q
    else:
        grid = np.einsum("abij,ji->ab", kernel._table, op)
    return kernel._psf(grid, provenance)


def inverse_map(kernel: KernelSet, psf: PhaseSpaceFunction) -> np.ndarray:
    """Reconstruct f = 2^-n sum W(alpha, beta) Delta^(-s)(alpha, beta).

    ``kernel`` must be the dual of the kernel that produced ``psf``: s
    values opposite, same convention and same fiducial.
    """
    ctx = kernel.ctx
    q = ctx.order
    if psf.n != ctx.n:
        raise ConfigurationError("dimension mismatch between symbol and kernel")
    if abs(psf.s + kernel.s) > 1e-12:
        raise ConfigurationError(
            f"need the dual kernel: symbol has s = {psf.s}, kernel has s = {kernel.s}")
    if psf.convention != kernel.label:
        raise ConfigurationError(
            f"convention mismatch: {psf.convention!r} vs {kernel.label!r}")
    if (kernel.s != 0 and psf.fiducial is not None and kernel.fiducial is not None
            and not np.allclose(psf.fiducial, kernel.fiducial)):
        raise ConfigurationError("fiducial mismatch between symbol and kernel")
    w = np.asarray(psf.grid, dtype=complex)
    if kernel.conv is not None:
        c = ctx.char_matrix_c
        bracket = ((c @ w @ c).T) / (q * q)                  # [gamma, delta]
        g = bracket * kernel._wphi
        coef = c @ g                                         # coef[mu, delta]
        out = np.zeros((q, q), dtype=complex)
        out[ctx.index_table[:, None], ctx.index_table[ctx.xor_grid]] = coef
        return out
    return np.einsum("ab,abij->ij", w, kernel._table) / q


# ----------------------------------------------------------------------
# overlap relation and trace convolution
# ----------------------------------------------------------------------

@dataclass
class OverlapReport:
    """Fit of Tr[Delta^(s) Delta^(-s)'] = constant * delta_(points)."""

    n: int
    constant: complex
    max_diag_dev: float
    max_offdiag: float


def _operators(kernel: KernelSet) -> np.ndarray:
    q = kernel.ctx.order
    if kernel._table is not None:
        return kernel._table.reshape(q * q, q, q)
    return np.stack([kernel.at(a, b) for a, b in kernel.points()])


def overlap_check(kernel_a: KernelSet, kernel_b: KernelSet) -> OverlapReport:
    """Pairwise traces of a dual kernel pair; fits the diagonal constant.

    Tr[D(gamma, delta) D(gamma', delta')] is q chi(gamma delta) when the
    displacements coincide and 0 otherwise (Gibbons, Hoffman and Wootters,
    PRA 70, 062101 (2004)), so convention-backed pairs have the closed form
    Tr[Delta_a(a, b) Delta_b(a', b')] = t[b + b', a + a'] with t = C g C / q,
    C = chi(xy) and g = w_a phi_a w_b phi_b chi(gamma delta): the diagonal
    is t[0, 0] exactly.  Table-backed kernels take the explicit sum.
    """
    ctx = kernel_a.ctx
    if ctx is not kernel_b.ctx:
        raise ConfigurationError("kernels live on different fields")
    if kernel_a.conv is not None and kernel_b.conv is not None:
        c = ctx.char_matrix_c
        t = c @ (kernel_a._wphi * kernel_b._wphi * ctx.char_matrix) @ c / ctx.order
        constant = complex(t[0, 0])
        t[0, 0] = 0
        return OverlapReport(ctx.n, constant, 0.0, float(np.max(np.abs(t))))
    gram = np.einsum("iab,jba->ij", _operators(kernel_a), _operators(kernel_b))
    diag = np.diag(gram)
    constant = complex(diag.mean())
    return OverlapReport(ctx.n, constant, float(np.max(np.abs(diag - constant))),
                         float(np.max(np.abs(gram - np.diag(diag)))))


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

def wootters_kernel(ctx: FieldContext, family: MubFamily) -> KernelSet:
    """Delta^(0)(a, b) = |a~><a~| + sum_xi P^xi_(b + xi a) - I.

    P^xi_nu projects on the line state of slope xi through (a, b).  Equals
    the s = 0 kernel of the matching tomographic phase convention.
    """
    require_operator_n(ctx)
    if ctx.n > MAX_DENSE_N:
        raise ConfigurationError(f"line-projector tables are capped at n <= {MAX_DENSE_N}")
    family.validate()
    q = ctx.order
    eye = np.eye(q, dtype=complex)
    proj = {}
    for slope, states in family.bases.items():
        proj[slope] = np.stack([np.outer(s, s.conj()) for s in states])
    table = np.empty((q, q, q, q), dtype=complex)
    for a in range(q):
        mul_row = ctx.mul_table[:, a]
        for b in range(q):
            acc = proj[VERTICAL][a] - eye
            for xi in range(q):
                acc = acc + proj[xi][b ^ mul_row[xi]]
            table[a, b] = acc
    return KernelSet.from_table(ctx, 0.0, table, f"wootters[{family.scheme}]")


def line_marginal(ctx: FieldContext, psf: PhaseSpaceFunction,
                  line: LineSpec) -> complex:
    """2^-n sum of the symbol over the points of one line."""
    total = sum(psf.grid[a, b] for a, b in line.points(ctx))
    return complex(total / ctx.order)


@dataclass
class TomographicCheckResult:
    line: LineSpec
    lhs: complex
    rhs: complex

    @property
    def deviation(self) -> float:
        return abs(self.lhs - self.rhs)


def tomographic_check(kernel: KernelSet, rho: np.ndarray, line: LineSpec,
                      states: list) -> TomographicCheckResult:
    """Compare the line sum of W_rho with <psi|rho|psi> for the line state."""
    ctx = kernel.ctx
    psf = forward_map(kernel, rho)
    lhs = line_marginal(ctx, psf, line)
    psi = states[line.intercept]
    rhs = complex(psi.conj() @ np.asarray(rho, dtype=complex) @ psi)
    return TomographicCheckResult(line, lhs, rhs)
