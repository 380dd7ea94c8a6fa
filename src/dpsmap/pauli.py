"""N-qubit operators labelled by GF(2^n): Pauli monomials, phased
displacements, coherent fiducials and qubit-permutation machinery.

The Hilbert space is the n-qubit space with logical states |kappa> for
kappa in GF(2^n); the amplitude-vector position of |kappa> is the integer
whose bits are the self-dual coordinates of kappa (first basis element =
most significant bit), so tensor products and field-indexed sums can be
mixed freely through ``FieldContext.index_table``.

Displacement operators are D(gamma, delta) = phi(gamma, delta) Z_gamma
X_delta with a pluggable phase convention phi.  All built-in conventions
take values in the fourth roots of unity and expose exact integer
exponents (phi = i^e), which keeps recurrence checks exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import ConfigurationError
from .gf2n import FieldContext

#: operators are dense 2^n x 2^n arrays; larger n is rejected
MAX_OPERATOR_N = 6

#: fourth roots of unity, indexed by exponent of i
I4 = np.array([1, 1j, -1, -1j], dtype=complex)

DEFAULT_FIDUCIAL_ZETA = 0.5 * np.exp(1j * np.pi / 4)


def require_operator_n(ctx: FieldContext):
    if ctx.n > MAX_OPERATOR_N:
        raise ConfigurationError(
            f"dense operators are capped at n <= {MAX_OPERATOR_N}, got n = {ctx.n}")


# ----------------------------------------------------------------------
# states
# ----------------------------------------------------------------------

def logical_state(ctx: FieldContext, kappa: int) -> np.ndarray:
    """|kappa>, the computational state with bits = self-dual coords."""
    require_operator_n(ctx)
    vec = np.zeros(ctx.order, dtype=complex)
    vec[ctx.basis_index(kappa)] = 1.0
    return vec


def ghz_state(ctx: FieldContext) -> np.ndarray:
    """(|0> + |1>)/sqrt(2); the field unit has all-ones coordinates."""
    return (logical_state(ctx, 0) + logical_state(ctx, 1)) / math.sqrt(2)


def w_state(ctx: FieldContext) -> np.ndarray:
    """Uniform superposition of the basis elements |theta_i>."""
    vec = np.zeros(ctx.order, dtype=complex)
    for th in ctx.selfdual_basis:
        vec += logical_state(ctx, th)
    return vec / math.sqrt(ctx.n)


def spin_coherent(ctx: FieldContext, zeta: complex) -> np.ndarray:
    """Product state [(|0> + zeta|1>)/sqrt(1+|zeta|^2)]^(tensor n)."""
    require_operator_n(ctx)
    try:
        norm = math.sqrt(1.0 + abs(zeta) ** 2)
    except OverflowError:
        raise ConfigurationError(
            f"coherent-state parameter {zeta} is too large to normalize") from None
    q1 = np.array([1.0, zeta], dtype=complex) / norm
    vec = q1
    for _ in range(ctx.n - 1):
        vec = np.multiply.outer(vec, q1).ravel()
    return vec


# ----------------------------------------------------------------------
# Pauli monomials
# ----------------------------------------------------------------------

def _monomials(ctx: FieldContext, gamma, delta, conv=None) -> np.ndarray:
    """Z_gamma X_delta, times phi(gamma, delta) when a convention is given.

    Column kappa holds one entry, chi(gamma (kappa + delta)) in row
    kappa + delta.  Ints give one q x q operator, index arrays a stack over
    their broadcast shape.
    """
    require_operator_n(ctx)
    zero = np.zeros(np.broadcast(gamma, delta).shape, dtype=bool)  # broadcast_arrays, 3x faster
    gamma, delta = zero + gamma, zero + delta
    q = ctx.order
    k = np.arange(q)
    g, d = gamma.reshape(-1, 1), delta.reshape(-1, 1)
    moved = k ^ d                                            # (P, q)
    vals = ctx.chi_table[ctx.mul_table[g, moved]]
    if conv is not None:
        vals = I4[conv.exponent_table(ctx)[g, d]] * vals
    out = np.zeros((len(moved), q, q), dtype=complex)
    out[np.arange(len(moved))[:, None], ctx.index_table[moved], ctx.index_table[k]] = vals
    return out.reshape(gamma.shape + (q, q))


def build_Z(ctx: FieldContext, alpha) -> np.ndarray:
    """Z_alpha = sum_kappa chi(alpha kappa) |kappa><kappa|; a stack for an
    index array."""
    return _monomials(ctx, alpha, 0)


def build_X(ctx: FieldContext, beta) -> np.ndarray:
    """X_beta |kappa> = |kappa + beta>; a stack for an index array."""
    return _monomials(ctx, 0, beta)


def monomial_traces(ctx: FieldContext, op: np.ndarray) -> np.ndarray:
    """Table t[gamma, delta] = sum_mu chi(gamma mu) <mu + delta| op |mu>
    = Tr[op Z_gamma X_delta]; a (..., q, q) stack of operators gives a
    stack of tables."""
    t = op[..., ctx.index_table[ctx.xor_grid], ctx.index_table]  # [delta, mu]
    return (t @ ctx.char_matrix_c).swapaxes(-1, -2)


def from_monomials(ctx: FieldContext, coeffs: np.ndarray) -> np.ndarray:
    """The operator sum_(gamma, delta) coeffs[gamma, delta] Z_gamma X_delta,
    or a (..., q, q) stack of them for a stack of tables."""
    t = ctx.char_matrix_c @ coeffs                           # [mu, delta]
    out = np.zeros(t.shape, complex)
    # Z_gamma X_delta |mu + delta> = chi(gamma mu) |mu>
    out[..., ctx.index_table[:, None], ctx.index_table[ctx.xor_grid]] = t
    return out


# ----------------------------------------------------------------------
# phase conventions
# ----------------------------------------------------------------------

class PhaseConvention:
    """Phase rule phi(gamma, delta) for D = phi Z_gamma X_delta.

    Subclasses provide integer exponents e with phi = i^e, so phases are
    exact fourth roots of unity.  ``hermitian`` marks conventions obeying
    phi^2 = chi(gamma delta), which makes every displacement Hermitian;
    ``permutation_invariant`` marks phi constant on the orbits of
    simultaneous coordinate transpositions.
    """

    name = "base"
    hermitian = True
    permutation_invariant = False

    def _exponent_table(self, ctx: FieldContext) -> np.ndarray:
        raise NotImplementedError

    def exponent_table(self, ctx: FieldContext) -> np.ndarray:
        """Read-only q x q exponents, shared by equal conventions on ctx."""
        # every parameter of a convention is spelled out in its name
        cache, key = ctx.phase_tables, (type(self), self.name)
        if key not in cache:
            tab = self._exponent_table(ctx) % 4
            if tab[0, :].any() or tab[:, 0].any():
                raise ConfigurationError(
                    f"{self.name}: phi must be 1 on the axes gamma=0 and delta=0")
            tab.flags.writeable = False
            cache[key] = tab
        return cache[key]

    def value_table(self, ctx: FieldContext) -> np.ndarray:
        return I4[self.exponent_table(ctx)]

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class TomographicPhase(PhaseConvention):
    """phi = (-i)^h((gamma delta)^(p/2)) for p in {1, 2, 4, ..., 2^(n-1)}.

    These are the closed-form solutions of the tomographic phase relation;
    p = 1 uses the field square root of gamma*delta.
    """

    def __init__(self, p: int = 1):
        if p < 1 or p & (p - 1):
            raise ConfigurationError(f"p must be a power of two, got {p}")
        self.p = p
        self.name = f"tomographic-p{p}"

    def _exponent_table(self, ctx):
        if self.p > 1 << (ctx.n - 1):
            raise ConfigurationError(
                f"p = {self.p} out of range for n = {ctx.n} (max {1 << (ctx.n - 1)})")
        prod = ctx.mul_table
        # (gamma delta)^(p/2): p = 2^j uses j-1 Frobenius squarings,
        # p = 1 uses the inverse Frobenius (square root)
        if self.p == 1:
            y = ctx.sqrt_table[prod]
        else:
            y = prod
            for _ in range(self.p.bit_length() - 2):
                y = ctx.mul_table[y, y]
        return 3 * ctx.hweight_table[y]


class SqrtPhase(PhaseConvention):
    """phi = i^tr(gamma delta), the principal root of chi(gamma delta); tr is
    a dot product of self-dual coordinates, so phi is permutation invariant."""

    permutation_invariant = True
    name = "perminv-sqrt"

    def _exponent_table(self, ctx):
        return ctx.trace_table[ctx.mul_table]


class FactorizedPhase(PhaseConvention):
    """phi = (-1)^f i^((h(gamma)+h(delta)-h(gamma+delta))/2).

    f is a per-qubit bit function summed over qubits.  Requiring phi = 1
    on both axes forces f(0,0) = f(0,1) = f(1,0) = 0, so the single free
    bit is f(1,1); the same table is used on every qubit, which makes the
    convention permutation invariant and the kernel a tensor product.
    """

    permutation_invariant = True

    def __init__(self, f11: int = 0):
        if f11 not in (0, 1):
            raise ConfigurationError("f(1,1) must be a bit")
        self.f11 = f11
        self.name = f"perminv-f{f11}"

    def _exponent_table(self, ctx):
        m, nn, k = ctx.orbit_weights.T
        n11 = (m + nn - k) // 2
        return ((1 + 2 * self.f11) * n11)[ctx.orbit_index]


class GraphPhase(PhaseConvention):
    """phi(tau, upsilon) = (sign*i)^(tau^T Gamma(xi) tau), xi = upsilon/tau.

    Gamma(xi)_pq = tr(xi theta_p theta_q); the quadratic form is evaluated
    as a plain integer mod 4 with 0/1 coordinates.  phi(0, upsilon) = 1.
    """

    def __init__(self, sign: int = 1):
        if sign not in (1, -1):
            raise ConfigurationError("sign must be +1 or -1")
        self.sign = sign
        self.name = "graph-plus" if sign == 1 else "graph-minus"

    def _exponent_table(self, ctx):
        q, n = ctx.order, ctx.n
        theta = np.array(ctx.selfdual_basis, dtype=np.int64)
        thprod = ctx.mul_table[np.ix_(theta, theta)]           # (n, n)
        tau = np.arange(1, q, dtype=np.int64)
        xi = ctx.mul_table[ctx.inv_table[tau][:, None], np.arange(q)]  # (q-1, q)
        gamma_pq = ctx.trace_table[ctx.mul_table[xi[:, :, None, None], thprod]]
        coords = ctx.coords_table[tau]                          # (q-1, n)
        quad = np.einsum("tp,tdpq,tq->td", coords, gamma_pq, coords)
        exps = np.zeros((q, q), dtype=np.int64)
        exps[1:, :] = self.sign * quad
        return exps


class PlainPhase(PhaseConvention):
    """phi = 1 everywhere; displacements are generally not Hermitian."""

    name = "plain"
    hermitian = False
    permutation_invariant = True

    def _exponent_table(self, ctx):
        return np.zeros((ctx.order, ctx.order), dtype=np.int64)


def convention_from_name(name: str) -> PhaseConvention:
    """Resolve CLI-facing convention labels."""
    if name.startswith("tomographic-p"):
        try:
            p = int(name.removeprefix("tomographic-p"))
        except ValueError:
            p = None
        if p is not None and name == f"tomographic-p{p}":     # not "p01", "p+4" or "p 1"
            return TomographicPhase(p)
    if name == "perminv-sqrt":
        return SqrtPhase()
    if name in ("perminv-f0", "perminv-f1"):
        return FactorizedPhase(int(name[-1]))
    if name == "graph-plus":
        return GraphPhase(1)
    if name == "graph-minus":
        return GraphPhase(-1)
    if name == "plain":
        return PlainPhase()
    raise ConfigurationError(f"unknown phase convention {name!r}")


# ----------------------------------------------------------------------
# displacements and fiducials
# ----------------------------------------------------------------------

def displacement(ctx: FieldContext, conv: PhaseConvention, gamma, delta) -> np.ndarray:
    """D(gamma, delta) = phi(gamma, delta) Z_gamma X_delta; a stack over
    the broadcast shape of index arrays."""
    return _monomials(ctx, gamma, delta, conv)


def displacement_overlaps(ctx: FieldContext, conv: PhaseConvention,
                          ket: np.ndarray) -> np.ndarray:
    """Table M[gamma, delta] = <ket| D(gamma, delta) |ket> for all points."""
    require_operator_n(ctx)
    ket = np.asarray(ket, dtype=complex)
    return conv.value_table(ctx) * monomial_traces(ctx, ket[:, None] * ket.conj())


@dataclass
class FiducialReport:
    ok: bool
    min_abs: float
    violations: list = field(default_factory=list)
    #: the checked table M[gamma, delta] = <ket| D(gamma, delta) |ket>
    overlaps: np.ndarray | None = field(default=None, repr=False, compare=False)


def check_fiducial(ctx: FieldContext, conv: PhaseConvention,
                   ket: np.ndarray) -> FiducialReport:
    """All 4^n displacement overlaps must be finite and above 1e-10 in
    magnitude for s = +-1 kernels; the report keeps the table."""
    table = displacement_overlaps(ctx, conv, ket)
    mags = np.abs(table)
    bad = np.argwhere(~(mags > 1e-10) | np.isinf(mags))
    return FiducialReport(
        ok=bad.size == 0,
        min_abs=float(mags.min()),
        violations=[(int(g), int(d)) for g, d in bad[:16]],
        overlaps=table,
    )


# ----------------------------------------------------------------------
# qubit permutations
# ----------------------------------------------------------------------

MAX_SYMMETRIZE_N = 5


def permutation_op(ctx: FieldContext, i: int, j: int) -> np.ndarray:
    """Transposition of qubits i and j (1-based): |x> -> |T x>, with T the
    field table ``ctx.transposition(i, j)``."""
    perm = ctx.transposition(i, j)
    require_operator_n(ctx)
    mat = np.zeros((ctx.order, ctx.order), dtype=complex)
    mat[ctx.index_table[perm], ctx.index_table] = 1
    return mat


def symmetrize(ctx: FieldContext, op: np.ndarray) -> np.ndarray:
    """Average of P op P^dag over all n! qubit permutations, for one q x q
    operator or a (..., q, q) stack."""
    n, q = ctx.n, ctx.order
    if n > MAX_SYMMETRIZE_N:
        raise ConfigurationError(
            f"symmetrize is capped at n <= {MAX_SYMMETRIZE_N}, got n = {n}")
    op = np.asarray(op, dtype=complex)
    if op.shape[-2:] != (q, q):
        raise ConfigurationError(
            f"symmetrize needs {q}x{q} operators for n = {n}, got shape {op.shape}")
    # qubit slot i is row axis i-1 and column axis n+i-1 of each operator
    # (slot 1 is the most significant bit), so P op P^dag is a transpose of
    # those axes
    b = op.ndim - 2
    tensor = op.reshape(op.shape[:-2] + (2,) * (2 * n))
    acc = np.zeros_like(op)
    for perm in permutations(range(n)):
        axes = (*range(b), *(b + p for p in perm), *(b + n + p for p in perm))
        acc += tensor.transpose(axes).reshape(op.shape)
    return acc / math.factorial(n)
