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

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_1Q = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

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
    q1 = np.array([1.0, zeta], dtype=complex) / math.sqrt(1.0 + abs(zeta) ** 2)
    vec = q1
    for _ in range(ctx.n - 1):
        vec = np.kron(vec, q1)
    return vec


# ----------------------------------------------------------------------
# Pauli monomials
# ----------------------------------------------------------------------

def build_Z(ctx: FieldContext, alpha: int) -> np.ndarray:
    """Z_alpha = sum_kappa chi(alpha kappa) |kappa><kappa|."""
    require_operator_n(ctx)
    diag = np.empty(ctx.order, dtype=complex)
    diag[ctx.index_table] = ctx.chi_table[ctx.mul_table[alpha]]
    return np.diag(diag)


def build_X(ctx: FieldContext, beta: int) -> np.ndarray:
    """X_beta |kappa> = |kappa + beta>."""
    require_operator_n(ctx)
    q = ctx.order
    mat = np.zeros((q, q), dtype=complex)
    k = np.arange(q)
    mat[ctx.index_table[k ^ beta], ctx.index_table[k]] = 1.0
    return mat


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

    def __init__(self):
        self._table_cache: dict[tuple, np.ndarray] = {}

    def _exponent_table(self, ctx: FieldContext) -> np.ndarray:
        raise NotImplementedError

    def exponent_table(self, ctx: FieldContext) -> np.ndarray:
        # keyed on what the table depends on: ids of collected contexts get reused
        key = (ctx.n, ctx.poly, ctx.selfdual_basis)
        if key not in self._table_cache:
            tab = self._exponent_table(ctx) % 4
            if (tab[0, :] % 4).any() or (tab[:, 0] % 4).any():
                raise ConfigurationError(
                    f"{self.name}: phi must be 1 on the axes gamma=0 and delta=0")
            self._table_cache[key] = tab
        return self._table_cache[key]

    def value_table(self, ctx: FieldContext) -> np.ndarray:
        return I4[self.exponent_table(ctx)]

    def exponent(self, ctx: FieldContext, gamma: int, delta: int) -> int:
        return int(self.exponent_table(ctx)[gamma, delta])

    def value(self, ctx: FieldContext, gamma: int, delta: int) -> complex:
        return complex(I4[self.exponent(ctx, gamma, delta)])

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class TomographicPhase(PhaseConvention):
    """phi = (-i)^h((gamma delta)^(p/2)) for p in {1, 2, 4, ..., 2^(n-1)}.

    These are the closed-form solutions of the tomographic phase relation;
    p = 1 uses the field square root of gamma*delta.
    """

    def __init__(self, p: int = 1):
        super().__init__()
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
    """phi = sign * sqrt(chi(gamma delta)), principal root i^tr(gamma delta).

    ``signs`` may be None (all +1) or a map from weight triples
    (h(gamma), h(delta), h(gamma+delta)) to +-1; keying signs on weight
    triples keeps the convention permutation invariant.
    """

    permutation_invariant = True
    name = "perminv-sqrt"

    def __init__(self, signs: dict | None = None):
        super().__init__()
        self.signs = dict(signs) if signs else None
        if self.signs:
            self.name = "perminv-sqrt[custom]"

    def _exponent_table(self, ctx):
        tr = ctx.trace_table[ctx.mul_table]
        exps = tr.copy()
        if self.signs:
            hw = ctx.hweight_table
            q = ctx.order
            m = np.broadcast_to(hw[:, None], (q, q))
            nn = np.broadcast_to(hw[None, :], (q, q))
            kk = hw[ctx.xor_grid]
            for (wm, wn, wk), sgn in self.signs.items():
                if sgn not in (1, -1):
                    raise ConfigurationError("signs must be +-1")
                if sgn == -1:
                    if wm == 0 or wn == 0:
                        raise ConfigurationError(
                            "signs on the axes gamma=0 / delta=0 must stay +1")
                    exps = np.where((m == wm) & (nn == wn) & (kk == wk),
                                    exps + 2, exps)
        return exps


class FactorizedPhase(PhaseConvention):
    """phi = (-1)^f i^((h(gamma)+h(delta)-h(gamma+delta))/2).

    f is a per-qubit bit function summed over qubits.  Requiring phi = 1
    on both axes forces f(0,0) = f(0,1) = f(1,0) = 0, so the single free
    bit is f(1,1); the same table is used on every qubit, which makes the
    convention permutation invariant and the kernel a tensor product.
    """

    permutation_invariant = True

    def __init__(self, f11: int = 0, table=None):
        super().__init__()
        if table is not None:
            tab = [[int(b) for b in row] for row in table]
            if tab[0][0] or tab[0][1] or tab[1][0]:
                raise ConfigurationError(
                    "factorized f must vanish on (0,0), (0,1), (1,0) "
                    "or phi breaks on the axes")
            f11 = tab[1][1]
        if f11 not in (0, 1):
            raise ConfigurationError("f(1,1) must be a bit")
        self.f11 = f11
        self.name = f"perminv-f{f11}"

    def _exponent_table(self, ctx):
        hw = ctx.hweight_table
        n11 = (hw[:, None] + hw[None, :] - hw[ctx.xor_grid]) // 2
        return (1 + 2 * self.f11) * n11


class GraphPhase(PhaseConvention):
    """phi(tau, upsilon) = (sign*i)^(tau^T Gamma(xi) tau), xi = upsilon/tau.

    Gamma(xi)_pq = tr(xi theta_p theta_q); the quadratic form is evaluated
    as a plain integer mod 4 with 0/1 coordinates.  phi(0, upsilon) = 1.
    """

    def __init__(self, sign: int = 1):
        super().__init__()
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
        return TomographicPhase(int(name.removeprefix("tomographic-p")))
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


def phase_value(conv: PhaseConvention, ctx: FieldContext,
                gamma: int, delta: int) -> complex:
    return conv.value(ctx, gamma, delta)


# ----------------------------------------------------------------------
# displacements and fiducials
# ----------------------------------------------------------------------

def displacement(ctx: FieldContext, conv: PhaseConvention,
                 gamma: int, delta: int) -> np.ndarray:
    """D(gamma, delta) = phi(gamma, delta) Z_gamma X_delta."""
    require_operator_n(ctx)
    q = ctx.order
    k = np.arange(q)
    rows = ctx.index_table[k ^ delta]
    vals = conv.value(ctx, gamma, delta) * ctx.chi_table[ctx.mul_table[gamma, k ^ delta]]
    mat = np.zeros((q, q), dtype=complex)
    mat[rows, ctx.index_table[k]] = vals
    return mat


def displacement_overlaps(ctx: FieldContext, conv: PhaseConvention,
                          ket: np.ndarray) -> np.ndarray:
    """Table M[gamma, delta] = <ket| D(gamma, delta) |ket> for all points."""
    require_operator_n(ctx)
    amp = np.asarray(ket, dtype=complex)[ctx.index_table]      # field order
    u = amp[ctx.xor_grid] * np.conj(amp)[None, :]              # u[d, mu]
    corr = ctx.char_matrix_c @ u.T                             # sum_mu chi(g mu) u[d, mu]
    return conv.value_table(ctx) * corr


@dataclass
class FiducialReport:
    ok: bool
    min_abs: float
    violations: list = field(default_factory=list)


def check_fiducial(ctx: FieldContext, conv: PhaseConvention, ket: np.ndarray,
                   tol: float = 1e-10) -> FiducialReport:
    """All 4^n displacement overlaps must be nonzero for s = +-1 kernels."""
    table = displacement_overlaps(ctx, conv, ket)
    mags = np.abs(table)
    bad = np.argwhere(mags <= tol)
    return FiducialReport(
        ok=bad.size == 0,
        min_abs=float(mags.min()),
        violations=[(int(g), int(d)) for g, d in bad[:16]],
    )


# ----------------------------------------------------------------------
# permutations and collective operators
# ----------------------------------------------------------------------

MAX_SYMMETRIZE_N = 5


def permutation_matrix(ctx: FieldContext, perm) -> np.ndarray:
    """Unitary relabelling qubits: output slot i holds former slot perm[i-1]."""
    require_operator_n(ctx)
    n, q = ctx.n, ctx.order
    perm = tuple(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must rearrange 1..{n}, got {perm}")
    src = np.arange(q)
    dst = np.zeros(q, dtype=np.int64)
    for out_slot, in_slot in enumerate(perm, start=1):
        bit = (src >> (n - in_slot)) & 1
        dst |= bit << (n - out_slot)
    mat = np.zeros((q, q), dtype=complex)
    mat[dst, src] = 1.0
    return mat


def permutation_op(ctx: FieldContext, i: int, j: int) -> np.ndarray:
    """Transposition of qubits i and j (1-based)."""
    if i == j or not (1 <= i <= ctx.n and 1 <= j <= ctx.n):
        raise ValueError(f"need distinct qubit labels in 1..{ctx.n}")
    perm = list(range(1, ctx.n + 1))
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    return permutation_matrix(ctx, perm)


def symmetrize(ctx: FieldContext, op: np.ndarray) -> np.ndarray:
    """Average of P op P^dag over all n! qubit permutations."""
    if ctx.n > MAX_SYMMETRIZE_N:
        raise ConfigurationError(
            f"symmetrize is capped at n <= {MAX_SYMMETRIZE_N}, got n = {ctx.n}")
    acc = np.zeros_like(np.asarray(op, dtype=complex))
    count = 0
    for perm in permutations(range(1, ctx.n + 1)):
        p = permutation_matrix(ctx, perm)
        acc += p @ op @ p.conj().T
        count += 1
    return acc / count


def collective_spin(ctx: FieldContext, axis: str) -> np.ndarray:
    """S_axis = sum_i sigma_axis^(i)."""
    require_operator_n(ctx)
    sigma = PAULI_1Q[axis]
    total = np.zeros((ctx.order, ctx.order), dtype=complex)
    for i in range(ctx.n):
        ops = [np.eye(2, dtype=complex)] * ctx.n
        ops[i] = sigma
        term = ops[0]
        for o in ops[1:]:
            term = np.kron(term, o)
        total += term
    return total


def su2_group_element(ctx: FieldContext, phi: float, theta: float,
                      psi: float) -> np.ndarray:
    """exp(i phi S_z) exp(i theta S_x) exp(i psi S_z).

    The collective rotation factorizes over qubits, so this is a tensor
    power of a single-qubit element.
    """
    require_operator_n(ctx)
    eye = np.eye(2, dtype=complex)
    g1 = ((math.cos(phi) * eye + 1j * math.sin(phi) * SIGMA_Z)
          @ (math.cos(theta) * eye + 1j * math.sin(theta) * SIGMA_X)
          @ (math.cos(psi) * eye + 1j * math.sin(psi) * SIGMA_Z))
    g = g1
    for _ in range(ctx.n - 1):
        g = np.kron(g, g1)
    return g
