"""Projection onto symmetric-measurement space and permutation invariance.

A permutation of qubit slots acts on a field element by permuting its
self-dual coordinates, so the joint weights

    m = h(alpha),  n = h(beta),  k = h(alpha + beta)

label exactly the orbits of phase-space points under simultaneous slot
permutations.  Symbols of symmetric operators under a permutation-invariant
convention are constant on those orbits and can be projected onto the
(m, n, k) lattice without loss (the projected value of an orbit is the sum
of the R_mnk identical grid values).  The orbits themselves, their
labels and their sizes R_mnk are tables of the field context
(``FieldContext.orbit_index``, ``orbit_weights`` and ``orbit_sizes``).  A
projection is one array indexed by orbit, and ``project`` is the one path
that sums grids over orbits, one grid or a stack at a time.

This module provides the projection, the projected convolution, the
symbols of the orbit sums that span the symmetric operators, invariance
checks for kernels and symbols, the constructive witness showing that the
line-sum (tomographic) property and permutation invariance are incompatible
for n >= 4, and for small n the count of invariant hermitian phases with
that property, solved for over GF(2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConfigurationError
from .gf2n import FieldContext, field_context
from .kernels import KernelSet, PhaseSpaceFunction, SymbolMeta, coefficient_residual
from .mubrot import recurrence_residual
from .pauli import SqrtPhase, TomographicPhase


@dataclass(eq=False, kw_only=True)
class ProjectedFunction(SymbolMeta):
    """A symbol summed over (m, n, k) orbits.

    ``values`` is a complex array whose first axis runs over the orbits in
    ``ctx.orbit_weights`` order, the lexicographic (m, n, k) order the
    exporters write; any further axis runs over a stack of symbols.
    """

    values: np.ndarray

    @property
    def entries(self) -> MappingProxyType:
        """The values keyed by their (m, n, k) orbit labels; read-only."""
        keys = map(tuple, field_context(self.n).orbit_weights.tolist())
        return MappingProxyType(dict(zip(keys, self.values.tolist())))

    def total(self) -> complex:
        return complex(sum(self.values.tolist()))


def project(ctx: FieldContext, psf: PhaseSpaceFunction) -> ProjectedFunction:
    """W~(m,n,k) = sum of W(alpha,beta) over the orbit with those weights,
    for one q x q grid or every grid of a (..., q, q) stack."""
    q = ctx.order
    grid = np.asarray(psf.grid)
    if grid.shape[-2:] != (q, q):
        raise ConfigurationError(f"grid must be {q}x{q} for n = {ctx.n}")
    # each orbit's values as one contiguous run in row-major order, so every
    # sum adds the same numbers in the same order as a boolean mask would;
    # take, unlike indexing, keeps the runs of a stack contiguous too
    order, bounds = ctx.orbit_runs
    flat = grid.reshape(*grid.shape[:-2], q * q).take(order, axis=-1)
    values = np.array([flat[..., a:b].sum(axis=-1) for a, b in zip(bounds, bounds[1:])],
                      dtype=complex)
    return ProjectedFunction(
        n=ctx.n, s=psf.s, values=values, convention=psf.convention,
        convention_invariant=psf.convention_invariant, fiducial=psf.fiducial,
        provenance=f"project({psf.provenance})" if psf.provenance else "project")


def symmetric_average(wtilde_rho: ProjectedFunction, wtilde_s: ProjectedFunction,
                      prefactor: complex) -> complex | np.ndarray:
    """Tr(rho S) from two projected symbols of a dual kernel pair.

    The grid convolution sum_(alpha,beta) W_rho W_S groups into orbits where
    both factors are constant, so it equals sum_(m,n,k) W~_rho W~_S / R_mnk:
    each projected factor carries one copy of the orbit size and exactly one
    of them must be divided out.  Two orbit-indexed stacks of P and P'
    symbols give the P x P' matrix of every pair's average.
    """
    if wtilde_rho.n != wtilde_s.n:
        raise ConfigurationError("projected symbols have different qubit counts")
    if abs(wtilde_rho.s + wtilde_s.s) > 1e-12:
        raise ConfigurationError("projected convolution needs dual s values")
    if wtilde_rho.convention != wtilde_s.convention:
        raise ConfigurationError("projected convolution needs a single convention")
    if not (wtilde_rho.convention_invariant and wtilde_s.convention_invariant):
        raise ConfigurationError(
            "projection loses information for non-permutation-invariant "
            "conventions; refusing to average")
    sizes = np.diff(field_context(wtilde_rho.n).orbit_runs[1])
    total = prefactor * ((wtilde_rho.values.T / sizes) @ wtilde_s.values)
    return complex(total) if total.ndim == 0 else total


def orbit_sum_symbols(kernel: KernelSet, orbits: slice) -> PhaseSpaceFunction:
    """The symbols W_o of the orbit sums P_o = sum_((gamma, delta) in o)
    Z_gamma X_delta, for a slice of the orbits in ``ctx.orbit_weights``
    order, as one stacked symbol.

    The P_o span the operators that commute with every qubit permutation.
    Tr[Z_g X_d Delta(a, b)] = chi(a d + b g) wphi[g, d] chi(g d), so W_o is
    one character transform C (mask_o wphi chi(g d))^T C, with C = chi(xy),
    of the kernel's coefficient table.
    """
    ctx = kernel.ctx
    c = ctx.char_matrix_c
    numbers = np.arange(len(ctx.orbit_weights))[orbits]
    mask = ctx.orbit_index == numbers[:, None, None]
    coeffs = np.where(mask, kernel._wphi * ctx.char_matrix, 0).swapaxes(-1, -2)
    return kernel._psf(c @ coeffs @ c, "orbit sums")


def orbit_sum_traces(ctx: FieldContext) -> np.ndarray:
    """The Gram matrix Tr(P_o P_o') of the orbit sums: Tr[Z_g X_d Z_g' X_d']
    is q chi(g d) when (g', d') = (g, d) and 0 otherwise, so it is diagonal
    with entries q R_o chi(g d), chi(g d) being constant on each orbit."""
    order, bounds = ctx.orbit_runs
    chi = ctx.char_matrix.ravel()[order[bounds[:-1]]]
    return np.diag(ctx.order * np.diff(bounds) * chi)


# ----------------------------------------------------------------------
# invariance checks
# ----------------------------------------------------------------------

@dataclass
class InvarianceReport:
    convention: str
    n: int
    transpositions: int
    max_deviation: float
    witness: tuple | None = None

    @property
    def invariant(self) -> bool:
        return self.witness is None


def check_kernel_invariance(kernel: KernelSet) -> InvarianceReport:
    """Test P_ij Delta(a,b) P_ij = Delta(a', b') for every transposition.

    (a', b') carries the transposed self-dual coordinates; a convention is
    usable for symmetric projection exactly when every kernel maps onto the
    kernel at the permuted point.  P_ij Z_g X_d P_ij = Z_(Tg) X_(Td) and the
    trace form is T-invariant, so the largest entry of the difference over
    all points is max |C (wphi[T, T] - wphi)| / q, attained at (0, 0).
    """
    ctx = kernel.ctx
    pairs = list(itertools.combinations(range(1, ctx.n + 1), 2))
    weights = 1 << np.arange(ctx.n - 1, -1, -1)     # coordinates -> basis index
    worst, witness = 0.0, None
    for i, j in pairs:
        slots = np.arange(ctx.n)
        slots[[i - 1, j - 1]] = j - 1, i - 1
        perm = ctx.element_of_index[ctx.coords_table[:, slots] @ weights]
        swapped = np.ix_(perm, perm)
        dev = coefficient_residual(ctx, kernel._wphi[swapped] - kernel._wphi)
        dev = np.inf if np.isnan(dev) else dev      # a NaN counts as infinitely far
        if dev > worst:
            worst = dev
            if dev > 1e-12:
                witness = (i, j, 0, 0)
    return InvarianceReport(kernel.conv.name, ctx.n, len(pairs), worst, witness)


def symbol_depends_only_on_h(ctx: FieldContext, psf: PhaseSpaceFunction):
    """Whether W(alpha, beta) is constant on (m, n, k) orbits.

    ``psf.grid`` may be a (..., q, q) stack, every grid of which must pass.
    Returns (flag, witness); the witness comes from the first grid that
    fails and pairs the first point of an orbit (row-major) with a point of
    that orbit whose value differs by more than 1e-10 (a NaN differs from
    everything, itself included): the first such point of the orbit that
    starts first.
    """
    q = ctx.order
    flat = np.asarray(psf.grid).reshape(-1, q * q)
    orbit = ctx.orbit_index.ravel()
    order, bounds = ctx.orbit_runs
    first = order[bounds[:-1]]                  # first point of each orbit
    bad = ~(np.abs(flat - flat[:, first[orbit]]) <= 1e-10)   # NaN differs
    failing = np.flatnonzero(bad.any(axis=1))
    if failing.size == 0:
        return True, None
    bad = np.flatnonzero(bad[failing[0]])
    point = int(bad[np.argmin(first[orbit[bad]])])
    return False, (divmod(int(first[orbit[point]]), q), divmod(point, q))


# ----------------------------------------------------------------------
# the incompatibility witness
# ----------------------------------------------------------------------

@dataclass
class TheoremWitness:
    """Concrete sign flip showing a line-compatible phase cannot be invariant.

    With alpha = theta_p^2, beta = theta_p + theta_q and the slope
    xi = (theta_r + theta_s)^(-1), the argument chi(alpha beta xi) equals
    chi of the four-factor product [alpha][beta][beta xi][alpha xi]; the
    (r, s) transposition applied to each factor flips that sign, while any
    phase that is both line-compatible and permutation-invariant would need
    it fixed.
    """

    n: int
    p: int
    q: int
    r: int
    s: int
    alpha: int
    beta: int
    xi: int
    epsilon: int
    chi_original: int
    chi_transposed: int

    @property
    def flipped(self) -> bool:
        return self.chi_transposed == -self.chi_original


def _four_factor_chi(ctx: FieldContext, factors) -> int:
    prod = 1
    for x in factors:
        prod = ctx.mul(prod, x)
    return ctx.chi(prod)


def theorem_witness(ctx: FieldContext, p: int, q: int, r: int, s: int) -> TheoremWitness:
    """Evaluate the sign-flip construction at indices (p, q, r, s).

    Requires distinct 1-based basis indices with
    tr(theta_r theta_p^2) = tr(theta_s theta_p^2), which keeps alpha fixed
    under the (r, s) transposition.
    """
    if len({p, q, r, s}) != 4:
        raise ConfigurationError("witness indices must be distinct")
    for idx in (p, q, r, s):
        if not 1 <= idx <= ctx.n:
            raise ConfigurationError(f"basis index {idx} out of range 1..{ctx.n}")
    th = ctx.selfdual_basis
    alpha = ctx.mul(th[p - 1], th[p - 1])
    if ctx.trace(ctx.mul(th[r - 1], alpha)) != ctx.trace(ctx.mul(th[s - 1], alpha)):
        raise ConfigurationError(
            f"trace condition fails for (p,r,s)=({p},{r},{s}); pick other indices")
    beta = th[p - 1] ^ th[q - 1]
    epsilon = ctx.transposition_element(r, s)
    xi = ctx.inv(epsilon)
    factors = [alpha, beta, ctx.mul(beta, xi), ctx.mul(alpha, xi)]
    swapped = [ctx.transpose_coords(x, r, s) for x in factors]
    return TheoremWitness(
        n=ctx.n, p=p, q=q, r=r, s=s, alpha=alpha, beta=beta, xi=xi,
        epsilon=epsilon,
        chi_original=_four_factor_chi(ctx, factors),
        chi_transposed=_four_factor_chi(ctx, swapped))


def find_theorem_witness(ctx: FieldContext) -> TheoremWitness:
    """Search index 4-tuples for a valid, sign-flipping witness."""
    if ctx.n < 4:
        raise ConfigurationError("the sign-flip construction needs n >= 4")
    for p, q, r, s in itertools.permutations(range(1, ctx.n + 1), 4):
        try:
            wit = theorem_witness(ctx, p, q, r, s)
        except ConfigurationError:
            continue
        if wit.flipped:
            return wit
    raise ConfigurationError("no sign-flipping witness found")  # pragma: no cover


# ----------------------------------------------------------------------
# search over invariant hermitian phases (small n)
# ----------------------------------------------------------------------

@dataclass
class PhaseSearchReport:
    """Outcome of the search over permutation-invariant hermitian phases.

    Every such phase is sigma(m,n,k) * i^(n11 mod 2) with per-orbit signs
    sigma, fixed to +1 on the axes; the hits are the sign assignments whose
    phase satisfies the line-sum recurrence on every nonzero slope.
    """

    n: int
    free_orbits: list
    assignments: int
    hits: int
    includes_closed_form_p1: bool = False


def _invariant_phase_tables(ctx: FieldContext):
    """Orbit labels and the fixed i^tr(alpha beta) factor for the search:
    the exponents of ``SqrtPhase``, cached on ``ctx``."""
    weights = ctx.orbit_weights
    is_free = (weights[:, :2] >= 1).all(axis=1)
    free = list(map(tuple, weights[is_free].tolist()))
    orbit_id = np.where(is_free, np.cumsum(is_free) - 1, -1)[ctx.orbit_index]
    return free, orbit_id, SqrtPhase().exponent_table(ctx)


def _sign_solutions(ctx: FieldContext, base_exp, orbit_id, nfree: int) -> list[int]:
    """Every sign assignment whose phase i^(base_exp + 2 f) solves the
    recurrence on every nonzero slope, as ints in increasing order.

    Bit i of an assignment is the sign bit f of the points with
    ``orbit_id`` i; points with orbit id -1 keep f = 0.  On the line of
    slope xi, psi = base + 2 f has the residual R0 + 2 (f(kappa + alpha) +
    f(kappa) + f(alpha)) mod 4, with R0 the residual of the base alone, so
    an odd R0 leaves no solution and otherwise each (xi, kappa, alpha)
    is the GF(2) equation f(kappa + alpha) ^ f(kappa) ^ f(alpha) = R0 / 2
    on the sign bits.  The equations are eliminated and the solutions, an
    affine subspace, are listed instead of searched for.
    """
    q = ctx.order
    lines = ctx.mul_table[1:]                       # lines[xi - 1, kappa] = xi kappa
    kappa = np.arange(q)
    resid = recurrence_residual(ctx, np.arange(1, q), base_exp[kappa, lines])
    if (resid % 2).any():
        return []
    # one bitmask per equation: the sign bits it adds, the right-hand side at
    # bit nfree; Python ints, since n = 6 already has 71 free orbits
    labels = orbit_id[kappa, lines].astype(object)
    mask = np.where(labels >= 0, 1 << labels.clip(0), 0)
    rows = mask[:, ctx.xor_grid] ^ mask[:, :, None] ^ mask[:, None, :]
    rows = {row | (rhs >> 1 << nfree)
            for row, rhs in zip(rows.ravel().tolist(), resid.ravel().tolist())}
    # Gauss-Jordan elimination: pivots[p] is the one row holding bit p, its lowest
    pivots = {}
    for row in rows:
        for p, r in pivots.items():
            if row >> p & 1:
                row ^= r
        if not row:
            continue
        low = (row & -row).bit_length() - 1
        if low == nfree:                            # 0 = 1
            return []
        for p, r in pivots.items():
            if r >> low & 1:
                pivots[p] = r ^ row
        pivots[low] = row
    # the free bits set to 0 give the first solution; each free bit j adds the
    # null vector whose highest bit is j, so doubling the list over the free
    # bits in increasing order keeps it sorted
    solutions = [sum(1 << p for p, r in pivots.items() if r >> nfree & 1)]
    for j in range(nfree):
        if j not in pivots:
            null = sum(1 << p for p, r in pivots.items() if r >> j & 1) | 1 << j
            solutions += [x ^ null for x in solutions]
    return solutions


def search_invariant_phases(ctx: FieldContext) -> PhaseSearchReport:
    """Count the invariant hermitian phases that satisfy every line recurrence.

    Exact for n <= 3 (32 and 8192 sign assignments): a candidate counts
    when phi(kappa, xi kappa) satisfies the rotation-coefficient recurrence
    for every nonzero slope xi, which is exactly the condition for every
    line sum of the s = 0 kernel to be a rank-1 projector.  Because tr(xy)
    is GF(2)-bilinear, that condition is affine in the orbit signs, so the
    hits are solved for by elimination over GF(2) (``_sign_solutions``)
    rather than enumerated; the report counts them.
    """
    if ctx.n > 3:
        raise ConfigurationError("exhaustive phase search is limited to n <= 3")
    free, orbit_id, base_exp = _invariant_phase_tables(ctx)
    nfree = len(free)
    hits = _sign_solutions(ctx, base_exp, orbit_id, nfree)
    # the fixed orbits (id -1) read bit nfree, which is 0 in every hit
    shift = np.where(orbit_id >= 0, orbit_id, nfree)
    closed_form = TomographicPhase(1).exponent_table(ctx)
    found = any(np.array_equal((base_exp + 2 * ((bits >> shift) & 1)) % 4, closed_form)
                for bits in hits)
    return PhaseSearchReport(
        n=ctx.n, free_orbits=free, assignments=1 << nfree, hits=len(hits),
        includes_closed_form_p1=found)
