"""Projection onto symmetric-measurement space and permutation invariance.

A permutation of qubit slots acts on a field element by permuting its
self-dual coordinates, so the joint weights

    m = h(alpha),  n = h(beta),  k = h(alpha + beta)

label exactly the orbits of phase-space points under simultaneous slot
permutations.  Symbols of symmetric operators under a permutation-invariant
convention are constant on those orbits and can be projected onto the
(m, n, k) lattice without loss (the projected value of an orbit is the sum
of the R_mnk identical grid values).

This module provides the projection, the R_mnk orbit sizes, invariance
checks for kernels and symbols, the constructive witness showing that the
line-sum (tomographic) property and permutation invariance are incompatible
for n >= 4, an exhaustive search over invariant hermitian phases for small
n, and the closed-form benchmark symbols used to cross-check the numerical
pipeline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .gf2n import FieldContext
from .kernels import KernelSet, PhaseSpaceFunction
from .mubrot import RotationCoefficients
from .pauli import I4, TomographicPhase, permutation_op


# ----------------------------------------------------------------------
# (m, n, k) lattice combinatorics
# ----------------------------------------------------------------------

def pair_counts(n: int, m: int, nn: int, k: int) -> tuple[int, int, int, int] | None:
    """Per-slot bit-pair counts (n11, n10, n01, n00), or None off support."""
    n112 = m + nn - k
    n102 = m - nn + k
    n012 = nn - m + k
    if n112 < 0 or n102 < 0 or n012 < 0 or n112 % 2 or n102 % 2 or n012 % 2:
        return None
    n11, n10, n01 = n112 // 2, n102 // 2, n012 // 2
    n00 = n - n11 - n10 - n01
    if n00 < 0:
        return None
    return n11, n10, n01, n00


def r_factor(n: int, m: int, nn: int, k: int) -> int:
    """Number of grid points (alpha, beta) with weights (m, nn, k).

    The four-factor multinomial n!/(n11! n10! n01! n00!); zero whenever the
    factorial arguments fail to be nonnegative integers.
    """
    counts = pair_counts(n, m, nn, k)
    if counts is None:
        return 0
    n11, n10, n01, n00 = counts
    return math.factorial(n) // (
        math.factorial(n11) * math.factorial(n10)
        * math.factorial(n01) * math.factorial(n00))


def valid_triples(n: int) -> list[tuple[int, int, int]]:
    """All (m, n, k) with nonzero orbit size, in lexicographic order."""
    return [t for t in itertools.product(range(n + 1), repeat=3) if r_factor(n, *t)]


@dataclass(eq=False)
class ProjectedFunction:
    """A symbol summed over (m, n, k) orbits, stored sparsely."""

    n: int
    s: float
    entries: dict
    convention: str
    convention_invariant: bool = False
    fiducial: np.ndarray | None = None
    provenance: str = ""

    def value(self, m: int, nn: int, k: int) -> complex:
        return self.entries.get((m, nn, k), 0j)

    def total(self) -> complex:
        return complex(sum(self.entries.values()))

    def support(self) -> list[tuple[int, int, int]]:
        return sorted(self.entries)

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n + 1,) * 3, dtype=complex)
        for (m, nn, k), v in self.entries.items():
            out[m, nn, k] = v
        return out


def project(ctx: FieldContext, psf: PhaseSpaceFunction) -> ProjectedFunction:
    """W~(m,n,k) = sum of W(alpha,beta) over the orbit with those weights."""
    q = ctx.order
    grid = np.asarray(psf.grid)
    if grid.shape != (q, q):
        raise ConfigurationError(f"grid must be {q}x{q} for n = {ctx.n}")
    hw = ctx.hweight_table
    m_arr = np.broadcast_to(hw[:, None], (q, q))
    n_arr = np.broadcast_to(hw[None, :], (q, q))
    k_arr = hw[ctx.xor_grid]
    entries = {}
    for m, nn, k in valid_triples(ctx.n):
        mask = (m_arr == m) & (n_arr == nn) & (k_arr == k)
        entries[(m, nn, k)] = complex(np.sum(grid[mask]))
    return ProjectedFunction(
        n=ctx.n, s=psf.s, entries=entries, convention=psf.convention,
        convention_invariant=psf.convention_invariant, fiducial=psf.fiducial,
        provenance=f"project({psf.provenance})" if psf.provenance else "project")


def symmetric_average(wtilde_rho: ProjectedFunction, wtilde_s: ProjectedFunction,
                      prefactor: complex) -> complex:
    """Tr(rho S) from two projected symbols of a dual kernel pair.

    The grid convolution sum_(alpha,beta) W_rho W_S groups into orbits where
    both factors are constant, so it equals sum_(m,n,k) W~_rho W~_S / R_mnk:
    each projected factor carries one copy of the orbit size and exactly one
    of them must be divided out.
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
    n = wtilde_rho.n
    total = 0j
    for key in wtilde_rho.entries:
        r = r_factor(n, *key)
        if r:
            total += wtilde_rho.entries[key] * wtilde_s.value(*key) / r
    return complex(prefactor * total)


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


def check_kernel_invariance(kernel: KernelSet, tol: float = 1e-12) -> InvarianceReport:
    """Test P_ij Delta(a,b) P_ij = Delta(a', b') for every transposition.

    (a', b') carries the transposed self-dual coordinates; a convention is
    usable for symmetric projection exactly when every kernel maps onto the
    kernel at the permuted point.  P_ij Z_g X_d P_ij = Z_(Tg) X_(Td) and the
    trace form is T-invariant, so for convention-backed kernels the largest
    entry of the difference over all points is max |C (wphi[T, T] - wphi)| / q,
    attained at (0, 0).  Table-backed kernels are compared point by point.
    """
    ctx = kernel.ctx
    pairs = list(itertools.combinations(range(1, ctx.n + 1), 2))
    worst, witness = 0.0, None
    for i, j in pairs:
        perm = [ctx.transpose_coords(x, i, j) for x in range(ctx.order)]
        swapped = np.ix_(perm, perm)
        if kernel.conv is not None:
            diff = kernel._wphi[swapped] - kernel._wphi
            dev, point = float(np.max(np.abs(ctx.char_matrix_c @ diff))) / ctx.order, (0, 0)
        else:
            pmat, table = permutation_op(ctx, i, j), kernel._table
            devs = np.abs(pmat @ table @ pmat - table[swapped]).max(axis=(2, 3))
            a, b = np.unravel_index(np.argmax(devs), devs.shape)
            dev, point = float(devs[a, b]), (int(a), int(b))
        if dev > worst:
            worst = dev
            if dev > tol:
                witness = (i, j, *point)
    return InvarianceReport(kernel.label, ctx.n, len(pairs), worst, witness)


def symbol_depends_only_on_h(ctx: FieldContext, psf: PhaseSpaceFunction,
                             tol: float = 1e-10):
    """Whether W(alpha, beta) is constant on (m, n, k) orbits.

    Returns (flag, witness); the witness is a pair of grid points in one
    orbit whose values differ by more than ``tol``.
    """
    q = ctx.order
    grid = np.asarray(psf.grid)
    hw = ctx.hweight_table
    buckets = {}
    for a in range(q):
        for b in range(q):
            key = (int(hw[a]), int(hw[b]), int(hw[a ^ b]))
            buckets.setdefault(key, []).append((a, b))
    for key, points in buckets.items():
        ref_a, ref_b = points[0]
        ref = grid[ref_a, ref_b]
        for a, b in points[1:]:
            if abs(grid[a, b] - ref) > tol:
                return False, ((ref_a, ref_b), (a, b))
    return True, None


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
# exhaustive search over invariant hermitian phases (small n)
# ----------------------------------------------------------------------

@dataclass
class PhaseSearchReport:
    """Outcome of enumerating permutation-invariant hermitian phases.

    Every such phase is sigma(m,n,k) * i^(n11 mod 2) with per-orbit signs
    sigma, fixed to +1 on the axes; the search tests the line-sum recurrence
    on every nonzero slope for each sign assignment.
    """

    n: int
    free_orbits: list
    assignments: int
    hits: int
    hit_signs: list = field(default_factory=list)
    includes_closed_form_p1: bool = False


def _invariant_phase_tables(ctx: FieldContext):
    """Orbit labels and the fixed i^tr(alpha beta) factor for the search."""
    q = ctx.order
    hw = ctx.hweight_table
    base_exp = ctx.trace_table[ctx.mul_table] % 4
    free = [t for t in valid_triples(ctx.n) if t[0] >= 1 and t[1] >= 1]
    orbit_id = np.full((q, q), -1, dtype=np.int64)
    lookup = {t: i for i, t in enumerate(free)}
    for a in range(q):
        for b in range(q):
            key = (int(hw[a]), int(hw[b]), int(hw[a ^ b]))
            if key in lookup:
                orbit_id[a, b] = lookup[key]
    return free, orbit_id, base_exp


def search_invariant_phases(ctx: FieldContext, max_examples: int = 4) -> PhaseSearchReport:
    """Enumerate all invariant hermitian phases; count line-compatible ones.

    Exhaustive for n <= 3 (32 and 8192 sign assignments); each candidate is
    accepted when phi(kappa, xi kappa) satisfies the rotation-coefficient
    recurrence for every nonzero slope xi, which is exactly the condition
    for every line sum of the s = 0 kernel to be a rank-1 projector.
    """
    if ctx.n > 3:
        raise ConfigurationError("exhaustive phase search is limited to n <= 3")
    free, orbit_id, base_exp = _invariant_phase_tables(ctx)
    q = ctx.order
    nfree = len(free)
    hits = 0
    hit_signs = []
    closed_form = TomographicPhase(1).exponent_table(ctx)
    found_closed_form = False
    for bits in range(1 << nfree):
        signs = np.array([(bits >> i) & 1 for i in range(nfree)], dtype=np.int64)
        exps = base_exp.copy()
        mask = orbit_id >= 0
        exps[mask] = (exps[mask] + 2 * signs[orbit_id[mask]]) % 4
        ok = True
        for xi in range(1, q):
            psi = exps[np.arange(q), ctx.mul_table[xi]]
            if not RotationCoefficients(xi, psi, "search").verify(ctx):
                ok = False
                break
        if ok:
            hits += 1
            if np.array_equal(exps, closed_form):
                found_closed_form = True
            if len(hit_signs) < max_examples:
                hit_signs.append({t: (-1 if signs[i] else 1)
                                  for i, t in enumerate(free)})
    return PhaseSearchReport(
        n=ctx.n, free_orbits=free, assignments=1 << nfree, hits=hits,
        hit_signs=hit_signs, includes_closed_form_p1=found_closed_form)


def fit_constant(reference, numeric) -> tuple[complex, float]:
    """Least-squares scale c in ``numeric ~ c * reference``.

    Returns (c, max residual); used to compare printed closed forms with
    the numerical transform without ever hardcoding their normalization.
    """
    ref = np.asarray(reference, dtype=complex).ravel()
    num = np.asarray(numeric, dtype=complex).ravel()
    if ref.shape != num.shape:
        raise ConfigurationError("fit requires same-shape arrays")
    denom = np.vdot(ref, ref)
    c = complex(np.vdot(ref, num) / denom) if abs(denom) > 0 else 0j
    return c, float(np.max(np.abs(num - c * ref)))


# ----------------------------------------------------------------------
# closed-form benchmark symbols
# ----------------------------------------------------------------------

REFERENCE_IDS = ("equatorial_w0", "ghz_w0", "wstate_w0", "ghz_q_proj",
                 "su2_element", "ghz_w0_proj")


def _ghz_w0_grid(ctx: FieldContext) -> np.ndarray:
    q = ctx.order
    n = ctx.n
    grid = np.zeros((q, q), dtype=complex)
    grid[:, 1] += 0.5
    grid[:, 0] += 0.5
    chi_a = ctx.chi_table.astype(float)
    hroot = ctx.hweight_table[ctx.sqrt_table]
    interference = np.real((1 - 1j) ** n * I4[hroot % 4]) / q
    grid += chi_a[:, None] * interference[None, :]
    return grid


def _wstate_w0_grid(ctx: FieldContext) -> np.ndarray:
    q = ctx.order
    n = ctx.n
    th = ctx.selfdual_basis
    grid = np.zeros((q, q), dtype=complex)
    for t in th:
        grid[:, t] += 1.0 / n
    coords = ctx.coords_table
    pref = (1 - 1j) ** n / (q * n)
    beta = np.arange(q)
    for p_i in range(n):
        for q_i in range(n):
            if p_i == q_i:
                continue
            denom_inv = ctx.inv(th[p_i] ^ th[q_i])
            ratio = ctx.mul_table[beta ^ th[p_i], denom_inv]
            hterm = I4[ctx.hweight_table[ctx.sqrt_table[ratio]] % 4]
            sign = 1.0 - 2.0 * ((coords[:, p_i] + coords[:, q_i]) % 2)
            grid += pref * sign[:, None] * hterm[None, :]
    return grid


def _su2_element_grid(ctx: FieldContext, euler) -> np.ndarray:
    phi, theta, psi = euler
    n = ctx.n
    tan = np.tan(theta)
    a = np.exp(1j * (phi + psi)) + 1j * np.sqrt(2) * tan * np.cos(phi - psi - np.pi / 4)
    b = np.exp(-1j * (phi + psi)) + 1j * np.sqrt(2) * tan * np.cos(phi - psi + np.pi / 4)
    c = np.exp(1j * (phi + psi)) - 1j * np.sqrt(2) * tan * np.cos(phi - psi - np.pi / 4)
    d = np.exp(-1j * (phi + psi)) - 1j * np.sqrt(2) * tan * np.cos(phi - psi + np.pi / 4)
    hw = ctx.hweight_table
    m = hw[:, None]
    nn = hw[None, :]
    k = hw[ctx.xor_grid]
    n00 = n - (m + nn + k) // 2
    n01 = (-m + nn + k) // 2
    n10 = (m - nn + k) // 2
    n11 = (m + nn - k) // 2
    return (np.cos(theta) ** n * a ** n00 * b ** n01 * c ** n10 * d ** n11)


def _ghz_q_proj_entries(n: int, zeta_abs: float) -> dict:
    z = float(zeta_abs)
    pref = z ** n / (2 * (1 + z * z) ** n)
    entries = {}
    for m, nn, k in valid_triples(n):
        r = r_factor(n, m, nn, k)
        body = (z ** (n - 2 * nn) + z ** (2 * nn - n)
                + 2 * (-1) ** m * np.cos(np.pi / 4 * (n - 2 * nn)))
        entries[(m, nn, k)] = complex(r * pref * body)
    return entries


def _ghz_w0_proj_entries(n: int, normalized: bool) -> dict:
    scale = 2.0 ** -n if normalized else 1.0
    entries = {}
    for m, nn, k in valid_triples(n):
        val = 0j
        if nn == 0 and m == k:
            val += 0.5 * math.comb(n, k)
        if nn == n and m == n - k:
            val += 0.5 * math.comb(n, m)
        interference = (r_factor(n, m, nn, k) * (-1) ** (m + nn)
                        * np.real((1 + 1j) ** n * 1j ** nn))
        val += scale * interference
        entries[(m, nn, k)] = complex(val)
    return entries


def reference_symbol(ctx: FieldContext, which: str, *, zeta_abs: float = 0.5,
                     euler=(0.0, 0.0, 0.0), normalized: bool = False):
    """Closed-form benchmark symbol, as printed or rescaled to the oracle.

    Grid symbols (PhaseSpaceFunction): ``equatorial_w0`` (spin coherent with
    zeta = 1, any hermitian convention), ``ghz_w0`` and ``wstate_w0``
    (line-compatible p = 1 convention), ``su2_element`` (factorized
    invariant convention, f = 0).  Projected symbols (ProjectedFunction):
    ``ghz_q_proj`` (s = -1, fiducial argument pi/4 implied) and
    ``ghz_w0_proj`` (factorized invariant convention).

    ``normalized`` rescales the one term known to disagree with the
    numerical transform: the ghz_w0_proj interference term, which as
    printed is 2^n times the projected value.  All other symbols are exact
    as printed, so the flag has no effect on them.
    """
    q = ctx.order
    tag = "normalized" if normalized else "as-printed"
    if which == "equatorial_w0":
        grid = np.zeros((q, q), dtype=complex)
        grid[0, :] = 1.0
        return PhaseSpaceFunction(ctx.n, 0.0, grid, "tomographic-p1", False,
                                  None, f"closed-form[equatorial_w0] {tag}")
    if which == "ghz_w0":
        return PhaseSpaceFunction(ctx.n, 0.0, _ghz_w0_grid(ctx),
                                  "tomographic-p1", False, None,
                                  f"closed-form[ghz_w0] {tag}")
    if which == "wstate_w0":
        return PhaseSpaceFunction(ctx.n, 0.0, _wstate_w0_grid(ctx),
                                  "tomographic-p1", False, None,
                                  f"closed-form[wstate_w0] {tag}")
    if which == "su2_element":
        return PhaseSpaceFunction(ctx.n, 0.0, _su2_element_grid(ctx, euler),
                                  "perminv-f0", True, None,
                                  f"closed-form[su2_element] {tag}")
    if which == "ghz_q_proj":
        entries = _ghz_q_proj_entries(ctx.n, zeta_abs)
        return ProjectedFunction(ctx.n, -1.0, entries, "perminv-f0", True,
                                 f"closed-form[ghz_q_proj] {tag} "
                                 f"zeta_abs={zeta_abs} arg=pi/4")
    if which == "ghz_w0_proj":
        entries = _ghz_w0_proj_entries(ctx.n, normalized)
        return ProjectedFunction(ctx.n, 0.0, entries, "perminv-f0", True,
                                 f"closed-form[ghz_w0_proj] {tag}")
    raise ConfigurationError(
        f"unknown reference symbol {which!r}; choose from {REFERENCE_IDS}")
