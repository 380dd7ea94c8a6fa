"""Reference implementations the tests compare the library with.

None of these is reachable from the ``dpsmap`` command line, so they live
here rather than in the package:

* the paper's closed-form symbols (``reference_symbol``) and the
  least-squares scale fit used to compare them with the numerical pipeline;
* the collective spin operators and the SU(2) group element whose symbol
  one of those closed forms gives;
* the closed form of the orbit sizes R_mnk (``r_factor``), the oracle of
  ``FieldContext.orbit_sizes``, with the pair counts it is built from;
* the per-line oracles of ``FieldContext.line_points``, ``MubFamily.states``
  and ``kernels.tomographic_check``: the lines one at a time, each labelled
  by a ``LineSpec`` (the package knows a line only as its row), their
  points, their states (each slope's rotation built on its own, against
  the stacks of ``build_V``) and the line sums of a symbol;
* the line-projector kernel one point at a time, the full (q, q, q, q)
  table: its origin kernel is ``kernels.wootters_kernel``, and every point
  is compared with ``KernelSet.at``;
* schoolbook carry-less multiplication, and the product table built from
  it one bit of b at a time, the oracles of the field tables; trial
  division in GF(2)[x], which pins that every tabled modulus is
  irreducible; and the depth-first search for the first self-dual basis,
  which pins ``gf2n.SELFDUAL_BASES``;
* the fiducial overlaps <ket| D(gamma, delta) |ket> summed from the
  amplitudes in field order, the oracle of ``pauli.displacement_overlaps``;
* the swap of two self-dual coordinates through ``to_coords`` and
  ``from_coords``, the oracle of ``FieldContext.transposition``, and the
  qubit permutation matrix built by shifting index bits, the oracle of
  ``pauli.permutation_op`` and ``pauli.symmetrize``;
* the field, pauli and mub suites' checks over every input at small n:
  the product's associativity and distributivity over all q^3 triples,
  unitarity and Z_a X_b = chi(ab) X_b Z_a over all 4^n dense pairs, and
  [V_xi, X_nu] = 0, V_xi^2 = X_sqrt(xi) and unbiasedness over every slope,
  every nu and every pair of bases, the oracles of the checks that go
  through the generators or through X-covariance;
* the per-key comparison of two projections, the oracle of
  ``serialize.diff_projected``;
* the per-value ``complex(re, im)`` reading of a symbol record's grid,
  entries and fiducial, the oracle of ``serialize.load_symbol``;
* the argparse parser the command line used before its option table.

Tests import them with ``from oracles import ...``; pytest puts ``tests/``
on ``sys.path`` because the directory has no ``__init__.py``.
"""

from __future__ import annotations

import argparse
import itertools
import math
from dataclasses import dataclass

import numpy as np

from dpsmap import (ConfigurationError, FieldContext, DiffReport,
                    PhaseSpaceFunction, ProjectedFunction, cli,
                    convention_from_name, dual_basis_matrix, logical_state,
                    mub_family, pauli, suites)
from dpsmap._version import __version__
from dpsmap.mubrot import SCHEMES, recurrence_holds
from dpsmap.pauli import I4, require_operator_n

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_1Q = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


# ----------------------------------------------------------------------
# field arithmetic
# ----------------------------------------------------------------------

def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) product of two polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def mul_table_by_bits(n: int, poly: int) -> np.ndarray:
    """The q x q product table of GF(2^n) modulo ``poly``, int64: the
    carry-less product summed one bit of b at a time, then reduced one high
    bit at a time, each pass over the whole table."""
    q = 1 << n
    a = np.arange(q, dtype=np.int64)[:, None]
    b = np.arange(q, dtype=np.int64)[None, :]
    prod = np.zeros((q, q), dtype=np.int64)
    for i in range(n):
        prod ^= np.where((b >> i) & 1 == 1, a << i, 0)
    for j in range(2 * n - 2, n - 1, -1):
        prod ^= np.where((prod >> j) & 1 == 1, poly << (j - n), 0)
    return prod


def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mod(p: int, mod: int) -> int:
    """Remainder of p modulo mod in GF(2)[x]."""
    dm = poly_degree(mod)
    while poly_degree(p) >= dm and p:
        p ^= mod << (poly_degree(p) - dm)
    return p


def is_irreducible(poly: int) -> bool:
    """Trial division over GF(2)[x]; fine for the degrees the package tables."""
    deg = poly_degree(poly)
    if deg < 1:
        return False
    if not poly & 1:
        return poly == 0b10  # x itself is the only irreducible multiple of x
    for d in range(1, deg // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if poly_mod(poly, q) == 0:
                return False
    return True


def first_selfdual_basis(ctx: FieldContext) -> tuple[int, ...]:
    """The first ascending tuple of elements with Gram matrix I, found by
    depth-first search in increasing element order; the oracle of
    ``gf2n.SELFDUAL_BASES``.  Requiring the tuple to be ascending loses
    nothing, since a self-dual set stays self-dual under reordering."""
    n = ctx.n
    tr, mul = ctx.trace_table, ctx.mul_table
    elems = np.arange(ctx.order)
    diag_ok = tr[mul[elems, elems]] == 1
    basis: list[int] = []

    def extend(lo: int) -> bool:
        if len(basis) == n:
            return True
        ok = diag_ok.copy()
        ok[:lo] = False
        for th in basis:
            ok &= tr[mul[th]] == 0
        for x in np.flatnonzero(ok):
            basis.append(int(x))
            if extend(int(x) + 1):
                return True
            basis.pop()
        return False

    extend(1)
    return tuple(basis)


def field_axioms_by_triples(ctx: FieldContext) -> dict:
    """check name -> verdict over every triple (x, y, z) of ``ctx.mul_table``:
    (xy)z = x(yz), and x(y + z) = xy + xz."""
    mt = ctx.mul_table
    a = np.arange(ctx.order)
    return {"multiplication associative": np.array_equal(
                mt[mt[a][:, :, None], a[None, None, :]], mt[a[:, None, None], mt[a][None, :, :]]),
            "multiplication distributes over xor": np.array_equal(
                mt[:, ctx.xor_grid], mt[:, :, None] ^ mt[:, None, :])}


def displacement_overlaps_in_field_order(ctx: FieldContext, conv, ket) -> np.ndarray:
    """``pauli.displacement_overlaps`` from the amplitudes in field order:
    u[d, mu] = <mu + d|ket> <ket|mu>, then phi[g, d] sum_mu chi(g mu) u[d, mu]
    as the product C u^T with C = chi(xy)."""
    amp = np.asarray(ket, dtype=complex)[ctx.index_table]
    u = amp[ctx.xor_grid] * np.conj(amp)[None, :]
    return conv.value_table(ctx) * (ctx.char_matrix_c @ u.T)


def swap_coords(ctx: FieldContext, x: int, i: int, j: int) -> int:
    """x with its self-dual coordinates i and j (1-based) swapped, through
    ``to_coords`` and ``from_coords``: the oracle of
    ``FieldContext.transposition``."""
    c = list(ctx.to_coords(x))
    c[i - 1], c[j - 1] = c[j - 1], c[i - 1]
    return ctx.from_coords(c)


def permutation_matrix(ctx: FieldContext, perm) -> np.ndarray:
    """Unitary relabelling qubits: output slot i holds former slot perm[i-1],
    built by shifting the bits of each basis index."""
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


def pauli_relations_by_pairs(ctx: FieldContext) -> dict:
    """check name -> verdict over every pair (a, b), on the dense operators of
    ``pauli.build_Z`` and ``pauli.build_X``: Z_a and X_b unitary, and
    Z_a X_b = chi(ab) X_b Z_a, each to within ``suites.TOL``."""
    q = ctx.order
    eye = np.eye(q)
    g, d = np.divmod(np.arange(q * q), q)
    z, x = pauli.build_Z(ctx, g), pauli.build_X(ctx, d)
    unit = max(np.abs(ops @ ops.conj().swapaxes(1, 2) - eye).max() for ops in (z, x))
    chi = ctx.chi_table[ctx.mul_table[g, d]][:, None, None]
    comm = np.abs(z @ x - chi * (x @ z)).max()
    return {"Z_a, X_b unitary": bool(unit < suites.TOL),
            "Z_a X_b = chi(ab) X_b Z_a": bool(comm < suites.TOL)}


def mub_relations_by_pairs(ctx: FieldContext) -> dict:
    """check name -> the largest deviation over every input, on the dense
    operators of the p=1 family, each V_xi from ``line_rotation``:
    |V_xi X_nu - X_nu V_xi| over every (xi, nu), |V_xi^2 - X_sqrt(xi)| over
    every slope, and | |<a|b>|^2 - 1/q | over every pair of ``mub_family``
    states in different bases."""
    q = ctx.order
    conv = convention_from_name("tomographic-p1")
    x = pauli.build_X(ctx, np.arange(q))
    comm = square = 0.0
    for xi in range(1, q):
        v = line_rotation(ctx, conv, xi)
        comm = max(comm, np.abs(v @ x - x @ v).max())
        square = max(square, np.abs(v @ v - x[ctx.sqrt_table[xi]]).max())
    states = mub_family(ctx, "p1").states
    basis = np.arange(q * (q + 1)) // q
    overlaps = np.abs(states.conj() @ states.T) ** 2
    unbiased = np.abs(overlaps - 1 / q)[basis[:, None] != basis].max()
    return {"V_xi^2 = X_sqrt(xi)": float(square), "[V_xi, X_nu] = 0": float(comm),
            "full family pairwise unbiased": float(unbiased)}


# ----------------------------------------------------------------------
# (m, n, k) orbit sizes in closed form
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


# ----------------------------------------------------------------------
# lines, one at a time
# ----------------------------------------------------------------------

#: slope tag of the vertical lines alpha = const (the dual basis)
VERTICAL = None


@dataclass(frozen=True)
class LineSpec:
    """A line in the (alpha, beta) grid: beta = slope*alpha + intercept,
    or alpha = intercept when slope is VERTICAL."""

    slope: int | None
    intercept: int


def all_lines(ctx: FieldContext):
    """All 2^n (2^n + 1) lines: every slope plus the vertical pencil, in the
    row order of ``ctx.line_points``."""
    for xi in range(ctx.order):
        for nu in range(ctx.order):
            yield LineSpec(xi, nu)
    for nu in range(ctx.order):
        yield LineSpec(VERTICAL, nu)


def line_points_of(ctx: FieldContext, line: LineSpec) -> list[tuple[int, int]]:
    """The points (a, b) of ``line``, in the order of increasing a (of
    increasing b on a vertical line)."""
    if line.slope is VERTICAL:
        return [(line.intercept, b) for b in range(ctx.order)]
    row = ctx.mul_table[line.slope]
    return [(a, int(row[a]) ^ line.intercept) for a in range(ctx.order)]


def line_exponents(ctx: FieldContext, conv, xi: int) -> np.ndarray:
    """Exponents of c_kappa = phi(kappa, xi kappa): ``conv`` on the line of
    slope xi through the origin."""
    return conv.exponent_table(ctx)[np.arange(ctx.order), ctx.mul_table[xi]]


def line_rotation(ctx: FieldContext, conv, xi: int) -> np.ndarray:
    """V_xi built for the one slope xi from the coefficients of
    ``line_exponents``."""
    exps = line_exponents(ctx, conv, xi)
    if not recurrence_holds(ctx, xi, exps):
        raise ConfigurationError(
            f"{conv.name} does not satisfy the rotation recurrence on slope {xi}")
    dual = dual_basis_matrix(ctx)
    return (dual * I4[exps][None, :]) @ dual.conj().T


def line_states(ctx: FieldContext, conv, xi: int) -> list[np.ndarray]:
    """|psi_nu^xi> = V_xi X_nu |0>, ordered by the intercept nu, with V_xi
    from ``line_rotation``."""
    v = line_rotation(ctx, conv, xi)
    return [v[:, ctx.basis_index(nu)].copy() for nu in range(ctx.order)]


def dual_basis_state(ctx: FieldContext, kappa: int) -> np.ndarray:
    """|kappa~> = 2^(-n/2) sum_nu chi(kappa nu) |nu>; X_beta eigenstate
    with eigenvalue chi(beta kappa)."""
    require_operator_n(ctx)
    vec = np.empty(ctx.order, dtype=complex)
    vec[ctx.index_table] = ctx.char_matrix[kappa]
    return vec / math.sqrt(ctx.order)


def line_state(ctx: FieldContext, scheme: str, line: LineSpec) -> np.ndarray:
    """The state of one line in the MUB family of ``scheme``: |nu> on slope
    0, V_xi X_nu |0> on slope xi and |nu~> on the vertical line alpha = nu."""
    if line.slope is VERTICAL:
        return dual_basis_state(ctx, line.intercept)
    if line.slope == 0:
        return logical_state(ctx, line.intercept)
    conv = convention_from_name(SCHEMES[scheme])
    return line_states(ctx, conv, line.slope)[line.intercept]


def wootters_kernel_by_points(ctx: FieldContext, family) -> np.ndarray:
    """``wootters_kernel`` one point at a time: the projector of the vertical
    line through (a, b), minus I, plus those of the sloped lines through it
    in increasing slope order."""
    q = ctx.order
    eye = np.eye(q, dtype=complex)
    proj = [np.outer(s, s.conj()) for s in family.states]
    table = np.empty((q, q, q, q), dtype=complex)
    for a in range(q):
        for b in range(q):
            acc = proj[q * q + a] - eye
            for xi in range(q):
                acc = acc + proj[xi * q + (b ^ int(ctx.mul_table[xi, a]))]
            table[a, b] = acc
    return table


def line_marginal(ctx: FieldContext, psf: PhaseSpaceFunction,
                  line: LineSpec) -> complex:
    """2^-n sum of the symbol over the points of one line."""
    total = sum(psf.grid[a, b] for a, b in line_points_of(ctx, line))
    return complex(total / ctx.order)


# ----------------------------------------------------------------------
# collective operators
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# projected symbols as dense cubes, and scale fits
# ----------------------------------------------------------------------

def dense(proj: ProjectedFunction) -> np.ndarray:
    """The (n+1, n+1, n+1) cube of a projected symbol; zero off support."""
    out = np.zeros((proj.n + 1,) * 3, dtype=complex)
    out[tuple(np.array(valid_triples(proj.n)).T)] = proj.values
    return out


def diff_projected_by_keys(a: ProjectedFunction, b: ProjectedFunction) -> DiffReport:
    """``diff_projected`` as a loop over the union of both symbols' (m, n, k)
    keys, an orbit missing from one side read as 0."""
    ea, eb = (dict(zip(valid_triples(p.n), p.values.tolist())) for p in (a, b))
    keys = sorted(set(ea) | set(eb))
    devs = [abs(ea.get(k, 0j) - eb.get(k, 0j)) for k in keys]
    worst = keys[int(np.argmax(devs))]
    return DiffReport("projected", len(keys), float(np.max(devs, initial=0.0)),
                      float(np.mean(devs)), list(worst))


def record_arrays(record: dict) -> dict:
    """The complex arrays of a parsed symbol record, one ``complex(re, im)`` per
    value: its "fiducial" when it has one, and its "grid" or "values" by kind."""
    out = {}
    if record.get("fiducial") is not None:
        out["fiducial"] = np.array([complex(re, im) for re, im in record["fiducial"]])
    if record["kind"] == "grid":
        out["grid"] = np.array([[complex(re, im) for re, im in row] for row in record["grid"]])
    else:
        out["values"] = np.array([complex(re, im) for _key, (re, im), _r in record["entries"]])
    return out


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
# the paper's closed-form symbols
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
    counts = np.array([pair_counts(n, *t) for t in valid_triples(n)])
    n11, n10, n01, n00 = np.moveaxis(counts[ctx.orbit_index], -1, 0)
    return (np.cos(theta) ** n * a ** n00 * b ** n01 * c ** n10 * d ** n11)


def _ghz_q_proj_values(n: int, zeta_abs: float) -> np.ndarray:
    z = float(zeta_abs)
    pref = z ** n / (2 * (1 + z * z) ** n)
    values = []
    for m, nn, k in valid_triples(n):
        r = r_factor(n, m, nn, k)
        body = (z ** (n - 2 * nn) + z ** (2 * nn - n)
                + 2 * (-1) ** m * np.cos(np.pi / 4 * (n - 2 * nn)))
        values.append(complex(r * pref * body))
    return np.array(values)


def _ghz_w0_proj_values(n: int, normalized: bool) -> np.ndarray:
    scale = 2.0 ** -n if normalized else 1.0
    values = []
    for m, nn, k in valid_triples(n):
        val = 0j
        if nn == 0 and m == k:
            val += 0.5 * math.comb(n, k)
        if nn == n and m == n - k:
            val += 0.5 * math.comb(n, m)
        interference = (r_factor(n, m, nn, k) * (-1) ** (m + nn)
                        * np.real((1 + 1j) ** n * 1j ** nn))
        val += scale * interference
        values.append(complex(val))
    return np.array(values)


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
    provenance = f"closed-form[{which}] {'normalized' if normalized else 'as-printed'}"
    if which == "ghz_q_proj":
        provenance += f" zeta_abs={zeta_abs} arg=pi/4"
    tomographic = dict(n=ctx.n, s=0.0, convention="tomographic-p1", provenance=provenance)
    invariant = dict(n=ctx.n, convention="perminv-f0", convention_invariant=True,
                     provenance=provenance)
    if which == "equatorial_w0":
        grid = np.zeros((q, q), dtype=complex)
        grid[0, :] = 1.0
        return PhaseSpaceFunction(grid=grid, **tomographic)
    if which == "ghz_w0":
        return PhaseSpaceFunction(grid=_ghz_w0_grid(ctx), **tomographic)
    if which == "wstate_w0":
        return PhaseSpaceFunction(grid=_wstate_w0_grid(ctx), **tomographic)
    if which == "su2_element":
        return PhaseSpaceFunction(s=0.0, grid=_su2_element_grid(ctx, euler), **invariant)
    if which == "ghz_q_proj":
        return ProjectedFunction(s=-1.0, values=_ghz_q_proj_values(ctx.n, zeta_abs),
                                 **invariant)
    if which == "ghz_w0_proj":
        return ProjectedFunction(s=0.0, values=_ghz_w0_proj_values(ctx.n, normalized),
                                 **invariant)
    raise ConfigurationError(
        f"unknown reference symbol {which!r}; choose from {REFERENCE_IDS}")


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def _add_common(sub, *names):
    if "n" in names:
        sub.add_argument("--n", type=int, default=None, help="number of qubits")
    if "config" in names:
        sub.add_argument("--config", default=None,
                         help="JSON file with RunConfig defaults")
    if "out" in names:
        sub.add_argument("--out", default=None, help="output path (or prefix)")
    if "seed" in names:
        sub.add_argument("--seed", type=int, default=None, help="RNG seed")


def argparse_parser() -> argparse.ArgumentParser:
    """The parser ``cli.main`` used before ``cli.build_parser``'s option table."""
    parser = argparse.ArgumentParser(
        prog="dpsmap",
        description="Discrete phase-space mappings for n qubits over GF(2^n).")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("field", help="print a field context")
    _add_common(p, "n", "config", "out")
    p.set_defaults(func=cli.cmd_field)

    p = subs.add_parser("map", help="map: compute a state symbol")
    _add_common(p, "n", "config", "out")
    p.add_argument("--state", default=None, help=cli.STATE_SPECS)
    p.add_argument("--s", type=float, default=None,
                   help="kernel parameter, one of -1, 0, 1")
    p.add_argument("--conv", default=None, help="phase convention name")
    p.add_argument("--zeta", default=None,
                   help="coherent-state parameter (re,im or mag@deg)")
    p.add_argument("--fiducial", default=None,
                   help="fiducial zeta (re,im or mag@deg); default 0.5@45")
    p.add_argument("--project", action="store_true", default=None,
                   help="also export the (m,n,k) projection")
    p.add_argument("--mode", default=None, choices=("dense", "lazy"),
                   help="narrow the size rule: dense to n <= 4, lazy to s = 0")
    p.add_argument("--format", default=None, choices=cli.FORMATS)
    p.set_defaults(func=cli.cmd_map)

    p = subs.add_parser("mub", help="dump a MUB family as JSON")
    _add_common(p, "n", "config", "out")
    p.add_argument("--scheme", default=None, choices=cli.MUB_SCHEMES)
    p.set_defaults(func=cli.cmd_mub)

    p = subs.add_parser("verify", help="run a verification suite")
    _add_common(p, "n", "config", "out", "seed")
    p.add_argument("--suite", default=None, choices=suites.SUITE_NAMES)
    p.set_defaults(func=cli.cmd_verify)

    p = subs.add_parser("diff", help="compare two exported symbol files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cli.cmd_diff)
    return parser
