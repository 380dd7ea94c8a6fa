"""Arithmetic in GF(2^n) with a verified self-dual basis.

Field elements are plain Python ints whose bits hold the coefficients in
the fixed polynomial basis: addition is XOR, multiplication is carry-less
multiplication reduced modulo the tabled irreducible polynomial of degree
n.  Each context additionally carries the canonical self-dual basis
{theta_1 .. theta_n}, i.e. one with tr(theta_i * theta_j) = delta_ij, the
first such tuple in increasing element order.  In that basis the
expansion coefficients of an element double as qubit labels, the trace of
a product becomes the mod-2 dot product of coordinate strings, and
swapping two qubits becomes a linear map on the field.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ConfigurationError

#: the irreducible polynomial of each extension degree (bit i = coefficient of x^i)
IRREDUCIBLE_POLYS = {
    1: 0b11,         # x + 1
    2: 0b111,        # x^2 + x + 1
    3: 0b1011,       # x^3 + x + 1
    4: 0b10011,      # x^4 + x + 1
    5: 0b100101,     # x^5 + x^2 + 1
    6: 0b1000011,    # x^6 + x + 1
    7: 0b10001001,   # x^7 + x^3 + 1
    8: 0b100011101,  # x^8 + x^4 + x^3 + x^2 + 1
}

#: largest supported extension degree (field level; operators cap lower)
MAX_N = 8


# ----------------------------------------------------------------------
# field context
# ----------------------------------------------------------------------

class FieldContext:
    """GF(2^n) modulo ``IRREDUCIBLE_POLYS[n]``: lookup tables plus the
    canonical self-dual basis, for 1 <= n <= 8."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_N:
            raise ConfigurationError(f"n must be in 1..{MAX_N}, got {n}")
        self.n = n
        self.poly = IRREDUCIBLE_POLYS[n]
        self.order = 1 << n

        self._build_tables()
        self.selfdual_basis = self._find_selfdual_basis()
        self._build_coord_tables()
        # filled by ``PhaseConvention.exponent_table``
        self.phase_tables: dict[tuple, np.ndarray] = {}

    # -- construction ---------------------------------------------------

    def _build_tables(self):
        q, n = self.order, self.n
        # a * b is linear in a: row x^i is x * row x^(i-1), row x^i + j is row x^i ^ row j
        prod = np.zeros((q, q), dtype=np.int64)
        prod[1] = np.arange(q)
        shift = (prod[1] << 1) ^ (prod[1] >> (n - 1)) * self.poly     # x * b, reduced
        for i in range(1, n):
            top = 1 << i
            prod[top] = shift[prod[top >> 1]]
            prod[top + 1:2 * top] = prod[1:top] ^ prod[top]
        self.mul_table = prod

        # multiplicative inverses: the unique 1 in each nonzero row
        inv = np.argmax(prod == 1, axis=1)
        inv[0] = 0  # sentinel, inv(0) is rejected in inv()
        self.inv_table = inv

        # absolute trace tr(x) = sum_{i=0}^{n-1} x^(2^i), a sum in the field
        cur = np.arange(q, dtype=np.int64)
        acc = cur.copy()
        for _ in range(n - 1):
            cur = prod[cur, cur]
            acc ^= cur
        self.trace_table = acc
        self.chi_table = (1 - 2 * acc).astype(np.int64)

        # square root = inverse Frobenius, x^(2^(n-1))
        cur = np.arange(q, dtype=np.int64)
        for _ in range(n - 1):
            cur = prod[cur, cur]
        self.sqrt_table = cur
        # what the lazy tables read, even if an attribute is replaced later
        self._built = (self.chi_table, prod)

    def _find_selfdual_basis(self) -> tuple[int, ...]:
        """Lexicographically smallest ascending tuple with Gram matrix I.

        Depth-first search in increasing element order.  Requiring the
        tuple to be ascending loses nothing (a self-dual set stays
        self-dual under reordering) and makes the result canonical.
        """
        q, n = self.order, self.n
        tr, mul = self.trace_table, self.mul_table
        elems = np.arange(q, dtype=np.int64)
        diag_ok = tr[mul[elems, elems]] == 1

        basis: list[int] = []

        def extend(lo: int) -> bool:
            if len(basis) == n:
                return True
            ok = diag_ok.copy()
            ok[:lo] = False
            for th in basis:
                ok &= tr[mul[th]] == 0
            cands = np.flatnonzero(ok)
            if len(cands) < n - len(basis):
                return False
            for x in cands:
                basis.append(int(x))
                if extend(int(x) + 1):
                    return True
                basis.pop()
            return False

        if not extend(1):
            raise ConfigurationError("no self-dual basis found (unexpected for GF(2^n))")
        return tuple(basis)

    def _build_coord_tables(self):
        q, n = self.order, self.n
        theta = np.array(self.selfdual_basis, dtype=np.int64)
        # coords[x, i] = tr(x * theta_i)
        self.coords_table = self.trace_table[self.mul_table[:, theta]].astype(np.int64)
        self.hweight_table = self.coords_table.sum(axis=1)
        # Hilbert-space basis index: coordinate of theta_1 is the most
        # significant bit, matching qubit order in tensor products
        weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
        self.index_table = (self.coords_table * weights).sum(axis=1)
        inverse = np.empty(q, dtype=np.int64)
        inverse[self.index_table] = np.arange(q, dtype=np.int64)
        self.element_of_index = inverse

    # -- q x q tables, built on first use ------------------------------------

    @cached_property
    def char_matrix(self) -> np.ndarray:
        """chi(x*y) for all pairs; the workhorse of every character sum.

        Like ``char_matrix_c`` and ``xor_grid``, built on first use from the
        tables as they were at construction.
        """
        chi, mul = self._built
        return chi[mul]

    @cached_property
    def trace_form(self) -> np.ndarray:
        """tr(x*y) for all pairs, as int8; built on first use, read-only.

        The GF(2)-bilinear trace form that every rotation-coefficient
        recurrence reads, and the exponents of the phase i^tr(xy).
        """
        table = (self.char_matrix < 0).astype(np.int8)
        table.flags.writeable = False
        return table

    @cached_property
    def char_matrix_c(self) -> np.ndarray:
        return self.char_matrix.astype(np.complex128)

    @cached_property
    def xor_grid(self) -> np.ndarray:
        """x ^ y for all pairs."""
        x = np.arange(self.order, dtype=np.int64)
        return np.bitwise_xor.outer(x, x)

    @cached_property
    def line_points(self) -> np.ndarray:
        """Flat grid indices a q + b of every line's points, shape (q(q+1), q).

        Row xi q + nu holds the line b = xi a + nu and row q^2 + nu the
        vertical line a = nu: slopes in increasing order, the vertical
        pencil last, intercepts increasing within a slope.  A sloped line
        lists its points by increasing a, a vertical one by increasing b.
        Read-only.
        """
        q, mul = self.order, self._built[1]
        x = np.arange(q)
        # sloped[xi, nu, a] = a q + (xi a + nu)
        sloped = x * q + (mul[:, None, :] ^ x[None, :, None])
        vertical = x[:, None] * q + x[None, :]
        table = np.concatenate([sloped.reshape(q * q, q), vertical])
        table.flags.writeable = False
        return table

    # -- orbits under simultaneous qubit permutations --------------------

    @cached_property
    def _orbits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
        hw, base = self.hweight_table, self.n + 1
        labels = (hw[:, None] * base + hw[None, :]) * base + hw[self.xor_grid]
        present = np.zeros(base ** 3, dtype=bool)
        present[labels] = True
        weights = np.stack(np.unravel_index(np.flatnonzero(present), (base,) * 3), axis=1)
        # a label's orbit number is its rank among the labels that occur
        index = (np.cumsum(present) - 1)[labels]
        flat = index.ravel()
        bounds = np.concatenate([[0], np.cumsum(np.bincount(flat))]).tolist()
        return index, weights, np.argsort(flat, kind="stable"), bounds

    @property
    def orbit_index(self) -> np.ndarray:
        """q x q table: orbit of (alpha, beta) as a row of ``orbit_weights``.

        A permutation of qubits permutes self-dual coordinates, so the orbit
        of a grid point is labelled by (h(alpha), h(beta), h(alpha + beta)).
        Built on first use.
        """
        return self._orbits[0]

    @property
    def orbit_weights(self) -> np.ndarray:
        """The (m, n, k) weights of every orbit, in lexicographic order."""
        return self._orbits[1]

    @property
    def orbit_runs(self) -> tuple[np.ndarray, list]:
        """(order, bounds): ``grid.ravel()[order]`` holds the points of orbit
        i, in row-major order, as the run ``bounds[i]:bounds[i + 1]``."""
        return self._orbits[2:]

    @cached_property
    def orbit_sizes(self) -> MappingProxyType:
        """R_mnk, the number of grid points of each orbit, keyed by its
        (m, n, k) weights in the order of ``orbit_weights``; read-only."""
        bounds = self._orbits[3]
        return MappingProxyType({tuple(t): b - a for t, a, b in zip(
            self.orbit_weights.tolist(), bounds, bounds[1:])})

    # -- scalar operations ----------------------------------------------

    def mul(self, x: int, y: int) -> int:
        return int(self.mul_table[x, y])

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv_table[x])

    def trace(self, x: int) -> int:
        return int(self.trace_table[x])

    def chi(self, x: int) -> int:
        """Additive character (-1)^tr(x), valued in {+1, -1}."""
        return int(self.chi_table[x])

    # -- self-dual coordinates -------------------------------------------

    def to_coords(self, x: int) -> tuple[int, ...]:
        return tuple(int(c) for c in self.coords_table[x])

    def from_coords(self, coords) -> int:
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        x = 0
        for c, th in zip(coords, self.selfdual_basis):
            if c not in (0, 1):
                raise ValueError("coordinates must be bits")
            if c:
                x ^= th
        return x

    def basis_index(self, x: int) -> int:
        """Position of |x> in the 2^n-dimensional amplitude vector."""
        return int(self.index_table[x])

    def transpose_coords(self, x: int, i: int, j: int) -> int:
        """Swap self-dual coordinates i and j (1-based qubit labels).

        Equals x + eps * tr(x * eps) with eps = theta_i + theta_j.
        """
        eps = self.transposition_element(i, j)
        if self.trace(self.mul(x, eps)):
            return x ^ eps
        return x

    def transposition_element(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.n) or i == j:
            raise ValueError(f"need distinct qubit labels in 1..{self.n}")
        return self.selfdual_basis[i - 1] ^ self.selfdual_basis[j - 1]

    def gram_matrix(self) -> np.ndarray:
        theta = np.array(self.selfdual_basis, dtype=np.int64)
        return self.trace_table[self.mul_table[np.ix_(theta, theta)]]

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "poly": self.poly,
            "selfdual_basis": list(self.selfdual_basis),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def __repr__(self):
        return f"FieldContext(n={self.n}, poly=0b{self.poly:b})"


@lru_cache(maxsize=None)
def field_context(n: int) -> FieldContext:
    """Cached FieldContext(n); contexts are immutable in practice."""
    return FieldContext(n)
