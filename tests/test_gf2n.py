# tests/test_gf2n.py
import itertools
import json

import numpy as np
import pytest
from oracles import (clmul, first_selfdual_basis, is_irreducible,
                     mul_table_by_bits, poly_degree, poly_mod, swap_coords)

from dpsmap import ConfigurationError, FieldContext, field_context
from dpsmap.gf2n import IRREDUCIBLE_POLYS, SELFDUAL_BASES


# ---------------------------------------------------------
# independent multiplication oracle (bit-by-bit schoolbook)
# ---------------------------------------------------------

def naive_mul(a, b, poly, n):
    """Polynomial product over GF(2) reduced mod poly, no shared code."""
    acc = 0
    for i in range(n):
        if (b >> i) & 1:
            acc ^= a << i
    for i in range(2 * n - 2, n - 1, -1):
        if (acc >> i) & 1:
            acc ^= poly << (i - n)
    return acc


def test_mul_matches_naive_oracle_exhaustive():
    for n in range(1, 5):
        ctx = field_context(n)
        poly = IRREDUCIBLE_POLYS[n]
        for a in range(ctx.order):
            for b in range(ctx.order):
                assert ctx.mul(a, b) == naive_mul(a, b, poly, n)


def test_mul_matches_naive_oracle_sampled():
    rng = np.random.default_rng(7)
    for n in range(5, 9):
        ctx = field_context(n)
        poly = IRREDUCIBLE_POLYS[n]
        pairs = rng.integers(0, ctx.order, size=(400, 2))
        for a, b in pairs:
            a, b = int(a), int(b)
            assert ctx.mul(a, b) == naive_mul(a, b, poly, n)


IRREDUCIBLE_BY_DEGREE = {n: [p for p in range(1 << n, 2 << n) if is_irreducible(p)]
                         for n in range(1, 9)}


def test_every_modulus_of_degree_up_to_8_is_listed():
    # x and x + 1, then the counts of irreducible binary polynomials
    counts = [len(polys) for polys in IRREDUCIBLE_BY_DEGREE.values()]
    assert counts == [2, 1, 2, 3, 6, 9, 18, 30]


@pytest.mark.parametrize("n", range(1, 9))
def test_mul_table_is_the_bit_by_bit_table_for_every_modulus(n):
    """Every modulus the package builds, the tabled one of each degree."""
    poly = IRREDUCIBLE_POLYS[n]
    table, oracle = FieldContext(n).mul_table, mul_table_by_bits(n, poly)
    assert table.dtype == oracle.dtype == np.int64
    assert np.array_equal(table, oracle), f"modulus 0b{poly:b}"


@pytest.mark.parametrize("n", range(1, 9))
def test_derived_tables_follow_from_the_bit_by_bit_table(n):
    """Inverses, trace and square roots at the default modulus, each pinned by
    its definition on the oracle product table."""
    ctx = field_context(n)
    prod, x = mul_table_by_bits(n, ctx.poly), np.arange(ctx.order)
    for table in (ctx.inv_table, ctx.trace_table, ctx.sqrt_table):
        assert table.dtype == np.int64 and table.shape == (ctx.order,)
    assert ctx.inv_table[0] == 0
    assert np.array_equal(prod[x, ctx.inv_table][1:], np.ones(ctx.order - 1))
    assert np.array_equal(prod[ctx.sqrt_table, ctx.sqrt_table], x)
    trace, power = x.copy(), x
    for _ in range(n - 1):
        power = prod[power, power]
        trace ^= power
    assert np.array_equal(ctx.trace_table, trace)


def test_frozen_small_products():
    # GF(4) with poly x^2+x+1: x*x = x+1, x*(x+1) = 1
    ctx = field_context(2)
    assert ctx.mul(2, 2) == 3
    assert ctx.mul(2, 3) == 1
    assert ctx.mul(3, 3) == 2
    # GF(8) with poly x^3+x+1: x*x^2 = x^3 = x+1
    ctx3 = field_context(3)
    assert ctx3.mul(2, 4) == 3


# ---------------------------------------------------------
# field axioms
# ---------------------------------------------------------

def test_add_is_xor():
    """Adding self-dual coordinate strings mod 2 is xor of the elements."""
    ctx = field_context(3)
    for a in range(ctx.order):
        for b in range(ctx.order):
            coords = [x ^ y for x, y in zip(ctx.to_coords(a), ctx.to_coords(b))]
            assert ctx.from_coords(coords) == a ^ b


def test_mul_commutative_table_symmetric():
    for n in range(1, 6):
        ctx = field_context(n)
        assert np.array_equal(ctx.mul_table, ctx.mul_table.T)


def test_mul_associative_exhaustive_small():
    for n in (2, 3):
        ctx = field_context(n)
        for a in range(ctx.order):
            for b in range(ctx.order):
                for c in range(ctx.order):
                    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


def test_distributive_exhaustive_small():
    ctx = field_context(3)
    for a in range(ctx.order):
        for b in range(ctx.order):
            for c in range(ctx.order):
                left = ctx.mul(a, b ^ c)
                right = ctx.mul(a, b) ^ ctx.mul(a, c)
                assert left == right


def test_multiplicative_inverses():
    for n in range(1, 7):
        ctx = field_context(n)
        for a in range(1, ctx.order):
            assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.inv_table[0] == 0  # sentinel, 0 has no inverse


def test_div_and_inv_consistent():
    ctx = field_context(4)
    rng = np.random.default_rng(3)
    for a, b in rng.integers(0, 16, size=(50, 2)):
        a, b = int(a), int(b)
        if b:
            assert ctx.mul(ctx.mul(a, ctx.inv(b)), b) == a
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_frobenius_is_squaring():
    ctx = field_context(5)
    for a in range(ctx.order):
        # the n-fold Frobenius x -> x^(2^n) is the identity
        y = a
        for _ in range(ctx.n):
            y = int(ctx.mul_table[y, y])
        assert y == a


def test_sqrt_squares_back():
    for n in range(1, 7):
        ctx = field_context(n)
        for a in range(ctx.order):
            r = int(ctx.sqrt_table[a])
            assert ctx.mul(r, r) == a


# ---------------------------------------------------------
# trace and character
# ---------------------------------------------------------

def test_trace_frozen_n2():
    ctx = field_context(2)
    assert [ctx.trace(x) for x in range(4)] == [0, 0, 1, 1]


def test_trace_additive():
    for n in range(1, 6):
        ctx = field_context(n)
        for a in range(ctx.order):
            for b in range(ctx.order):
                assert ctx.trace(a ^ b) == (ctx.trace(a) + ctx.trace(b)) % 2


def test_trace_frobenius_invariant():
    """tr(x) = tr(x^2) for every element."""
    for n in range(1, 7):
        ctx = field_context(n)
        for a in range(ctx.order):
            assert ctx.trace(a) == ctx.trace(ctx.mul(a, a))


def test_trace_balanced():
    # exactly half the elements have trace 1
    for n in range(1, 8):
        ctx = field_context(n)
        assert int(np.sum(ctx.trace_table)) == ctx.order // 2


def test_chi_is_sign_of_trace():
    ctx = field_context(4)
    for a in range(ctx.order):
        assert ctx.chi(a) == (-1) ** ctx.trace(a)
    assert int(np.sum(ctx.chi_table)) == 0


def test_char_matrix_values_and_symmetry():
    for n in range(1, 5):
        ctx = field_context(n)
        C = ctx.char_matrix
        assert np.array_equal(C, C.T)
        for a in range(ctx.order):
            for b in range(ctx.order):
                assert C[a, b] == ctx.chi(ctx.mul(a, b))
        # character orthogonality: C C^T = q I
        assert np.array_equal(C.astype(np.int64) @ C.astype(np.int64),
                              ctx.order * np.eye(ctx.order, dtype=np.int64))


@pytest.mark.parametrize("n", range(1, 9))
def test_lazy_q_by_q_tables_match_their_formulas(n):
    ctx = FieldContext(n)
    built = ctx.mul_table
    assert not {"char_matrix", "char_matrix_c", "xor_grid", "trace_form"} & set(vars(ctx))
    ctx.mul_table = built ^ 1           # a table replaced after construction
    x = np.arange(ctx.order)
    assert np.array_equal(ctx.char_matrix, ctx.chi_table[built])
    assert ctx.char_matrix.dtype == ctx.chi_table.dtype
    assert np.array_equal(ctx.char_matrix_c, ctx.chi_table[built].astype(np.complex128))
    assert ctx.char_matrix_c.dtype == np.complex128
    assert np.array_equal(ctx.xor_grid, x[:, None] ^ x[None, :])
    assert ctx.xor_grid.dtype == np.int64
    assert ctx.char_matrix_c is ctx.char_matrix_c
    assert np.array_equal(ctx.trace_form, ctx.trace_table[built])
    assert ctx.trace_form.dtype == np.int8 and not ctx.trace_form.flags.writeable
    assert ctx.trace_form is ctx.trace_form


# ---------------------------------------------------------
# self-dual basis and coordinates
# ---------------------------------------------------------

def test_selfdual_basis_frozen():
    """Each tabled basis is the first ascending self-dual tuple of its field,
    and the context of its n carries it."""
    assert list(SELFDUAL_BASES) == list(range(1, 9))
    for n, basis in SELFDUAL_BASES.items():
        assert first_selfdual_basis(field_context(n)) == basis
        assert field_context(n).selfdual_basis == basis


def test_selfdual_gram_is_identity():
    for n in range(1, 9):
        ctx = field_context(n)
        assert np.array_equal(ctx.gram_matrix(), np.eye(n, dtype=np.int64))


def test_basis_elements_have_unit_trace():
    for n in range(1, 9):
        ctx = field_context(n)
        for theta in ctx.selfdual_basis:
            assert ctx.trace(theta) == 1


def test_coords_roundtrip():
    for n in range(1, 7):
        ctx = field_context(n)
        for x in range(ctx.order):
            assert ctx.from_coords(ctx.to_coords(x)) == x


def test_field_unit_has_all_one_coords():
    """The basis is self-dual with tr(theta_i)=1, so 1 = sum of all thetas."""
    for n in range(1, 9):
        ctx = field_context(n)
        assert ctx.to_coords(1) == (1,) * n


def test_hweight_table_counts_coords():
    for n in range(1, 6):
        ctx = field_context(n)
        for x in range(ctx.order):
            assert ctx.hweight_table[x] == sum(ctx.to_coords(x))


def test_index_table_bijection():
    for n in range(1, 6):
        ctx = field_context(n)
        seen = sorted(int(ctx.index_table[x]) for x in range(ctx.order))
        assert seen == list(range(ctx.order))
        for x in range(ctx.order):
            assert int(ctx.element_of_index[ctx.index_table[x]]) == x


def test_index_follows_coords_msb_first():
    ctx = field_context(3)
    for x in range(ctx.order):
        bits = ctx.to_coords(x)
        idx = int("".join(str(b) for b in bits), 2)
        assert ctx.index_table[x] == idx


# ---------------------------------------------------------
# transpositions of coordinate slots
# ---------------------------------------------------------

def test_transpose_coords_swaps_two_slots():
    """FieldContext.transposition(i, j) swaps self-dual coordinates i and j,
    for every ordered pair and every element."""
    for n in range(1, 9):
        ctx = field_context(n)
        for i, j in itertools.permutations(range(1, n + 1), 2):
            table = ctx.transposition(i, j)
            assert table.shape == (ctx.order,)
            assert table.tolist() == [swap_coords(ctx, x, i, j) for x in range(ctx.order)]


def test_transpose_coords_is_involution():
    for n in range(2, 9):
        ctx = field_context(n)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            table = ctx.transposition(i, j)
            assert table[table].tolist() == list(range(ctx.order))


def test_transposition_element_construction():
    """The swap acts as x + eps*tr(x*eps) with eps the sum of the two thetas;
    bad labels raise."""
    for n in (2, 3, 4):
        ctx = field_context(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                eps = ctx.selfdual_basis[i - 1] ^ ctx.selfdual_basis[j - 1]
                expected = [x ^ (eps if ctx.trace(ctx.mul(x, eps)) else 0)
                            for x in range(ctx.order)]
                assert ctx.transposition(i, j).tolist() == expected
        for i, j in ((1, 1), (0, 1), (1, n + 1), (n + 1, n + 1)):
            with pytest.raises(ValueError, match=f"need distinct qubit labels in 1..{n}"):
                ctx.transposition(i, j)


# ---------------------------------------------------------
# polynomial helpers, serialization, construction errors
# ---------------------------------------------------------

def test_poly_helpers():
    assert poly_degree(0b1011) == 3
    assert clmul(0b11, 0b11) == 0b101  # (x+1)^2 = x^2+1 over GF(2)
    assert poly_mod(0b100, 0b111) == 0b11  # x^2 mod (x^2+x+1) = x+1
    assert is_irreducible(0b111)
    assert not is_irreducible(0b101)  # x^2+1 = (x+1)^2


def test_listed_polys_are_irreducible():
    for n, poly in IRREDUCIBLE_POLYS.items():
        assert poly_degree(poly) == n
        assert is_irreducible(poly)


def test_json_roundtrip():
    """A field's record names the one context of its n: reading it back is
    a dict comparison with that context's own record."""
    for n in range(1, 9):
        record = json.loads(FieldContext(n).to_json())
        assert record == field_context(record["n"]).to_json_dict()
        assert record == {"n": n, "poly": IRREDUCIBLE_POLYS[n],
                          "selfdual_basis": list(SELFDUAL_BASES[n])}


def test_field_context_is_cached():
    assert field_context(4) is field_context(4)


def test_bad_n_rejected():
    with pytest.raises(ConfigurationError):
        field_context(0)
    with pytest.raises(ConfigurationError):
        field_context(9)


def test_tables_deterministic():
    a = FieldContext(3)
    b = FieldContext(3)
    assert np.array_equal(a.mul_table, b.mul_table)
    assert a.selfdual_basis == b.selfdual_basis
