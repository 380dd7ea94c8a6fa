# tests/test_mubrot.py
import numpy as np
import pytest
from oracles import (VERTICAL, all_lines, line_exponents, line_points_of,
                     line_state, line_states)

from dpsmap import (ConfigurationError, GraphPhase, PhaseConvention, PlainPhase,
                    TomographicPhase, build_V, build_X,
                    check_unbiased, convention_from_name, dual_basis_matrix,
                    field_context, mub_family)
from dpsmap.mubrot import SCHEMES, recurrence_holds
from dpsmap.pauli import I4

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0 + 0j, -1.0])
TOMO = TomographicPhase(1)


def valid_p_values(n):
    return [1 << j for j in range(n)]


def closed_form_oracle(ctx, xi, p):
    """Exponents of c_(alpha, xi) = (-i)^h(alpha^p xi^(p/2)), written out
    per slope, with xi^(1/2) the field square root."""
    if p == 1:
        half = int(ctx.sqrt_table[xi])
    else:
        half = xi
        for _ in range(p.bit_length() - 2):    # xi^(p/2) by squaring
            half = int(ctx.mul_table[half, half])
    ap = np.arange(ctx.order)
    for _ in range(p.bit_length() - 1):
        ap = ctx.mul_table[ap, ap]
    return 3 * ctx.hweight_table[ctx.mul_table[ap, half]] % 4


def graph_oracle(ctx, xi, sign):
    """Exponents of c_alpha = (sign i)^(alpha^T Gamma alpha) with
    Gamma_pq = tr(xi theta_p theta_q), written out per slope."""
    theta = np.array(ctx.selfdual_basis)
    gamma = ctx.trace_table[ctx.mul_table[xi, ctx.mul_table[np.ix_(theta, theta)]]]
    coords = ctx.coords_table
    return sign * np.einsum("ap,pq,aq->a", coords, gamma, coords) % 4


# ---------------------------------------------------------
# line geometry
# ---------------------------------------------------------

def on_line(ctx, line, a, b):
    """Whether (a, b) solves the equation of ``line``."""
    if line.slope is VERTICAL:
        return a == line.intercept
    return b == (ctx.mul(line.slope, a) ^ line.intercept)


def test_line_count_and_size():
    for n in (1, 2, 3):
        ctx = field_context(n)
        q = ctx.order
        lines = list(all_lines(ctx))
        assert len(lines) == q * (q + 1)
        for line in lines:
            pts = line_points_of(ctx, line)
            assert len(pts) == q
            assert all(on_line(ctx, line, a, b) for a, b in pts)


def test_parallel_lines_partition_the_grid():
    ctx = field_context(2)
    q = ctx.order
    slopes = [None] + list(range(q))
    for slope in slopes:
        covered = set()
        for line in all_lines(ctx):
            if line.slope == slope:
                covered.update(line_points_of(ctx, line))
        assert len(covered) == q * q


def test_nonparallel_lines_meet_once():
    ctx = field_context(2)
    lines = list(all_lines(ctx))
    for la in lines:
        for lb in lines:
            if la.slope == lb.slope:
                continue
            common = set(line_points_of(ctx, la)) & set(line_points_of(ctx, lb))
            assert len(common) == 1


def test_vertical_lines_fix_alpha():
    ctx = field_context(3)
    for line in all_lines(ctx):
        if line.slope is VERTICAL:
            assert {a for a, _ in line_points_of(ctx, line)} == {line.intercept}


def test_line_point_table_lists_every_line_in_order():
    for n in (1, 2, 3, 4):
        ctx = field_context(n)
        q = ctx.order
        expect = [[a * q + b for a, b in line_points_of(ctx, line)]
                  for line in all_lines(ctx)]
        assert ctx.line_points.tolist() == expect


# ---------------------------------------------------------
# dual basis
# ---------------------------------------------------------

def test_dual_basis_amplitudes_are_characters():
    for n in (1, 2, 3):
        ctx = field_context(n)
        q = ctx.order
        # the vertical lines' rows of the family are the dual states
        dual = mub_family(ctx).states[q * q:]
        for nu in range(ctx.order):
            ket = dual[nu]
            for x in range(ctx.order):
                expect = ctx.chi(ctx.mul(nu, x)) / np.sqrt(q)
                assert abs(ket[ctx.index_table[x]] - expect) < 1e-14


def test_dual_basis_matrix_unitary():
    ctx = field_context(3)
    B = dual_basis_matrix(ctx)
    assert np.allclose(B @ B.conj().T, np.eye(8))
    assert np.allclose(dual_basis_matrix(field_context(1)),
                       np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_dual_states_diagonalize_X():
    """X_delta acts on the dual basis by a character, no shift."""
    ctx = field_context(2)
    dual = mub_family(ctx).states[ctx.order ** 2:]
    for delta in range(ctx.order):
        X = build_X(ctx, delta)
        for nu in range(ctx.order):
            ket = dual[nu]
            assert np.allclose(X @ ket, ctx.chi(ctx.mul(nu, delta)) * ket)


# ---------------------------------------------------------
# rotation coefficients
# ---------------------------------------------------------

def test_closed_form_recurrence_exact():
    """The defining recurrence holds exactly (integer phases, no float)."""
    for n in (1, 2, 3, 4):
        ctx = field_context(n)
        for p in valid_p_values(n):
            for xi in range(1, ctx.order):
                conv = TomographicPhase(p)
                assert recurrence_holds(ctx, xi, line_exponents(ctx, conv, xi))


def test_graph_recurrence_exact():
    for n in (1, 2, 3, 4):
        ctx = field_context(n)
        for sign in (1, -1):
            for xi in range(1, ctx.order):
                conv = GraphPhase(sign)
                assert recurrence_holds(ctx, xi, line_exponents(ctx, conv, xi))


def test_frozen_single_qubit_coefficients():
    ctx = field_context(1)
    assert np.allclose(I4[line_exponents(ctx, TOMO, 1)], [1, -1j])


def test_line_exponents_match_closed_form_oracles():
    """Line restrictions of the tomographic and graph conventions equal the
    per-slope closed forms: every valid p and sign, every slope, n = 1..6."""
    cases = 0
    for n in range(1, 7):
        ctx = field_context(n)
        for xi in range(1, ctx.order):
            for p in valid_p_values(n):
                got = line_exponents(ctx, TomographicPhase(p), xi)
                assert np.array_equal(got, closed_form_oracle(ctx, xi, p))
                cases += 1
            for sign in (1, -1):
                got = line_exponents(ctx, GraphPhase(sign), xi)
                assert np.array_equal(got, graph_oracle(ctx, xi, sign))
                cases += 1
    assert cases == 861


def test_invalid_coefficient_requests():
    ctx = field_context(2)
    with pytest.raises(ConfigurationError, match="slope 0 is the logical basis"):
        build_V(ctx, TOMO, 0)  # slope 0 needs no rotation
    with pytest.raises(ConfigurationError, match="slope 0"):
        build_V(ctx, TOMO, [1, 0, 3])
    with pytest.raises(ConfigurationError):
        build_V(ctx, TomographicPhase(3), 1)  # p must be a power of two
    with pytest.raises(ConfigurationError):
        build_V(ctx, TomographicPhase(4), 1)  # p too large for n=2
    with pytest.raises(ConfigurationError):
        build_V(ctx, GraphPhase(2), 1)


def test_failed_recurrence_detected():
    """A deliberately corrupted exponent table must not verify."""
    ctx = field_context(2)
    good = line_exponents(ctx, TOMO, 1)
    assert recurrence_holds(ctx, 1, good)
    bad = good.copy()
    bad[2] = (bad[2] + 1) % 4
    assert not recurrence_holds(ctx, 1, bad)


class BentPhase(PhaseConvention):
    """The p = 1 tomographic phase with one exponent moved off the axes."""

    name = "bent"

    def _exponent_table(self, ctx):
        table = TOMO.exponent_table(ctx).copy()
        table[2, 2] += 1
        return table


def test_build_V_and_line_states_refuse_failed_recurrence():
    ctx = field_context(2)
    # mul(2, 1) = 2: the bent entry lies on slope 1 and on no other slope
    for conv, slope in ((PlainPhase(), 1), (BentPhase(), 1)):
        for build in (build_V, line_states):
            with pytest.raises(ConfigurationError,
                               match="does not satisfy the rotation recurrence "
                                     f"on slope {slope}$"):
                build(ctx, conv, slope)
    # a stack names the first slope that fails
    with pytest.raises(ConfigurationError, match="on slope 1$"):
        build_V(ctx, BentPhase(), [2, 1, 3])


@pytest.mark.parametrize("n", range(1, 5))
def test_stacked_build_V_is_per_slope_build_V(n):
    """V for an array of slopes equals, bit for bit, V slope by slope, for
    every scheme's convention."""
    ctx = field_context(n)
    slopes = np.arange(1, ctx.order)
    for name in SCHEMES.values():
        conv = convention_from_name(name)
        if isinstance(conv, TomographicPhase) and conv.p > 1 << (n - 1):
            continue
        stack = build_V(ctx, conv, slopes)
        assert stack.shape == (ctx.order - 1, ctx.order, ctx.order)
        each = np.array([build_V(ctx, conv, int(xi)) for xi in slopes])
        assert np.array_equal(stack.view(np.uint64), each.view(np.uint64)), name
        square = build_V(ctx, conv, slopes[::-1].reshape(1, -1))
        assert np.array_equal(square[0].view(np.uint64), each[::-1].view(np.uint64))


# ---------------------------------------------------------
# rotation operators
# ---------------------------------------------------------

def test_single_qubit_rotation_frozen():
    ctx = field_context(1)
    V = build_V(ctx, TOMO, 1)
    assert np.allclose(V @ V, SX)
    assert np.allclose(V @ SZ @ V.conj().T, SY)


def test_V_unitary_and_square_relation():
    """V_xi^2 = X at the square root of the slope."""
    for n in (1, 2, 3):
        ctx = field_context(n)
        for xi in range(1, ctx.order):
            V = build_V(ctx, TOMO, xi)
            assert np.allclose(V @ V.conj().T, np.eye(ctx.order))
            assert np.allclose(V @ V, build_X(ctx, ctx.sqrt_table[xi]))


def test_V_commutes_with_shifts():
    ctx = field_context(3)
    for xi in (1, 3, 5):
        V = build_V(ctx, TOMO, xi)
        for nu in range(ctx.order):
            X = build_X(ctx, nu)
            assert np.allclose(V @ X, X @ V)


def test_line_states_orthonormal():
    ctx = field_context(2)
    states = line_states(ctx, TOMO, 2)
    G = np.array([[np.vdot(a, b) for b in states] for a in states])
    assert np.allclose(G, np.eye(4))


# ---------------------------------------------------------
# full basis families
# ---------------------------------------------------------

def test_family_structure_and_validation():
    for n in (1, 2, 3):
        ctx = field_context(n)
        q = ctx.order
        fam = mub_family(ctx, "p1")
        # one basis of q states for every slope and for the vertical pencil
        assert fam.states.shape == (q * (q + 1), q)
        for states in fam.states.reshape(q + 1, q, q):
            # each basis resolves the identity
            acc = sum(np.outer(s, s.conj()) for s in states)
            assert np.allclose(acc, np.eye(ctx.order))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_family_checks_each_slope_recurrence_once(monkeypatch, n):
    """q - 1 rotated slopes in one recurrence residual, one dual matrix."""
    from dpsmap import mubrot
    calls = {"residuals": 0, "slopes": [], "dual": 0}
    holds, dual = mubrot.recurrence_holds, mubrot.dual_basis_matrix

    def counted_holds(ctx, xi, exponents):
        calls["residuals"] += 1
        calls["slopes"].extend(np.ravel(xi).tolist())
        return holds(ctx, xi, exponents)

    def counted_dual(*args):
        calls["dual"] += 1
        return dual(*args)

    monkeypatch.setattr(mubrot, "recurrence_holds", counted_holds)
    monkeypatch.setattr(mubrot, "dual_basis_matrix", counted_dual)
    ctx = field_context(n)
    for scheme in ("p1", "graph+"):
        calls.update(residuals=0, slopes=[], dual=0)
        mub_family(ctx, scheme)
        assert calls == {"residuals": 1, "slopes": list(range(1, ctx.order)), "dual": 1}


def test_family_mutually_unbiased():
    for n in (1, 2, 3):
        ctx = field_context(n)
        q = ctx.order
        bases = mub_family(ctx, "p1").states.reshape(q + 1, q, q)
        for i, ka in enumerate(bases):
            for kb in bases[i + 1:]:
                assert check_unbiased(ctx, ka, kb) < 1e-10


def test_family_schemes_agree_on_unbiasedness():
    ctx = field_context(3)
    for scheme in ("p1", "p2", "p4", "graph+", "graph-"):
        fam = mub_family(ctx, scheme)
        # slope 1 against the vertical pencil
        assert check_unbiased(ctx, fam.states[8:16], fam.states[64:]) < 1e-10


def test_scheme_validity_depends_on_n():
    with pytest.raises(ConfigurationError):
        mub_family(field_context(2), "p4")
    with pytest.raises(ConfigurationError):
        mub_family(field_context(2), "nope")


def test_logical_basis_is_slope_zero():
    ctx = field_context(2)
    fam = mub_family(ctx)
    for nu in range(ctx.order):
        ket = fam.states[nu]
        assert abs(abs(ket[ctx.index_table[nu]]) - 1) < 1e-12


def test_line_state_lookup():
    """Row r of family.states is the basis vector of line r, labelled by
    its intercept."""
    ctx = field_context(2)
    fam = mub_family(ctx)
    for ket, line in zip(fam.states, all_lines(ctx), strict=True):
        assert abs(np.linalg.norm(ket) - 1) < 1e-12
        expect = line_state(ctx, fam.scheme, line)
        assert np.allclose(ket, expect)


# every scheme at every n where it exists: p = 2 needs n >= 2, p = 4 n >= 3
@pytest.mark.parametrize("n, scheme", [(n, scheme) for n in (1, 2, 3)
                                       for scheme in ("p1", "p2", "p4", "graph+", "graph-")
                                       if n >= {"p2": 2, "p4": 3}.get(scheme, 1)])
def test_family_states_are_the_oracle_line_states(n, scheme):
    """One read-only array; row r is, bit for bit, the state of line r."""
    ctx = field_context(n)
    fam = mub_family(ctx, scheme)
    assert not fam.states.flags.writeable
    with pytest.raises(ValueError):
        fam.states[0, 0] = 0
    expect = np.array([line_state(ctx, scheme, line) for line in all_lines(ctx)])
    assert np.array_equal(fam.states.view(np.uint64), expect.view(np.uint64))


def _verify_oracle(ctx, xi, exponents):
    """The recurrence check of one slope, as it was before slopes were
    checked in bulk."""
    e = np.mod(exponents, 4)
    tr = ctx.trace_table[ctx.mul_table[xi, ctx.mul_table]]
    resid = (e[ctx.xor_grid] - e[:, None] - e[None, :] - 2 * tr) % 4
    return not resid.any()


@pytest.mark.parametrize("n", range(1, 6))
def test_bulk_recurrence_matches_the_per_slope_check(n):
    ctx = field_context(n)
    q = ctx.order
    rng = np.random.default_rng(90 + n)
    slopes = np.arange(1, q)
    names = ([f"tomographic-p{p}" for p in valid_p_values(n)]
             + ["perminv-sqrt", "perminv-f0", "perminv-f1", "graph-plus",
                "graph-minus", "plain"])
    for name in names:
        rows = convention_from_name(name).exponent_table(ctx)[np.arange(q), ctx.mul_table]
        # the convention itself, then with one exponent moved on some slopes
        bent = rows[slopes].copy()
        hit = rng.random(q - 1) < 0.5
        bent[hit, rng.integers(0, q, size=hit.sum())] += rng.integers(1, 4, size=hit.sum())
        for exps in (rows[slopes], bent, bent - 4, rng.integers(-9, 9, size=(q - 1, q))):
            want = [_verify_oracle(ctx, int(xi), e) for xi, e in zip(slopes, exps)]
            assert recurrence_holds(ctx, slopes, exps).tolist() == want, name
