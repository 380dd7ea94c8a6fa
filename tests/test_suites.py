# tests/test_suites.py
import numpy as np
import pytest
from oracles import (field_axioms_by_triples, mub_relations_by_pairs,
                     pauli_relations_by_pairs)

from dpsmap import (SUITE_NAMES, ConfigurationError, KernelSet, ProjectedFunction,
                    kernels, mubrot, pauli, run_suite, symproj)
from dpsmap.sampling import Sampler


def test_every_named_suite_passes_at_n2():
    for name in SUITE_NAMES:
        report = run_suite(name, 2, seed=0)
        assert report["passed"], report
        assert report["suite"] == name
        assert report["n"] == 2


def test_all_nests_subsuite_reports():
    report = run_suite("all", 2)
    assert report["passed"]
    names = [r["suite"] for r in report["suites"]]
    assert names == [s for s in SUITE_NAMES if s != "all"]
    assert sum(len(r["checks"]) for r in report["suites"]) > 30


def test_out_of_range_suite_is_skipped_by_all():
    report = run_suite("all", 6)
    assert report["passed"]
    skipped = {r["suite"] for r in report["suites"] if r.get("skipped")}
    assert "kernel" in skipped  # _SUITES caps the kernel suite at n = 5
    assert "field" not in skipped
    assert "theorem" not in skipped


def test_out_of_range_single_suite_raises():
    with pytest.raises(ConfigurationError):
        run_suite("kernel", 6)
    with pytest.raises(ConfigurationError):
        run_suite("theorem", 1)


def test_unknown_suite_rejected():
    with pytest.raises(ConfigurationError):
        run_suite("everything", 2)


def test_reports_are_deterministic():
    a = run_suite("pauli", 2, seed=5)
    b = run_suite("pauli", 2, seed=5)
    assert a == b


# the streaming checks keep a running residual; each must still catch a fault

def _check_named(report, prefix):
    (check,) = [c for c in report["checks"] if c["name"].startswith(prefix)]
    return check


@pytest.mark.parametrize("n", [2, 4])
def test_pauli_suite_catches_non_unitary_X(monkeypatch, n):
    from dpsmap import pauli
    build_X = pauli.build_X
    monkeypatch.setattr(pauli, "build_X", lambda ctx, b: 1.001 * build_X(ctx, b))
    report = run_suite("pauli", n)
    assert not _check_named(report, "Z_a, X_b unitary")["passed"]
    assert not report["passed"]


@pytest.mark.parametrize("n", [2, 4])
def test_pauli_suite_catches_non_hermitian_displacement(monkeypatch, n):
    from dpsmap import pauli
    displacement = pauli.displacement
    # i D is unitary whenever D is, but not hermitian when D is
    monkeypatch.setattr(pauli, "displacement", lambda *a: 1j * displacement(*a))
    report = run_suite("pauli", n)
    herm = [c for c in report["checks"] if c["name"].endswith("unitary and hermitian")]
    assert herm and not any(c["passed"] for c in herm)
    unitary_only = [c for c in report["checks"] if c["name"].endswith("displacements unitary")]
    assert unitary_only and all(c["passed"] for c in unitary_only)


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_suite_catches_broken_covariance(monkeypatch, n):
    from dpsmap.kernels import KernelSet
    at = KernelSet.at
    monkeypatch.setattr(KernelSet, "at", lambda self, a, b:
                        (1 + 1e-6 * np.asarray(a))[..., None, None] * at(self, a, b))
    report = run_suite("kernel", n)
    for name in ("tomographic-p1", "perminv-f0"):
        assert not _check_named(report, f"{name}: covariance")["passed"]


def test_pauli_suite_catches_nan_after_good_pairs(monkeypatch):
    from dpsmap import pauli
    displacement = pauli.displacement

    def nan_at_one_pair(ctx, conv, g, d):
        dm = displacement(ctx, conv, g, d)
        dm[(np.asarray(g) == 1) & (np.asarray(d) == 1)] *= np.nan
        return dm

    monkeypatch.setattr(pauli, "displacement", nan_at_one_pair)
    report = run_suite("pauli", 2)
    disp = [c for c in report["checks"] if ": displacements unitary" in c["name"]]
    assert len(disp) == 6 and not any(c["passed"] for c in disp)


# at n = 5 a chunk holds 4 operators: a fault in the last one only must count

def _last_chunk_only(samples, fault):
    from dpsmap import suites
    step = suites._STACK_ENTRIES // 32 ** 2
    start = (len(samples) - 1) // step * step
    assert 0 < start <= samples.index(fault) and fault not in samples[:start]


def test_pauli_suite_catches_nan_in_the_last_chunk_only(monkeypatch):
    from dpsmap import pauli
    pairs = [(1 << i, 1 << i) for i in range(5)]     # the displacement pairs at n = 5
    fault = pairs[-1]
    _last_chunk_only(pairs, fault)
    displacement = pauli.displacement

    def nan_at_last_pair(ctx, conv, g, d):
        dm = displacement(ctx, conv, g, d)
        dm[(np.asarray(g) == fault[0]) & (np.asarray(d) == fault[1])] *= np.nan
        return dm

    monkeypatch.setattr(pauli, "displacement", nan_at_last_pair)
    report = run_suite("pauli", 5, seed=0)
    disp = [c for c in report["checks"] if ": displacements unitary" in c["name"]]
    assert len(disp) == 6 and not any(c["passed"] for c in disp)


def test_kernel_suite_catches_a_broken_tuple_in_the_last_chunk_only(monkeypatch):
    from dpsmap import pauli
    rng = Sampler(0)
    # the covariance tuples (ka, la, a, b) of the first convention
    shifts = [tuple(rng.integers(0, 32, (4,)).tolist()[:2]) for _ in range(50)]
    fault = shifts[-1]
    _last_chunk_only(shifts, fault)
    displacement = pauli.displacement

    def bent_at_last_shift(ctx, conv, g, d):
        dm = displacement(ctx, conv, g, d)
        dm[(np.asarray(g) == fault[0]) & (np.asarray(d) == fault[1])] *= 1 + 1e-6
        return dm

    monkeypatch.setattr(pauli, "displacement", bent_at_last_shift)
    report = run_suite("kernel", 5, seed=0)
    assert not _check_named(report, "tomographic-p1: covariance")["passed"]
    assert not report["passed"]


# the field and pauli suites check every input through the generators; the
# exhaustive checks they replaced are the oracles at small n

AXIOMS = ("multiplication associative", "multiplication distributes over xor",
          "commutativity")


def _own_field(monkeypatch, n):
    """A new context for ``n``, the one the suites then read."""
    from dpsmap import gf2n
    ctx = gf2n.FieldContext(n)
    monkeypatch.setattr(gf2n, "field_context", lambda n: ctx)
    return ctx


def _field_verdicts(ctx, mt):
    """check name -> the field suite's verdict on ``ctx`` with its product
    table replaced by ``mt``."""
    ctx.mul_table = mt
    return {c["name"]: c["passed"] for c in run_suite("field", ctx.n)["checks"]}


def _field_oracle(ctx):
    oracle = field_axioms_by_triples(ctx)
    oracle["commutativity"] = bool(np.array_equal(ctx.mul_table, ctx.mul_table.T))
    return oracle


def _flipped(mt, x, y, value):
    out = mt.copy()
    out[x, y] = value
    return out


def _assert_axioms_match(verdicts, oracle):
    # x(y + z) = xy + xz is the same identity either way; associativity on the
    # basis is all of it once the product is bilinear, that is distributive
    # and commutative
    distrib = "multiplication distributes over xor"
    assert verdicts[distrib] == oracle[distrib]
    assert all(verdicts[name] for name in AXIOMS) == all(oracle[name] for name in AXIOMS)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_field_verdicts_match_the_exhaustive_oracles(monkeypatch, n):
    ctx = _own_field(monkeypatch, n)
    intact = ctx.mul_table
    q = ctx.order
    assert all(_field_verdicts(ctx, intact).values())
    assert all(_field_oracle(ctx).values())
    if n <= 3:
        flips = [(x, y, v) for x in range(q) for y in range(q) for v in range(q)
                 if v != intact[x, y]]
    else:
        flips = [(x, y, v) for x, y, v in np.random.default_rng(n).integers(0, q, (64, 3))
                 if v != intact[x, y]]
    for x, y, value in flips:
        verdicts = _field_verdicts(ctx, _flipped(intact, x, y, value))
        _assert_axioms_match(verdicts, _field_oracle(ctx))


def test_field_flip_to_the_zero_product_at_n1_fails_the_unit_checks(monkeypatch):
    """At n = 1 the only flip that keeps the table commutative and column 0
    zero makes 1 * 1 = 0: the zero product is bilinear and associative, so
    the axioms pass with their oracles, and only the checks that read the
    product of the unit fail."""
    ctx = _own_field(monkeypatch, 1)
    verdicts = _field_verdicts(ctx, _flipped(ctx.mul_table, 1, 1, 0))
    assert all(_field_oracle(ctx).values())
    assert [name for name, ok in verdicts.items() if not ok] == [
        "1 is the multiplicative identity", "multiplicative inverses", "tr(x) = tr(x^2)",
        "self-dual Gram matrix = I"]


@pytest.mark.parametrize("n", range(2, 9))
def test_field_suite_fails_a_flipped_entry(monkeypatch, n):
    """Above n = 1 a flipped entry leaves some row nonlinear, so the
    distributivity check fails on every flip."""
    ctx = _own_field(monkeypatch, n)
    intact = ctx.mul_table
    rng = np.random.default_rng(100 + n)
    xs, ys = rng.integers(0, ctx.order, (2, 20))
    for x, y, step in zip(xs, ys, rng.integers(1, ctx.order, 20)):
        verdicts = _field_verdicts(ctx, _flipped(intact, x, y, intact[x, y] ^ step))
        assert not verdicts["multiplication distributes over xor"], (x, y, step)


@pytest.mark.parametrize("n", range(2, 9))
def test_trace_check_fails_a_flipped_trace(monkeypatch, n):
    """A linear map to GF(2) changed at one point is not linear once there
    are two nonzero points."""
    ctx = _own_field(monkeypatch, n)
    intact = ctx.trace_table
    for y in np.random.default_rng(200 + n).integers(0, ctx.order, 8):
        ctx.trace_table = intact.copy()
        ctx.trace_table[y] ^= 1
        assert not _check_named(run_suite("field", n), "trace additive")["passed"], y


def _bilinear_table(products):
    """The table of the bilinear product whose basis products 2^i * 2^j are
    ``products[i, j]``, built by doubling in each argument."""
    n = len(products)
    cols = np.zeros((n, 1 << n), dtype=np.int64)
    for j in range(n):
        cols[:, 1 << j:2 << j] = cols[:, :1 << j] ^ products[:, j, None]
    table = np.zeros((1 << n, 1 << n), dtype=np.int64)
    for i in range(n):
        table[1 << i:2 << i] = table[:1 << i] ^ cols[i]
    return table


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_only_the_basis_triples_see_a_bilinear_nonassociative_product(monkeypatch, n):
    ctx = _own_field(monkeypatch, n)
    powers = 1 << np.arange(n)
    products = ctx.mul_table[np.ix_(powers, powers)].copy()
    assert np.array_equal(_bilinear_table(products), ctx.mul_table)
    products[0, 0] ^= 1                     # 1 * 1 = 1 + 1 = 0
    verdicts = _field_verdicts(ctx, _bilinear_table(products))
    assert not verdicts["multiplication associative"]
    assert verdicts["multiplication distributes over xor"] and verdicts["commutativity"]


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_identity_check_fails_a_scaled_product(monkeypatch, n):
    """x * y = cxy with c != 1 is commutative, associative and bilinear;
    only its unit is wrong."""
    ctx = _own_field(monkeypatch, n)
    verdicts = _field_verdicts(ctx, ctx.mul_table[2][ctx.mul_table])
    assert all(verdicts[name] for name in AXIOMS)
    assert not verdicts["1 is the multiplicative identity"]


def _wrong_sign(build_Z, t):
    """``build_Z`` with the first diagonal entry of Z_t negated."""
    def wrong_sign(ctx, alpha):
        ops = build_Z(ctx, alpha)
        ops[np.asarray(alpha) == t, 0, 0] *= -1
        return ops
    return wrong_sign


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_verdicts_match_the_all_pairs_oracle(monkeypatch, n):
    from dpsmap import field_context
    ctx = field_context(n)
    build_Z = pauli.build_Z
    for t in [None] + [1 << i for i in range(n)]:
        monkeypatch.setattr(pauli, "build_Z", build_Z if t is None else _wrong_sign(build_Z, t))
        verdicts = {c["name"]: c["passed"] for c in run_suite("pauli", n)["checks"]}
        oracle = pauli_relations_by_pairs(ctx)
        assert all(oracle.values()) == (t is None)
        assert {name: verdicts[name] for name in oracle} == oracle, t


@pytest.mark.parametrize("n", range(1, 6))
def test_pauli_suite_fails_a_wrong_sign_in_any_Z_generator(monkeypatch, n):
    build_Z = pauli.build_Z
    for i in range(n):
        monkeypatch.setattr(pauli, "build_Z", _wrong_sign(build_Z, 1 << i))
        report = run_suite("pauli", n)
        assert not _check_named(report, "Z_a X_b = chi(ab) X_b Z_a")["passed"], i
        assert not report["passed"]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_only_the_product_check_sees_a_wrong_non_generator(monkeypatch, n):
    """X_3 = -X_1 X_2 leaves the generators and the displacements intact."""
    build_X = pauli.build_X

    def negated_x3(ctx, beta):
        ops = build_X(ctx, beta)
        ops[np.asarray(beta) == 3] *= -1
        return ops

    monkeypatch.setattr(pauli, "build_X", negated_x3)
    failed = [c["name"] for c in run_suite("pauli", n)["checks"] if not c["passed"]]
    assert failed == ["Z_a = Z_(a-t) Z_t and X_a = X_(a-t) X_t"]


# the suites that draw nothing, mub included
@pytest.mark.parametrize("suite, hi", [("field", 8), ("pauli", 5), ("mub", 5)])
def test_field_and_pauli_reports_do_not_depend_on_the_seed(suite, hi):
    for n in range(1, hi + 1):
        report = run_suite(suite, n, seed=0)
        assert report["passed"]
        assert all(run_suite(suite, n, seed=seed) == report for seed in range(1, 10))


# the mub suite checks every slope and every nu through X-covariance; the
# dense all-pairs checks it replaced are the oracles at small n

def _measured_values(monkeypatch, suite, n):
    """check name -> the value each measured check of ``suite`` compared."""
    from dpsmap import suites
    values, measured = {}, suites._measured

    def record(name, value, *args, **kwargs):
        values[name] = value
        return measured(name, value, *args, **kwargs)

    monkeypatch.setattr(suites, "_measured", record)
    run_suite(suite, n)
    return values


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mub_values_match_the_all_pairs_oracle(monkeypatch, n):
    from dpsmap import field_context
    from dpsmap.suites import TOL
    oracle = mub_relations_by_pairs(field_context(n))
    values = _measured_values(monkeypatch, "mub", n)
    assert values.keys() == oracle.keys()
    for name, value in oracle.items():
        assert value < TOL and abs(values[name] - value) <= 1e-15, (name, values[name], value)


@pytest.mark.parametrize("n", range(1, 6))
def test_mub_suite_pencils_are_the_family_bases(monkeypatch, n):
    """Row r of sloped pencil xi is X_nu V_xi |0> for the nu of basis index r,
    so reordered by ``index_table`` it is the family's block of slope xi; the
    vertical pencil is the family's dual block as it stands."""
    from dpsmap import field_context
    ctx = field_context(n)
    q = ctx.order
    pencils, check_unbiased = [], mubrot.check_unbiased
    monkeypatch.setattr(mubrot, "check_unbiased", lambda ctx, heads, states:
                        pencils.append(states) or check_unbiased(ctx, heads, states))
    assert run_suite("mub", n)["passed"]
    bases = mubrot.mub_family(ctx, "p1").states.reshape(q + 1, q, q)
    assert len(pencils) == q + 1
    for slope, (pencil, basis) in enumerate(zip(pencils, bases)):
        rows = ctx.index_table if slope < q else np.arange(q)
        assert _bits(pencil[rows]) == _bits(basis), slope


@pytest.mark.parametrize("n", range(1, 6))
def test_mub_suite_fails_one_moved_entry_of_the_last_slope(monkeypatch, n):
    q = 1 << n
    if n == 5:
        _last_chunk_only(list(range(1, q)), q - 1)
    build_V = mubrot.build_V
    # off column 0, and in column 0, which the gather reads every row from
    for entry in ((0, q - 1), (q - 1, 0)):
        def moved(ctx, conv, xi, entry=entry):
            v = build_V(ctx, conv, xi)
            v[(np.asarray(xi) == q - 1,) + entry] += 1e-6
            return v

        monkeypatch.setattr(mubrot, "build_V", moved)
        report = run_suite("mub", n)
        assert not _check_named(report, "[V_xi, X_nu] = 0")["passed"], entry
        assert not report["passed"]


@pytest.mark.parametrize("n", range(2, 6))
def test_mub_suite_fails_one_slopes_rotation_given_for_another(monkeypatch, n):
    """V_1 given for the last slope commutes with every X_nu, but squares to
    the wrong X and repeats the basis of slope 1."""
    q = 1 << n
    build_V = mubrot.build_V
    monkeypatch.setattr(mubrot, "build_V", lambda ctx, conv, xi:
                        build_V(ctx, conv, np.where(xi == q - 1, 1, xi)))
    failed = [c["name"] for c in run_suite("mub", n)["checks"] if not c["passed"]]
    assert failed == ["V_xi^2 = X_sqrt(xi)", "full family pairwise unbiased"]


def _change_one_row(monkeypatch, row):
    """Make ``mub_family`` return states whose row ``row(q)`` has one
    amplitude moved, re-normalized."""
    mub_family = mubrot.mub_family

    def changed(ctx, scheme="p1"):
        states = mub_family(ctx, scheme).states.copy()
        r = row(ctx.order)
        states[r, 1] += 1e-3
        states[r] /= np.linalg.norm(states[r])
        return mubrot.MubFamily(ctx, scheme, states)

    monkeypatch.setattr(mubrot, "mub_family", changed)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("head", ("last sloped", "vertical"))
def test_tomographic_suite_fails_one_changed_amplitude_of_a_head(monkeypatch, n, head):
    _change_one_row(monkeypatch, lambda q: q * (q - 1) if head == "last sloped" else q * q)
    failed = [c["name"] for c in run_suite("tomographic", n)["checks"] if not c["passed"]]
    assert failed == ["line sums = Born probabilities", "line-state symbols are delta lines",
                      "line-projector kernel equals character-sum kernel"]


@pytest.mark.parametrize("n", range(1, 6))
def test_only_the_born_check_reads_a_row_off_the_heads(monkeypatch, n):
    """The last line of the last slope is no pencil's head."""
    _change_one_row(monkeypatch, lambda q: q * q - 1)
    failed = [c["name"] for c in run_suite("tomographic", n)["checks"] if not c["passed"]]
    assert failed == ["line sums = Born probabilities"]


# the suites' seeded generator

def test_generator_first_draws_are_pinned():
    """Drawn from ``random.Random(7)``: any drift across platforms or
    Python versions fails here."""
    rng = Sampler(7)
    assert rng.integers(0, 32, (2, 3)).tolist() == [[30, 12, 1], [26, 3, 18]]
    with pytest.raises(ValueError, match="power of two"):
        rng.integers(1, 32, (3,))
    assert rng.integers(0, 4) == 3
    assert rng.complex((2,)).tolist() == [complex(*map(float.fromhex, pair)) for pair in (
        ("-0x1.242628cdf8630p-1", "-0x1.4f2ab6490fca0p-3"),
        ("-0x1.a7fd7297d99acp-1", "-0x1.098fa36fb8780p-1"))]


def test_generator_draws_stay_in_range():
    rng = Sampler(0)
    for lo, hi in ((0, 2), (0, 16), (3, 4), (1, 2)):
        x = rng.integers(lo, hi, (400, 2))
        assert x.dtype == np.int64 and x.shape == (400, 2)
        assert set(x.ravel().tolist()) == set(range(lo, hi))
    for lo, hi in ((1, 8), (0, 3), (2, 2), (4, 0)):
        with pytest.raises(ValueError, match="power of two"):
            rng.integers(lo, hi, (400, 2))
    z = rng.complex((300, 4))
    assert z.shape == (300, 4)
    for part in (z.real, z.imag):
        assert -1 <= part.min() and part.max() < 1
        # every part is a multiple of 2^-51: exact on every platform
        assert np.array_equal(np.ldexp(part, 51), np.round(np.ldexp(part, 51)))


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64).tolist()


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_stacked_draws_are_bitwise_the_single_draws(seed):
    one, stacked = Sampler(seed), Sampler(seed)
    psi, a = stacked.complex_draws(5, (4,), (4, 4))
    herm = stacked.hermitian(4, 3)
    tail = stacked.integers(0, 16, (3,))
    assert psi.shape == (5, 4) and a.shape == (5, 4, 4) and herm.shape == (3, 4, 4)
    for i in range(5):
        assert _bits(one.complex((4,))) == _bits(psi[i])
        assert _bits(one.complex((4, 4))) == _bits(a[i])
    for i in range(3):
        h = one.complex((4, 4))
        assert _bits(h + h.conj().T) == _bits(herm[i])
    assert one.integers(0, 16, (3,)).tolist() == tail.tolist()


@pytest.mark.parametrize("q", [2, 8, 32])
def test_one_integer_draw_is_the_per_item_draws(q):
    """An integer stack drawn in one call, as the kernel suite draws its
    covariance tuples, is the words the per-item draws read."""
    for shape, item in (((50, 4), (4,)), ((6,), ())):
        one, stacked = Sampler(q), Sampler(q)
        per_item = np.array([one.integers(0, q, item) for _ in range(shape[0])])
        assert np.array_equal(stacked.integers(0, q, shape), per_item)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_suite_passes_for_seeds_0_to_9(n):
    for seed in range(10):
        report = run_suite("all", n, seed=seed)
        assert report["passed"], (seed, [c for r in report["suites"]
                                         for c in r["checks"] if not c["passed"]])


def test_symmetric_suite_orbit_check_fails_on_a_nan_symbol(monkeypatch):
    from dpsmap import symproj
    orbit_sum_symbols = symproj.orbit_sum_symbols

    def nan_symbols(kernel, orbits):
        psf = orbit_sum_symbols(kernel, orbits)
        psf.grid = psf.grid * np.nan
        return psf

    monkeypatch.setattr(symproj, "orbit_sum_symbols", nan_symbols)
    report = run_suite("symmetric", 3)
    assert not _check_named(report, "symmetric-operator symbols constant")["passed"]
    assert not _check_named(report, "projected convolution")["passed"]
    assert not _check_named(report, "orbit-sum symbols match dense")["passed"]
    assert not _check_named(report, "projection is lossless")["passed"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_only_the_dense_cross_check_sees_conjugated_orbit_symbols(monkeypatch, n):
    """conj(W_o) = chi(g d) W_o is constant on orbits with the same Gram
    matrix, since P_o^dagger = chi(g d) P_o; only the dense oracle sees it."""
    from dpsmap import symproj
    orbit_sum_symbols = symproj.orbit_sum_symbols

    def conjugated(kernel, orbits):
        psf = orbit_sum_symbols(kernel, orbits)
        psf.grid = psf.grid.conj()
        return psf

    monkeypatch.setattr(symproj, "orbit_sum_symbols", conjugated)
    failed = [c["name"] for c in run_suite("symmetric", n)["checks"] if not c["passed"]]
    assert failed == ["orbit-sum symbols match dense symmetrization"]


def test_kernel_round_trip_catches_nan_in_the_last_chunk_only(monkeypatch):
    from dpsmap import kernels
    inverse_map = kernels.inverse_map

    def nan_in_a_short_stack(kernel, psf):
        out = inverse_map(kernel, psf)
        if len(out) < 4:                    # the second of the two chunks of 6
            out[-1, 0, 0] = np.nan
        return out

    monkeypatch.setattr(kernels, "inverse_map", nan_in_a_short_stack)
    report = run_suite("kernel", 5, seed=0)
    for name in ("tomographic-p1", "perminv-f0"):
        assert not _check_named(report, f"{name}: inverse(forward)")["passed"]


def test_tomographic_line_sums_fail_on_nan_grids(monkeypatch):
    from dpsmap import kernels
    forward_map = kernels.forward_map

    def nan_grids(kernel, op, provenance=""):
        psf = forward_map(kernel, op, provenance)
        psf.grid = psf.grid * np.nan
        return psf

    monkeypatch.setattr(kernels, "forward_map", nan_grids)
    check = _check_named(run_suite("tomographic", 2), "line sums = Born probabilities")
    assert not check["passed"]
    assert check["detail"].endswith("max dev inf")


def test_mub_family_unbiasedness_fails_on_nan_overlaps(monkeypatch):
    from dpsmap import mubrot
    monkeypatch.setattr(mubrot, "check_unbiased", lambda ctx, a, b: np.nan)
    for n in (2, 5):
        check = _check_named(run_suite("mub", n), "full family pairwise unbiased")
        assert not check["passed"], n
        assert check["detail"].endswith("= inf"), n


# every check of one measured value passes only below its tolerance

def test_measured_check_fails_on_nan_inf_and_at_the_tolerance():
    from dpsmap.suites import TOL, _measured
    assert _measured("x", 0.5 * TOL, "dev {:.2e}") == {
        "name": "x", "passed": True, "detail": "dev 5.00e-11"}
    for value in (np.nan, np.float64(np.nan), np.inf, TOL):
        assert not _measured("x", value)["passed"], value
    assert not _measured("x", 1e-8, tol=1e-8)["passed"]
    assert _measured("x", 2e-9, tol=1e-8)["passed"]
    assert _measured("x", 1.0, "s in {{-1,0,1}}")["detail"] == "s in {-1,0,1}"


def _times_nan(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) * np.nan


def _nan_grids(fn):
    def nan_grids(*args, **kwargs):
        psf = fn(*args, **kwargs)
        psf.grid = psf.grid * np.nan
        return psf
    return nan_grids


def _nan_line_sum(fn):
    def nan_line_sum(*args, **kwargs):
        deviations = fn(*args, **kwargs)
        deviations[..., -1] = np.nan
        return deviations
    return nan_line_sum


def _nan_offdiag(fn):
    def nan_offdiag(*args, **kwargs):
        pref, report = fn(*args, **kwargs)
        report.max_offdiag = np.nan
        return pref, report
    return nan_offdiag


# (suite, part of the check's name, owner, attribute, patch): the patch turns
# the value the check measures into NaN at its source
NAN_SOURCES = [
    ("pauli", "Z_a = Z_(a-t) Z_t and X_a = X_(a-t) X_t", pauli, "build_Z", _times_nan),
    ("pauli", "Z_a, X_b unitary", pauli, "build_Z", _times_nan),
    ("pauli", "Z_a X_b = chi(ab) X_b Z_a", pauli, "build_Z", _times_nan),
    ("pauli", ": displacements unitary", pauli, "displacement", _times_nan),
    ("mub", "V_xi^2 = X_sqrt(xi)", mubrot, "build_V", _times_nan),
    ("mub", "[V_xi, X_nu] = 0", mubrot, "build_V", _times_nan),
    ("mub", "full family pairwise unbiased", mubrot, "check_unbiased", _times_nan),
    ("kernel", ": sum of kernels = 2^n I", KernelSet, "normalization_residual",
     _times_nan),
    ("kernel", ": kernels hermitian", KernelSet, "hermiticity_residual", _times_nan),
    ("kernel", ": covariance", KernelSet, "at", _times_nan),
    ("kernel", ": s=-1 kernels are coherent-state projectors", KernelSet,
     "coherent_projector_residual", _times_nan),
    ("kernel", ": inverse(forward) = identity", kernels, "inverse_map", _times_nan),
    ("kernel", ": overlap diagonal", kernels, "convolution_prefactor", _nan_offdiag),
    ("kernel", ": trace convolution matches Tr(fg)", kernels, "trace_convolution",
     _times_nan),
    ("tomographic", "line sums = Born probabilities", kernels, "tomographic_check",
     _nan_line_sum),
    ("tomographic", "line-state symbols are delta lines", kernels, "forward_map",
     _nan_grids),
    ("tomographic", "line-projector kernel equals character-sum kernel", kernels,
     "wootters_kernel", _times_nan),
    ("tomographic", "Tr of every kernel = 1", kernels, "wootters_kernel", _times_nan),
    ("symmetric", "orbit-sum symbols match dense symmetrization", pauli, "symmetrize",
     _times_nan),
    ("symmetric", "projected convolution reproduces Tr(rho S)", symproj,
     "symmetric_average", _times_nan),
    ("symmetric", "projection preserves total mass", ProjectedFunction, "total",
     _times_nan),
]


@pytest.mark.parametrize("suite, part, owner, attr, patch", NAN_SOURCES,
                         ids=[case[1] for case in NAN_SOURCES])
def test_a_nan_measured_value_fails_its_check(monkeypatch, suite, part, owner, attr,
                                              patch):
    monkeypatch.setattr(owner, attr, patch(getattr(owner, attr)))
    checks = [c for c in run_suite(suite, 3)["checks"] if part in c["name"]]
    assert checks and not any(c["passed"] for c in checks), checks


def test_every_measured_check_has_a_nan_case(monkeypatch):
    """The cases above name exactly the checks built from a measured value."""
    from dpsmap import suites
    measured = []
    make = suites._measured
    monkeypatch.setattr(suites, "_measured", lambda name, *args, **kwargs:
                        measured.append(name) or make(name, *args, **kwargs))
    for n in (3, 4):
        run_suite("all", n)
    parts = {case[1] for case in NAN_SOURCES}
    assert [name for name in measured if not any(p in name for p in parts)] == []
    assert [p for p in parts if not any(p in name for name in measured)] == []


def test_symmetric_suite_fails_a_kernel_with_a_nan_coefficient(monkeypatch):
    build_kernel = kernels.build_kernel

    def nan_coefficient(*args):
        kernel = build_kernel(*args)
        kernel._wphi = kernel._wphi.copy()
        kernel._wphi[1, 2] = np.nan
        return kernel

    monkeypatch.setattr(kernels, "build_kernel", nan_coefficient)
    check = _check_named(run_suite("symmetric", 3), "invariant-convention kernel")
    assert check == {"name": "invariant-convention kernel commutes with swaps",
                     "passed": False, "detail": "max dev inf over 3 transpositions"}


@pytest.mark.parametrize("n, hits, assignments", [(2, 8, 32), (3, 16, 8192)])
def test_theorem_suite_fails_when_no_invariant_phase_solves_the_recurrences(
        monkeypatch, n, hits, assignments):
    """At n <= 3 the suite passes on the hits the search finds, and fails
    when it finds none."""
    name = "some invariant hermitian phase satisfies every line recurrence"
    (check,) = run_suite("theorem", n)["checks"]
    assert check["name"] == name and check["passed"]
    assert check["detail"].startswith(f"{hits} of {assignments} ")
    monkeypatch.setattr(symproj, "_sign_solutions", lambda *args: [])
    report = run_suite("theorem", n)
    assert not report["passed"]
    assert report["checks"] == [{"name": name, "passed": False, "detail": (
        f"0 of {assignments} invariant hermitian phases satisfy every line "
        f"recurrence; closed-form p=1 among them: False")}]
