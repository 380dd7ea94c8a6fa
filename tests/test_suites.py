# tests/test_suites.py
import numpy as np
import pytest

from dpsmap import ConfigurationError, SUITE_NAMES, run_suite
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
    assert "kernel" in skipped  # needs symmetrize, capped below n=6
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
    pairs = [tuple(p) for p in Sampler(0).integers(0, 32, (50, 2)).tolist()]
    fault = pairs[19]                       # the last of the 20 displacement samples
    _last_chunk_only(pairs[:20], fault)
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


@pytest.mark.parametrize("n", range(5, 9))
def test_sampled_field_check_matches_scalar_loop(monkeypatch, n):
    from dpsmap import gf2n
    flagged = 0
    for corrupt in (0, 1, 40, 4000):
        ctx = gf2n.FieldContext(n)
        q = ctx.order
        rng = np.random.default_rng(corrupt)
        mt = ctx.mul_table.copy()
        a, b = rng.integers(0, q, size=(2, corrupt))
        mt[a, b] ^= rng.integers(1, q, size=corrupt).astype(mt.dtype)
        ctx.mul_table = mt
        monkeypatch.setattr(gf2n, "field_context", lambda n, poly=None: ctx)
        report = run_suite("field", n, seed=3)
        trips = Sampler(3).integers(0, q, (2000, 3))
        assoc = all(ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
                    for x, y, z in trips)
        distrib = all(ctx.mul(x, y ^ z) == (ctx.mul(x, y) ^ ctx.mul(x, z))
                      for x, y, z in trips)
        for name, want in (("multiplication associative", assoc),
                           ("multiplication distributes over xor", distrib)):
            check = _check_named(report, name)
            assert check["passed"] == want
            assert check["detail"] == "sampled 2000 triples"
            flagged += not want
    assert flagged >= 4


# the suites' seeded generator

def test_generator_first_draws_are_pinned():
    """Drawn from ``random.Random(7)``: any drift across platforms or
    Python versions fails here."""
    rng = Sampler(7)
    assert rng.integers(0, 32, (2, 3)).tolist() == [[30, 12, 1], [26, 3, 18]]
    assert rng.integers(1, 32, (3,)).tolist() == [2, 30, 17]
    assert rng.integers(0, 4) == 0
    assert rng.complex((2,)).tolist() == [complex(*map(float.fromhex, pair)) for pair in (
        ("-0x1.0fc98a5e9ff60p-3", "-0x1.a31c209b098fcp-1"),
        ("-0x1.b877d1c253cacp-1", "-0x1.352b5d972eea0p-3"))]


def test_generator_draws_stay_in_range():
    rng = Sampler(0)
    for lo, hi in ((0, 2), (0, 16), (1, 8), (3, 4), (1, 2)):
        x = rng.integers(lo, hi, (400, 2))
        assert x.dtype == np.int64 and x.shape == (400, 2)
        assert set(x.ravel().tolist()) == set(range(lo, hi))
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
    """The kernel suite's covariance tuples and the MUB suite's nus, drawn
    in one call, are the words the per-item draws read."""
    for shape, item in (((50, 4), (4,)), ((6,), ())):
        one, stacked = Sampler(q), Sampler(q)
        per_item = np.array([one.integers(0, q, item) for _ in range(shape[0])])
        assert np.array_equal(stacked.integers(0, q, shape), per_item)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_family_unbiasedness_is_the_pairwise_maximum(n):
    from dpsmap import field_context, mubrot
    ctx = field_context(n)
    q = ctx.order
    bases = mubrot.mub_family(ctx, "p1").states.reshape(q + 1, q, q)
    worst = max(mubrot.check_unbiased(ctx, sa, sb)
                for i, sa in enumerate(bases) for sb in bases[i + 1:])
    check = _check_named(run_suite("mub", n), "full family pairwise unbiased")
    assert check["detail"] == f"max | |<a|b>|^2 - 1/q | = {worst:.2e}"


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
    check = _check_named(run_suite("mub", 2), "full family pairwise unbiased")
    assert not check["passed"]
    assert check["detail"].endswith("= inf")
