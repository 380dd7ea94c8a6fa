# tests/test_sign_solutions.py
"""The GF(2) elimination behind ``search_invariant_phases`` against brute
force on random small systems: random base exponent tables and orbit
labels, with odd base residuals among them."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dpsmap import field_context  # noqa: E402
from dpsmap.mubrot import recurrence_holds, recurrence_residual  # noqa: E402
from dpsmap.symproj import _sign_solutions  # noqa: E402


def brute_force(ctx, base_exp, orbit_id, nfree):
    """Every assignment tried in increasing order, slope by slope."""
    q = ctx.order
    shift = np.where(orbit_id >= 0, orbit_id, nfree)
    kappa = np.arange(q)
    hits = []
    for bits in range(1 << nfree):
        exps = base_exp + 2 * ((bits >> shift) & 1)
        if all(recurrence_holds(ctx, xi, exps[kappa, ctx.mul_table[xi]])
               for xi in range(1, q)):
            hits.append(bits)
    return hits


@st.composite
def systems(draw):
    ctx = field_context(draw(st.integers(1, 3)))
    q = ctx.order
    nfree = draw(st.integers(0, 6))
    labels = st.integers(-1, nfree - 1)
    if draw(st.booleans()):
        # one label per point
        orbit_id = np.array(draw(st.lists(labels, min_size=q * q,
                                          max_size=q * q))).reshape(q, q)
    else:
        # one label per (m, n, k) orbit, as the search labels them
        per_orbit = draw(st.lists(labels, min_size=len(ctx.orbit_weights),
                                  max_size=len(ctx.orbit_weights)))
        orbit_id = np.array(per_orbit)[ctx.orbit_index]
    bits = np.array(draw(st.lists(st.integers(0, 3), min_size=q * q,
                                  max_size=q * q))).reshape(q, q)
    # i^tr(xy) with random sign flips keeps every base residual even;
    # a table of random exponents mostly does not
    base = ctx.trace_form + 2 * (bits & 1) if draw(st.booleans()) else bits
    return ctx, base, orbit_id, nfree


@settings(max_examples=150, deadline=None)
@given(systems())
def test_elimination_matches_brute_force(system):
    ctx, base, orbit_id, nfree = system
    hits = _sign_solutions(ctx, base, orbit_id, nfree)
    assert hits == brute_force(ctx, base, orbit_id, nfree)
    q = ctx.order
    rows = base[np.arange(q), ctx.mul_table[1:]]
    if (recurrence_residual(ctx, np.arange(1, q), rows) & 1).any():
        assert hits == []

