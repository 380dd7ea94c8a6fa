"""Mutually unbiased bases from rotation operators diagonal in the dual
basis.

A slope xi != 0 selects the commuting set {Z_alpha X_(xi alpha)}; its
eigenbasis is produced by V_xi = sum_kappa c_(kappa,xi) |kappa~><kappa~|
where |kappa~> is the dual (character-transform) basis and the
coefficients obey the recurrence

    c_(kappa+alpha) c_kappa^* = chi(xi alpha kappa) c_alpha.

The coefficients are the line restriction c_kappa = phi(kappa, xi kappa)
of a phase convention phi: the tomographic condition holds on the line
exactly when that restriction solves the recurrence.  ``build_V`` reads
them straight from the convention's exponent table, for one slope or a
stack of slopes, and refuses any slope where the recurrence fails.  Each
MUB scheme in ``SCHEMES`` names the convention it restricts, so the closed
forms live in ``pauli`` only.  Phases are fourth roots of unity kept as
integer exponents of i, so the recurrence is checked exactly.  Line states
|psi_nu^xi> = V_xi X_nu |0> label the points of the line
beta = xi alpha + nu, the dual states |nu~> the vertical line alpha = nu.
A ``MubFamily`` holds every line's state as one row of a single array, in
the row order of ``FieldContext.line_points``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .gf2n import FieldContext
from .pauli import I4, PhaseConvention, convention_from_name, require_operator_n

#: MUB scheme -> the phase convention whose line restriction it uses
SCHEMES = {"p1": "tomographic-p1", "p2": "tomographic-p2",
           "p4": "tomographic-p4", "graph+": "graph-plus",
           "graph-": "graph-minus"}


# ----------------------------------------------------------------------
# dual basis
# ----------------------------------------------------------------------

def dual_basis_matrix(ctx: FieldContext) -> np.ndarray:
    """Columns are the dual states |kappa~> = 2^(-n/2) sum_nu chi(kappa nu) |nu>,
    for kappa in field order; |kappa~> is the X_beta eigenstate with
    eigenvalue chi(beta kappa)."""
    require_operator_n(ctx)
    q = ctx.order
    mat = np.empty((q, q), dtype=complex)
    mat[ctx.index_table, :] = ctx.char_matrix_c.T
    return mat / math.sqrt(q)


# ----------------------------------------------------------------------
# the rotation recurrence
# ----------------------------------------------------------------------

def recurrence_residual(ctx: FieldContext, xi, exponents) -> np.ndarray:
    """e[kappa + alpha] - e[kappa] - e[alpha] - 2 tr(xi alpha kappa) mod 4.

    ``exponents`` is (..., q) and ``xi`` broadcasts against its leading
    axes; the int8 result is (..., q, q), indexed [kappa, alpha], and is
    zero exactly where c = i^exponents solves the recurrence on slope xi.
    """
    e = np.mod(exponents, 4).astype(np.int8)
    resid = e[..., ctx.xor_grid]
    resid -= e[..., :, None]
    resid -= e[..., None, :]
    resid -= 2 * ctx.trace_form[xi][..., ctx.mul_table]
    return resid % 4


def recurrence_holds(ctx: FieldContext, xi, exponents) -> np.ndarray:
    """Whether c = i^exponents solves the recurrence on slope xi, exactly:
    one bool per leading index of ``recurrence_residual``."""
    return ~recurrence_residual(ctx, xi, exponents).any(axis=(-2, -1))


# ----------------------------------------------------------------------
# rotation operators
# ----------------------------------------------------------------------

def _rotations(ctx: FieldContext, conv: PhaseConvention, xi,
               dual: np.ndarray) -> np.ndarray:
    """``build_V`` on a dual basis matrix the caller already holds."""
    slopes = np.asarray(xi, dtype=np.int64)
    if (slopes == 0).any():
        raise ConfigurationError("slope 0 is the logical basis; no rotation needed")
    exps = conv.exponent_table(ctx)[np.arange(ctx.order), ctx.mul_table[slopes]]
    ok = recurrence_holds(ctx, slopes, exps)
    if not ok.all():
        raise ConfigurationError(
            f"{conv.name} does not satisfy the rotation recurrence on slope "
            f"{slopes.ravel()[np.argmin(ok)]}")
    return (dual * I4[exps][..., None, :]) @ dual.conj().T


def build_V(ctx: FieldContext, conv: PhaseConvention, xi) -> np.ndarray:
    """V_xi = sum_kappa c_kappa |kappa~><kappa~| with c_kappa = phi(kappa, xi kappa),
    or a (..., q, q) stack when ``xi`` is an array of slopes.  Slope 0 and a
    slope on which the convention fails the recurrence raise."""
    return _rotations(ctx, conv, xi, dual_basis_matrix(ctx))


def check_unbiased(ctx: FieldContext, states_a, states_b) -> float:
    """Max deviation of |<a|b>|^2 from 1/2^n across the two bases."""
    overlaps = np.abs(np.asarray(states_a).conj() @ np.asarray(states_b).T) ** 2
    return float(np.max(np.abs(overlaps - 1.0 / ctx.order)))


# ----------------------------------------------------------------------
# full MUB family
# ----------------------------------------------------------------------

@dataclass(eq=False)
class MubFamily:
    """2^n + 1 bases: one per slope (0 = logical) plus the vertical/dual.

    ``states`` is the read-only (q(q+1), q) array whose row r is the state
    of the line in row r of ``ctx.line_points``: row xi q + nu holds
    |psi_nu^xi> = V_xi X_nu |0> (|nu> on slope 0) and row q^2 + nu the
    dual state |nu~>.
    """

    ctx: FieldContext
    scheme: str
    states: np.ndarray


def mub_family(ctx: FieldContext, scheme: str = "p1") -> MubFamily:
    """Build the complete family; ``scheme`` is a key of ``SCHEMES``."""
    require_operator_n(ctx)
    if scheme not in SCHEMES:
        raise ConfigurationError(
            f"unknown MUB scheme {scheme!r}; choose from {tuple(SCHEMES)}")
    conv = convention_from_name(SCHEMES[scheme])
    q, dual, index = ctx.order, dual_basis_matrix(ctx), ctx.index_table
    # row nu of each block is the state of intercept nu: the column of its
    # operator at |nu> = X_nu |0>
    rotated = _rotations(ctx, conv, np.arange(1, q), dual)[:, :, index]
    states = np.concatenate([np.eye(q, dtype=complex)[index],
                             rotated.swapaxes(1, 2).reshape(-1, q), dual.T])
    states.flags.writeable = False
    return MubFamily(ctx, scheme, states)
