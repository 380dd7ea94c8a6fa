"""Discrete phase-space mappings for n-qubit systems over GF(2^n).

Field arithmetic with self-dual coordinates, generalized Pauli displacement
operators under pluggable phase conventions, s-parametrized mapping kernels
with forward/inverse transforms, MUB/rotation-operator constructions, the
line-sum (tomographic) machinery, and projections onto the symmetric
(m, n, k) measurement space — including the constructive witness that the
tomographic condition and permutation invariance are incompatible.

Every matrix dpsmap multiplies is at most 64 x 64, a stack of them one
product per slice, where BLAS threads only add wake-up latency.  So when numpy is not imported yet and none of
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS is set, importing
dpsmap sets all three to 1; a process that set one of them, or imported
numpy first, keeps its own BLAS threads.
"""

import os
import sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from ._version import __version__
from .errors import ConfigurationError, FiducialError
from .gf2n import IRREDUCIBLE_POLYS, MAX_N, FieldContext, field_context
from .kernels import (MAX_DENSE_N, KernelSet, OverlapReport,
                      PhaseSpaceFunction, build_kernel, convolution_prefactor,
                      forward_map, inverse_map, overlap_check,
                      tomographic_check, trace_convolution, wootters_kernel)
from .mubrot import (MubFamily, build_V, check_unbiased, dual_basis_matrix,
                     mub_family)
from .serialize import (DiffReport, diff_grids, diff_projected, load_symbol,
                        mub_to_json, proj_to_csv, proj_to_gnuplot,
                        proj_to_json, psf_to_csv, psf_to_gnuplot, psf_to_json)
from .suites import SUITE_NAMES, run_suite
from .pauli import (DEFAULT_FIDUCIAL_ZETA, FactorizedPhase, FiducialReport,
                    GraphPhase, PhaseConvention, PlainPhase, SqrtPhase,
                    TomographicPhase, build_X, build_Z, check_fiducial,
                    convention_from_name, displacement, displacement_overlaps,
                    ghz_state, logical_state, permutation_matrix,
                    permutation_op, spin_coherent, symmetrize, w_state)
from .symproj import (InvarianceReport, PhaseSearchReport, ProjectedFunction,
                      TheoremWitness, check_kernel_invariance,
                      find_theorem_witness, project, search_invariant_phases,
                      symbol_depends_only_on_h, symmetric_average,
                      theorem_witness)

__all__ = [
    "__version__",
    "ConfigurationError", "FiducialError",
    "IRREDUCIBLE_POLYS", "MAX_N", "FieldContext", "field_context",
    "MAX_DENSE_N", "KernelSet", "OverlapReport", "PhaseSpaceFunction",
    "build_kernel", "convolution_prefactor", "forward_map", "inverse_map",
    "overlap_check", "tomographic_check", "trace_convolution", "wootters_kernel",
    "MubFamily", "build_V", "check_unbiased", "dual_basis_matrix", "mub_family",
    "DEFAULT_FIDUCIAL_ZETA", "FactorizedPhase", "FiducialReport", "GraphPhase",
    "PhaseConvention", "PlainPhase", "SqrtPhase", "TomographicPhase",
    "build_X", "build_Z", "check_fiducial", "convention_from_name",
    "displacement", "displacement_overlaps", "ghz_state", "logical_state",
    "permutation_matrix", "permutation_op", "spin_coherent", "symmetrize",
    "w_state",
    "InvarianceReport", "PhaseSearchReport", "ProjectedFunction",
    "TheoremWitness", "check_kernel_invariance", "find_theorem_witness",
    "project", "search_invariant_phases", "symbol_depends_only_on_h",
    "symmetric_average", "theorem_witness",
    "DiffReport", "diff_grids", "diff_projected", "load_symbol",
    "mub_to_json", "proj_to_csv", "proj_to_gnuplot", "proj_to_json",
    "psf_to_csv", "psf_to_gnuplot", "psf_to_json",
    "SUITE_NAMES", "run_suite",
]
