"""Birkhoff-Gustavson normal forms and non-resonant Hopf links.

Exact normal forms of two-degree-of-freedom Hamiltonians near an elliptic
minimum, resonance classification, rotation-number series for the axial
periodic orbits, the non-resonance decision procedure, and numerical
cross-validation of the predictions on the true flow.
"""

from .scalars import CC, Field, FieldError, QuadExt, RATIONAL, quad_field
from .poly import (
    ChartError,
    Polynomial,
    TruncatedMap,
    apply_D,
    compose_map,
    compose_maps,
    invert_generating,
    linear_substitute,
    read_polynomial,
    solve_homological,
    split_ker_im,
    symplectic_defect,
    to_complex,
    to_real,
    write_polynomial,
)
from .resonance import (
    Frequencies,
    NONRESONANT,
    ResonanceClass,
    ResonanceData,
    classify,
    resonance_pair,
)
from .series import SeriesE, SeriesError
from .normalform import (
    NormalFormResult,
    check_plane_invariance,
    check_zp_invariance,
    normalize,
    psi_conjugate,
    verify,
)
from .hopf import (
    CaseVerdict,
    HopfAnalysis,
    IndeterminateError,
    amplitude_series,
    analyze,
    beta_coeffs,
    case_quantities,
    frequency_series,
    nu_index,
    omega_coeffs,
    orbit_existence,
    rotation_series,
    theorem_check,
    twist_product,
)
from .numeric import (
    EvaluableHamiltonian,
    OrbitRecord,
    PolynomialHamiltonian,
    find_periodic_orbit,
    quaternion_frame,
    rotation_number_numeric,
    series_vs_numeric_report,
    winding_rate,
    winding_rate_grid,
)
from .models import henon_heiles, hill_regularized, isosceles, quadratic

__version__ = "0.1.0"
