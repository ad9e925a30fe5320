"""Numerical verification of Cauchy-quadrature calculus and Fubini-type
interchange identities for holomorphic families over discretized Lp spaces."""

from .cauchy import OrderBound, cauchy_derivative, order_bound, schwarz_violation
from .domain import Polydisc, TorusQuadrature, torus_nodes
from .family import (ContourSample, HoloFamily, family_from_json, family_preset,
                     preset_names, unit_polydisc)
from .functional import (MeasureFunctional, derivative_functional, dirac,
                         functional_from_json, random_measure)
from .measure import FiniteMeasureSpace, space_from_json, space_preset
from .theorems import (CheckReport, derivative_consistency, derivative_profile,
                       diff_under_integral, fubini_residual, linearization_residual,
                       norm_bound_check, order_bound_check, schwarz_check, span_residual,
                       telescoping_residual)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "ContourSample",
    "FiniteMeasureSpace",
    "HoloFamily",
    "MeasureFunctional",
    "OrderBound",
    "Polydisc",
    "TorusQuadrature",
    "cauchy_derivative",
    "derivative_consistency",
    "derivative_functional",
    "derivative_profile",
    "diff_under_integral",
    "dirac",
    "family_from_json",
    "family_preset",
    "fubini_residual",
    "functional_from_json",
    "linearization_residual",
    "norm_bound_check",
    "order_bound",
    "order_bound_check",
    "preset_names",
    "random_measure",
    "schwarz_check",
    "schwarz_violation",
    "space_from_json",
    "space_preset",
    "span_residual",
    "telescoping_residual",
    "torus_nodes",
    "unit_polydisc",
]
