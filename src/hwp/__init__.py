"""Periodic heat-wave solver and verifier.

Computes time-periodic solutions of a linear heat equation and an undamped
linear wave equation coupled across a flat interface (velocity and flux
matching), two ways: harmonic balance in time, and a damped marching
construction that contracts onto the periodic orbit (the harmonic solver
also computes that damped orbit directly). Alongside the solvers,
the package verifies the associated integral identities, a priori estimate
ratios, geometric admissibility conditions for multiplier fields on demo
domains, and the time-regularity gap between forcing and solution.
"""

from .analysis import (IdentityReport, equipartition_residual, estimate_check,
                       multiplier_identity_residual, regularity_scan,
                       sobolev_time_norm, weak_residual)
from .closedform import (BumpProfile, SeriesRule, analytic_mode, bump_profile,
                         series_rule)
from .fields import (VectorFieldSpec, arc_renormalized, graph_vertical, horn,
                     parse_field, spiral, translate)
from .geometry import (GeometryReport, PoincareReport, check_conditions,
                       check_poincare, trapezoid_obstruction)
from .mesh import (DEMO_DOMAINS, DomainSamples, Grid, build_stacked_rectangles,
                   sample_domain)
from .operators import (MeanPair, ModeOperator, assemble_coupled_mode,
                        harmonic_extension_mode, mode_rhs, solve_linear,
                        solve_mean_pair, split_mode_solution)
from .periodic import (EpsilonParams, SolveReport, epsilon_march,
                       solve_periodic_harmonic)
from .timefourier import (FourierField, mean_decompose,
                          periodic_antiderivative, time_transform)

__version__ = "0.1.0"

__all__ = [
    "BumpProfile", "DEMO_DOMAINS", "DomainSamples", "EpsilonParams",
    "FourierField", "GeometryReport", "Grid", "IdentityReport",
    "MeanPair", "ModeOperator", "PoincareReport",
    "SeriesRule", "SolveReport", "VectorFieldSpec", "analytic_mode",
    "arc_renormalized", "assemble_coupled_mode", "build_stacked_rectangles",
    "bump_profile", "check_conditions", "check_poincare", "epsilon_march",
    "equipartition_residual", "estimate_check", "graph_vertical",
    "harmonic_extension_mode", "horn", "mean_decompose",
    "mode_rhs", "multiplier_identity_residual", "parse_field",
    "periodic_antiderivative", "regularity_scan", "sample_domain",
    "series_rule", "sobolev_time_norm", "solve_linear",
    "solve_mean_pair", "solve_periodic_harmonic", "spiral",
    "split_mode_solution", "time_transform", "translate",
    "trapezoid_obstruction", "weak_residual",
]
