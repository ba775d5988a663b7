"""Numerical laboratory for capillary minimal graphs over truncated half-spaces.

Solves div(Du / sqrt(1 + |Du|^2)) = H with the contact-angle condition
u_1 = -cos(theta) sqrt(1 + |Du|^2) on the wall, implements the closed-form
apparatus of the associated gradient estimates (cut-offs, angle ranges,
explicit constants), and runs desk-scale flatness experiments through a
config-driven harness and CLI.
"""

from .capillary import (AffineCapillarySolution, CapillaryAngle, ScalarField,
                        affine_capillary_solution, area_element,
                        calibration_value, capillary_area_element,
                        capillary_energy, capillary_gauge, conormal,
                        edge_differences, field_from_callable,
                        ghost_closure, unit_normal)
from .errors import (BadConfig, BadDimension, CapillaryLabError,
                     DegenerateAngle, DegenerateState,
                     EmptyRegion, HypothesisViolation, InvalidParameter,
                     InvariantViolation, LinearSolveFailure,
                     NonconformingExtent, ShapeMismatch,
                     UnresolvedRegion, ZeroVector)
from .estimates import (CutoffCheckReport, CutoffParams, LinearBound,
                        angle_condition_holds, angle_condition_lower_bound,
                        angle_threshold, choose_eps0_array,
                        conormal_stationarity_residual,
                        cutoff_derivative_check,
                        cutoff_profile, cutoff_weight, cutoff_weight_gradient,
                        gradient_bound, height_scale, one_sided_slope_limit)
from .geometry import (EllipsoidRegion, HalfSpaceGrid, NodeClass, RegionKind,
                       build_grid, in_region, inner_node_set)
from .harness import (AngleSweepRow, CheckResult, ExperimentConfig,
                      ExperimentReport, GradientBoundFit, ReportRow,
                      domain_for_radius, load_config, parse_config,
                      run_angle_sweep, run_audit, run_conormal_check,
                      run_gradient_bound_sweep, run_liouville_experiment,
                      run_minimizer_test, run_solve_experiment, write_csv)
from .solver import (ProblemSpec, SolveReport, SolveStatus, SolverConfig,
                     assemble_jacobian, assemble_residual, discrete_gradient,
                     newton_solve)

__version__ = "0.1.0"
