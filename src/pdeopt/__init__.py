"""Optimal control and actuator design for semilinear parabolic systems.

Solvers and optimization routines for the controlled Kuramoto-Sivashinsky
equation (1-D, clamped) and a 2-D nonlinear diffusion model with mixed
boundary conditions: forward IMEX integration, exact discrete adjoints and
gradients, projected-gradient optimization of input and actuator design,
the worst initial condition (by Lanczos on linear models, by ascent
otherwise), and differential-Riccati cross validation.
"""

from .adjoint import (CostWeights, GradientBundle, GradientCheckReport,
                      assemble_gradients, compute_bundle, evaluate_cost,
                      gradient_check, solve_adjoint)
from .exceptions import (BlowUpError, ConfigError, ConstraintViolationError,
                         InvalidBoundaryError, InvalidGridError, NotApplicableError,
                         PdeoptError, StepSizeError)
from .forward import (ControlSignal, TimeGrid, Trajectory, energy_margin, energy_trace,
                      load_checkpoint, save_checkpoint, solve_forward, trajectory_to_csv,
                      verify_heat_iss_bound, verify_ks_bound)
from .grids import (Grid1D, Grid2D, LinearOperator, build_grid_1d, build_grid_2d,
                    h1_inner, h1_norm, h1_operator, h1_riesz_map, heat_operator,
                    inner_product, ks_operator, smallest_eigenvalue)
from .models import (CUBIC_SINK, ActuatorDesign, ActuatorFamily, HeatShapeActuator,
                     KsGaussianActuator, ModelSpec, ScalarNonlinearity,
                     actuator_design_derivative_adjoint, heat_jacobian_adjoint_apply,
                     heat_jacobian_apply, heat_nonlinearity, ks_jacobian_adjoint_apply,
                     ks_jacobian_apply, ks_nonlinearity, make_heat_model, make_ks_model)
from .optimize import (AdmissibleSets, CostReport, OptimizerConfig, Residuals,
                       WorstIcReport, golden_section_r, minimize_joint,
                       optimality_residuals, project_U, project_V_ball,
                       worst_initial_condition)
from .riccati import (FeedbackCheck, RiccatiSolution, closed_loop_simulate,
                      solve_differential_riccati, verify_feedback_consistency,
                      worst_ic_eigen_check)

__version__ = "0.1.0"
