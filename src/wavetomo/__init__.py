"""Nonlinear inverse scattering toolbox.

Forward model: the total field under multiple scattering is computed as a
convergent accelerated-gradient expansion of the Lippmann-Schwinger equation,
checked against closed-form cylinder/sphere solutions.
Inverse problem: TV-regularized FISTA driven by the adjoint-state gradient
of the data fit; the loop's fields and predictions, and the synthetic data,
are BiCGStab solves of the same equation (the exact reverse-mode gradient
through the expansion stays as the checked reference), with first-Born and
Rytov linearizations available as baselines.
"""

from .adjoint import (adjoint_state_gradient, data_fidelity,
                      gradient_data_fidelity, gradient_from_trace)
from .analytic import (AnalyticScene, analytic_field_2d, analytic_field_3d,
                       helmholtz_residual, radial_coeffs_2d, radial_coeffs_3d)
from .errors import (ConfigError, ConvergenceWarning, DimensionError,
                     MeasurementParseError, NumericalError, ResonanceError,
                     SingularityError, StepDegeneracyError, TransformError)
from .forward import (ForwardConfig, ForwardTrace, bicgstab, estimate_fixed_step,
                      forward_solve, predict_scattered)
from .greens import (DomainGreensOperator, MaskedSensorOperator,
                     SensorGreensOperator, apply_A, apply_AH,
                     build_domain_operator, build_sensor_operator, green_2d,
                     green_3d, self_interaction)
from .grid import DomainGrid, SensorSet, centered_grid, ring_sensors
from .metrics import (normalized_data_fit, normalized_error,
                      normalized_recon_error, snr_db)
from .phantoms import contrast, cylinders, shepp_logan
from .recon import (MeasurementSet, ReconConfig, ReconReport,
                    ScatteringProblem, Transmitter, born_gradient,
                    born_predict, fista_reconstruct, predict_all,
                    rytov_transform, total_gradient)
from .tv import (BoxConstraint, grad_adjoint, grad_op, proj_box, proj_dual,
                 prox_tv, tv_value)

__version__ = "0.1.0"
