"""Quaternionic pluripotential calculus: exact algebra, densities, measures.

The package is organized in layers:

- :mod:`qma.hamilton`   quaternions, quaternionic matrices, Moore determinant
- :mod:`qma.exterior`   exterior algebra over C^(2n) and positivity notions
- :mod:`qma.fields`     exact and black-box scalar fields on H^n = R^(4n)
- :mod:`qma.calculus`   the first-order operators, complex coordinates, forms
- :mod:`qma.monge_ampere`  density pipelines and the fundamental family
- :mod:`qma.quadrature` deterministic ball/sphere/level-set rules
- :mod:`qma.currents`   wedge currents, masses, regularization limits
- :mod:`qma.potential`  boundary measures and the Jensen-type identity
- :mod:`qma.cli`        the ``qma`` command line front end
"""

from .errors import (ConfigError, DegenerateLevelSetError, DimensionError,
                     NumericalInconsistencyError, OracleError, QuadratureError,
                     QmaError)
from .hamilton import (Quaternion, QMatrix, tau, jmatrix,
                       is_hyperhermitian, moore_det, mixed_discriminant,
                       random_quaternion, random_qmatrix, random_hyperhermitian)
from .exterior import (RationalComplex, ExtElement, beta, omega_top,
                       top_coefficient, rho_j, is_real, pullback, elementary_sp,
                       random_elementary_sp, random_strongly_positive,
                       positivity_test, PositivityResult)
from .fields import (ScalarField, Polynomial, ClosedForm, BlackBox,
                     LinearSubstitution, ChainField, GridField,
                     InvShift, normsq, quadform, invshift)
from .calculus import (CxField, nabla, nabla_matrices, z_field,
                       delta_field, delta_matrix, delta_matrices, laplace,
                       d_scalar, FormField, closedness_residual,
                       change_of_variables_check)
from .monge_ampere import (ma_density, mixed_ma, psh_test, PshResult,
                           moore_equivalence_residual, fundamental_ma_density,
                           fundamental_mass_exact, fundamental_mass_limit_coefficient)
from .quadrature import (integrate_polynomial_ball, ball_moment_coefficient,
                         sphere_moment_coefficient, sphere_area, sobol_sphere,
                         radial_ball_integral,
                         BallQuadrature, SphereRule, EllipsoidRule,
                         StarShapedRule, gauss_legendre_panels)
from .currents import (RegularizedCurrent, wedge_top_density, bt_product,
                       sigma_mass, cln_ratio, RadialProfile, lelong_number,
                       shell_identity_check,
                       bump_field, stokes_check, integration_by_parts_residual,
                       positivity_pairing_min, mollify, mollifier_weights,
                       convergence_suite, ConvergenceReport)
from .potential import (boundary_measure_density, surface_integral,
                        sublevel_integral, JensenReport, lelong_jensen,
                        boundary_mass_residual, smooth_max_family)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
