"""Numerics for slice-regular function algebra on the quaternionic unit ball
and the fractal-fractional Dirichlet-type norms it carries, with quadrature
oracles for every computable identity.
"""

from .errors import (INF, BranchError, DegenerateMeasure, DegreeMismatch,
                     DivergentIntegral, DomainError, FFQError, FrameError,
                     IntrinsicError, NoConvergence, check_order)
from .quaternion import (E1, E2, E3, ONE, Quaternion, SliceFrame,
                         SlicePolar, STANDARD_FRAME, as_quaternion, dot4,
                         embed_complex, frame_coords, frame_embed,
                         principal_power, random_frame,
                         random_unit_imaginary, slice_decompose,
                         truncated_exp)
from .holo_series import (CPowerSeries, fractal_measure_c,
                          fractal_measure_deriv_c, in_slit_disk,
                          principal_power_c, truncated_exp_c)
from .slice_regular import (QPowerSeries, SplitPair, cullen_derivative,
                            eval_q, extend_from_slice, intrinsic_exp,
                            is_intrinsic, regular_conjugate,
                            representation_formula, split, star_inverse,
                            star_product, symmetrization)
from .ff_real import (DEFAULT_STEP, FFParams, ProportionalWeights,
                      beta_fractal_derivative, default_weights,
                      ff_derivative_real, ff_family_sigma_alpha2,
                      measure_identity, measure_power, measure_truncated_exp,
                      proportional_derivative)
from .quadrature import (DEFAULT_SPEC, MAX_FINEST_NODES, QuadratureSpec,
                         QuadResult, SlitPath, build_slit_path, integrate_disk,
                         path_integral)
from .ff_complex import (BASE_POINT, CoefficientIntegrals, DirichletValue,
                         bergman_kernel, coefficient_integrals,
                         dirichlet_norm, dirichlet_norm_quad, dirichlet_norms_quad,
                         dirichlet_norm_series, exact_coefficient_integrals,
                         ff_eval_c, ff_eval_stack, inner_product_c,
                         integrating_factor_residual, kernel_K_half,
                         reproduce_identity_1, reproduce_identity_2,
                         reproduction_rhs_1_stack, reproduction_rhs_2_stack)
from .ff_quaternionic import (QDirichletValue, QReproduceResult, SLICE_BOUND,
                              ff_eval_q, q_reproduce, qdirichlet_inner_product,
                              qdirichlet_norm, qdirichlet_norm_series,
                              slice_norm_compare)

__version__ = "0.1.0"
