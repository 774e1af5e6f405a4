"""Flat Lagrangian immersions, flat Egoroff metrics, and Egoroff nets from
rational loop-group dressing of explicit vacuum seeds, with numerical
verification of every structural invariant."""

from .errors import (AtPoleError, ChartSingularError, DressingForgeError,
                     NonFiniteError, OutOfDomainError, PoleCollisionError,
                     ProjectionDriftError, RankDeficientError, SingularError,
                     SphericalViolationError, StepTooLargeError)
from .linalg import (HermitianProjection, max_abs, project_onto_span,
                     projection_distance, solve_linear, star_reduce)
from .loops import (RealOnePoleFactor, TranslationFactor, TwoPointFactor,
                    TwoPoleFactor, check_reality, invert_factor,
                    one_pole_factor, permute_factors, two_pole_factor)
from .report import CheckResult, VerificationReport
from .frames import (ConstantProfile, ExtendedFrame, PolynomialProfile,
                     SampledProfile, VacuumSeed, metric_from_frame,
                     potential_on_grid)
from .geometry import (EgoroffMetric, Grid, ImmersionSample,
                       check_darboux_egoroff, check_lagrangian,
                       check_partial_invariance, check_sphere,
                       frame_dlambda_at_zero, hopf_project, limit_net,
                       sample_immersion, sphere_center)
from .dressing import (DressingRecord, OnePoleRecord, SphericalFamily,
                       TranslationRecord, TwoPoleRecord, dress, dress_extended,
                       dress_permuted, dress_real, dress_spherical,
                       dress_spherical_family, dress_translation,
                       dress_two_pole)
from .oracle import (BfIntegration, OracleResult, PathSpec, estimate_order,
                     integrate_bf, integrate_frame, integrate_frame_with_order,
                     integrate_frames, metric_interpolators)

__version__ = "0.1.0"
