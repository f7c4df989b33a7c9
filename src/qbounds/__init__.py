"""Bounds engine for q-ary error-correcting codes: entropy and Johnson
radius, the finite-length Elias-Bassalygo rate bound, symmetry-rank
thresholds derived from it, and an exhaustive small-instance oracle."""

from .errors import (AmbiguousComparisonError, DomainError, PreconditionError,
                     QBoundsError, ResourceBudgetError)
from .precision import DEFAULT_POLICY, PrecisionPolicy
from .qcore import (entropy, entropy_d1, entropy_d2, hamming_ball_volume,
                    johnson_radius, johnson_radius_d1, log_binomial_estimate,
                    stirling_bounds)
from .eb_bounds import (BoundParams, BoundResult, RankBoundResult,
                        eb_rate_bound, eb_rate_bound_continuous, is_prime,
                        rank_bound, verify_rank_monotonicity)
from .geometry import (Classification, CodimReport, DerivedCN0, DerivedN,
                       PrimeConstants, ThresholdReport, baseline_rank,
                       classify_rank, codim_guarantees, constants,
                       derive_c_n0, derive_N, envelope_check,
                       f1_monotonicity_scan, paper_tables, threshold_F,
                       threshold_F_array)
from .oracle import (Code, eb_soundness_sweep, hamming_distance,
                     hamming_weight, johnson_ball_check, johnson_suite,
                     make_code, max_code_size, min_distance, parse_code,
                     pigeonhole_suite, pigeonhole_witness, random_code,
                     serialize_code)
from .report import VerificationReport

__version__ = "0.1.0"
