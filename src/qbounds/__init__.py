"""Bounds engine for q-ary error-correcting codes: entropy and Johnson
radius, the finite-length Elias-Bassalygo rate bound, symmetry-rank
thresholds derived from it, and an exhaustive small-instance oracle.

Importing the package loads only ``errors``; every other public name is
looked up in its submodule, which is imported the first time one of its
names is used (PEP 562).
"""

import importlib

from .errors import (AmbiguousComparisonError, DomainError, PreconditionError,
                     QBoundsError, ResourceBudgetError)

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "errors": ("AmbiguousComparisonError", "DomainError", "PreconditionError",
               "QBoundsError", "ResourceBudgetError"),
    "qcore": ("entropy", "entropy_d1", "entropy_d2", "hamming_ball_volume",
              "johnson_radius", "johnson_radius_d1", "stirling_bounds"),
    "eb_bounds": ("BoundParams", "BoundResult", "RankBoundResult",
                  "eb_rate_bound", "eb_rate_bound_continuous", "is_prime",
                  "rank_bound", "verify_rank_monotonicity"),
    "geometry": ("Classification", "CodimReport", "DerivedCN0", "DerivedN",
                 "PrimeConstants", "ThresholdReport", "baseline_rank",
                 "classify_rank", "codim_guarantees", "constants",
                 "derive_c_n0", "derive_N", "envelope_check",
                 "f1_monotonicity_scan", "paper_tables", "threshold_F",
                 "threshold_F_array"),
    "oracle": ("Code", "eb_soundness_sweep", "johnson_ball_check",
               "johnson_suite", "make_code", "max_code_size", "parse_code",
               "pigeonhole_suite", "pigeonhole_witness", "random_code",
               "serialize_code"),
    "report": ("VerificationReport",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}",
                                                __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
