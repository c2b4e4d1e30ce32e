"""Warped time-frequency filter banks.

Design frequency-warped filter banks (constant-Q, auditory ERB-style,
power-law scales) on finite grids, analyze and resynthesize signals with
perfect reconstruction in the painless regime, and compute frame-bound
diagnostics.
"""

from .bank import (Channel, Explicit, GridSpec, Natural, Painless,
                   ResidualChannel, WarpedBank, build_bank, channel_range,
                   channel_response_continuous, design_tight, natural_factors,
                   painless_dual, painless_factors, round_factors_to_grid,
                   with_scaled_factors)
from .diagnostics import (FrameReport, diagonal_bounds,
                          empirical_bounds, format_report, frame_report,
                          sufficient_bounds, tightness_sweep)
from .errors import (CoverageError, DegenerateWindow, DomainError, EmptyBank,
                     FingerprintMismatch, InvalidParameter, LengthMismatch,
                     NoConvergence, NotPainless, WarpBankError)
from .prototypes import (BSplineWindow, CosineSumWindow, make_cosine_window,
                         named_window, normalize_for_tightness,
                         sum_of_squares)
from .specfile import load_bank_spec, save_bank_spec
from .transform import (CoefficientSet, Signal, analyze, apply_frame_operator,
                        load_coefficients, save_coefficients, synthesize)
from .warping import (Domain, ErbLikeWarping, LogWarping, SignedPowWarping,
                      SymPowWarping, WarpingFunction, check_moderate_inequality,
                      make_warping)

__version__ = "0.1.0"

__all__ = [
    "BSplineWindow", "Channel", "CoefficientSet", "CosineSumWindow",
    "CoverageError", "DegenerateWindow", "Domain", "DomainError", "EmptyBank",
    "ErbLikeWarping", "Explicit", "FingerprintMismatch", "FrameReport",
    "GridSpec", "InvalidParameter", "LengthMismatch", "LogWarping", "Natural",
    "NoConvergence", "NotPainless", "Painless", "ResidualChannel", "Signal",
    "SignedPowWarping", "SymPowWarping", "WarpBankError", "WarpedBank",
    "WarpingFunction", "analyze", "apply_frame_operator", "build_bank",
    "channel_range", "channel_response_continuous", "check_moderate_inequality",
    "design_tight", "diagonal_bounds",
    "empirical_bounds", "format_report", "frame_report", "load_bank_spec",
    "load_coefficients", "make_cosine_window", "make_warping",
    "named_window", "natural_factors", "normalize_for_tightness",
    "painless_dual", "painless_factors", "round_factors_to_grid",
    "save_bank_spec", "save_coefficients", "sufficient_bounds",
    "sum_of_squares", "synthesize", "tightness_sweep", "with_scaled_factors",
]
