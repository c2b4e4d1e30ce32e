"""Exception types shared across the package."""


class WarpBankError(Exception):
    """Base class for all warpbank errors."""


class InvalidParameter(WarpBankError):
    """A constructor or operation received an out-of-range argument."""


class DomainError(WarpBankError):
    """A warping map was evaluated outside its frequency domain."""


class DegenerateWindow(WarpBankError):
    """A prototype window has no energy to normalize."""


class EmptyBank(WarpBankError):
    """No channel intersects the grid's frequency range."""


class CoverageError(WarpBankError):
    """The frame-operator diagonal vanishes on some active bin."""


class NotPainless(WarpBankError):
    """An operation requires the painless support condition and the bank
    violates it on at least one channel."""


class LengthMismatch(WarpBankError):
    """Signal length does not match the bank's grid length."""


class FingerprintMismatch(WarpBankError):
    """Coefficients do not belong to a bank with this geometry."""


class NoConvergence(RuntimeWarning):
    """The Lanczos run for the empirical frame bounds reached its step
    cap; its last Ritz values are reported anyway."""
