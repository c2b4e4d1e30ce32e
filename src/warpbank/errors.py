"""Exception types shared across the package.  Each carries the exit
code the CLI returns for it."""


class WarpBankError(Exception):
    """Base class for all warpbank errors."""
    exit_code = 1


class InvalidParameter(WarpBankError):
    """A constructor or operation received an out-of-range argument."""
    exit_code = 2


class DomainError(WarpBankError):
    """A warping map was evaluated outside its frequency domain."""
    exit_code = 2


class DegenerateWindow(WarpBankError):
    """A prototype window has no energy to normalize."""
    exit_code = 2


class EmptyBank(WarpBankError):
    """No channel intersects the grid's frequency range."""
    exit_code = 2


class CoverageError(WarpBankError):
    """The frame-operator diagonal vanishes on some active bin."""
    exit_code = 3


class NotPainless(WarpBankError):
    """An operation requires the painless support condition and the bank
    violates it on at least one channel."""
    exit_code = 6


class LengthMismatch(WarpBankError):
    """Signal length does not match the bank's grid length."""
    exit_code = 4


class FingerprintMismatch(WarpBankError):
    """Coefficients do not belong to a bank with this geometry."""
    exit_code = 5


class NoConvergence(RuntimeWarning):
    """The Lanczos run for the empirical frame bounds reached its step
    cap; its last Ritz values are reported anyway."""
