"""Exception types shared across the package.  Each carries the exit
code the CLI returns for it.  ``as_integer`` and ``as_number`` are the one
integer and number rule for library and spec-file inputs: they raise
InvalidParameter, and every module can import them."""

import numbers


class WarpBankError(Exception):
    """Base class for all warpbank errors."""
    exit_code = 1


class InvalidParameter(WarpBankError):
    """A constructor or operation received an out-of-range argument."""
    exit_code = 2


def as_integer(value, what: str) -> int:
    """``value`` as an int if it is a real number with no fractional part
    (128, 128.0, np.int64(128)); "128", True, 0.5 or NaN raise.  A plain
    int, the common case, skips the slower abstract-type checks."""
    if type(value) is not int and not (
            isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise InvalidParameter(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_number(value, what: str) -> float:
    """``value`` as a float if it is a real number; "44100", True, or an
    integer past float range raise.  A plain float skips the abstract-type
    checks."""
    try:
        if type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool)):
            return float(value)
    except OverflowError:
        pass
    raise InvalidParameter(f"{what} must be a number, got {value!r}")


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
