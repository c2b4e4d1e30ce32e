"""Warping maps that deform the frequency axis.

A warping map F takes the frequency domain D (the whole line, or the
positive half line) bijectively onto the real line.  It is increasing and
continuously differentiable, its derivative does not increase away from
zero, and maps on the full line are odd: both full-line families, and
their inverses, evaluate sgn(t) g(|t|).  Filter banks are built from
integer translates of a prototype window in warped coordinates, so the
inverse map fixes channel centers and the inverse derivative

    w = (F^{-1})'

fixes channel bandwidths.  Every family below carries a companion weight v
with

    w(x + y) <= v(x) * w(y)   for all real x, y          (moderateness)

where v is submultiplicative, v(x + y) <= v(x) * v(y); each family's
docstring proves its pair.  A constant C >= 1 in w(x + y) <= C v(x) w(y)
folds into v, since C v is submultiplicative too (Groechenig, "Weight
functions in time-frequency analysis", 2007), so no family keeps one.
Downsampling policies use v to thin coefficients channel by channel
without breaking the painless support condition.

Built-in families:

``log``        F(t) = c log(t/d) on t > 0.  Constant-Q / wavelet scale.
``sympow``     F(t) = c((t/d)^l - (t/d)^{-l}) on t > 0.  Power-like at
               high frequencies, log-like near zero.
``erblike``    F(t) = sgn(t) c log(1 + |t|/d) on the full line.  With
               c = 9.265, d = 228.8 this is the auditory ERB scale in Hz.
``signedpow``  F(t) = sgn(t) c((|t|/d + 1)^l - 1) on the full line.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, InvalidParameter, as_number

# Auditory ERB-scale calibration (frequencies in Hz).
ERB_SLOPE = 9.265
ERB_BREAK_HZ = 228.8


class Domain(enum.Enum):
    FULL_LINE = "full_line"
    POSITIVE_HALF_LINE = "positive_half_line"


def _odd(g, t) -> np.ndarray:
    """sgn(t) g(|t|), the odd extension of the map g on t >= 0.  It is
    odd bit for bit: for t != 0 the value at -t is exactly the negated
    value at t, which lets a full-line bank evaluate F on the
    non-negative bins only (see bank)."""
    t = np.asarray(t, dtype=float)
    return np.sign(t) * g(np.abs(t))


def _positive(warping, *names: str) -> None:
    """Store each named parameter of a frozen ``warping`` as a float; it
    must be a positive, finite number."""
    for name in names:
        value = as_number(getattr(warping, name), name)
        if not np.isfinite(value) or value <= 0.0:
            raise InvalidParameter(f"{name} must be positive and finite, got {value!r}")
        object.__setattr__(warping, name, value)


@dataclass(frozen=True)
class WarpingFunction:
    """Base type; use :func:`make_warping` or a concrete family class."""

    c: float = 1.0
    d: float = 1.0

    family: ClassVar[str] = "abstract"
    domain: ClassVar[Domain] = Domain.FULL_LINE

    def __post_init__(self) -> None:
        _positive(self, "c", "d")

    # -- closed forms, to be provided per family ------------------------
    def f(self, t):
        """Warped coordinate of frequency ``t`` (t must lie in D)."""
        raise NotImplementedError

    def f_inv(self, x):
        """Frequency whose warped coordinate is ``x``."""
        raise NotImplementedError

    def f_deriv(self, t):
        """dF/dt at frequency ``t`` (t must lie in D)."""
        raise NotImplementedError

    def weight(self, x):
        """w(x) = (F^{-1})'(x), the bandwidth weight."""
        raise NotImplementedError

    def aux_weight(self, x):
        """Submultiplicative companion weight v with w(x+y) <= v(x) w(y)."""
        raise NotImplementedError

    # -- shared plumbing -------------------------------------------------
    @property
    def params(self) -> dict:
        return {"family": self.family, "c": self.c, "d": self.d, "l": None}

    def _require_domain(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.domain is Domain.POSITIVE_HALF_LINE and np.any(t <= 0.0):
            raise DomainError(f"{self.family} warping is defined for t > 0 only")
        return t


@dataclass(frozen=True)
class LogWarping(WarpingFunction):
    """F(t) = c log(t/d) on t > 0; inverse d e^{x/c}.  With v(x) = e^{x/c},
    moderateness is the equality w(x + y) = e^{x/c} w(y)."""

    family: ClassVar[str] = "log"
    domain: ClassVar[Domain] = Domain.POSITIVE_HALF_LINE

    def f(self, t):
        t = self._require_domain(t)
        return self.c * np.log(t / self.d)

    def f_inv(self, x):
        x = np.asarray(x, dtype=float)
        return self.d * np.exp(x / self.c)

    def f_deriv(self, t):
        t = self._require_domain(t)
        return self.c / t

    def weight(self, x):
        x = np.asarray(x, dtype=float)
        return (self.d / self.c) * np.exp(x / self.c)

    def aux_weight(self, x):
        # one-sided on purpose: w(x+y) = e^{x/c} w(y) exactly
        x = np.asarray(x, dtype=float)
        return np.exp(x / self.c)


@dataclass(frozen=True)
class _PowerLaw(WarpingFunction):
    """Base of the power families: an exponent l in (0, 1] next to c, d."""

    l: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "l", as_number(self.l, "l"))
        if not (0.0 < self.l <= 1.0):
            raise InvalidParameter(f"l must lie in (0, 1], got {self.l!r}")

    @property
    def params(self) -> dict:
        return {"family": self.family, "c": self.c, "d": self.d, "l": self.l}


@dataclass(frozen=True)
class SymPowWarping(_PowerLaw):
    """F(t) = c((t/d)^l - (t/d)^{-l}) on t > 0.

    The inverse follows from the quadratic in s = (t/d)^l,
    s - 1/s = x/c:

        F^{-1}(x) = d (x/(2c) + sqrt((x/(2c))^2 + 1))^{1/l}.

    The weight w is written out analytically (not as 1/F'(F^{-1})) so the
    derivative identity stays a nontrivial cross-check.  The companion
    weight is v(x) = (1 + |x|/c)^{2/l}.  Proof of moderateness: with
    h = x/(2c), k = y/(2c), K(z) = sqrt(1 + z^2) and E(z) = z + K(z) =
    e^{asinh z}, w(y) = d E(k)^{1/l} / (2cl K(k)), so the claim is
    R = (E(h+k)/E(k))^{1/l} K(k)/K(h+k) <= (1 + 2|h|)^{2/l}.  Use that
    asinh is subadditive on [0, inf), 1 <= E(z) <= 1 + 2z for z >= 0,
    E(-z) = 1/E(z), E/K = 1 + z/K(z) increases, and 1/l >= 1.
    - h <= 0: E(h+k)/E(k) <= 1, so R <= (E/K)(h+k) / (E/K)(k) <= 1.
    - h > 0, k >= 0: E(h+k)/E(k) <= E(h), K(k) <= K(h+k), so R <= E(h)^{1/l}.
    - h > 0, h + k <= 0: r = E(h+k)/E(k) <= E(h), K(k)/K(h+k) <= r as
      E/K increases, so R <= r^{1+1/l} <= E(h)^{2/l}.
    - k < 0 < p = h + k, q = -k: R = (E(p) E(q))^{1/l} K(q)/K(p).  For
      q <= p, (1 + 2p)(1 + 2q) <= (1 + 2p + 2q)^2.  For q > p,
      R <= (E(p) E(q) K(q)/K(p))^{1/l}, and (1 + p/K(p))(q K(q) + 1 + q^2)
      is at most (1 + p)(1 + q) + 4q^2 for p <= 1 and below 2 + 2q + 4q^2
      for p > 1, so within (1 + 2p + 2q)^2.
    Numerically the supremum of w(x + y) / (v(x) w(y)) is 1, at x = 0.  v
    is submultiplicative: 1 + |x + y|/c <= (1 + |x|/c)(1 + |y|/c).
    """

    family: ClassVar[str] = "sympow"
    domain: ClassVar[Domain] = Domain.POSITIVE_HALF_LINE

    def f(self, t):
        t = self._require_domain(t)
        u = t / self.d
        return self.c * (u**self.l - u ** (-self.l))

    def _e_and_k(self, x):
        """(E(h), K(h)) at h = x / (2c); for h < 0, E = 1 / (K - h), as h + K cancels."""
        h = np.asarray(x, dtype=float) / (2.0 * self.c)
        root = np.sqrt(h * h + 1.0)
        e = np.abs(h) + root
        return np.where(h < 0, 1.0 / e, e), root

    def f_inv(self, x):
        return self.d * self._e_and_k(x)[0] ** (1.0 / self.l)

    def f_deriv(self, t):
        t = self._require_domain(t)
        u = t / self.d
        return (self.c * self.l / self.d) * (u ** (self.l - 1.0) + u ** (-self.l - 1.0))

    def weight(self, x):
        e, root = self._e_and_k(x)
        return (self.d / (2.0 * self.c * self.l)) * e ** (1.0 / self.l) / root

    def aux_weight(self, x):
        x = np.asarray(x, dtype=float)
        return (1.0 + np.abs(x) / self.c) ** (2.0 / self.l)


@dataclass(frozen=True)
class ErbLikeWarping(WarpingFunction):
    """F(t) = sgn(t) c log(1 + |t|/d) on the full line.

    Defaults to the auditory ERB calibration c = 9.265, d = 228.8 (Hz).
    With v(x) = e^{|x|/c}, moderateness is |x + y| <= |x| + |y|.
    """

    c: float = ERB_SLOPE
    d: float = ERB_BREAK_HZ

    family: ClassVar[str] = "erblike"
    domain: ClassVar[Domain] = Domain.FULL_LINE

    def f(self, t):
        return _odd(lambda u: self.c * np.log1p(u / self.d), t)

    def f_inv(self, x):
        return _odd(lambda u: self.d * np.expm1(u / self.c), x)

    def f_deriv(self, t):
        t = np.asarray(t, dtype=float)
        return self.c / (self.d + np.abs(t))

    def weight(self, x):
        x = np.asarray(x, dtype=float)
        return (self.d / self.c) * np.exp(np.abs(x) / self.c)

    def aux_weight(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(np.abs(x) / self.c)


@dataclass(frozen=True)
class SignedPowWarping(_PowerLaw):
    """F(t) = sgn(t) c((|t|/d + 1)^l - 1) on the full line.

    With v(x) = (1 + |x|/c)^{1/l - 1}, moderateness is
    1 + |x + y|/c <= (1 + |x|/c)(1 + |y|/c), raised to 1/l - 1 >= 0.
    """

    family: ClassVar[str] = "signedpow"
    domain: ClassVar[Domain] = Domain.FULL_LINE

    def f(self, t):
        return _odd(lambda u: self.c * ((u / self.d + 1.0) ** self.l - 1.0), t)

    def f_inv(self, x):
        return _odd(lambda u: self.d * ((u / self.c + 1.0) ** (1.0 / self.l) - 1.0), x)

    def f_deriv(self, t):
        t = np.asarray(t, dtype=float)
        return (self.c * self.l / self.d) * (np.abs(t) / self.d + 1.0) ** (self.l - 1.0)

    def weight(self, x):
        x = np.asarray(x, dtype=float)
        return (self.d / (self.l * self.c)) * (np.abs(x) / self.c + 1.0) ** (1.0 / self.l - 1.0)

    def aux_weight(self, x):
        x = np.asarray(x, dtype=float)
        return (np.abs(x) / self.c + 1.0) ** (1.0 / self.l - 1.0)


_FAMILIES = {
    "log": LogWarping,
    "sympow": SymPowWarping,
    "erb": ErbLikeWarping,
    "erblike": ErbLikeWarping,
    "signedpow": SignedPowWarping,
}


def make_warping(family: str, c: float | None = None, d: float | None = None,
                 l: float | None = None) -> WarpingFunction:
    """Build a warping map by family name.

    ``c`` and ``d`` default to the family's natural calibration (1 except
    for erblike, which defaults to the ERB constants).  ``l`` is required
    for the power families and rejected for the others.
    """
    cls = _FAMILIES.get(family.lower()) if isinstance(family, str) else None
    if cls is None:
        raise InvalidParameter(
            f"unknown warping family {family!r}; expected one of {sorted(set(_FAMILIES))}")
    kwargs = {k: v for k, v in (("c", c), ("d", d)) if v is not None}
    if issubclass(cls, _PowerLaw):
        if l is None:
            raise InvalidParameter(f"{cls.family} requires the exponent l")
        kwargs["l"] = l
    elif l is not None:
        raise InvalidParameter(f"{cls.family} does not take an exponent l")
    return cls(**kwargs)


def check_moderate_inequality(warping: WarpingFunction, x, y) -> bool:
    """Check F(y) + F(x + F^{-1}(0)) <= F(y + v(F(y)) x) pointwise, up to a
    relative slack of 1e-10.  Moderateness implies it: with s = F(y) and
    u = F(x + F^{-1}(0)), F^{-1}(s + u) - y integrates w(s + .) over
    [0, u], so is at most v(s) x.  ``x`` (>= 0) and ``y`` (in D) may be
    scalars or arrays, broadcast together; returns True if it holds
    at every point."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise InvalidParameter("x must be nonnegative")
    y = warping._require_domain(y)
    fy = warping.f(y)
    lhs = fy + warping.f(x + warping.f_inv(0.0))
    rhs = warping.f(y + warping.aux_weight(fy) * x)
    return bool(np.all(lhs <= rhs + 1e-10 * np.maximum(1.0, np.abs(rhs))))
