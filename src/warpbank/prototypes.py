"""Prototype windows, evaluated in warped coordinates.

A prototype theta is a compactly supported window on the warped axis; the
bank translates it by integers.  Cosine-sum windows with an integer
stretch R have the useful property that the squared translates add up to
an exact constant,

    sum_m theta(t - m)^2 = R b_0^2 + (R/2) sum_{k>=1} b_k^2,

whenever R exceeds twice the highest cosine order.  That constant is what
tight designs divide out; a window scaled to a unit constant is known by
its coefficients alone.  The identity genuinely needs an integer
stretch: the squared window only has Fourier content at multiples of 1/R,
and integer translates cancel it exactly only when those multiples land
on integers.  (A quick numeric probe confirms the failure for, say,
R = 2.5.)

B-spline windows are provided for non-tight painless frames; their
squared translates do not sum to a constant, so they cannot be
normalized into tight designs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWindow, InvalidParameter, as_number

WINDOW_COEFFS = {
    "boxcar": (1.0,),
    "hann": (0.5, 0.5),
    "hamming": (0.54, 0.46),
    "blackman": (0.42, 0.5, 0.08),
}


@dataclass(frozen=True)
class CosineSumWindow:
    """theta(t) = sum_k b_k cos(2 pi k t / R) on [-R/2, R/2), else 0."""

    coeffs: tuple[float, ...]
    stretch: float

    def __post_init__(self) -> None:
        try:
            coeffs = tuple(as_number(b, "window coefficient") for b in self.coeffs)
        except TypeError:  # not iterable
            coeffs = ()
        if not coeffs or not all(np.isfinite(coeffs)):
            raise InvalidParameter(
                f"coefficients must be a nonempty finite sequence, got {self.coeffs!r}")
        object.__setattr__(self, "coeffs", coeffs)
        r = as_number(self.stretch, "stretch")
        object.__setattr__(self, "stretch", r)
        if not np.isfinite(r) or r <= 2.0 * self.order:
            raise InvalidParameter(
                f"constant squared overlap needs stretch > 2K, got R={r} with K={self.order}"
            )

    @property
    def order(self) -> int:
        """Highest cosine order K."""
        return len(self.coeffs) - 1

    @property
    def support(self) -> tuple[float, float]:
        return (-self.stretch / 2.0, self.stretch / 2.0)

    @property
    def sum_of_squares_constant(self) -> float:
        """Value of sum_m theta(t - m)^2, exact for integer stretch."""
        b = np.asarray(self.coeffs)
        return float(self.stretch * (b[0] ** 2 + 0.5 * np.sum(b[1:] ** 2)))

    @property
    def constant_overlap(self) -> bool:
        """True when the squared-translate sum is exactly constant."""
        return float(self.stretch).is_integer()

    @property
    def vanishes_at_edges(self) -> bool:
        """theta(-R/2) = sum_k (-1)^k b_k is 0 to rounding (Hann, Blackman)."""
        edge = sum((-1) ** k * b for k, b in enumerate(self.coeffs))
        return abs(edge) <= len(self.coeffs) * np.finfo(float).eps * sum(map(abs, self.coeffs))

    def __call__(self, t, out=None):
        # The sum b_0 + term_1 + ... + term_K runs left to right over the
        # whole probe.  A bank's probes are sorted and lie inside the
        # support but for rounding, so the mask is built only when the
        # probe's extremes say a point lies outside; those points are
        # summed at 0 and zeroed afterwards.  ``out`` may be the probe
        # itself: the last term is taken into it, after every other term
        # has read the probe, and the sum before it waits in a temporary,
        # from K = 3 with a second one for the middle terms (addition
        # commutes bit for bit, so the order is kept).
        t = np.asarray(t, dtype=float)
        half = self.stretch / 2.0
        outside = None
        if t.size and not (t.min() >= -half and t.max() < half):
            outside = ~((t >= -half) & (t < half))
            t = np.where(outside, 0.0, t)
        if out is None:
            out = np.empty(t.shape)
        partial = self.coeffs[0]  # b_0 + ... + term_{K-1}
        if self.order >= 2:
            partial = self._term(t, 1, np.empty(t.shape))
            partial += self.coeffs[0]
            term = np.empty(t.shape) if self.order > 2 else None
            for k in range(2, self.order):
                partial += self._term(t, k, term)
        if self.order:
            self._term(t, self.order, out)
            out += partial
        else:
            out[...] = partial
        if outside is not None:
            out[outside] = 0.0
        return out

    def _term(self, t, k: int, out: np.ndarray) -> np.ndarray:
        """b_k cos(2 pi k t / R), into ``out``."""
        np.multiply(t, 2.0 * np.pi * k / self.stretch, out=out)
        np.cos(out, out=out)
        out *= self.coeffs[k]
        return out

    @property
    def record(self) -> dict:
        return {
            "kind": "cosine_sum",
            "coeffs": list(self.coeffs),
            "stretch": self.stretch,
        }


@dataclass(frozen=True)
class BSplineWindow:
    """Centered B-spline of order 2 (hat) or 3 (quadratic), stretched to
    support [-R/2, R/2]."""

    order: int
    stretch: float

    def __post_init__(self) -> None:
        if self.order not in (2, 3):
            raise InvalidParameter(f"b-spline order must be 2 or 3, got {self.order}")
        r = as_number(self.stretch, "stretch")
        object.__setattr__(self, "stretch", r)
        if not np.isfinite(r) or r <= 0.0:
            raise InvalidParameter(f"stretch must be positive, got {r}")

    @property
    def support(self) -> tuple[float, float]:
        return (-self.stretch / 2.0, self.stretch / 2.0)

    sum_of_squares_constant = None
    constant_overlap = False
    vanishes_at_edges = True

    def __call__(self, t, out=None):
        # rescale so the unit B-spline's support [-order/2, order/2]
        # lands on [-R/2, R/2]; ``out`` may be the probe itself
        t = np.asarray(t, dtype=float)
        u = np.abs(t, out=np.empty(t.shape) if out is None else out)
        u *= self.order / self.stretch
        if self.order == 2:
            np.subtract(1.0, u, out=u)
            return np.maximum(u, 0.0, out=u)
        mid = u <= 0.5
        tail = (u > 0.5) & (u <= 1.5)
        outside = ~(mid | tail)
        u[mid] = 0.75 - u[mid] ** 2
        u[tail] = 0.5 * (1.5 - u[tail]) ** 2
        u[outside] = 0.0
        return u

    @property
    def record(self) -> dict:
        return {
            "kind": "bspline",
            "order": self.order,
            "stretch": self.stretch,
        }


def named_window(name: str, stretch: float):
    """Catalog lookup: hann, hamming, blackman, boxcar, bspline2, bspline3."""
    key = name.lower() if isinstance(name, str) else None
    if key in WINDOW_COEFFS:
        return CosineSumWindow(WINDOW_COEFFS[key], stretch)
    if key in ("bspline2", "bspline3"):
        return BSplineWindow(order=int(key[-1]), stretch=stretch)
    raise InvalidParameter(
        f"unknown window {name!r}; expected one of "
        f"{sorted(WINDOW_COEFFS) + ['bspline2', 'bspline3']}"
    )


def sum_of_squares(window, t):
    """sum_{m} window(t - m)^2 over every integer translate that can
    touch the probe points."""
    t = np.asarray(t, dtype=float)
    lo_s, hi_s = window.support
    m_lo = int(np.floor(t.min() - hi_s))
    m_hi = int(np.ceil(t.max() - lo_s))
    total = np.zeros_like(t)
    for m in range(m_lo, m_hi + 1):
        total += window(t - m) ** 2
    return total


def normalize_for_tightness(window: CosineSumWindow) -> CosineSumWindow:
    """Scale a cosine-sum window so its squared translates sum to 1."""
    if not isinstance(window, CosineSumWindow):
        raise InvalidParameter(
            "only cosine-sum windows have a constant squared-translate sum"
        )
    if not window.constant_overlap:
        raise InvalidParameter(
            f"squared-translate sum is only constant for integer stretch, got R={window.stretch}"
        )
    c_t = window.sum_of_squares_constant
    if c_t <= 0.0:
        raise DegenerateWindow("window has no energy to normalize")
    scale = 1.0 / np.sqrt(c_t)
    return CosineSumWindow(tuple(b * scale for b in window.coeffs), window.stretch)
