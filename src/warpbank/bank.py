"""Warped filter banks on finite frequency grids.

Channel m carries the prototype window shifted m steps along the warped
axis.  On a grid with L bins at sample rate fs, its frequency response is
sampled as

    response[j] = sqrt(a_m / L) * theta(F(xi_j) - m)

on the bins xi_j the grid actually has; channels whose warped support
sticks out past the grid are truncated there (no wrap-around).  F is
evaluated once, on the active bins; a designed bank holds exactly the
channels whose support [c+m, d+m) holds some F(xi_j).  The downsampling
factor a_m is an integer divisor of L, so the channel has exactly
N_m = L / a_m coefficients, and the frame-operator diagonal

    d(xi_j) = sum_m (L / a_m) response_m[j]^2 = sum_m theta(F(xi_j) - m)^2

reproduces the continuous squared-translate sum with no grid constant.

Grids over the positive half line get two extra single-coefficient
residual channels holding the DC and Nyquist bins, which a half-line
warping cannot reach.  Each warped channel then also acts on the mirrored
negative bins (L - bin) % L (see transform), so the bank covers all of C^L
and real signals round-trip through conjugate symmetry.

Analysis, synthesis, the diagonal and the dual all read one flat plan,
built on first use and grouped by frame length N: hops snap to divisors
of L, so a bank has few distinct N however many channels it has.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Mapping

import numpy as np

from .errors import CoverageError, EmptyBank, InvalidParameter, NotPainless
from .prototypes import CosineSumWindow, named_window, normalize_for_tightness
from .warping import Domain, WarpingFunction


@dataclass(frozen=True)
class GridSpec:
    """Finite frequency grid: L bins spanning one period of fs Hz."""

    length: int
    fs: float
    domain: Domain

    def __post_init__(self) -> None:
        if self.length <= 0 or self.length % 2 != 0:
            raise InvalidParameter(f"grid length must be a positive even integer, got {self.length}")
        if not np.isfinite(self.fs) or self.fs <= 0:
            raise InvalidParameter(f"sample rate must be positive, got {self.fs}")
        if not isinstance(self.domain, Domain):
            raise InvalidParameter(f"domain must be a Domain, got {self.domain!r}")

    @property
    def bin_hz(self) -> float:
        return self.fs / self.length

    def signed_bin_range(self) -> tuple[int, int]:
        """Inclusive range of bin indices carrying warped channels, in
        signed (unwrapped) coordinates."""
        half = self.length // 2
        if self.domain is Domain.POSITIVE_HALF_LINE:
            return (1, half - 1)  # DC and Nyquist go to residual channels
        return (-half + 1, half)


# ---------------------------------------------------------------------------
# factor policies

@dataclass(frozen=True)
class Natural:
    """a_m = a_tilde / (C v(m)); a_tilde defaults to the m = 0 painless bound."""

    a_tilde: float | None = None


@dataclass(frozen=True)
class Painless:
    """a_m = (F^{-1}(d+m) - F^{-1}(c+m))^{-1}, the largest painless step."""


@dataclass(frozen=True)
class Explicit:
    """Caller-provided integer hops (samples) per channel index."""

    factors: Mapping[int, int]


# ---------------------------------------------------------------------------
# bank types

@dataclass
class Channel:
    m: int
    center_hz: float
    a: int
    n_frames: int
    start_bin: int
    response: np.ndarray
    painless: bool

    @property
    def support_bins(self) -> tuple[int, int]:
        """Half-open sampled bin interval in signed coordinates."""
        return (self.start_bin, self.start_bin + len(self.response))


@dataclass
class ResidualChannel:
    """Single-coefficient channel pinning one self-conjugate bin."""

    bin_index: int
    a: int

    n_frames = 1
    response_value = 1.0


@dataclass
class BankPlan:
    """Flat sampled geometry.  ``bins`` (0..L-1) and ``response`` run group
    after group, one entry per sampled bin; channel i's response is a view
    at ``response[offsets[i]:]``.  Each group (N, rows, span, slots) holds
    the channels of one frame length N, row r being channel ``rows[r]``:
    its entries ``span`` fold at ``slots`` = row * N + bin % N into a
    rows x N block (a channel with no bin folds to a row of zeros)."""

    groups: list[tuple[int, list[int], slice, np.ndarray]]
    bins: np.ndarray
    mirror_bins: np.ndarray | None
    response: np.ndarray
    offsets: np.ndarray


@dataclass
class WarpedBank:
    warping: WarpingFunction
    window: object
    grid: GridSpec
    kind: str
    channels: list[Channel]
    residuals: list[ResidualChannel]
    policy_record: dict
    fingerprint: str
    _diag: np.ndarray | None = field(default=None, repr=False)
    _plan: BankPlan | None = field(default=None, repr=False)

    @property
    def painless(self) -> bool:
        return all(ch.painless for ch in self.channels)

    @property
    def plan(self) -> BankPlan:
        """The flat plan (built on first use, then cached)."""
        if self._plan is None:
            self._plan = _build_plan(self)
        return self._plan

    def diagonal(self) -> np.ndarray:
        """Frame-operator diagonal over all L bins (cached)."""
        if self._diag is None:
            self._diag = _accumulate_diagonal(self)
        return self._diag


# ---------------------------------------------------------------------------
# factor computations

def natural_factors(warping: WarpingFunction, a_tilde: float, m_range) -> np.ndarray:
    """a_m = a_tilde / (C v(m)) for m over the given range (seconds)."""
    if not np.isfinite(a_tilde) or a_tilde <= 0:
        raise InvalidParameter(f"a_tilde must be positive, got {a_tilde}")
    m = np.asarray(m_range, dtype=float)
    return a_tilde / (warping.moderate_constant * warping.aux_weight(m))


def painless_factors(warping: WarpingFunction, support: tuple[float, float], m_range) -> np.ndarray:
    """Largest downsampling step keeping channel m painless:
    a_m = (F^{-1}(d+m) - F^{-1}(c+m))^{-1} for support [c, d] (seconds)."""
    lo_s, hi_s = float(support[0]), float(support[1])
    if not hi_s > lo_s:
        raise InvalidParameter(f"support must be a nonempty interval, got {support}")
    m = np.asarray(m_range, dtype=float)
    width = warping.f_inv(hi_s + m) - warping.f_inv(lo_s + m)
    return 1.0 / width


def _snap_to_divisors(samples, length: int) -> np.ndarray:
    """The largest divisor of ``length`` not exceeding each sample count,
    floored at 1."""
    small = [k for k in range(1, math.isqrt(length) + 1) if length % k == 0]
    divs = np.unique(small + [length // k for k in small])
    pos = np.searchsorted(divs, samples, side="right") - 1
    return divs[np.clip(pos, 0, len(divs) - 1)].astype(np.int64)


def round_factors_to_grid(a_real, grid: GridSpec) -> np.ndarray:
    """Convert continuous factors (seconds) to integer hops: the largest
    divisor of L not exceeding a_real * fs, floored at 1."""
    samples = np.atleast_1d(np.asarray(a_real, dtype=float)) * grid.fs
    return _snap_to_divisors(samples, grid.length)


# ---------------------------------------------------------------------------
# construction

def _check_tags(first, last, residual: bool) -> None:
    """Channel indices first..last, and on half-line grids the residual
    tags just outside them, must fit the i32 tags of a WFBC file."""
    if not (-(2**31) <= first - residual and last + residual < 2**31):
        raise InvalidParameter(f"channel indices {first}..{last} do not fit "
                               "the 32-bit channel tags of the coefficient file")


def _touching_channels(warped: np.ndarray, support, residual: bool) -> list[int]:
    """Every m whose warped support [c+m, d+m) holds one of the sorted
    warped bins.  Bin j admits floor(F_j - d) < m <= floor(F_j - c), and
    adds only the m above those the bins below it admitted; the bounds are
    widened by one against rounding, and the supports decide."""
    lo_s, hi_s = support
    top = np.floor(warped - lo_s) + 1
    below = np.maximum(np.floor(warped - hi_s) - 1, np.concatenate(([-np.inf], top[:-1])))
    _check_tags(below[0] + 1, top[-1], residual)
    counts = np.maximum(top - below, 0).astype(np.int64)
    first = (below + 1).astype(np.int64) - (np.cumsum(counts) - counts)
    ms = np.repeat(first, counts) + np.arange(counts.sum())
    starts, stops = _supports(warped, support, ms)
    return ms[stops > starts].tolist()


def _supports(warped: np.ndarray, support, ms) -> tuple[np.ndarray, np.ndarray]:
    """Index ranges [starts, stops) of the sorted warped bins inside each
    channel's support [c+m, d+m)."""
    m = np.asarray(ms, dtype=float)
    return np.searchsorted(warped, support[0] + m), np.searchsorted(warped, support[1] + m)


def _build_plan(bank: WarpedBank) -> BankPlan:
    """Concatenate the sampled responses grouped by ascending N and point
    each channel's response at its slice."""
    chans = bank.channels
    order = sorted(range(len(chans)), key=lambda i: chans[i].n_frames)
    sizes = np.array([len(chans[i].response) for i in order], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    response = np.concatenate([chans[i].response for i in order] or [np.zeros(0)])
    offsets = np.empty(len(chans), dtype=np.intp)
    offsets[order] = starts
    for i, start, size in zip(order, starts, sizes):
        chans[i].response = response[start:start + size]
    # bin of each entry: its channel's start_bin plus its position
    first = np.array([chans[i].start_bin for i in order], dtype=np.intp)
    bins = np.repeat(first - starts, sizes)
    bins += np.arange(len(bins))
    half = bank.grid.domain is Domain.POSITIVE_HALF_LINE
    if not half:
        bins %= bank.grid.length
    groups, lo = [], 0
    for n, rows in groupby(order, key=lambda i: chans[i].n_frames):
        rows = list(rows)
        hi = lo + len(rows)
        span = slice(int(starts[lo]), int(starts[lo] + sizes[lo:hi].sum()))
        slots = bins[span] % n
        slots += np.repeat(np.arange(len(rows)) * n, sizes[lo:hi])
        groups.append((n, rows, span, slots))
        lo = hi
    # (L - bin) % L without the modulo: half-line bins lie in 1..L/2-1
    mirror = bank.grid.length - bins if half else None
    return BankPlan(groups, bins, mirror, response, offsets)


def _accumulate_diagonal(bank: WarpedBank) -> np.ndarray:
    length = bank.grid.length
    plan = bank.plan
    # entry j of channel m adds N_m response_m[j]^2 at its bin (and mirror)
    weights = np.concatenate([n * plan.response[span] ** 2
                              for n, _, span, _ in plan.groups] or [np.zeros(0)])
    diag = np.zeros(length)
    for bins in (plan.bins, plan.mirror_bins):
        if bins is not None:
            diag += np.bincount(bins, weights, minlength=length)
    for res in bank.residuals:
        diag[res.bin_index] += res.response_value**2
    return diag


def _require_coverage(bank: WarpedBank, consequence: str) -> None:
    holes = int(np.count_nonzero(bank.diagonal() <= 0.0))
    if holes:
        raise CoverageError(
            f"frame-operator diagonal vanishes on {holes} of {bank.grid.length} "
            f"bins; {consequence}"
        )


def _geometry_fingerprint(warping, window, grid: GridSpec, factors: dict[int, int]) -> str:
    record = {
        "warping": warping.params,
        "window": window.record,
        "grid": {"length": grid.length, "fs": grid.fs, "domain": grid.domain.value},
        "factors": [[m, factors[m]] for m in sorted(factors)],
    }
    blob = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def build_bank(warping: WarpingFunction, window, grid: GridSpec, policy,
               *, kind: str = "analysis", check_coverage: bool = True) -> WarpedBank:
    """Assemble a bank: pick channel indices, fix factors per the policy,
    sample responses, and verify frequency coverage.

    ``policy`` is one of Natural, Painless, or Explicit.  The first two
    take every channel whose warped support holds a bin.  Explicit factor
    maps may cover any subset of channel indices (useful for probing
    deliberately broken banks with ``check_coverage=False``); a channel
    that holds no bin gets N_m zero coefficients.
    """
    if warping.domain is not grid.domain:
        raise InvalidParameter(
            f"grid domain {grid.domain.value} does not match the warping domain "
            f"{warping.domain.value}"
        )
    lo_bin, hi_bin = grid.signed_bin_range()
    with np.errstate(over="ignore"):
        warped = warping.f(np.arange(lo_bin, hi_bin + 1) * grid.bin_hz)
    half = grid.domain is Domain.POSITIVE_HALF_LINE
    if isinstance(policy, Explicit):
        if not policy.factors:
            raise EmptyBank("explicit factor map is empty")
        ms = sorted(int(m) for m in policy.factors)
        _check_tags(ms[0], ms[-1], half)
        factors = {}
        for m in ms:
            a = policy.factors[m]
            if int(a) != a or a < 1 or grid.length % int(a) != 0:
                raise InvalidParameter(
                    f"factor a={a!r} for channel {m} must be a positive divisor of L={grid.length}"
                )
            factors[m] = int(a)
        policy_record = {"policy": "explicit"}
    else:
        ms = _touching_channels(warped, window.support, half) if len(warped) else []
        if not ms:
            raise EmptyBank("no channel's warped support holds a bin of the grid")
        if isinstance(policy, Painless):
            a_real = painless_factors(warping, window.support, ms)
            policy_record = {"policy": "painless"}
        elif isinstance(policy, Natural):
            a_tilde = policy.a_tilde
            if a_tilde is None:
                a_tilde = float(painless_factors(warping, window.support, [0])[0])
            a_real = natural_factors(warping, float(a_tilde), ms)
            policy_record = {"policy": "natural", "a_tilde": float(a_tilde)}
        else:
            raise InvalidParameter(f"unknown factor policy {policy!r}")
        rounded = round_factors_to_grid(a_real, grid)
        factors = dict(zip(ms, (int(a) for a in rounded)))

    starts, stops = _supports(warped, window.support, ms)
    with np.errstate(over="ignore"):
        centers = warping.f_inv(np.array(ms, dtype=float))
    if not np.isfinite(centers).all():
        bad = ms[int(np.argmin(np.isfinite(centers)))]
        raise InvalidParameter(f"channel {bad} has no finite center frequency")
    channels = []
    for m, center, j0, j1 in zip(ms, centers, starts, stops):
        a = factors[m]
        n_frames = grid.length // a
        response = np.sqrt(a / grid.length) * np.asarray(window(warped[j0:j1] - m), dtype=float)
        # painless iff no two nonzero response bins alias to the same
        # coefficient slot, i.e. the nonzero span stays below N_m
        nz = np.nonzero(response)[0]
        channels.append(Channel(
            m=m, center_hz=float(center), a=a, n_frames=n_frames,
            start_bin=lo_bin + int(j0), response=response,
            painless=len(nz) == 0 or int(nz[-1] - nz[0]) < n_frames,
        ))
    residuals = []
    if half:
        residuals = [
            ResidualChannel(bin_index=0, a=grid.length),
            ResidualChannel(bin_index=grid.length // 2, a=grid.length),
        ]
    bank = WarpedBank(
        warping=warping,
        window=window,
        grid=grid,
        kind=kind,
        channels=channels,
        residuals=residuals,
        policy_record=policy_record,
        fingerprint=_geometry_fingerprint(warping, window, grid, factors),
    )
    if check_coverage:
        _require_coverage(bank, "the channel set does not cover the grid")
    return bank


def painless_dual(bank: WarpedBank) -> WarpedBank:
    """Dual bank with responses divided pointwise by the diagonal.

    Requires every channel painless and full coverage; with that,
    analysis by ``bank`` followed by synthesis with the dual is the
    identity.
    """
    offenders = [ch.m for ch in bank.channels if not ch.painless]
    if offenders:
        raise NotPainless(
            f"channels {offenders} have aliasing support bins; "
            "the pointwise dual formula does not apply"
        )
    _require_coverage(bank, "the pointwise dual is undefined there")
    plan = bank.plan
    response = plan.response.copy()
    response /= bank.diagonal()[plan.bins]
    dual_channels = [
        Channel(m=ch.m, center_hz=ch.center_hz, a=ch.a, n_frames=ch.n_frames,
                start_bin=ch.start_bin, painless=ch.painless,
                response=response[start:start + len(ch.response)])
        for ch, start in zip(bank.channels, plan.offsets)
    ]
    return WarpedBank(
        warping=bank.warping, window=bank.window, grid=bank.grid, kind="dual",
        channels=dual_channels, residuals=list(bank.residuals),
        policy_record=dict(bank.policy_record), fingerprint=bank.fingerprint,
        _plan=replace(plan, response=response),
    )


def design_tight(warping: WarpingFunction, grid: GridSpec, window="hann",
                 stretch: float = 3.0) -> WarpedBank:
    """One-call tight design: normalized cosine-sum window plus maximal
    painless factors; the frame operator is the identity.

    ``window`` is a catalog name or a coefficient sequence.
    """
    if isinstance(window, str):
        proto = named_window(window, stretch)
    elif isinstance(window, CosineSumWindow):
        proto = window
    else:
        proto = CosineSumWindow(tuple(window), float(stretch))
    proto = normalize_for_tightness(proto)
    bank = build_bank(warping, proto, grid, Painless(), kind="tight")
    flat = bank.diagonal()
    dev = float(np.max(np.abs(flat - 1.0)))
    if dev > 1e-8:
        raise InvalidParameter(
            f"tight design failed: diagonal deviates from 1 by {dev:.3e}"
        )
    return bank


def with_scaled_factors(bank: WarpedBank, scale: int) -> WarpedBank:
    """Rebuild with every hop multiplied by ``scale`` (snapped down to a
    divisor of L and capped at L).  Scaling past the painless bound drops
    the painless flags; diagnostics use this to probe degradation."""
    if int(scale) != scale or scale < 1:
        raise InvalidParameter(f"scale must be a positive integer, got {scale!r}")
    hops = _snap_to_divisors([ch.a * int(scale) for ch in bank.channels], bank.grid.length)
    factors = {ch.m: int(a) for ch, a in zip(bank.channels, hops)}
    return build_bank(bank.warping, bank.window, bank.grid, Explicit(factors),
                      kind=bank.kind, check_coverage=False)


def channel_response_continuous(warping: WarpingFunction, window, m: int, xi):
    """theta(F(xi) - m) off the grid, for diagnostics and cross-checks."""
    return window(np.asarray(warping.f(xi)) - m)
