"""Warped filter banks on finite frequency grids.

Channel m carries the prototype window shifted m steps along the warped
axis.  On a grid with L bins at sample rate fs, its frequency response is
sampled as

    response[j] = sqrt(a_m / L) * theta(F(xi_j) - m)

on the bins xi_j the grid actually has; channels whose warped support
sticks out past the grid are truncated there (no wrap-around).  F is
evaluated once, on the active bins, and on the full line only on the
non-negative ones: it is odd (see warping), so the negative bins take the
negation.  A designed bank holds exactly the channels whose support
[c+m, d+m) holds some F(xi_j), open at c+m too where theta vanishes at
its edges (Hann, Blackman, the B-splines).  The downsampling factor a_m
is an integer divisor of L, so the channel has exactly N_m = L / a_m
coefficients, and the frame-operator diagonal

    d(xi_j) = sum_m (L / a_m) response_m[j]^2 = sum_m theta(F(xi_j) - m)^2

reproduces the continuous squared-translate sum with no grid constant.

Grids over the positive half line get two extra single-coefficient
residual channels holding the DC and Nyquist bins, which a half-line
warping cannot reach.  Each warped channel then also has a mirror branch,
its response on the negative bins L - bin (see transform), so the bank
covers all of C^L and real signals round-trip through conjugate symmetry.

A mirror row is its partner seen through f -> conj(f(-.)): its partner's
response on the negated bins, so for real input its coefficients are the
conjugates of its partner's.  The mirror branches of a half-line grid are
such rows.  On the full line, where F is odd and theta even, channel -m
is channel m reflected when its bins are exactly m's negated and its hop
m's (see ``_reflections``): the window is evaluated on m alone, and -m's
response is a reversed view of m's.  That leaves direct the rows at the
Nyquist bin, which has no negative twin, and rows with a probe on the
closed edge of a half-open support.  Every reflected pair becomes a
mirror row and its partner, so which channels pair depends on the
geometry alone.

``build_bank`` builds the bank's plan once: one flat table of the
sampled entries of its direct rows (channels and residuals; a mirror row
reads its partner's), grouped by frame length N (hops snap to divisors of
L, so a bank has few distinct N), paired rows first, with the N of every
row in ``plan.frames`` and, for every entry, its slot in one flat
coefficient buffer.  The mirror rows' coefficients follow the direct
prefix in a copy of the paired rows' layout, so real input needs only
that prefix.  The plan is built whole before any row is sampled, from
each row's N, first bin, entry count and reflected partner
(``_build_plan``); the window then writes each direct row straight into
its slice of the plan's one response array.  Each channel's response is
a view of it, which every consumer reads.  The plan's ``fold`` and
``spread``, real or complex, are the only sums over its entries, so the
only code that knows the mirror rule: the transforms, the diagonal and
S's Walnut form (``WarpedBank.walnut``) run on them.  The painless dual
shares the plan and the channels: it is the analysis bank with a
``weight`` on the DFT bins, S^{-1} as a division of spectra (see
``painless_dual``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby
from typing import Mapping

import numpy as np

from .errors import CoverageError, EmptyBank, InvalidParameter, NotPainless, as_integer, as_number
from .prototypes import BSplineWindow, CosineSumWindow, named_window, normalize_for_tightness
from .warping import Domain, WarpingFunction


@dataclass(frozen=True)
class GridSpec:
    """Finite frequency grid: L bins spanning one period of fs Hz."""

    length: int
    fs: float
    domain: Domain

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", as_integer(self.length, "grid length"))
        object.__setattr__(self, "fs", as_number(self.fs, "sample rate"))
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
    """a_m = a_tilde / v(m); a_tilde defaults to the m = 0 painless bound."""

    a_tilde: float | None = None


@dataclass(frozen=True)
class Painless:
    """a_m = (F^{-1}(d+m) - F^{-1}(c+m))^{-1}, the largest painless step."""


@dataclass(frozen=True)
class Explicit:
    """Caller-provided integer hops (samples) per channel index."""

    factors: Mapping[int, int]

    def __post_init__(self) -> None:
        if not isinstance(self.factors, Mapping):
            raise InvalidParameter(
                f"explicit factors must map channel indices to hops, got {self.factors!r}")


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


@dataclass
class BankPlan:
    """Flat sampled geometry, one row per generator: row i is channel i,
    then the residuals (N = 1, response 1 at their bin), then on half-line
    grids a mirror branch per channel; on the full line the mirror rows
    are the channels -m that reflect a channel m (see ``_reflections``),
    all of them.  It is built before any row is sampled (see
    ``_build_plan``), and the window writes each direct row into
    ``response`` in place; a painless dual shares the plan, sampled
    responses and all.  ``frames[i]`` is row i's coefficient count N and
    ``partner[i]`` the row that row i mirrors, or -1 for a direct row.
    ``bins`` (0..L-1, L = ``length``), ``response`` and ``slots`` run by group,
    one entry per sampled bin of a direct row; row i's response starts at
    ``response[offsets[i]]``, a mirror row's at its partner's.  All
    coefficients live in one flat buffer, row i's N of them at
    ``coefs[i]``, and an entry folds onto the slot ``slots`` = its row's
    ``coefs`` + bin % N.  Group (N, block, span) has the direct rows of one
    frame length, paired or not: their entries ``span`` fold onto the
    contiguous buffer slice ``block``, rows x N.  The first ``paired``
    groups, ``paired_entries`` entries and ``paired_size`` slots, hold the
    rows that have a mirror row, and all direct rows fill ``direct_size``
    slots: a real-input buffer.  A complex-input one, and on the full line
    a weighted bank's real-input one, adds the mirror rows' block, a
    row-for-row copy of the paired blocks' layout.  As an index,
    -b reads bin L - b (and -0 bin 0), the negation on the DFT grid; every
    mirror lookup finds a paired entry's negated bin that way."""

    groups: list[tuple[int, slice, slice]]
    bins: np.ndarray
    response: np.ndarray
    slots: np.ndarray
    offsets: np.ndarray
    coefs: np.ndarray
    frames: np.ndarray
    partner: np.ndarray
    paired: int
    paired_entries: int
    paired_size: int
    direct_size: int
    length: int

    @cached_property
    def slot_frames(self) -> np.ndarray:
        """N of the row of every buffer slot, as floats that scale data."""
        frames = self.frames[np.argsort(self.coefs)]
        return np.repeat(frames, frames).astype(float)

    def fold(self, fhat: np.ndarray, response: np.ndarray, size: int) -> np.ndarray:
        """fhat[bins] * ``response`` (one entry per plan entry) summed onto
        the slots of a ``size`` buffer of fhat's dtype, and past the direct
        prefix, if it reaches there, the same fold of the reflected
        spectrum fhat[-k] through the paired entries: the mirror rows."""
        out = np.zeros(size, dtype=fhat.dtype)
        _gather_sum(fhat, self.bins, response, self.slots, out)
        stop = self.paired_entries
        if size > self.direct_size:
            _gather_sum(fhat, -self.bins[:stop], response[:stop], self.slots[:stop],
                        out[self.direct_size:])
        return out

    def spread(self, spectra: np.ndarray, response: np.ndarray, size: int) -> np.ndarray:
        """Adjoint of ``fold`` onto ``size`` bins: the row spectra gathered
        through the slots, times ``response``, summed onto the bins, then
        the paired entries' gather from the mirror block, or without one
        (real input) the paired part of the first gather conjugated,
        summed onto the negated bins.  A half spectrum (``size`` below L),
        which irfft extends, takes the first sum alone: on a half-line
        grid every negated bin lies past it."""
        stop = self.paired_entries
        out = np.zeros(size, dtype=spectra.dtype)
        values = _gather_sum(spectra, self.slots, response, self.bins, out)[:stop]
        if size < self.length:
            return out
        negated = -self.bins[:stop]
        if len(spectra) > self.direct_size:
            _gather_sum(spectra[self.direct_size:], self.slots[:stop], response[:stop],
                        negated, out)
        else:
            np.add.at(out, negated, np.conjugate(values, out=values))
        return out


def _gather_sum(source, take, weights, index, out: np.ndarray) -> np.ndarray:
    """Add the sums of source[take] * weights over equal ``index`` entries
    onto ``out``, allocated before the temporary gather, which page-faults
    less over repeated calls: one gather and one unbuffered scatter-add in
    the data's own dtype, so real data stays real.  The real weights scale
    complex data's two parts in place; a complex product would first cast
    them to complex.  Returns the weighted gather."""
    values = source[take]
    for part in (values.real, values.imag) if np.iscomplexobj(values) else (values,):
        part *= weights
    np.add.at(out, index, values)
    return values


@dataclass
class WarpedBank:
    """A warped filter bank: its channels and residuals, and the ``plan``
    that ``build_bank`` built for them.  Every channel's response is a
    view of ``plan.response``: its row's slice, a mirror channel's its
    partner's reversed.  ``weight`` is None for a sampled bank; a dual's
    atoms are the sampled ones with their spectra multiplied by
    ``weight``, one factor per DFT bin (see ``painless_dual``)."""

    warping: WarpingFunction
    window: object
    grid: GridSpec
    kind: str
    channels: list[Channel]
    residuals: list[ResidualChannel]
    policy_record: dict
    fingerprint: str
    plan: BankPlan = field(repr=False)
    weight: np.ndarray | None = field(default=None, repr=False)
    _diag: np.ndarray | None = field(init=False, default=None, repr=False)

    @property
    def painless(self) -> bool:
        return all(ch.painless for ch in self.channels)

    def diagonal(self) -> np.ndarray:
        """Frame-operator diagonal over all L bins (cached): the plan's
        spread of N_m response_m[j]^2, which adds each entry at its bin
        and a paired entry again at the negated bin for its mirror row; a
        weighted bank's is that times ``weight`` squared."""
        if self._diag is None:
            plan = self.plan
            diag = plan.spread(plan.slot_frames[:plan.direct_size], plan.response ** 2,
                               plan.length)
            if self.weight is not None:
                diag *= self.weight ** 2
            self._diag = diag
        return self._diag

    def walnut(self, fhat: np.ndarray, response: np.ndarray) -> np.ndarray:
        """The Walnut form of S applied to the spectrum ``fhat``, with
        ``response`` (one entry per plan entry) in place of the sampled
        responses: the plan's fold into a complex analysis's buffer, each
        slot scaled by its row's N, and its spread back, for every row,
        aliasing or not.  Responses and weights are real, so S is real on
        the DFT grid: real ``fhat`` gives real output, in real arithmetic.
        A weighted bank's weight multiplies ``fhat`` and the result."""
        plan, weight = self.plan, self.weight
        if weight is not None:
            fhat = fhat * weight
        folded = plan.fold(fhat, response, plan.direct_size + plan.paired_size)
        folded *= plan.slot_frames
        out = plan.spread(folded, response, plan.length)
        if weight is not None:
            out *= weight
        return out


# ---------------------------------------------------------------------------
# factor computations

def natural_factors(warping: WarpingFunction, a_tilde: float, m_range) -> np.ndarray:
    """a_m = a_tilde / v(m) for m over the given range (seconds); with the
    m = 0 painless bound for a_tilde, each a_m is painless (see warping)."""
    if not np.isfinite(a_tilde) or a_tilde <= 0:
        raise InvalidParameter(f"a_tilde must be positive, got {a_tilde}")
    m = np.asarray(m_range, dtype=float)
    return a_tilde / warping.aux_weight(m)


def painless_factors(warping: WarpingFunction, support: tuple[float, float], m_range) -> np.ndarray:
    """Largest downsampling step keeping channel m painless:
    a_m = (F^{-1}(d+m) - F^{-1}(c+m))^{-1} for support [c, d] (seconds)."""
    lo_s, hi_s = float(support[0]), float(support[1])
    if not hi_s > lo_s:
        raise InvalidParameter(f"support must be a nonempty interval, got {support}")
    m = np.asarray(m_range, dtype=float)
    with np.errstate(over="ignore"):  # an infinite width snaps to one sample
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


def _touching_channels(warped: np.ndarray, window, residual: bool) -> list[int]:
    """Every m whose warped support (see ``_supports``) holds one of the
    sorted warped bins.  Bin j admits every m in (F_j - d, F_j - c], so a
    run of bins whose neighbours lie at most d - c apart admits one
    interval, (F_first - d, F_last - c]; each run's integer ends are
    widened by one against rounding, and the supports decide."""
    lo_s, hi_s = window.support
    cut = np.flatnonzero(np.diff(warped) > hi_s - lo_s) + 1
    lows = np.floor(warped[np.concatenate(([0], cut))] - hi_s)
    highs = np.floor(warped[np.concatenate((cut - 1, [-1]))] - lo_s) + 1
    _check_tags(lows[0], highs[-1], residual)
    counts = (highs - lows + 1).astype(np.int64)
    ms = np.repeat(lows.astype(np.int64) - (np.cumsum(counts) - counts), counts)
    ms = np.unique(ms + np.arange(counts.sum()))  # neighbouring runs may share an end
    starts, stops = _supports(warped, window, ms, ms)
    return ms[stops > starts].tolist()


def _supports(warped: np.ndarray, window, first, last) -> tuple[np.ndarray, np.ndarray]:
    """Index ranges [starts, stops) of the sorted warped bins inside each
    span [c+first, d+last) of channel supports [c+m, d+m), open at c+first
    too where theta vanishes."""
    (lo_s, hi_s), side = window.support, "right" if window.vanishes_at_edges else "left"
    return (np.searchsorted(warped, lo_s + np.asarray(first, dtype=float), side),
            np.searchsorted(warped, hi_s + np.asarray(last, dtype=float)))


def _is_tight(warped: np.ndarray, window, ms: np.ndarray, channels: list[Channel]) -> bool:
    """Whether the frame operator of ``channels``, with the sorted indices
    ``ms``, is the identity (Daubechies, Grossmann and Meyer's painless
    construction): every channel is painless, so S is its diagonal; the
    window's squared translates sum to 1; and no missing m has a bin in
    its support, so the diagonal at every bin sums all of them.  An
    integer stretch makes the supports of a run of missing m one
    interval, so one pair of searches tests every run."""
    if not (window.constant_overlap and abs(window.sum_of_squares_constant - 1.0) <= 1e-8
            and all(ch.painless for ch in channels)):
        return False
    ms = np.concatenate(([-np.inf], ms, [np.inf]))
    below, above = ms[:-1], ms[1:]
    runs = above - below > 1
    starts, stops = _supports(warped, window, below[runs] + 1, above[runs] - 1)
    starts[0], stops[-1] = 0, len(warped)  # the outer runs take bins at F = -inf, inf too
    return bool(np.all(starts >= stops))


def _reflections(ms, factors, warped, starts, stops, support) -> dict[int, int]:
    """Full-line channel pairs as {j: k}: channel ms[j] = -m is channel
    ms[k] = m > 0 reflected.  Both have one hop, m's bins are not empty,
    and -m's bins are exactly m's negated: warped bin i is signed bin
    i - L/2 + 1, whose negation is warped bin L - 2 - i, and the Nyquist
    bin L - 1 has none.  F is odd (see warping), so -m then probes the
    window at exactly m's points negated, in reverse; theta is even inside
    its support, so its response is m's reversed, bit for bit.  A pair
    with a probe on an edge of the half-open support is left out."""
    index = {m: k for k, m in enumerate(ms)}
    last, (lo_s, hi_s) = len(warped) - 1, support
    pairs = {}
    for k, m in enumerate(ms):
        j = index.get(-m)
        if (m > 0 and j is not None and factors[m] == factors[-m]
                and stops[k] > starts[k] and starts[j] + stops[k] == last
                and stops[j] + starts[k] == last
                and lo_s < warped[starts[k]] - m and warped[stops[k] - 1] - m < hi_s):
            pairs[j] = k
    return pairs


def _build_plan(first_bins: list[int], frames: list[int], sizes: list[int], branches: int,
                pairs: dict[int, int], length: int) -> BankPlan:
    """The plan of a bank whose channels, then residuals, have signed
    ``first_bins``, N ``frames`` and ``sizes`` entries, followed by
    ``branches`` half-line mirror branches, one of each of the first
    channels; the full-line ``pairs`` {j: k} make channel j the mirror row
    of channel k.  The direct rows' entries and coefficient blocks run
    grouped by (paired?, N), paired groups first and rows in order within
    a group; the mirror rows' blocks follow as a copy of the paired rows'
    layout.  Every entry gets its bin and its slot, written row by row;
    ``response`` is left empty for ``build_bank`` to sample into."""
    table = len(frames)
    partner = np.full(table + branches, -1, dtype=np.int64)
    partner[table:] = np.arange(branches)
    partner[list(pairs)] = list(pairs.values())
    mates = partner.tolist()
    partners = set(mates)
    key = [(i not in partners, n) for i, n in enumerate(frames)]
    frames = np.array(frames + frames[:branches], dtype=np.int64)
    order = sorted((i for i in range(table) if mates[i] < 0), key=key.__getitem__)
    sizes = np.array([sizes[i] for i in order], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    n_sorted = frames[order]
    blocks = np.cumsum(n_sorted) - n_sorted
    offsets, coefs = np.zeros(len(frames), dtype=np.intp), np.zeros_like(frames)
    offsets[order], coefs[order] = starts, blocks
    source = np.where(partner >= 0, partner, np.arange(len(frames)))
    offsets, coefs = offsets[source], coefs[source] + (partner >= 0) * n_sorted.sum()
    # row by row into the two entry arrays, with no entry-long temporary:
    # each entry's bin, its row's first bin plus its position, mod L
    # (signed bins lie in -L/2..L/2, so only a row's leading negative ones
    # move), and its slot, its row's first slot plus bin % N
    total = int(sizes.sum())
    bins = np.empty(total, dtype=np.intp)
    slots = np.empty(total, dtype=np.int64)
    ramp = np.arange(int(sizes.max(initial=0)))
    row_frames, row_coefs = frames.tolist(), coefs.tolist()
    for i, start, size in zip(order, starts.tolist(), sizes.tolist()):
        row, slot, first = bins[start:start + size], slots[start:start + size], first_bins[i]
        np.add(ramp[:size], first, out=row)
        if first < 0:
            row[:-first] += length
        n = row_frames[i]
        if n & (n - 1):
            np.remainder(row, n, out=slot)
        else:  # N a power of two, as every divisor of a power-of-two L is
            np.bitwise_and(row, n - 1, out=slot)
        slot += row_coefs[i]
    groups, paired, lo = [], 0, 0
    for (unpaired, n), rows in groupby(order, key=key.__getitem__):
        hi = lo + len(list(rows))
        block = slice(row_coefs[order[lo]], row_coefs[order[lo]] + (hi - lo) * n)
        span = slice(int(starts[lo]), int(starts[lo] + sizes[lo:hi].sum()))
        groups.append((n, block, span))
        paired += not unpaired
        lo = hi
    ends = [(0, 0)] + [(span.stop, block.stop) for _, block, span in groups]
    (paired_entries, paired_size), direct_size = ends[paired], ends[-1][1]
    return BankPlan(groups, bins, np.empty(total), slots, offsets, coefs, frames, partner,
                    paired, paired_entries, paired_size, direct_size, length)


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


def build_bank(warping: WarpingFunction, window, grid: GridSpec, policy) -> WarpedBank:
    """Assemble a bank: pick channel indices, fix factors per the policy, sample responses.

    ``policy`` is one of Natural, Painless, or Explicit.  The first two
    take every channel whose warped support holds a bin.  Explicit factor
    maps may cover any subset of channel indices; a channel that holds no
    bin gets N_m zero coefficients.  The bank's kind is worked out, not
    asked for: ``tight`` when its frame operator is the identity (see
    ``_is_tight``), ``analysis`` otherwise.  A tight bank covers the grid
    (its diagonal is 1); an Explicit table is taken as given, holes and
    all (diagnose reports them, ``painless_dual`` refuses them); any other
    design that leaves a bin uncovered raises CoverageError.
    """
    if not isinstance(warping, WarpingFunction):
        raise InvalidParameter(f"warping must be a WarpingFunction, got {warping!r}")
    if not isinstance(window, (CosineSumWindow, BSplineWindow)):
        raise InvalidParameter(f"window must be a CosineSumWindow or BSplineWindow, got {window!r}")
    if not isinstance(grid, GridSpec):
        raise InvalidParameter(f"grid must be a GridSpec, got {grid!r}")
    if warping.domain is not grid.domain:
        raise InvalidParameter(
            f"grid domain {grid.domain.value} does not match the warping domain "
            f"{warping.domain.value}"
        )
    lo_bin, hi_bin = grid.signed_bin_range()
    half = grid.domain is Domain.POSITIVE_HALF_LINE
    try:
        with np.errstate(over="ignore"):
            if half:
                warped = warping.f(np.arange(lo_bin, hi_bin + 1) * grid.bin_hz)
            else:  # F is odd: on the negative bins the negated F of 1..L/2-1
                warped = warping.f(np.arange(hi_bin + 1) * grid.bin_hz)
                warped = np.concatenate((np.negative(warped[-2:0:-1]), warped))
    except MemoryError as exc:
        raise InvalidParameter(f"a grid of L={grid.length} bins does not fit in memory") from exc
    if isinstance(policy, Explicit):
        if not policy.factors:
            raise EmptyBank("explicit factor map is empty")
        # an integral key equals its int and hashes alike, so the int finds it
        ms = sorted(as_integer(m, "channel index") for m in policy.factors)
        _check_tags(ms[0], ms[-1], half)
        factors = {m: as_integer(policy.factors[m], f"factor for channel {m}") for m in ms}
        for m, a in factors.items():
            if a < 1 or grid.length % a:
                raise InvalidParameter(
                    f"factor a={a!r} for channel {m} must be a positive divisor of L={grid.length}"
                )
        policy_record = {"policy": "explicit"}
    else:
        ms = _touching_channels(warped, window, half) if len(warped) else []
        if not ms:
            raise EmptyBank("no channel's warped support holds a bin of the grid")
        if isinstance(policy, Painless):
            a_real = painless_factors(warping, window.support, ms)
            policy_record = {"policy": "painless"}
        elif isinstance(policy, Natural):
            a_tilde = policy.a_tilde
            if a_tilde is None:
                a_tilde = painless_factors(warping, window.support, [0])[0]
            a_real = natural_factors(warping, as_number(a_tilde, "a_tilde"), ms)
            policy_record = {"policy": "natural", "a_tilde": float(a_tilde)}
        else:
            raise InvalidParameter(f"unknown factor policy {policy!r}")
        rounded = round_factors_to_grid(a_real, grid)
        factors = dict(zip(ms, (int(a) for a in rounded)))

    indices = np.array(ms, dtype=float)
    starts, stops = _supports(warped, window, indices, indices)
    with np.errstate(over="ignore"):
        centers = warping.f_inv(indices)
    if not np.isfinite(centers).all():
        bad = ms[int(np.argmin(np.isfinite(centers)))]
        raise InvalidParameter(f"channel {bad} has no finite center frequency")
    pairs = {} if half else _reflections(ms, factors, warped, starts, stops, window.support)
    frames = [grid.length // factors[m] for m in ms]
    residuals = [ResidualChannel(0), ResidualChannel(grid.length // 2)] if half else []
    first_bins, ones = (lo_bin + starts).tolist(), [1] * len(residuals)
    plan = _build_plan(first_bins + [res.bin_index for res in residuals],
                       frames + ones, (stops - starts).tolist() + ones,
                       len(ms) if half else 0, pairs, grid.length)
    # each direct row is sampled straight into its slice of the plan's
    # entries: the probe F - m first, then the window over it in place; a
    # mirror channel's response is its partner's slice reversed
    response = plan.response
    response[plan.offsets[len(ms):len(ms) + len(residuals)]] = 1.0
    rows = []
    for k, (m, j0, j1, start) in enumerate(zip(ms, starts.tolist(), stops.tolist(),
                                               plan.offsets.tolist())):
        row = response[start:start + j1 - j0]
        if k in pairs:
            row = row[::-1]
        else:
            window(np.subtract(warped[j0:j1], m, out=row), out=row)
            row *= np.sqrt(factors[m] / grid.length)
        rows.append(row)
    channels = []
    for m, center, first, n_frames, row in zip(ms, centers, first_bins, frames, rows):
        # painless iff no two nonzero response bins alias to the same
        # coefficient slot, i.e. the nonzero span stays below N_m; the
        # span is the whole response unless an end entry is 0
        span = len(row) - 1
        if span > 0 and not (row[0] and row[-1]):
            nz = np.flatnonzero(row)
            span = int(nz[-1] - nz[0]) if len(nz) else 0
        channels.append(Channel(
            m=m, center_hz=float(center), a=factors[m], n_frames=n_frames,
            start_bin=first, response=row, painless=span < n_frames,
        ))
    tight = _is_tight(warped, window, indices, channels)
    bank = WarpedBank(
        warping=warping,
        window=window,
        grid=grid,
        kind="tight" if tight else "analysis",
        channels=channels,
        residuals=residuals,
        policy_record=policy_record,
        fingerprint=_geometry_fingerprint(warping, window, grid, factors),
        plan=plan,
    )
    if bank.kind != "tight" and not isinstance(policy, Explicit):
        _require_coverage(bank, "the channel set does not cover the grid")
    return bank


def painless_dual(bank: WarpedBank) -> WarpedBank:
    """The canonical dual S^{-1} g of every atom g of a painless ``bank``.

    Requires every channel painless and full coverage.  S is then the
    diagonal d on the DFT bins, so S^{-1} divides spectra by it (Balazs
    et al. 2011): the dual is ``bank`` with its ``weight`` divided by d,
    and analysis by ``bank`` followed by synthesis with the dual is the
    identity.  It shares the plan and the channels of ``bank``; the
    transforms apply the weight to the spectra they take and give.  Its
    diagonal is 1 / d, so the dual of a dual has weight 1.
    """
    offenders = [ch.m for ch in bank.channels if not ch.painless]
    if offenders:
        raise NotPainless(
            f"channels {offenders} have aliasing support bins; "
            "the pointwise dual formula does not apply"
        )
    _require_coverage(bank, "the pointwise dual is undefined there")
    weight = 1.0 if bank.weight is None else bank.weight
    return replace(bank, kind="dual", weight=weight / bank.diagonal())


def design_tight(warping: WarpingFunction, grid: GridSpec, window="hann",
                 stretch: float = 3.0) -> WarpedBank:
    """One-call tight design: normalized cosine-sum window plus maximal
    painless factors; the frame operator is the identity.  ``build_bank``
    derives that from the geometry, so no diagonal is computed here.

    ``window`` is a catalog name or a coefficient sequence.
    """
    if isinstance(window, str):
        proto = named_window(window, stretch)
    elif isinstance(window, CosineSumWindow):
        proto = window
    else:
        proto = CosineSumWindow(window, stretch)
    bank = build_bank(warping, normalize_for_tightness(proto), grid, Painless())
    if bank.kind != "tight":
        raise InvalidParameter("tight design failed: some channel is not painless")
    return bank


def with_scaled_factors(bank: WarpedBank, scale: int) -> WarpedBank:
    """Rebuild with every hop multiplied by ``scale`` (snapped down to a
    divisor of L and capped at L), its kind worked out again (see
    ``build_bank``): past the painless bound a tight bank is no longer
    tight.  Diagnostics use this to probe degradation.  A dual bank's
    atoms are weighted by its analysis bank's diagonal, which new hops
    change, so rescaling one raises InvalidParameter: scale its analysis
    bank and take the dual of that."""
    if bank.kind == "dual":
        raise InvalidParameter("cannot rescale the hops of a dual bank; "
                               "scale its analysis bank and take the dual of that")
    if as_integer(scale, "scale") < 1:
        raise InvalidParameter(f"scale must be a positive integer, got {scale!r}")
    hops = _snap_to_divisors([ch.a * int(scale) for ch in bank.channels], bank.grid.length)
    factors = {ch.m: int(a) for ch, a in zip(bank.channels, hops)}
    return build_bank(bank.warping, bank.window, bank.grid, Explicit(factors))


def channel_response_continuous(warping: WarpingFunction, window, m: int, xi):
    """theta(F(xi) - m) off the grid, for diagnostics and cross-checks."""
    return window(np.asarray(warping.f(xi)) - m)
