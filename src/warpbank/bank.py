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
closed edge of a half-open support.  A reflected pair becomes a mirror
row and its partner where the diagonal is symmetric on its bins
(``_mirror_partners``).

A bank builds its plan when it is constructed: one flat table of the
sampled entries of its direct rows (channels and residuals; a mirror row
reads its partner's), grouped by frame length N (hops snap to divisors of
L, so a bank has few distinct N), paired rows first, with the N of every
row in ``plan.frames`` and, for every entry, its slot in one flat
coefficient buffer.  The mirror rows' coefficients follow the direct
prefix in a copy of the paired rows' layout, so real input needs only
that prefix.  Each channel's response is a view of the plan, and
analysis, synthesis, the diagonal and the dual all read the plan.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property
from itertools import groupby
from typing import Mapping

import numpy as np

from .errors import CoverageError, EmptyBank, InvalidParameter, NotPainless
from .prototypes import CosineSumWindow, named_window, normalize_for_tightness
from .warping import Domain, WarpingFunction

# _mirror_partners: how far the rows left unpaired may weigh a bin and its
# negation apart, relative to the weight there, for channel -m to mirror m
MIRROR_DIAGONAL_RTOL = 1e-12


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


@dataclass
class BankPlan:
    """Flat sampled geometry, built with the bank, one row per generator:
    row i is channel i, then the residuals (N = 1, response 1 at their
    bin), then on half-line grids a mirror branch per channel.
    ``frames[i]`` is row i's coefficient count N and ``partner[i]`` the
    row that row i mirrors, or -1 for a direct row.  ``bins`` (0..L-1),
    ``response`` and ``slots`` run group after group, one entry per sampled
    bin of a direct row; row i's response starts at
    ``response[offsets[i]]``, a mirror row's at its partner's.  All
    coefficients live in one flat buffer, row i's N of them at
    ``coefs[i]``, and an entry folds onto the slot ``slots`` = its row's
    ``coefs`` + bin % N.  Group (N, block, span) has the direct rows of one
    frame length, paired or not: their entries ``span`` fold onto the
    contiguous buffer slice ``block``, rows x N.  The first ``paired``
    groups hold the rows that have a mirror row.  Past the last group's
    block, the mirror rows' block repeats their blocks, row for row."""

    groups: list[tuple[int, slice, slice]]
    bins: np.ndarray
    response: np.ndarray
    slots: np.ndarray
    offsets: np.ndarray
    coefs: np.ndarray
    frames: np.ndarray
    partner: np.ndarray
    paired: int

    @cached_property
    def slot_frames(self) -> np.ndarray:
        """N of the row of every buffer slot."""
        frames = self.frames[np.argsort(self.coefs)]
        return np.repeat(frames, frames)


@dataclass
class WarpedBank:
    """A warped filter bank.  Construction builds its ``plan`` and points
    every channel's response at its slice of ``plan.response``; a bank
    made by ``dataclasses.replace`` builds its own.  ``partner`` gives the
    plan's mirror pairs: ``build_bank`` passes the pairs it built by
    reflection, ``painless_dual`` its analysis bank's.  Without it only
    the half-line mirror branches are paired."""

    warping: WarpingFunction
    window: object
    grid: GridSpec
    kind: str
    channels: list[Channel]
    residuals: list[ResidualChannel]
    policy_record: dict
    fingerprint: str
    partner: InitVar[np.ndarray | None] = None
    plan: BankPlan = field(init=False, repr=False)
    _diag: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self, partner) -> None:
        self.plan = _build_plan(self, partner)

    @property
    def painless(self) -> bool:
        return all(ch.painless for ch in self.channels)

    def diagonal(self) -> np.ndarray:
        """Frame-operator diagonal over all L bins (cached): entry j of
        row m adds N_m response_m[j]^2 at its bin, a mirror row its
        partner's at the negated bins, after the direct rows and by N."""
        if self._diag is None:
            plan, length = self.plan, self.grid.length
            weights = plan.response ** 2 * np.repeat([n for n, _, _ in plan.groups],
                                                     [s.stop - s.start for _, _, s in plan.groups])
            mirror = np.flatnonzero(plan.partner >= 0)
            mates = plan.partner[mirror[np.argsort(plan.frames[mirror], kind="stable")]]
            sizes = np.array([len(self.channels[p].response) for p in mates], dtype=np.intp)
            take = np.repeat(plan.offsets[mates] - np.cumsum(sizes) + sizes, sizes)
            take += np.arange(len(take))
            self._diag = np.bincount(np.concatenate((plan.bins, -plan.bins[take] % length)),
                                     np.concatenate((weights, weights[take])), minlength=length)
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
    sorted warped bins.  Bin j admits floor(F_j - d) < m <= floor(F_j - c),
    and adds only the m above those the bins below it admitted; the bounds
    are widened by one against rounding, and the supports decide."""
    lo_s, hi_s = window.support
    top = np.floor(warped - lo_s) + 1
    below = np.maximum(np.floor(warped - hi_s) - 1, np.concatenate(([-np.inf], top[:-1])))
    _check_tags(below[0] + 1, top[-1], residual)
    counts = np.maximum(top - below, 0).astype(np.int64)
    first = (below + 1).astype(np.int64) - (np.cumsum(counts) - counts)
    ms = np.repeat(first, counts) + np.arange(counts.sum())
    starts, stops = _supports(warped, window, ms)
    return ms[stops > starts].tolist()


def _supports(warped: np.ndarray, window, ms) -> tuple[np.ndarray, np.ndarray]:
    """Index ranges [starts, stops) of the sorted warped bins inside each
    channel's support [c+m, d+m), open at c+m too where theta vanishes."""
    m, (lo_s, hi_s) = np.asarray(ms, dtype=float), window.support
    side = "right" if window.vanishes_at_edges else "left"
    return np.searchsorted(warped, lo_s + m, side), np.searchsorted(warped, hi_s + m)


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


def _mirror_partners(channels: list[Channel], rows: int, pairs: list[tuple[int, int]],
                     length: int) -> np.ndarray:
    """The row each of ``rows`` plan rows mirrors, or -1.  Past the
    direct rows of a half-line grid (channels, residuals) come the mirror
    branches, one per channel, and each mirrors its channel.  Of the
    full-line ``pairs`` (j, i), channel j built as channel i reflected, a
    pair is kept when the diagonal is symmetric on i's bins, so that the
    painless dual of the bank keeps it.  Paired rows add the same weight
    N r^2 at j and -j; so it is symmetric when the rows left unpaired
    weigh each bin and its negation alike, to ``MIRROR_DIAGONAL_RTOL``.
    A channel set missing some -m does not."""
    n = len(channels)
    partner = np.full(rows, -1, dtype=np.int64)
    if rows > n:
        partner[rows - n:] = np.arange(n)
    if not pairs:
        return partner
    paired = {i for pair in pairs for i in pair}
    spare = [ch for i, ch in enumerate(channels) if i not in paired and len(ch.response)]
    # The spare weight lives on the runs of bins the spare rows cover and
    # their negations.  Merged, those runs list a set of signed bins closed
    # under negation (-L/2 stands for the Nyquist bin L/2), so reversing
    # the weight on them negates the bins.
    runs = sorted(run for ch in spare for run in (
        (ch.start_bin, ch.start_bin + len(ch.response)),
        (1 - ch.start_bin - len(ch.response), 1 - ch.start_bin)))
    merged = []
    for lo, hi in runs:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    firsts = np.array([lo for lo, _ in merged], dtype=np.intp)
    listed = np.cumsum([0] + [hi - lo for lo, hi in merged])
    # each spare entry's position in that listing
    first = np.array([ch.start_bin for ch in spare], dtype=np.intp)
    sizes = np.array([len(ch.response) for ch in spare], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    home = np.searchsorted(firsts, first, side="right") - 1
    bins = np.repeat(listed[home] + first - firsts[home] - starts, sizes)
    bins += np.arange(len(bins))
    values = np.concatenate([ch.response for ch in spare] + [np.zeros(0)]) ** 2
    values *= np.repeat([ch.n_frames for ch in spare], sizes)
    weight = np.bincount(bins, values, minlength=int(listed[-1]))
    if len(firsts) and firsts[0] == -(length // 2):
        weight[0] = weight[-1]
    mirrored = weight[::-1]
    skewed = np.abs(weight - mirrored) > MIRROR_DIAGONAL_RTOL * np.maximum(weight, mirrored)
    if skewed.any():
        skewed = np.concatenate([np.arange(lo, hi) for lo, hi in merged])[skewed]
        start = np.array([channels[i].start_bin for _, i in pairs])
        stop = start + [len(channels[i].response) for _, i in pairs]
        clear = np.searchsorted(skewed, start) == np.searchsorted(skewed, stop)
        pairs = [pair for pair, ok in zip(pairs, clear.tolist()) if ok]
    for j, i in pairs:
        partner[j] = i
    return partner


def _build_plan(bank: WarpedBank, partner=None) -> BankPlan:
    """Concatenate the direct rows' sampled responses grouped by (paired?,
    N), lay their coefficient blocks out in the same order, then the
    mirror rows' as a copy of the paired rows' layout, and point each
    channel's response at its slice, a mirror channel's at its partner's
    reversed.  ``partner`` defaults to the half-line mirror branches."""
    chans, length = bank.channels, bank.grid.length
    # (N, first bin, response) per channel and residual
    table = [(ch.n_frames, ch.start_bin, ch.response) for ch in chans]
    table += [(1, res.bin_index, np.ones(1)) for res in bank.residuals]
    branches = chans if bank.grid.domain is Domain.POSITIVE_HALF_LINE else []
    frames = np.array([row[0] for row in table] + [ch.n_frames for ch in branches], dtype=np.int64)
    if partner is None:
        partner = _mirror_partners(chans, len(frames), [], length)
    mates = partner.tolist()
    partners = set(mates)
    key = [(i not in partners, row[0]) for i, row in enumerate(table)]
    order = sorted((i for i in range(len(table)) if mates[i] < 0), key=key.__getitem__)
    sizes = np.array([len(table[i][2]) for i in order], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    response = np.concatenate([table[i][2] for i in order])
    n_sorted = frames[order]
    blocks = np.cumsum(n_sorted) - n_sorted
    offsets, coefs = np.zeros(len(frames), dtype=np.intp), np.zeros_like(frames)
    offsets[order], coefs[order] = starts, blocks
    source = np.where(partner >= 0, partner, np.arange(len(frames)))
    offsets, coefs = offsets[source], coefs[source] + (partner >= 0) * n_sorted.sum()
    for ch, start, mate in zip(chans, offsets, mates):  # a mirror channel's reversed
        ch.response = response[start:start + len(ch.response)][::-1 if mate >= 0 else 1]
    # bin of each entry: its row's first bin plus its position, then mod L
    # (signed bins lie in -L/2..L/2, so only the negative ones move; a
    # division would cost more)
    first = np.array([table[i][1] for i in order], dtype=np.intp)
    bins = np.repeat(first - starts, sizes)
    bins += np.arange(len(bins))
    np.add(bins, length, out=bins, where=bins < 0)
    # an entry's slot in its row's block is bin % N
    slots = np.repeat(blocks, sizes)
    groups, paired, lo = [], 0, 0
    for (unpaired, n), rows in groupby(order, key=key.__getitem__):
        hi = lo + len(list(rows))
        block = slice(int(blocks[lo]), int(blocks[lo]) + (hi - lo) * n)
        span = slice(int(starts[lo]), int(starts[lo] + sizes[lo:hi].sum()))
        slots[span] += bins[span] % n
        groups.append((n, block, span))
        paired += not unpaired
        lo = hi
    return BankPlan(groups, bins, response, slots, offsets, coefs, frames, partner, paired)


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
        ms = _touching_channels(warped, window, half) if len(warped) else []
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

    starts, stops = _supports(warped, window, ms)
    with np.errstate(over="ignore"):
        centers = warping.f_inv(np.array(ms, dtype=float))
    if not np.isfinite(centers).all():
        bad = ms[int(np.argmin(np.isfinite(centers)))]
        raise InvalidParameter(f"channel {bad} has no finite center frequency")
    pairs = {} if half else _reflections(ms, factors, warped, starts, stops, window.support)
    responses = [None] * len(ms)
    for k, (m, j0, j1) in enumerate(zip(ms, starts, stops)):
        if k not in pairs:
            responses[k] = np.asarray(window(warped[j0:j1] - m), dtype=float)
            responses[k] *= np.sqrt(factors[m] / grid.length)
    for j, k in pairs.items():
        responses[j] = responses[k][::-1]
    channels = []
    for m, center, j0, response in zip(ms, centers, starts, responses):
        n_frames = grid.length // factors[m]
        # painless iff no two nonzero response bins alias to the same
        # coefficient slot, i.e. the nonzero span stays below N_m; the
        # span is the whole response unless an end entry is 0
        span = len(response) - 1
        if span > 0 and not (response[0] and response[-1]):
            nz = np.flatnonzero(response)
            span = int(nz[-1] - nz[0]) if len(nz) else 0
        channels.append(Channel(
            m=m, center_hz=float(center), a=factors[m], n_frames=n_frames,
            start_bin=lo_bin + int(j0), response=response, painless=span < n_frames,
        ))
    residuals = [ResidualChannel(0), ResidualChannel(grid.length // 2)] if half else []
    partner = None
    if pairs:  # full line: no residuals or branches, a row per channel
        partner = _mirror_partners(channels, len(channels), list(pairs.items()), grid.length)
    bank = WarpedBank(
        warping=warping,
        window=window,
        grid=grid,
        kind=kind,
        channels=channels,
        residuals=residuals,
        policy_record=policy_record,
        fingerprint=_geometry_fingerprint(warping, window, grid, factors),
        partner=partner,
    )
    if check_coverage:
        _require_coverage(bank, "the channel set does not cover the grid")
    return bank


def painless_dual(bank: WarpedBank) -> WarpedBank:
    """Dual bank with responses divided pointwise by the diagonal.

    Requires every channel painless and full coverage; with that,
    analysis by ``bank`` followed by synthesis with the dual is the
    identity.  The diagonal is 1 at the residual bins, so dividing the
    direct rows' entries divides every direct row.  It is symmetric to
    rounding on the bins of mirror pairs (see ``_mirror_partners``), so
    each mirror row, its partner's quotient reflected, is its own quotient
    too, and the dual keeps ``bank``'s pairs.
    """
    offenders = [ch.m for ch in bank.channels if not ch.painless]
    if offenders:
        raise NotPainless(
            f"channels {offenders} have aliasing support bins; "
            "the pointwise dual formula does not apply"
        )
    _require_coverage(bank, "the pointwise dual is undefined there")
    plan = bank.plan
    response = plan.response / bank.diagonal()[plan.bins]
    return replace(bank, kind="dual", partner=plan.partner, channels=[
        replace(ch, response=response[start:start + len(ch.response)])
        for ch, start in zip(bank.channels, plan.offsets)])


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
    the painless flags; diagnostics use this to probe degradation.  A
    dual bank's responses are not sampled from its window, so its hops
    are scaled on the analysis bank, whose dual is then taken again."""
    if bank.kind == "dual":
        raise InvalidParameter("cannot rescale the hops of a dual bank; "
                               "scale its analysis bank and take the dual of that")
    if int(scale) != scale or scale < 1:
        raise InvalidParameter(f"scale must be a positive integer, got {scale!r}")
    hops = _snap_to_divisors([ch.a * int(scale) for ch in bank.channels], bank.grid.length)
    factors = {ch.m: int(a) for ch, a in zip(bank.channels, hops)}
    return build_bank(bank.warping, bank.window, bank.grid, Explicit(factors),
                      kind=bank.kind, check_coverage=False)


def channel_response_continuous(warping: WarpingFunction, window, m: int, xi):
    """theta(F(xi) - m) off the grid, for diagnostics and cross-checks."""
    return window(np.asarray(warping.f(xi)) - m)
