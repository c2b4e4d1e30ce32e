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

``build_bank`` builds the bank's plan once: one flat table of the
sampled entries of its direct rows (channels and residuals; a mirror row
reads its partner's), grouped by frame length N (hops snap to divisors of
L, so a bank has few distinct N), paired rows first, with the N of every
row in ``plan.frames`` and, for every entry, its slot in one flat
coefficient buffer.  The mirror rows' coefficients follow the direct
prefix in a copy of the paired rows' layout, so real input needs only
that prefix.  Each channel's response is a view of the plan, which every
consumer reads; the painless dual shares it, with new responses.
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
    """Flat sampled geometry, one row per generator: row i is channel i,
    then the residuals (N = 1, response 1 at their bin), then on half-line
    grids a mirror branch per channel.
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
    groups, ``paired_entries`` entries and ``paired_size`` slots, hold the
    rows that have a mirror row, and all direct rows fill ``direct_size``
    slots: a real-input buffer.  A complex-input one adds the mirror rows'
    block, a row-for-row copy of the paired blocks' layout.  As an index,
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

    @cached_property
    def slot_frames(self) -> np.ndarray:
        """N of the row of every buffer slot."""
        frames = self.frames[np.argsort(self.coefs)]
        return np.repeat(frames, frames)

    def weights(self, first: int = 0) -> np.ndarray:
        """N r^2 of the entries of group ``first`` and the groups after it."""
        groups = self.groups[first:]
        frames = np.repeat([n for n, _, _ in groups], [s.stop - s.start for _, _, s in groups])
        return self.response[len(self.response) - len(frames):] ** 2 * frames


@dataclass
class WarpedBank:
    """A warped filter bank: its channels and residuals, and the ``plan``
    that ``build_bank`` built from them.  Every channel's response is a
    view of ``plan.response`` (see ``_plan_views``)."""

    warping: WarpingFunction
    window: object
    grid: GridSpec
    kind: str
    channels: list[Channel]
    residuals: list[ResidualChannel]
    policy_record: dict
    fingerprint: str
    plan: BankPlan = field(repr=False)
    _diag: np.ndarray | None = field(init=False, default=None, repr=False)

    @property
    def painless(self) -> bool:
        return all(ch.painless for ch in self.channels)

    def diagonal(self) -> np.ndarray:
        """Frame-operator diagonal over all L bins (cached): entry j of
        row m adds N_m response_m[j]^2 at its bin, and a paired entry
        adds it again at the negated bin for its mirror row."""
        if self._diag is None:
            plan, length = self.plan, self.grid.length
            weights, stop = plan.weights(), plan.paired_entries
            self._diag = np.bincount(plan.bins, weights, minlength=length)
            self._diag += np.bincount(plan.bins[:stop], weights[:stop],
                                      minlength=length)[-np.arange(length)]
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


def _mirror_partners(plan: BankPlan, channels: list[Channel], pairs: dict[int, int],
                     length: int) -> dict[int, int]:
    """The full-line ``pairs`` {j: k} (channel j built as channel k
    reflected, all paired in ``plan``) on whose bins the diagonal is
    symmetric, so that the painless dual keeps them.  Paired rows add the
    same weight N r^2 at a bin and its negation, so that holds when the
    plan's unpaired entries weigh k's bins and their negations alike, to
    ``MIRROR_DIAGONAL_RTOL`` of the larger.  A channel set missing some -m
    does not."""
    if not pairs:
        return pairs
    stop, half = plan.paired_entries, length // 2
    weight = np.bincount(plan.bins[stop:], plan.weights(plan.paired), minlength=length)
    low, high = weight[:half + 1], weight[-np.arange(half + 1)]
    skewed = np.abs(low - high) > MIRROR_DIAGONAL_RTOL * np.maximum(low, high)
    if not skewed.any():
        return pairs
    # the paired entries on skewed bins, and the direct rows holding none
    skewed = np.concatenate((skewed, skewed[-2:0:-1]))  # over bins 0..L-1
    hits = np.flatnonzero(skewed[plan.bins[:stop]])
    first = plan.offsets[list(pairs.values())]
    last = first + [len(channels[k].response) for k in pairs.values()]
    clear = np.searchsorted(hits, first) == np.searchsorted(hits, last)
    return {j: k for (j, k), ok in zip(pairs.items(), clear.tolist()) if ok}


def _build_plan(channels: list[Channel], residuals: list[ResidualChannel], grid: GridSpec,
                pairs: dict[int, int]) -> BankPlan:
    """Concatenate the direct rows' sampled responses grouped by (paired?,
    N), lay their coefficient blocks out in the same order, then the
    mirror rows' as a copy of the paired rows' layout.  The mirror rows
    are the half-line mirror branches, each of its channel, and the
    full-line ``pairs`` {j: k}, channel j of channel k."""
    # (N, first bin, response) per channel and residual
    table = [(ch.n_frames, ch.start_bin, ch.response) for ch in channels]
    table += [(1, res.bin_index, np.ones(1)) for res in residuals]
    branches = channels if grid.domain is Domain.POSITIVE_HALF_LINE else []
    frames = np.array([row[0] for row in table] + [ch.n_frames for ch in branches], dtype=np.int64)
    partner = np.full(len(frames), -1, dtype=np.int64)
    partner[len(table):] = np.arange(len(branches))
    partner[list(pairs)] = list(pairs.values())
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
    # bin of each entry: its row's first bin plus its position, then mod L
    # (signed bins lie in -L/2..L/2, so only the negative ones move; a
    # division would cost more)
    first = np.array([table[i][1] for i in order], dtype=np.intp)
    bins = np.repeat(first - starts, sizes)
    bins += np.arange(len(bins))
    np.add(bins, grid.length, out=bins, where=bins < 0)
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
    ends = [(0, 0)] + [(span.stop, block.stop) for _, block, span in groups]
    (paired_entries, paired_size), direct_size = ends[paired], ends[-1][1]
    return BankPlan(groups, bins, response, slots, offsets, coefs, frames, partner, paired,
                    paired_entries, paired_size, direct_size)


def _plan_views(channels: list[Channel], plan: BankPlan) -> list[Channel]:
    """``channels``, each response pointed at its row's slice of
    ``plan.response``, a mirror channel's at its partner's reversed."""
    for ch, start, mate in zip(channels, plan.offsets.tolist(), plan.partner.tolist()):
        view = plan.response[start:start + len(ch.response)]
        ch.response = view[::-1] if mate >= 0 else view
    return channels


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
    that holds no bin gets N_m zero coefficients.  A bank asked for as
    ``tight`` whose channels are not all painless is recorded as
    ``analysis``: its frame operator is no longer its diagonal.
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
    if kind == "tight" and not all(ch.painless for ch in channels):
        kind = "analysis"
    residuals = [ResidualChannel(0), ResidualChannel(grid.length // 2)] if half else []
    plan = _build_plan(channels, residuals, grid, pairs)
    kept = _mirror_partners(plan, channels, pairs, grid.length)
    if len(kept) < len(pairs):
        plan = _build_plan(channels, residuals, grid, kept)
    bank = WarpedBank(
        warping=warping,
        window=window,
        grid=grid,
        kind=kind,
        channels=_plan_views(channels, plan),
        residuals=residuals,
        policy_record=policy_record,
        fingerprint=_geometry_fingerprint(warping, window, grid, factors),
        plan=plan,
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
    too.  The dual's plan is therefore ``bank``'s with the quotients as
    its responses: bins, slots, layout and pairs are shared.
    """
    offenders = [ch.m for ch in bank.channels if not ch.painless]
    if offenders:
        raise NotPainless(
            f"channels {offenders} have aliasing support bins; "
            "the pointwise dual formula does not apply"
        )
    _require_coverage(bank, "the pointwise dual is undefined there")
    plan = replace(bank.plan, response=bank.plan.response / bank.diagonal()[bank.plan.bins])
    channels = _plan_views([replace(ch) for ch in bank.channels], plan)
    return replace(bank, kind="dual", plan=plan, channels=channels)


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
    the painless flags, and a tight bank's kind with them (see
    ``build_bank``); diagnostics use this to probe degradation.  A
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
