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
warping cannot reach.  Each warped channel then also has a mirror branch,
its response on the negative bins L - bin (see transform), so the bank
covers all of C^L and real signals round-trip through conjugate symmetry.

A bank builds its plan when it is constructed: one flat table with a row
per generator (channels, residuals, mirror branches), grouped by frame
length N (hops snap to divisors of L, so a bank has few distinct N), with
the N of every row in ``plan.frames`` and, for every sampled entry, its
slot in one flat coefficient buffer.  From then on each channel's
response is a view of the plan, and analysis, synthesis, the diagonal and
the dual all read the plan.

A row may be the mirror row of another: its bins are its partner's
negated and its response its partner's reversed, so for real input its
coefficients are the conjugates of its partner's.  The mirror branches of
a half-line grid are such rows by construction.  On the full line channel
-m is the mirror row of channel m when the test in ``_mirror_partners``
finds it so.  That leaves direct the rows at the Nyquist bin, which has
no negative twin, and rows with a bin on an edge of their support, which
is half-open.  The plan orders its rows by role, paired direct rows
first, then unpaired direct rows, then mirror rows, so that real input
needs only a prefix of the entries and of the coefficient buffer.
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
    bin), then on half-line grids a mirror per channel (its response on
    the bins L - bin).  ``frames[i]`` is row i's coefficient count N and
    ``partner[i]`` the row that row i mirrors, or -1 for a direct row.
    ``bins`` (0..L-1), ``response`` and ``slots`` run group after group,
    one entry per sampled bin; row i's response starts at
    ``response[offsets[i]]``.  All coefficients live in one flat buffer,
    row i's N of them at ``coefs[i]``, and an entry folds onto the slot
    ``slots`` = its row's ``coefs`` + bin % N.  Group (N, block, span) has
    the rows of one role and frame length: their entries ``span`` fold
    onto the contiguous buffer slice ``block``, rows x N.  The first
    ``paired`` groups hold the direct rows that have a mirror row, the
    first ``direct`` groups every direct row, so their entries and blocks
    are prefixes of the entries and of the buffer."""

    groups: list[tuple[int, slice, slice]]
    bins: np.ndarray
    response: np.ndarray
    slots: np.ndarray
    offsets: np.ndarray
    coefs: np.ndarray
    frames: np.ndarray
    partner: np.ndarray
    paired: int
    direct: int

    @cached_property
    def slot_frames(self) -> np.ndarray:
        """N of the row of every buffer slot."""
        return np.repeat([n for n, _, _ in self.groups],
                         [block.stop - block.start for _, block, _ in self.groups])


@dataclass
class WarpedBank:
    """A warped filter bank.  Construction builds its ``plan`` and points
    every channel's response at its slice of ``plan.response``; a bank
    made by ``dataclasses.replace`` builds its own.  ``partner`` gives the
    plan's mirror pairs instead of testing for them, as ``painless_dual``
    does to keep its analysis bank's pairs."""

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
        row m adds N_m response_m[j]^2 at its bin."""
        if self._diag is None:
            plan = self.plan
            entry_frames = np.repeat([n for n, _, _ in plan.groups],
                                     [span.stop - span.start for _, _, span in plan.groups])
            self._diag = np.bincount(plan.bins, entry_frames * plan.response ** 2,
                                     minlength=self.grid.length)
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


def _reflects(ch: Channel, other: Channel, length: int) -> bool:
    """True if ``other`` has ``ch``'s hop, ``ch``'s bins negated (mod L)
    and ``ch``'s response reversed, bit for bit.  Empty channels are left
    alone: their zero coefficients gain nothing from a pair."""
    size = len(ch.response)
    if not size or other.a != ch.a or len(other.response) != size:
        return False
    if (other.start_bin + ch.start_bin + size - 1) % length:
        return False
    return other.response.tobytes() == ch.response[::-1].tobytes()


def _mirror_partners(bank: WarpedBank, rows: int) -> np.ndarray:
    """The row each of the ``rows`` plan rows mirrors, or -1.  A half-line
    mirror branch mirrors its channel.  Channel -m mirrors channel m when
    it ``_reflects`` it and the diagonal is symmetric on m's bins, so that
    the painless dual of the bank keeps the pair.  Paired rows add the
    same weight N r^2 at j and -j; so it is symmetric when the rows left
    unpaired weigh each bin and its negation alike, to
    ``MIRROR_DIAGONAL_RTOL``.  A channel set missing some -m does not."""
    chans, length = bank.channels, bank.grid.length
    partner = np.full(rows, -1, dtype=np.int64)
    direct = len(chans) + len(bank.residuals)
    partner[direct:] = np.arange(rows - direct)
    index = {ch.m: i for i, ch in enumerate(chans)}
    pairs = [(index[-ch.m], i) for i, ch in enumerate(chans)
             if ch.m > 0 and -ch.m in index and _reflects(ch, chans[index[-ch.m]], length)]
    if not pairs:
        return partner
    paired = {i for pair in pairs for i in pair}
    spare = [ch for i, ch in enumerate(chans) if i not in paired]
    # the spare weight on the signed bins -L/2..L/2 (full-line channels
    # sample -L/2+1..L/2), so that reversing it negates the bins
    half = length // 2
    sizes = np.array([len(ch.response) for ch in spare], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    bins = np.repeat(np.array([ch.start_bin + half for ch in spare], dtype=np.intp) - starts,
                     sizes)
    bins += np.arange(len(bins))
    values = np.concatenate([ch.response for ch in spare] + [np.zeros(0)]) ** 2
    values *= np.repeat([ch.n_frames for ch in spare], sizes)
    weight = np.bincount(bins, values, minlength=length + 1)
    weight[0] = weight[length]  # -L/2 is the Nyquist bin L/2
    mirrored = weight[::-1]
    skewed = np.abs(weight - mirrored) > MIRROR_DIAGONAL_RTOL * np.maximum(weight, mirrored)
    if skewed.any():
        pairs = [(j, i) for j, i in pairs if not skewed[
            chans[i].start_bin + half:chans[i].start_bin + half + len(chans[i].response)].any()]
    for j, i in pairs:
        partner[j] = i
    return partner


def _build_plan(bank: WarpedBank, partner=None) -> BankPlan:
    """Concatenate the rows' sampled responses grouped by (role, N), lay
    their coefficient blocks out in the same order, and point each
    channel's response at its slice.  The roles are 0 for a direct row
    with a mirror row, 1 for one without, 2 for a mirror row; ``partner``
    defaults to ``_mirror_partners``."""
    chans = bank.channels
    # (N, first bin, response, mirror branch?) per row
    table = [(ch.n_frames, ch.start_bin, ch.response, False) for ch in chans]
    table += [(1, res.bin_index, np.ones(1), False) for res in bank.residuals]
    if bank.grid.domain is Domain.POSITIVE_HALF_LINE:
        table += [(n, b, r, True) for n, b, r, _ in table[:len(chans)]]
    if partner is None:
        partner = _mirror_partners(bank, len(table))
    role = [1] * len(table)
    for i, p in enumerate(partner.tolist()):
        if p >= 0:
            role[i], role[p] = 2, 0
    key = [(r, row[0]) for r, row in zip(role, table)]
    order = sorted(range(len(table)), key=key.__getitem__)
    sizes = np.array([len(table[i][2]) for i in order], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    response = np.concatenate([table[i][2] for i in order])
    offsets = np.empty(len(table), dtype=np.intp)
    offsets[order] = starts
    for ch, start in zip(chans, offsets):
        ch.response = response[start:start + len(ch.response)]
    # bin of each entry: its row's first bin plus its position, negated on
    # half-line mirror branches, then mod L (signed bins lie in -L/2..L/2,
    # so only the negative ones move; a division would cost more)
    first = np.array([table[i][1] for i in order], dtype=np.intp)
    bins = np.repeat(first - starts, sizes)
    bins += np.arange(len(bins))
    branch = [table[i][3] for i in order]
    if any(branch):
        np.negative(bins, out=bins, where=np.repeat(branch, sizes))
    np.add(bins, bank.grid.length, out=bins, where=bins < 0)
    # coefficient blocks of the rows, in the same order; an entry's slot
    # in its row's block is bin % N
    frames = np.array([row[0] for row in table], dtype=np.int64)
    n_sorted = frames[order]
    blocks = np.cumsum(n_sorted) - n_sorted
    coefs = np.empty_like(frames)
    coefs[order] = blocks
    slots = np.repeat(blocks, sizes)
    groups, counts, lo = [], [0, 0, 0], 0
    for (r, n), rows in groupby(order, key=key.__getitem__):
        hi = lo + len(list(rows))
        block = slice(int(blocks[lo]), int(blocks[lo]) + (hi - lo) * n)
        span = slice(int(starts[lo]), int(starts[lo] + sizes[lo:hi].sum()))
        slots[span] += bins[span] % n
        groups.append((n, block, span))
        counts[r] += 1
        lo = hi
    return BankPlan(groups, bins, response, slots, offsets, coefs, frames, partner,
                    counts[0], counts[0] + counts[1])


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
    try:
        with np.errstate(over="ignore"):
            warped = warping.f(np.arange(lo_bin, hi_bin + 1) * grid.bin_hz)
    except MemoryError as exc:
        raise InvalidParameter(f"a grid of L={grid.length} bins does not fit in memory") from exc
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
    residuals = [ResidualChannel(0), ResidualChannel(grid.length // 2)] if half else []
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
    identity.  The diagonal is 1 at the residual bins and symmetric
    under j -> L - j, so dividing the channels alone divides every row.
    It is symmetric to rounding on the bins of mirror pairs (see
    ``_mirror_partners``), so a mirror row takes its partner's quotient
    reversed, and the dual keeps ``bank``'s pairs.
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
    quotients = [response[start:start + len(ch.response)]
                 for ch, start in zip(bank.channels, plan.offsets)]
    quotients = [quotients[p][::-1] if p >= 0 else q
                 for q, p in zip(quotients, plan.partner.tolist())]
    return replace(bank, kind="dual", partner=plan.partner, channels=[
        replace(ch, response=q) for ch, q in zip(bank.channels, quotients)])


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
