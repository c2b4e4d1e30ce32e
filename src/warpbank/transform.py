"""Analysis and synthesis with a warped bank.

Everything runs through the unitary DFT (fft / sqrt(L)).  Channel m with
hop a and N = L / a coefficients computes

    c_m[n] = <f, T_{n a} g_m> = sum_j fhat[j] response_m[j] exp(2 pi i j n / N),

done by folding fhat * response onto N slots (j mod N) and one inverse
FFT of length N.  The bank's plan (see bank) groups the channels by N, so
a full analysis costs one length-L FFT, then per distinct N one bincount
fold over the group's flat bins and one batched inverse FFT of its
rows x N block.  Channels whose response is all zero get N zeros and no
FFT.  Synthesis is the exact adjoint: per group one batched FFT, a gather
through the fold slots, and one bincount scatter of
fft(c_m)[j mod N] * response_m[j] onto the bins.  The n = 0 coefficient
sits at time 0; there is no per-channel phase ramp.

Half-line banks carry a mirrored copy of every warped channel on the
negative-frequency bins (responses reused, atoms conjugated), which folds
through the same slots with the FFT directions swapped.  For real input
the mirror coefficients are the conjugates of the direct ones, so they
are never materialized; analysis reads bins 0..L/2 of an rfft, and
synthesis fills bins 0..L/2 and returns a real signal by irfft.

Coefficients serialize to the WFBC container: magic ``WFBC``, version and
entry count as little-endian u32, then per entry a channel tag (i32), a
coefficient count (u32) and the coefficients as little-endian f64
(re, im) pairs.  Residual channels are tagged just outside the warped
index range; mirror entries, present only for complex half-line analyses,
repeat the warped tags at the end.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .bank import WarpedBank
from .errors import FingerprintMismatch, InvalidParameter, LengthMismatch
from .warping import Domain

_MAGIC = b"WFBC"
_VERSION = 1


@dataclass
class Signal:
    """A finite signal with its sample rate."""

    samples: np.ndarray
    fs: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class CoefficientSet:
    """Coefficients of one analysis: per-channel complex arrays in channel
    order, plus residual (DC / Nyquist) scalars on half-line grids."""

    channels: list[np.ndarray]
    residuals: list[np.ndarray]
    mirrors: list[np.ndarray] | None
    half_line: bool
    length: int
    fingerprint: str

    @property
    def energy(self) -> float:
        """Sum of |c|^2 over the full atom set.  Mirror channels count
        even in the real-input shortcut, where they stay implicit."""
        e = sum(float(np.sum(np.abs(c) ** 2)) for c in self.channels)
        if self.mirrors is not None:
            e += sum(float(np.sum(np.abs(c) ** 2)) for c in self.mirrors)
        elif self.half_line:
            e *= 2.0
        e += sum(float(np.sum(np.abs(c) ** 2)) for c in self.residuals)
        return e


def _checked_samples(signal, bank: WarpedBank) -> np.ndarray:
    """The samples of ``signal``: one-dimensional of the bank's length,
    finite, and at the bank's sample rate (to 1e-6 relative) if
    ``signal`` is a Signal."""
    samples = signal.samples if isinstance(signal, Signal) else np.asarray(signal)
    length = bank.grid.length
    if samples.ndim != 1 or len(samples) != length:
        raise LengthMismatch(
            f"signal has shape {samples.shape}, bank expects length {length}"
        )
    fs = bank.grid.fs
    if isinstance(signal, Signal) and not abs(signal.fs - fs) <= 1e-6 * fs:
        raise InvalidParameter(
            f"signal sample rate {signal.fs:g} Hz does not match the bank's {fs:g} Hz"
        )
    if not np.isfinite(samples).all():
        raise InvalidParameter("signal has non-finite samples")
    return samples


def _sum_at(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Complex sums of ``values`` over equal ``index`` entries, 0..size-1."""
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(index, values.real, minlength=size)
    out.imag = np.bincount(index, values.imag, minlength=size)
    return out


def _fold_frames(bank: WarpedBank, weighted: np.ndarray, mirror: bool) -> list:
    """Per-channel coefficients from the plan's weighted spectrum entries:
    fold each group onto its rows x N block, one transform per group.
    A mirror branch conjugates every phase, so a forward FFT replaces the
    scaled inverse one."""
    plan = bank.plan
    out = [None] * len(bank.channels)
    for n, rows, span, slots in plan.groups:
        folded = _sum_at(slots, weighted[span], len(rows) * n).reshape(len(rows), n)
        frames = np.fft.fft(folded) if mirror else np.fft.ifft(folded, norm="forward")
        for i, row in zip(rows, frames):
            out[i] = row
    for i in plan.empty:
        out[i] = np.zeros(bank.channels[i].n_frames, dtype=complex)
    return out


def analyze(signal, bank: WarpedBank) -> CoefficientSet:
    """Coefficients of ``signal`` against every atom of ``bank``.

    Real input on a half-line grid skips the mirror channels; their
    coefficients are conjugates of the direct ones by symmetry.
    """
    samples = _checked_samples(signal, bank)
    length = bank.grid.length
    half = bank.grid.domain is Domain.POSITIVE_HALF_LINE
    real_input = not np.iscomplexobj(samples)
    plan = bank.plan
    # a real half-line analysis reads bins 0..L/2 only
    fft = np.fft.rfft if half and real_input else np.fft.fft
    fhat = fft(samples) / np.sqrt(length)
    response = plan.response[: len(plan.bins)]
    channels = _fold_frames(bank, fhat[plan.bins] * response, mirror=False)
    mirrors = None
    if half and not real_input:
        mirrors = _fold_frames(bank, fhat[plan.mirror_bins] * response, mirror=True)
    residuals = [np.array([fhat[res.bin_index]]) for res in bank.residuals]
    return CoefficientSet(
        channels=channels, residuals=residuals, mirrors=mirrors,
        half_line=half, length=length, fingerprint=bank.fingerprint,
    )


def _spread_frames(bank: WarpedBank, frames: list, bins: np.ndarray,
                   size: int, mirror: bool) -> np.ndarray:
    """Adjoint of ``_fold_frames``: one transform per group, read through
    the slots, weighted by the responses and summed onto ``size`` bins."""
    for ch, c in zip(bank.channels, frames):
        if len(c) != ch.n_frames:
            raise LengthMismatch(
                f"channel {ch.m} expects {ch.n_frames} coefficients, got {len(c)}"
            )
    plan = bank.plan
    values = np.empty(len(bins), dtype=complex)
    for _, rows, span, slots in plan.groups:
        block = np.stack([frames[i] for i in rows])
        spec = np.fft.ifft(block, norm="forward") if mirror else np.fft.fft(block)
        values[span] = spec.reshape(-1)[slots] * plan.response[span]
    return _sum_at(bins, values, size)


def synthesize(coeffs: CoefficientSet, bank: WarpedBank) -> Signal:
    """Weighted sum of ``bank``'s atoms.  Pass the analysis bank itself for
    a tight design, or its painless dual, to invert ``analyze``.  The sum
    is real only for a real-input analysis on a half-line grid."""
    if coeffs.fingerprint != bank.fingerprint:
        raise FingerprintMismatch(
            "coefficient set was produced by a bank with different geometry"
        )
    length = bank.grid.length
    if len(coeffs.channels) != len(bank.channels):
        raise FingerprintMismatch(
            f"coefficient set has {len(coeffs.channels)} channels, "
            f"bank has {len(bank.channels)}"
        )
    plan = bank.plan
    # real-input shortcut: bins 0..L/2 only, negative bins by conjugate symmetry
    shortcut = coeffs.half_line and coeffs.mirrors is None
    size = length // 2 + 1 if shortcut else length
    spec = _spread_frames(bank, coeffs.channels, plan.bins, size, mirror=False)
    if coeffs.mirrors is not None:
        spec += _spread_frames(bank, coeffs.mirrors, plan.mirror_bins, size, mirror=True)
    for res, c in zip(bank.residuals, coeffs.residuals):
        spec[res.bin_index] += res.response_value * c[0]
    if shortcut:
        out = np.sqrt(length) * np.fft.irfft(spec, n=length)
    else:
        out = np.sqrt(length) * np.fft.ifft(spec)
    return Signal(samples=out, fs=bank.grid.fs)


def apply_frame_operator(signal, bank: WarpedBank) -> Signal:
    """S f = sum over atoms of <f, g> g, in the unitary DFT domain.

    Analysis then synthesis would run an inverse and a forward FFT of the
    same N-point block, which cancel to a factor N; so per group S folds
    fhat * response onto the slots and gathers N * folded[slots] *
    response back onto the bins (its Walnut form).  Mirror bins go through
    the same slots and residual bins pass through.  Real input gives a real
    output on half-line grids only, where the mirror branches make S
    commute with conjugation.
    """
    samples = _checked_samples(signal, bank)
    length = bank.grid.length
    plan = bank.plan
    fhat = np.fft.fft(samples) / np.sqrt(length)
    response = plan.response[: len(plan.bins)]
    spec = np.zeros(length, dtype=complex)
    for bins in (plan.bins, plan.mirror_bins):
        if bins is None:
            continue
        values = fhat[bins] * response
        for n, rows, span, slots in plan.groups:
            folded = _sum_at(slots, values[span], len(rows) * n)
            values[span] = n * folded[slots] * response[span]
        spec += _sum_at(bins, values, length)
    for res in bank.residuals:
        spec[res.bin_index] += res.response_value * fhat[res.bin_index]
    out = np.sqrt(length) * np.fft.ifft(spec)
    if plan.mirror_bins is not None and not np.iscomplexobj(samples):
        out = out.real
    return Signal(samples=out, fs=bank.grid.fs)


# ---------------------------------------------------------------------------
# coefficient container

def _entry_plan(bank: WarpedBank, with_mirrors: bool):
    """Entry layout: (kind, list index, tag) in file order.  Residual tags
    sit just outside the warped index range."""
    plan = []
    if bank.residuals:
        m_lo = bank.channels[0].m
        m_hi = bank.channels[-1].m
        plan.append(("residual", 0, m_lo - 1))
        for i, ch in enumerate(bank.channels):
            plan.append(("channel", i, ch.m))
        plan.append(("residual", 1, m_hi + 1))
        if with_mirrors:
            for i, ch in enumerate(bank.channels):
                plan.append(("mirror", i, ch.m))
    else:
        for i, ch in enumerate(bank.channels):
            plan.append(("channel", i, ch.m))
    return plan


def save_coefficients(coeffs: CoefficientSet, bank: WarpedBank, path) -> None:
    """Write a coefficient set to the binary WFBC container."""
    if coeffs.fingerprint != bank.fingerprint:
        raise FingerprintMismatch("coefficient set does not belong to this bank")
    plan = _entry_plan(bank, coeffs.mirrors is not None)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(plan)))
        for kind, i, tag in plan:
            if kind == "residual":
                data = coeffs.residuals[i]
            elif kind == "mirror":
                data = coeffs.mirrors[i]
            else:
                data = coeffs.channels[i]
            data = np.asarray(data, dtype="<c16")
            fh.write(struct.pack("<iI", tag, len(data)))
            fh.write(data.tobytes())


def load_coefficients(path, bank: WarpedBank) -> CoefficientSet:
    """Read a WFBC container back against ``bank``.

    The file stores no responses, only tagged coefficient vectors, so the
    bank's own geometry is the reference: any disagreement in entry count,
    channel tags or per-channel lengths means the file belongs to a
    different bank and raises FingerprintMismatch.
    """
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12 or head[:4] != _MAGIC:
            raise FingerprintMismatch("not a WFBC coefficient file")
        version, count = struct.unpack_from("<II", head, 4)
        if version != _VERSION:
            raise FingerprintMismatch(f"unsupported WFBC version {version}")
        n = len(bank.channels)
        counts = (n + 2, 2 * n + 2) if bank.residuals else (n,)
        if count not in counts:
            raise FingerprintMismatch(
                f"expected {' or '.join(map(str, counts))} entries for this "
                f"bank, file has {count}"
            )
        with_mirrors = count == 2 * n + 2
        plan = _entry_plan(bank, with_mirrors)
        channels: list = [None] * n
        mirrors: list | None = [None] * n if with_mirrors else None
        residuals: list = [None] * len(bank.residuals)
        for kind, i, tag in plan:
            entry = fh.read(8)
            if len(entry) < 8:
                raise FingerprintMismatch("coefficient file is truncated")
            got_tag, got_len = struct.unpack("<iI", entry)
            expect = 1 if kind == "residual" else bank.channels[i].n_frames
            if got_tag != tag or got_len != expect:
                raise FingerprintMismatch(
                    f"entry mismatch: expected channel {tag} with {expect} "
                    f"coefficients, file has {got_tag} with {got_len}"
                )
            data = np.empty(got_len, dtype="<c16")
            if fh.readinto(data) != data.nbytes:
                raise FingerprintMismatch("coefficient file is truncated")
            if kind == "residual":
                residuals[i] = data
            elif kind == "mirror":
                mirrors[i] = data
            else:
                channels[i] = data
        if fh.read(1):
            raise FingerprintMismatch("coefficient file has trailing bytes")
    return CoefficientSet(
        channels=channels, residuals=residuals, mirrors=mirrors,
        half_line=bank.grid.domain is Domain.POSITIVE_HALF_LINE,
        length=bank.grid.length, fingerprint=bank.fingerprint,
    )
