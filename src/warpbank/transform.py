"""Analysis and synthesis with a warped bank.

Everything runs through the unitary DFT (fft / sqrt(L)).  Channel m with
hop a and N = L / a coefficients computes

    c_m[n] = <f, T_{n a} g_m> = sum_j fhat[j] response_m[j] exp(2 pi i j n / N),

done by folding fhat * response onto N slots (j mod N) and one inverse
FFT of length N.  The bank's plan (see bank) has a row per generator,
groups the rows by N and gives every sampled entry its slot in one flat
coefficient buffer, so a full analysis costs one length-L FFT, one
bincount fold of all entries onto the buffer, then per group one batched
in-place inverse FFT of its rows x N block; a CoefficientSet holds that
buffer.  Synthesis is the exact adjoint: on a copy of the buffer, per
group one batched in-place FFT, then one gather through the slots and one
bincount scatter of fft(c_m)[j mod N] * response_m[j] onto the bins.  The
n = 0 coefficient sits at time 0; there is no per-channel phase ramp.  A
residual is a row with N = 1 and response 1, so its coefficient is the
spectrum at its bin.

Half-line banks carry a mirror branch of every warped channel on the
negative-frequency bins: a row that reuses the channel's response on the
bins L - j.  Because N divides L, its slot (L - j) mod N is -j mod N, so
the same inverse FFT yields the conjugated atoms' coefficients.  For real
input the mirror coefficients are the conjugates of the direct ones, so
they are never materialized; analysis runs the plan's direct groups on
bins 0..L/2 of an rfft into the direct prefix of the buffer, and
synthesis fills bins 0..L/2 from it and returns a real signal by irfft.

Coefficients serialize to the WFBC container: magic ``WFBC``, version and
entry count as little-endian u32, then per entry a channel tag (i32), a
coefficient count (u32) and the coefficients as little-endian f64
(re, im) pairs.  Half-line files hold the DC residual (tag m_min - 1),
the channels, the Nyquist residual (tag m_max + 1), then for complex
analyses the mirror entries, which repeat the channel tags.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

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
    """Coefficients of one analysis by ``bank`` in the plan's flat buffer,
    row i's N at ``plan.coefs[i]``; a real-input half-line analysis holds
    the direct prefix only.  ``channels``, ``residuals`` (DC / Nyquist on
    half-line grids) and ``mirrors`` are views of it, made on first read."""

    buffer: np.ndarray
    bank: WarpedBank = field(repr=False)

    @property
    def half_line(self) -> bool:
        return self.bank.grid.domain is Domain.POSITIVE_HALF_LINE

    @cached_property
    def _views(self) -> tuple:
        plan, size = self.bank.plan, len(self.buffer)
        rows = tuple(self.buffer[o:o + n] for o, n
                     in zip(plan.coefs.tolist(), plan.frames.tolist()) if o < size)
        n = len(self.bank.channels)
        r = n + len(self.bank.residuals)
        return rows[:n], rows[n:r], rows[r:] or None

    channels = property(lambda self: self._views[0])
    residuals = property(lambda self: self._views[1])
    mirrors = property(lambda self: self._views[2])

    @property
    def energy(self) -> float:
        """Sum of |c|^2 over the full atom set.  Mirror channels count
        even in the real-input shortcut, where they stay implicit."""
        e = np.vdot(self.buffer, self.buffer).real
        if len(self.buffer) < _buffer_sizes(self.bank.plan)[1]:
            n = len(self.bank.channels)
            res = self.buffer[self.bank.plan.coefs[n:n + len(self.bank.residuals)]]
            e = 2.0 * e - np.vdot(res, res).real
        return float(e)


def _buffer_sizes(plan) -> tuple[int, int]:
    """Lengths of the buffer's direct-row prefix and of the whole buffer."""
    return plan.groups[plan.direct - 1][1].stop, plan.groups[-1][1].stop


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


def _gather_sum(source, take, weights, index, size: int) -> np.ndarray:
    """Complex sums of source[take] * weights over equal ``index`` entries,
    0..size-1, real and imaginary parts in turn: one real gather at a time."""
    out = np.empty(size, dtype=complex)
    for part, dest in ((source.real, out.real), (source.imag, out.imag)):
        values = part[take]
        values *= weights
        dest[:] = np.bincount(index, values, minlength=size)
        del values
    return out


def _fold_frames(bank: WarpedBank, fhat: np.ndarray, groups) -> np.ndarray:
    """Coefficient buffer of the spectrum ``fhat``: the plan's entries
    fhat[bins] * response folded onto the prefix ``groups`` cover, then per
    group one in-place inverse FFT."""
    plan, stop = bank.plan, groups[-1][2].stop
    flat = _gather_sum(fhat, plan.bins[:stop], plan.response[:stop], plan.slots[:stop],
                       groups[-1][1].stop)
    for n, block, _ in groups:
        rows = flat[block].reshape(-1, n)
        np.fft.ifft(rows, norm="forward", out=rows)
    return flat


def analyze(signal, bank: WarpedBank) -> CoefficientSet:
    """Coefficients of ``signal`` against every atom of ``bank``.

    Real input on a half-line grid skips the mirror channels; their
    coefficients are conjugates of the direct ones by symmetry.
    """
    samples = _checked_samples(signal, bank)
    length = bank.grid.length
    half = bank.grid.domain is Domain.POSITIVE_HALF_LINE
    mirrors = half and np.iscomplexobj(samples)
    plan = bank.plan
    groups = plan.groups if mirrors else plan.groups[:plan.direct]
    # a real half-line analysis reads bins 0..L/2 only
    fft = np.fft.rfft if half and not mirrors else np.fft.fft
    fhat = fft(samples) / np.sqrt(length)
    return CoefficientSet(_fold_frames(bank, fhat, groups), bank)


def _check_shape(coeffs: CoefficientSet, bank: WarpedBank) -> None:
    """Raise FingerprintMismatch unless ``coeffs`` has ``bank``'s fingerprint
    and a one-dimensional buffer of a length ``_buffer_sizes`` allows."""
    if coeffs.bank.fingerprint != bank.fingerprint:
        raise FingerprintMismatch(
            "coefficient set was produced by a bank with different geometry"
        )
    prefix, full = _buffer_sizes(bank.plan)
    if np.shape(coeffs.buffer) not in ((prefix,), (full,)):
        raise FingerprintMismatch(
            f"coefficient buffer has shape {np.shape(coeffs.buffer)}; the bank takes "
            f"{full} coefficients, or {prefix} for real input on a half-line grid"
        )


def _spread_frames(bank: WarpedBank, buffer: np.ndarray, groups, size: int) -> np.ndarray:
    """Adjoint of ``_fold_frames``: on a copy of ``buffer``, one in-place
    FFT per group, then one gather through the slots, weighted by the
    responses and summed onto ``size`` bins."""
    plan, stop = bank.plan, groups[-1][2].stop
    flat = np.array(buffer, dtype=complex)  # the caller's coefficients stay untouched
    for n, block, _ in groups:
        spec = flat[block].reshape(-1, n)
        np.fft.fft(spec, out=spec)
    return _gather_sum(flat, plan.slots[:stop], plan.response[:stop], plan.bins[:stop], size)


def synthesize(coeffs: CoefficientSet, bank: WarpedBank) -> Signal:
    """Weighted sum of ``bank``'s atoms.  Pass the analysis bank itself for
    a tight design, or its painless dual, to invert ``analyze``.  The sum
    is real only for a real-input analysis on a half-line grid."""
    _check_shape(coeffs, bank)
    length = bank.grid.length
    plan = bank.plan
    # real-input shortcut (direct prefix): bins 0..L/2, the rest by symmetry
    shortcut = len(coeffs.buffer) < _buffer_sizes(plan)[1]
    groups = plan.groups[:plan.direct] if shortcut else plan.groups
    spec = _spread_frames(bank, coeffs.buffer, groups, length // 2 + 1 if shortcut else length)
    if shortcut:
        out = np.sqrt(length) * np.fft.irfft(spec, n=length)
    else:
        out = np.sqrt(length) * np.fft.ifft(spec)
    return Signal(samples=out, fs=bank.grid.fs)


def _walnut(fhat: np.ndarray, response: np.ndarray, bank: WarpedBank) -> np.ndarray:
    """The Walnut form of S applied to the complex spectrum ``fhat``, with
    ``response`` (one entry per plan entry) in place of the sampled
    responses: fold fhat * response onto the slots, scale each group's
    block by its N, and gather folded[slots] * response back onto the
    bins.  Every row, residual and mirror ones included, runs through the
    same fold and gather."""
    plan = bank.plan
    folded = _gather_sum(fhat, plan.bins, response, plan.slots, plan.groups[-1][1].stop)
    for n, block, _ in plan.groups:
        folded[block] *= n
    return _gather_sum(folded, plan.slots, response, plan.bins, bank.grid.length)


def apply_frame_operator(signal, bank: WarpedBank) -> Signal:
    """S f = sum over atoms of <f, g> g, in the unitary DFT domain.

    Analysis then synthesis would run an inverse and a forward FFT of the
    same N-point block, which cancel to a factor N; what is left is S's
    Walnut form, a fold and a gather per group (see ``_walnut``).  Real
    input gives a real output on half-line grids only, where the mirror
    branches make S commute with conjugation.
    """
    samples = _checked_samples(signal, bank)
    length = bank.grid.length
    plan = bank.plan
    fhat = np.fft.fft(samples) / np.sqrt(length)
    spec = _walnut(fhat, plan.response, bank)
    out = np.sqrt(length) * np.fft.ifft(spec)
    if bank.grid.domain is Domain.POSITIVE_HALF_LINE and not np.iscomplexobj(samples):
        out = out.real
    return Signal(samples=out, fs=bank.grid.fs)


# ---------------------------------------------------------------------------
# coefficient container

def _entry_plan(bank: WarpedBank, with_mirrors: bool) -> list[tuple[int, int]]:
    """Entry layout: (plan row, tag) in file order.  Residual tags sit
    just outside the warped index range; mirror entries repeat the
    channel tags."""
    tags = [ch.m for ch in bank.channels]
    entries = list(enumerate(tags))
    if not bank.residuals:
        return entries
    n, r = len(tags), len(tags) + len(bank.residuals)
    mirrors = list(enumerate(tags, r)) if with_mirrors else []
    return [(n, tags[0] - 1)] + entries + [(n + 1, tags[-1] + 1)] + mirrors


def save_coefficients(coeffs: CoefficientSet, bank: WarpedBank, path) -> None:
    """Write a coefficient set to the binary WFBC container."""
    _check_shape(coeffs, bank)
    buffer = np.asarray(coeffs.buffer, dtype="<c16")
    coefs, frames = bank.plan.coefs.tolist(), bank.plan.frames.tolist()
    entries = _entry_plan(bank, len(buffer) > _buffer_sizes(bank.plan)[0])
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(entries)))
        for row, tag in entries:
            fh.write(struct.pack("<iI", tag, frames[row]))
            fh.write(buffer[coefs[row]:coefs[row] + frames[row]].tobytes())


def load_coefficients(path, bank: WarpedBank) -> CoefficientSet:
    """Read a WFBC container back against ``bank``.

    The file stores no responses, only tagged coefficient vectors, so the
    bank's own geometry is the reference: any disagreement in entry count,
    channel tags or per-channel lengths means the file belongs to a
    different bank and raises FingerprintMismatch, as do non-finite
    coefficients, which no analysis produces.
    """
    coefs, frames = bank.plan.coefs.tolist(), bank.plan.frames.tolist()
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
        buffer = np.empty(_buffer_sizes(bank.plan)[with_mirrors], dtype="<c16")
        for row, tag in _entry_plan(bank, with_mirrors):
            entry = fh.read(8)
            if len(entry) < 8:
                raise FingerprintMismatch("coefficient file is truncated")
            got_tag, got_len = struct.unpack("<iI", entry)
            if got_tag != tag or got_len != frames[row]:
                raise FingerprintMismatch(
                    f"entry mismatch: expected channel {tag} with {frames[row]} "
                    f"coefficients, file has {got_tag} with {got_len}"
                )
            data = buffer[coefs[row]:coefs[row] + got_len]
            if fh.readinto(data) != data.nbytes:
                raise FingerprintMismatch("coefficient file is truncated")
        if fh.read(1):
            raise FingerprintMismatch("coefficient file has trailing bytes")
    if not np.isfinite(buffer).all():
        raise FingerprintMismatch("coefficient file is corrupt: non-finite coefficients")
    return CoefficientSet(buffer, bank)
