"""Analysis and synthesis with a warped bank.

Everything runs through the unitary DFT (fft / sqrt(L)).  Channel m with
hop a and N = L / a coefficients computes

    c_m[n] = <f, T_{n a} g_m> = sum_j fhat[j] response_m[j] exp(2 pi i j n / N),

done by folding fhat * response onto N slots (j mod N) and one inverse
FFT of length N.  The bank's plan (see bank) has a row per generator,
groups the rows by N and gives every sampled entry its slot in one flat
coefficient buffer, so a full analysis costs one length-L FFT, one
bincount fold of all entries onto the buffer, then per group one batched
in-place inverse FFT of its rows x N block.  Synthesis is the exact
adjoint: the coefficients concatenated into the buffer, per group one
batched in-place FFT, then one gather through the slots and one bincount
scatter of fft(c_m)[j mod N] * response_m[j] onto the bins.  The n = 0
coefficient sits at time 0; there is no per-channel phase ramp.  A
residual is a row with N = 1 and response 1, so its coefficient is the
spectrum at its bin.

Half-line banks carry a mirror branch of every warped channel on the
negative-frequency bins: a row that reuses the channel's response on the
bins L - j.  Because N divides L, its slot (L - j) mod N is -j mod N, so
the same inverse FFT yields the conjugated atoms' coefficients.  For real
input the mirror coefficients are the conjugates of the direct ones, so
they are never materialized; analysis runs the plan's direct groups on
bins 0..L/2 of an rfft, and synthesis fills bins 0..L/2 from them and
returns a real signal by irfft.

Coefficients serialize to the WFBC container: magic ``WFBC``, version and
entry count as little-endian u32, then per entry a channel tag (i32), a
coefficient count (u32) and the coefficients as little-endian f64
(re, im) pairs.  Half-line files hold the DC residual (tag m_min - 1),
the channels, the Nyquist residual (tag m_max + 1), then for complex
analyses the mirror entries, which repeat the channel tags.
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


def _fold_frames(bank: WarpedBank, weighted: np.ndarray, groups) -> list:
    """Per-row coefficients from the plan's weighted spectrum entries: one
    fold onto the buffer prefix ``groups`` cover, one in-place inverse FFT
    per group.  Returns a view of the buffer for each row of ``groups``,
    in plan row order (the direct rows come first)."""
    plan = bank.plan
    size = groups[-1][1].stop
    flat = _sum_at(plan.slots[:len(weighted)], weighted, size)
    for n, block, _ in groups:
        rows = flat[block].reshape(-1, n)
        np.fft.ifft(rows, norm="forward", out=rows)
    return [flat[o:o + n] for o, n in zip(plan.coefs.tolist(), plan.frames.tolist())
            if o < size]


def _coefficient_set(rows: list, bank: WarpedBank, mirrors: bool) -> CoefficientSet:
    """Split per-row coefficients in plan row order (channels, residuals,
    mirror branches) into a CoefficientSet."""
    n = len(bank.channels)
    r = n + len(bank.residuals)
    return CoefficientSet(
        channels=rows[:n], residuals=rows[n:r], mirrors=rows[r:] if mirrors else None,
        half_line=bank.grid.domain is Domain.POSITIVE_HALF_LINE,
        fingerprint=bank.fingerprint,
    )


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
    stop = groups[-1][2].stop
    # a real half-line analysis reads bins 0..L/2 only
    fft = np.fft.rfft if half and not mirrors else np.fft.fft
    fhat = fft(samples) / np.sqrt(length)
    weighted = fhat[plan.bins[:stop]] * plan.response[:stop]
    return _coefficient_set(_fold_frames(bank, weighted, groups), bank, mirrors)


def _check_shape(coeffs: CoefficientSet, bank: WarpedBank) -> None:
    """Raise FingerprintMismatch unless ``coeffs`` fits an analysis by
    ``bank``: its fingerprint, and per plan row its N coefficients
    (``plan.frames``) for the channels, the residuals and, if present,
    the mirror branches."""
    if coeffs.fingerprint != bank.fingerprint:
        raise FingerprintMismatch(
            "coefficient set was produced by a bank with different geometry"
        )
    shapes = [(n,) for n in bank.plan.frames.tolist()]
    n = len(bank.channels)
    r = n + len(bank.residuals)
    for what, arrays, want in (("channel", coeffs.channels, shapes[:n]),
                               ("mirror", coeffs.mirrors, shapes[r:]),
                               ("residual", coeffs.residuals, shapes[n:r])):
        if arrays is not None and [np.shape(c) for c in arrays] != want:
            raise FingerprintMismatch(
                f"coefficient set's {what} entries ({len(arrays)}) do not match "
                f"the bank's ({len(want)}) in count or length"
            )


def _spread_frames(bank: WarpedBank, rows: list, groups, size: int) -> np.ndarray:
    """Adjoint of ``_fold_frames``: the rows concatenated into the buffer
    prefix ``groups`` cover, one in-place FFT per group, then one gather
    through the slots, weighted by the responses and summed onto ``size``
    bins."""
    plan = bank.plan
    stop = groups[-1][2].stop
    order = np.argsort(plan.coefs[:len(rows)])
    flat = np.concatenate([rows[i] for i in order.tolist()], dtype=complex)
    for n, block, _ in groups:
        spec = flat[block].reshape(-1, n)
        np.fft.fft(spec, out=spec)
    values = flat[plan.slots[:stop]]
    values *= plan.response[:stop]  # in place: one temporary fewer at the peak
    return _sum_at(plan.bins[:stop], values, size)


def synthesize(coeffs: CoefficientSet, bank: WarpedBank) -> Signal:
    """Weighted sum of ``bank``'s atoms.  Pass the analysis bank itself for
    a tight design, or its painless dual, to invert ``analyze``.  The sum
    is real only for a real-input analysis on a half-line grid."""
    _check_shape(coeffs, bank)
    length = bank.grid.length
    plan = bank.plan
    rows = list(coeffs.channels) + list(coeffs.residuals) + list(coeffs.mirrors or [])
    groups = plan.groups if coeffs.mirrors is not None else plan.groups[:plan.direct]
    # real-input shortcut: bins 0..L/2 only, negative bins by conjugate symmetry
    shortcut = coeffs.half_line and coeffs.mirrors is None
    spec = _spread_frames(bank, rows, groups, length // 2 + 1 if shortcut else length)
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
    folded = _sum_at(plan.slots, fhat[plan.bins] * response, plan.groups[-1][1].stop)
    for n, block, _ in plan.groups:
        folded[block] *= n
    return _sum_at(plan.bins, folded[plan.slots] * response, bank.grid.length)


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
    rows = list(coeffs.channels) + list(coeffs.residuals) + list(coeffs.mirrors or [])
    entries = _entry_plan(bank, coeffs.mirrors is not None)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(entries)))
        for row, tag in entries:
            data = np.asarray(rows[row], dtype="<c16")
            fh.write(struct.pack("<iI", tag, len(data)))
            fh.write(data.tobytes())


def load_coefficients(path, bank: WarpedBank) -> CoefficientSet:
    """Read a WFBC container back against ``bank``.

    The file stores no responses, only tagged coefficient vectors, so the
    bank's own geometry is the reference: any disagreement in entry count,
    channel tags or per-channel lengths means the file belongs to a
    different bank and raises FingerprintMismatch.
    """
    frames = bank.plan.frames.tolist()
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
        rows: list = [None] * len(frames)
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
            rows[row] = np.empty(got_len, dtype="<c16")
            if fh.readinto(rows[row]) != rows[row].nbytes:
                raise FingerprintMismatch("coefficient file is truncated")
        if fh.read(1):
            raise FingerprintMismatch("coefficient file has trailing bytes")
    return _coefficient_set(rows, bank, with_mirrors)
