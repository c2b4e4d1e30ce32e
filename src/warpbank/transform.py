"""Analysis and synthesis with a warped bank.

Everything runs through the unitary DFT (fft / sqrt(L)).  Channel m with
hop a and N = L / a coefficients computes

    c_m[n] = <f, T_{n a} g_m> = sum_j fhat[j] response_m[j] exp(2 pi i j n / N),

done by folding fhat * response onto N slots (j mod N) and one inverse
FFT of length N.  The bank's plan (see bank) gives every sampled entry of
a direct row its slot in one flat coefficient buffer and groups the rows
by N, so an analysis costs one length-L FFT, the plan's fold of the
entries onto the buffer, then per group one batched in-place inverse FFT
of its rows x N block (none where N = 1); a CoefficientSet holds that
buffer.  Synthesis is the exact adjoint: per group one batched FFT, out
of place from the caller's buffer into a fresh one, then the plan's
spread of fft(c_m)[j mod N] * response_m[j] onto the bins.  The n = 0
coefficient sits at time 0; there is no per-channel phase ramp.  A
residual is a row with N = 1 and response 1, so its coefficient is the
spectrum at its bin.

A mirror row (see bank) is its partner seen through f -> conj(f(-.)), so
its coefficients are the conjugates of its partner's for conj f: the
fold of the reflected spectrum fhat[-k] through the partner's entries,
then a forward FFT.  For complex analysis the fold fills the mirror
block that way; the spread gathers it after inverse FFTs and sums the
result onto the negated bins.  Real input computes the direct rows only,
into the direct prefix of the buffer, from the rfft, extended by
conjugate symmetry on the full line, whose direct rows reach negative
bins; its mirror rows conjugate their partners, so the spread sums the
paired rows' own gather, conjugated, onto the negated bins.  On a
half-line grid the direct rows sit on bins 0..L/2 and the residuals on
the self-conjugate DC and Nyquist bins, so the spread stops at bin L/2,
one irfft adds the rest and the result is real.  On the full line the
rows at the Nyquist bin have no mirror, so the result stays complex.

A painless dual (see bank) is its analysis bank with a ``weight`` on the
DFT bins: analysis multiplies the input spectrum by it, synthesis the
spread spectrum, the frame operator both.  An uneven weight breaks the
conjugate symmetry of real input, so on the full line real input through
a dual fills the full buffer.  A half-line weight is even bit for bit
(bin and negation sum the same entries): there the rfft path stays.

Coefficients serialize to the WFBC container: magic ``WFBC``, version and
entry count as little-endian u32, then per entry a channel tag (i32), a
coefficient count (u32) and the coefficients as little-endian f64
(re, im) pairs.  Half-line files hold the DC residual (tag m_min - 1),
the channels, the Nyquist residual (tag m_max + 1), then for complex
analyses the mirror entries, which repeat the channel tags.  Full-line
files hold every channel; an implicit mirror row is written as the
conjugate of its partner, and a file whose mirror rows are all bitwise
the conjugates of their partners loads as the direct prefix.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import partial, wraps

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


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of one analysis by ``bank`` in the plan's flat buffer,
    row i's N at ``plan.coefs[i]``, checked when the set is made: any
    buffer but a one-dimensional numeric one (booleans, integers, floats
    or complex numbers) of the plan's full size or of its direct prefix
    (real input; see ``analyze``), whose mirror rows are then
    ``implicit``, raises FingerprintMismatch.  ``channels`` are views of
    the buffer, and for implicit rows conjugate copies of their partners.
    ``residuals`` (DC / Nyquist on half-line grids) and the half-line
    ``mirrors`` are views, the latter None when implicit."""

    buffer: np.ndarray
    bank: WarpedBank = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "buffer", np.asarray(self.buffer))
        prefix = self.bank.plan.direct_size
        full = prefix + self.bank.plan.paired_size
        if (self.buffer.shape not in ((prefix,), (full,))
                or self.buffer.dtype.kind not in "biufc"):
            raise FingerprintMismatch(
                f"coefficient buffer has shape {self.buffer.shape} and dtype "
                f"{self.buffer.dtype}; the bank takes {full} numeric coefficients, "
                f"or {prefix} for real input"
            )

    @property
    def implicit(self) -> bool:
        """Whether the mirror rows are implicit: the buffer is the direct prefix."""
        return len(self.buffer) == self.bank.plan.direct_size

    @property
    def half_line(self) -> bool:
        return self.bank.grid.domain is Domain.POSITIVE_HALF_LINE

    def stored_at(self, i: int) -> tuple[int, bool]:
        """Where plan row i's stored coefficients start in the buffer, and
        whether the row is implicit: an implicit mirror row, whose slots
        lie past the buffer, reads its partner's, ``plan.direct_size``
        slots before its own (the mirror block copies the paired rows'
        layout), and its coefficients are their conjugates."""
        plan = self.bank.plan
        start = int(plan.coefs[i])
        implicit = start >= len(self.buffer)
        return start - implicit * plan.direct_size, implicit

    def row(self, i: int) -> np.ndarray:
        """Plan row i's coefficients: a view of the buffer, or for an
        implicit mirror row a conjugate copy of its partner's."""
        start, implicit = self.stored_at(i)
        view = self.buffer[start:start + int(self.bank.plan.frames[i])]
        return np.conj(view) if implicit else view

    @property
    def channels(self) -> tuple:
        return tuple(self.row(i) for i in range(len(self.bank.channels)))

    @property
    def residuals(self) -> tuple:
        n = len(self.bank.channels)
        return tuple(self.row(i) for i in range(n, n + len(self.bank.residuals)))

    @property
    def mirrors(self) -> tuple | None:
        plan, first = self.bank.plan, len(self.bank.channels) + len(self.bank.residuals)
        if first == len(plan.frames) or self.implicit:
            return None
        return tuple(self.row(i) for i in range(first, len(plan.frames)))

    @property
    def energy(self) -> float:
        """Sum of |c|^2 over the full atom set.  An implicit mirror row
        counts as its partner, so a real-input set counts each paired
        row twice."""
        if not self.implicit:
            return float(np.vdot(self.buffer, self.buffer).real)
        n = self.bank.plan.paired_size
        head, tail = self.buffer[:n], self.buffer[n:]
        return float(2.0 * np.vdot(head, head).real + np.vdot(tail, tail).real)


def _checked_samples(signal, bank: WarpedBank) -> np.ndarray:
    """The samples of ``signal``: one-dimensional of the bank's length,
    finite numbers (bool, integer, float or complex), and at the bank's
    sample rate (to 1e-6 relative) if ``signal`` is a Signal."""
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
    if samples.dtype.kind not in "biufc":
        raise InvalidParameter(f"signal samples must be numbers, got dtype {samples.dtype}")
    if not np.isfinite(samples).all():
        raise InvalidParameter("signal has non-finite samples")
    return samples


def _in_float_range(fn):
    """Run ``fn`` with numpy's overflow and invalid-value errors raised, as
    InvalidParameter.  Finite input far enough out (1e308, say) makes the
    FFTs and sums leave the float range; the error state catches that
    where it happens, with no extra pass over the results."""
    @wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError as exc:
            raise InvalidParameter(f"{fn.__name__} leaves the float range ({exc})") from exc
    return checked


def _row_ffts(flat: np.ndarray, plan, inverse: bool, out: np.ndarray | None = None) -> None:
    """Per group one batched FFT of its rows x N block of ``flat``, the
    unscaled inverse one if ``inverse``, and the other one on the copies
    of the paired groups' blocks in a mirror block, into the same blocks
    of ``out`` (by default ``flat`` itself).  A length-1 FFT of either
    kind returns its input bit for bit, so N = 1 groups are only copied,
    where ``out`` is another buffer."""
    target = flat if out is None else out
    ffts = (np.fft.fft, partial(np.fft.ifft, norm="forward"))
    for start, groups, fft in ((0, plan.groups, ffts[inverse]),
                               (plan.direct_size, plan.groups[:plan.paired], ffts[not inverse])):
        part, dest = flat[start:], target[start:]
        for n, block in groups if len(part) else ():
            if n > 1:
                fft(part[block].reshape(-1, n), out=dest[block].reshape(-1, n))
            elif out is not None:
                dest[block] = part[block]


@_in_float_range
def analyze(signal, bank: WarpedBank) -> CoefficientSet:
    """Coefficients of ``signal`` against every atom of ``bank``.

    Real input skips the mirror rows; their coefficients are conjugates of
    their partners' by symmetry.  Through a full-line dual, whose weight
    breaks that symmetry, real input computes them too: the full buffer.
    """
    samples = _checked_samples(signal, bank)
    length, plan, weight = bank.grid.length, bank.plan, bank.weight
    full = plan.direct_size + plan.paired_size
    if np.iscomplexobj(samples):
        fhat, size = np.fft.fft(samples) / np.sqrt(length), full
    elif bank.grid.domain is Domain.FULL_LINE:
        # the direct rows reach the negative bins: rfft / sqrt(L) and its
        # conjugate extension share one length-L spectrum
        fhat, half = np.empty(length, dtype=complex), length // 2
        size = plan.direct_size if weight is None else full
        np.divide(np.fft.rfft(samples), np.sqrt(length), out=fhat[:half + 1])
        np.conjugate(fhat[half - 1:0:-1], out=fhat[half + 1:])
    else:
        fhat, size = np.fft.rfft(samples) / np.sqrt(length), plan.direct_size
    if weight is not None:
        fhat *= weight[:len(fhat)]
    flat = plan.fold(fhat, plan.response, size)
    _row_ffts(flat, plan, inverse=True)
    return CoefficientSet(flat, bank)


@_in_float_range
def synthesize(coeffs: CoefficientSet, bank: WarpedBank) -> Signal:
    """Weighted sum of ``bank``'s atoms.  Pass the analysis bank itself for
    a tight design, or its painless dual, to invert ``analyze``.  The sum
    is real only for a real-input analysis on a half-line grid.
    Coefficients holding NaN or inf raise InvalidParameter."""
    if coeffs.bank.fingerprint != bank.fingerprint:
        raise FingerprintMismatch(
            "coefficient set was produced by a bank with different geometry"
        )
    length, plan = bank.grid.length, bank.plan
    # a real-input set on a half-line grid sits on bins 0..L/2; irfft adds the rest
    half = coeffs.half_line and coeffs.implicit
    # the row FFTs run out of place, so the caller's buffer stays untouched
    spectra = np.empty(len(coeffs.buffer), dtype=complex)
    _row_ffts(np.asarray(coeffs.buffer, dtype=complex), plan, inverse=False, out=spectra)
    spec = plan.spread(spectra, plan.response, length // 2 + 1 if half else length)
    del spectra  # free before the inverse FFT allocates
    if bank.weight is not None:
        spec *= bank.weight[:len(spec)]
    out = np.fft.irfft(spec, n=length) if half else np.fft.ifft(spec)
    out *= np.sqrt(length)
    # NaN and inf pass the FFTs and sums without a floating-point error
    if not np.isfinite(out).all():
        raise InvalidParameter("synthesis gives non-finite samples: the coefficients "
                               "hold NaN or inf")
    return Signal(samples=out, fs=bank.grid.fs)


@_in_float_range
def apply_frame_operator(signal, bank: WarpedBank) -> Signal:
    """S f = sum over atoms of <f, g> g, in the unitary DFT domain.

    Analysis then synthesis would run an inverse and a forward FFT of the
    same N-point block, which cancel to a factor N; what is left is S's
    Walnut form, the plan's fold and spread in complex arithmetic (see
    ``WarpedBank.walnut``).  Real input gives a real output on half-line
    grids only, where the mirror branches make S commute with conjugation.
    """
    samples = _checked_samples(signal, bank)
    length = bank.grid.length
    spec = bank.walnut(np.fft.fft(samples) / np.sqrt(length), bank.plan.response)
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


def save_coefficients(coeffs: CoefficientSet, path) -> None:
    """Write a coefficient set to the binary WFBC container, in the layout
    of its own bank.  Non-finite coefficients, which ``load_coefficients``
    refuses, raise InvalidParameter before the file is opened."""
    if not np.isfinite(coeffs.buffer).all():
        raise InvalidParameter("coefficient set has non-finite coefficients")
    entries = _entry_plan(coeffs.bank, not coeffs.implicit)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(entries)))
        for row, tag in entries:
            data = np.asarray(coeffs.row(row), dtype="<c16")
            fh.write(struct.pack("<iI", tag, len(data)))
            fh.write(data)


def load_coefficients(path, bank: WarpedBank) -> CoefficientSet:
    """Read a WFBC container back against ``bank``.

    The file stores no responses, only tagged coefficient vectors, so the
    bank's own geometry is the reference: any disagreement in entry count,
    channel tags or per-channel lengths means the file belongs to a
    different bank and raises FingerprintMismatch, as do non-finite
    coefficients, which no analysis produces.  A full-line file lists
    every channel; when each mirror row in it is bitwise the conjugate of
    its partner, it loads as the direct prefix, which synthesizes to the
    same sum.
    """
    plan = bank.plan
    coefs, frames = plan.coefs.tolist(), plan.frames.tolist()
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
        prefix = plan.direct_size
        # the direct prefix, and apart from it the mirror rows, which only a
        # real-input half-line file leaves out
        head = np.empty(prefix, dtype="<c16")
        tail = np.empty(0 if count == n + 2 else plan.paired_size, dtype="<c16")
        for row, tag in _entry_plan(bank, count == 2 * n + 2):
            entry = fh.read(8)
            if len(entry) < 8:
                raise FingerprintMismatch("coefficient file is truncated")
            got_tag, got_len = struct.unpack("<iI", entry)
            if got_tag != tag or got_len != frames[row]:
                raise FingerprintMismatch(
                    f"entry mismatch: expected channel {tag} with {frames[row]} "
                    f"coefficients, file has {got_tag} with {got_len}"
                )
            start = coefs[row]
            data = (head[start:start + got_len] if start < prefix
                    else tail[start - prefix:start - prefix + got_len])
            if fh.readinto(data) != data.nbytes:
                raise FingerprintMismatch("coefficient file is truncated")
        if fh.read(1):
            raise FingerprintMismatch("coefficient file has trailing bytes")
    if not (np.isfinite(head).all() and np.isfinite(tail).all()):
        raise FingerprintMismatch("coefficient file is corrupt: non-finite coefficients")
    # the full-line layout lists every channel, its mirror rows included;
    # when the mirror block, a row-for-row copy of the paired prefix, is
    # bitwise its conjugate, they stay implicit.  The block is conjugated
    # in place and back (exact): a fresh conjugate would page-fault
    if len(tail) and not bank.residuals:
        np.conjugate(tail, out=tail)
        if np.array_equal(tail.view(np.uint64), head[:plan.paired_size].view(np.uint64)):
            tail = tail[:0]
        np.conjugate(tail, out=tail)
    if len(tail):
        head = np.concatenate((head, tail))
    return CoefficientSet(head, bank)
