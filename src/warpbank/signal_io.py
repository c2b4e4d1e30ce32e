"""File I/O: WAV and raw-f64 signals, PGM images, CSV tables, and the
spectrogram renderer for the analyze command.

WAV input is RIFF/WAVE with PCM 8/16/24/32-bit or float 32/64-bit
samples, plain or in the extensible format; multichannel input is reduced
to its first channel.  WAV output is mono float32, pcm16 or pcm24.  Raw
signals are headerless little-endian f64 and carry no sample rate of
their own.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import InvalidParameter
from .transform import CoefficientSet, Signal

SPECTROGRAM_FLOOR_DB = -80.0
_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# bytes 2..15 of every standard KSDATAFORMAT_SUBTYPE GUID; bytes 0..1 hold
# the format tag the extensible format wraps
_SUBTYPE_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")
# (format tag, bits per sample) -> (sample dtype, offset, full scale): a
# sample v reads as (v - offset) / scale.  24-bit samples are widened into
# the top bytes of an int32, hence its dtype and 2**31.
_WAV_SAMPLE_FORMATS = {
    (_PCM, 8): ("u1", 128.0, 128.0),
    (_PCM, 16): ("<i2", 0.0, 2.0**15),
    (_PCM, 24): ("<i4", 0.0, 2.0**31),
    (_PCM, 32): ("<i4", 0.0, 2.0**31),
    (_FLOAT, 32): ("<f4", 0.0, 1.0),
    (_FLOAT, 64): ("<f8", 0.0, 1.0),
}
# (format tag, bytes per sample) of each WAV encoding write_wav offers
_WAV_ENCODINGS = {"float32": (_FLOAT, 4), "pcm16": (_PCM, 2), "pcm24": (_PCM, 3)}


def _bad_wav(path, reason: str) -> InvalidParameter:
    return InvalidParameter(f"{path}: not a readable WAV file ({reason})")


def read_wav(path) -> Signal:
    """Mono float signal in [-1, 1] from the first channel of a WAV file.

    The chunks are walked up to `data`, skipping unknown ones with their
    pad byte; a trailing partial sample frame is ignored.  A malformed or
    truncated file, or a sample format not listed in the module docstring,
    raises InvalidParameter."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        riff = fh.read(12)
        if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
            raise _bad_wav(path, "no RIFF/WAVE header")
        layout = None
        while True:
            header = fh.read(8)
            if len(header) < 8:
                raise _bad_wav(path, "no data chunk")
            chunk, length = header[:4], struct.unpack("<I", header[4:])[0]
            start = fh.tell()
            if start + length > size:
                raise _bad_wav(path, f"{chunk!r} chunk runs past the end of the file")
            if chunk == b"data":
                break
            if chunk == b"fmt ":
                layout = _wav_layout(path, fh.read(length))
            fh.seek(start + length + length % 2)
        if layout is None:
            raise _bad_wav(path, "no fmt chunk before the data chunk")
        rate, channels, width, (dtype, offset, scale) = layout
        frames = length // (channels * width)
        block = np.fromfile(fh, dtype=np.uint8, count=frames * channels * width)
    first = block.reshape(frames, channels * width)[:, :width]
    if width == 3:  # widen into the top bytes of an int32
        first = np.concatenate([np.zeros((frames, 1), dtype=np.uint8), first], axis=1)
    samples = np.ascontiguousarray(first).view(dtype)[:, 0].astype(np.float64)
    if scale != 1.0:  # integer samples
        samples -= offset
        samples /= scale
    return Signal(samples=samples, fs=float(rate))


def _wav_layout(path, fmt: bytes):
    """(rate, channels, bytes per sample, sample format) of a fmt chunk."""
    if len(fmt) < 16:
        raise _bad_wav(path, f"fmt chunk of {len(fmt)} bytes, expected at least 16")
    tag, channels, rate, _, block_align, bits = struct.unpack("<HHIIHH", fmt[:16])
    if tag == _EXTENSIBLE:
        if len(fmt) < 40 or fmt[26:40] != _SUBTYPE_GUID_TAIL:
            raise _bad_wav(path, "extensible format without a known subformat")
        tag = struct.unpack("<H", fmt[24:26])[0]
    if (tag, bits) not in _WAV_SAMPLE_FORMATS:
        raise _bad_wav(path, f"format tag {tag:#x} with {bits}-bit samples is not supported")
    width = bits // 8
    if channels == 0 or block_align != channels * width:
        raise _bad_wav(path, f"block align {block_align} for {channels} channels "
                             f"of {bits}-bit samples")
    if rate == 0:
        raise _bad_wav(path, "sample rate 0")
    return rate, channels, width, _WAV_SAMPLE_FORMATS[tag, bits]


def write_wav(path, signal: Signal, encoding: str = "float32") -> None:
    """Write a mono WAV as float32, pcm16 or pcm24.  The sample rate must
    be a positive integer whose byte rate fits the header's u32 fields;
    otherwise InvalidParameter is raised before the file is created.  PCM
    samples are clipped to [-1, 1] and rounded to 2**(bits - 1) - 1 full
    scale."""
    if encoding not in _WAV_ENCODINGS:
        raise InvalidParameter(
            f"unknown WAV encoding {encoding!r}; expected float32, pcm16 or pcm24"
        )
    tag, width = _WAV_ENCODINGS[encoding]
    fs = float(signal.fs)
    if not (fs.is_integer() and 0 < fs * width < 2**32):
        raise InvalidParameter(f"sample rate {fs:g} Hz is not a positive integer "
                               "that fits the WAV header")
    rate = int(fs)
    samples = np.asarray(signal.samples)
    if np.iscomplexobj(samples):
        samples = samples.real
    if tag == _FLOAT:
        data = samples.astype("<f4").tobytes()
    else:
        full_scale = 2.0 ** (8 * width - 1) - 1.0
        ints = np.round(np.clip(samples, -1.0, 1.0) * full_scale).astype("<i4")
        # keep the low bytes of each little-endian int32
        data = ints.view(np.uint8).reshape(-1, 4)[:, :width].tobytes()
    pad = len(data) % 2  # RIFF chunks are word-aligned
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(data) + pad) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, tag, 1, rate, rate * width,
                                       width, 8 * width))
        fh.write(b"data" + struct.pack("<I", len(data)))
        fh.write(data)
        fh.write(b"\0" * pad)


def read_raw(path, fs: float) -> Signal:
    """Headerless little-endian f64 samples; the caller supplies fs."""
    size = os.path.getsize(path)
    if size % 8:
        raise InvalidParameter(
            f"raw signal file has {size} bytes, not a whole number of f64 samples"
        )
    samples = np.fromfile(path, dtype="<f8")
    return Signal(samples=samples, fs=float(fs))


def write_raw(path, signal: Signal) -> None:
    samples = np.asarray(signal.samples)
    if np.iscomplexobj(samples):
        samples = samples.real
    samples.astype("<f8").tofile(path)


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM (P5), row 0 at the top."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise InvalidParameter(f"PGM image must be 2-d, got shape {image.shape}")
    rows, cols = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(image)


def write_csv(path, values, header: str | None = None) -> None:
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for value in values:
            fh.write(f"{value:.12g}\n")


def render_spectrogram(coeffs: CoefficientSet) -> tuple[np.ndarray, list[float]]:
    """Log-magnitude image of the warped channels of the set's own bank.

    Rows are the warped channels ordered by ascending center frequency
    (residual and mirror channels are omitted); each row's coefficients
    are nearest-index resampled onto the longest channel's time raster.
    Magnitudes are 20 log10 relative to the global maximum, floored at
    -80 dB, mapped linearly onto 0..255.  Levels are computed in one pass
    over the stored channel rows, where an implicit mirror row reads its
    partner's (|conj c| = |c|), and only then resampled, straight into
    the uint8 image.  Returns the image and the row center frequencies
    in Hz.
    """
    bank, plan = coeffs.bank, coeffs.bank.plan
    order = np.argsort([ch.center_hz for ch in bank.channels])
    n_cols = max(ch.n_frames for ch in bank.channels)
    centers = [bank.channels[i].center_hz for i in order]
    image = np.zeros((len(order), n_cols), dtype=np.uint8)
    # the stored channel rows: on the full line every stored row, on a
    # half-line grid the paired prefix (its residual and mirror rows follow)
    stored = coeffs.buffer[:plan.paired_size] if coeffs.half_line else coeffs.buffer
    # nearest-index resampling reaches every coefficient, so the image
    # peak is the peak over all channels
    levels = np.abs(stored)
    peak = float(levels.max())
    if peak <= 0.0:  # silence: every pixel at the floor level
        return image, centers
    levels /= peak
    with np.errstate(divide="ignore"):
        np.log10(levels, out=levels)
    levels *= 20.0
    np.maximum(levels, SPECTROGRAM_FLOOR_DB, out=levels)
    levels -= SPECTROGRAM_FLOOR_DB
    levels /= -SPECTROGRAM_FLOOR_DB
    levels *= 255.0
    levels = np.round(levels, out=levels).astype(np.uint8)
    for row, i in enumerate(order):
        start, n = coeffs.stored_at(i)[0], bank.channels[i].n_frames
        if n_cols % n:
            image[row] = levels[start + (np.arange(n_cols) * n) // n_cols]
        else:
            image[row] = np.repeat(levels[start:start + n], n_cols // n)
    return image, centers
