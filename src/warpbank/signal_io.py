"""File I/O: WAV and raw-f64 signals, PGM images, CSV tables, and the
spectrogram renderer for the analyze command.

WAV support covers mono PCM 16/24-bit and float-32 through scipy's
wavfile (24-bit arrives as the top bytes of int32); multichannel input is
reduced to its first channel.  Raw signals are headerless little-endian
f64 and carry no sample rate of their own.
"""

from __future__ import annotations

import os
import struct

import numpy as np
from scipy.io import wavfile

from .errors import InvalidParameter
from .transform import CoefficientSet, Signal

SPECTROGRAM_FLOOR_DB = -80.0
# bytes per sample of each WAV encoding write_wav offers
_WAV_SAMPLE_BYTES = {"float32": 4, "pcm16": 2, "pcm24": 3}


def read_wav(path) -> Signal:
    """Mono float signal in [-1, 1] from a WAV file; a malformed or
    truncated file raises InvalidParameter."""
    try:
        rate, data = wavfile.read(path)
    except (ValueError, struct.error) as exc:
        raise InvalidParameter(f"{path}: not a readable WAV file ({exc})") from exc
    if data.ndim > 1:
        data = data[:, 0]
    if data.dtype == np.int16:
        samples = data / 32768.0
    elif data.dtype == np.int32:
        samples = data / 2147483648.0
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        samples = data.astype(np.float64)
    return Signal(samples=np.asarray(samples, dtype=np.float64), fs=float(rate))


def write_wav(path, signal: Signal, encoding: str = "float32") -> None:
    """Write a mono WAV as float32, pcm16 or pcm24.  The sample rate must
    be a positive integer whose byte rate fits the header's u32 fields;
    otherwise InvalidParameter is raised before the file is created."""
    if encoding not in _WAV_SAMPLE_BYTES:
        raise InvalidParameter(
            f"unknown WAV encoding {encoding!r}; expected float32, pcm16 or pcm24"
        )
    fs = float(signal.fs)
    if not (fs.is_integer() and 0 < fs * _WAV_SAMPLE_BYTES[encoding] < 2**32):
        raise InvalidParameter(f"sample rate {fs:g} Hz is not a positive integer "
                               "that fits the WAV header")
    rate = int(fs)
    samples = np.asarray(signal.samples)
    if np.iscomplexobj(samples):
        samples = samples.real
    if encoding == "float32":
        wavfile.write(path, rate, samples.astype(np.float32))
    elif encoding == "pcm16":
        clipped = np.clip(samples, -1.0, 1.0)
        wavfile.write(path, rate, np.round(clipped * 32767.0).astype(np.int16))
    else:
        _write_wav_pcm24(path, rate, samples)


def _write_wav_pcm24(path, rate: int, samples: np.ndarray) -> None:
    clipped = np.clip(samples, -1.0, 1.0)
    ints = np.round(clipped * 8388607.0).astype("<i4")
    # keep the low three bytes of each little-endian int32
    data = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    with open(path, "wb") as fh:
        fh.write(b"RIFF")
        fh.write(struct.pack("<I", 36 + len(data)))
        fh.write(b"WAVEfmt ")
        fh.write(struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 3, 3, 24))
        fh.write(b"data")
        fh.write(struct.pack("<I", len(data)))
        fh.write(data)


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
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise InvalidParameter(f"PGM image must be 2-d, got shape {image.shape}")
    rows, cols = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def write_csv(path, values, header: str | None = None) -> None:
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for value in values:
            fh.write(f"{value:.12g}\n")


def render_spectrogram(coeffs: CoefficientSet, bank) -> tuple[np.ndarray, list[float]]:
    """Log-magnitude image of the warped channels.

    Rows are the warped channels ordered by ascending center frequency
    (residual and mirror channels are omitted); each row's coefficients
    are nearest-index resampled onto the longest channel's time raster.
    Magnitudes are 20 log10 relative to the global maximum, floored at
    -80 dB, mapped linearly onto 0..255.  Levels are computed per channel
    on its own N_m coefficients and only then resampled, straight into
    the uint8 image.  Returns the image and the row center frequencies
    in Hz.
    """
    order = np.argsort([ch.center_hz for ch in bank.channels])
    n_cols = max(ch.n_frames for ch in bank.channels)
    mags = [np.abs(c) for c in coeffs.channels]
    # nearest-index resampling reaches every coefficient, so the image
    # peak is the peak over all channels
    peak = max(float(m.max()) for m in mags)
    centers = [bank.channels[i].center_hz for i in order]
    image = np.zeros((len(order), n_cols), dtype=np.uint8)
    if peak <= 0.0:  # silence: every pixel at the floor level
        return image, centers
    columns = {n: (np.arange(n_cols) * n) // n_cols for n in {len(m) for m in mags}}
    for row, i in enumerate(order):
        with np.errstate(divide="ignore"):
            db = np.maximum(20.0 * np.log10(mags[i] / peak), SPECTROGRAM_FLOOR_DB)
        scaled = (db - SPECTROGRAM_FLOOR_DB) / (-SPECTROGRAM_FLOOR_DB)
        levels = np.round(255.0 * scaled).astype(np.uint8)
        image[row] = levels[columns[len(levels)]]
    return image, centers
