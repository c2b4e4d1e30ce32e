import struct

import numpy as np
import pytest

from warpbank import (GridSpec, InvalidParameter, Signal, analyze, cli, design_tight,
                      make_warping, with_scaled_factors)
from warpbank.signal_io import (SPECTROGRAM_FLOOR_DB, read_wav, render_spectrogram,
                                write_pgm, write_wav)


@pytest.fixture
def wavfile():
    """scipy's WAV codec, the reference this one is checked against."""
    return pytest.importorskip("scipy.io.wavfile")


def chunk(name, body, size=None):
    """One RIFF chunk with its pad byte; `size` overrides the stated length."""
    size = len(body) if size is None else size
    return name + struct.pack("<I", size) + body + b"\0" * (len(body) % 2)


def riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt(tag=1, channels=1, bits=16, rate=8000, block_align=None, extra=b""):
    if block_align is None:
        block_align = channels * bits // 8
    return chunk(b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, rate * block_align,
                                      block_align, bits) + extra)


def extensible(subformat, channels, bits, guid_tail=bytes.fromhex("000000001000800000aa00389b71")):
    extra = struct.pack("<HHIH", 22, bits, 0, subformat) + guid_tail
    return fmt(0xFFFE, channels, bits, extra=extra)


def interleave(*channels):
    return np.stack(channels, axis=1).tobytes()


def scipy_formula(data):
    """The samples read_wav returned when it read through scipy."""
    if data.ndim > 1:
        data = data[:, 0]
    if data.dtype == np.int16:
        return data / 32768.0
    if data.dtype == np.int32:
        return data / 2147483648.0
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128.0) / 128.0
    return data.astype(np.float64)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float32, np.float64])
def test_scipy_written_files_read_as_before(tmp_path, wavfile, dtype, n, channels):
    rng = np.random.default_rng(n * channels)
    shape = (n, channels) if channels > 1 else (n,)
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, size=shape, endpoint=True).astype(dtype)
        data.flat[:2] = info.min, info.max
    else:
        data = rng.uniform(-1.5, 1.5, size=shape).astype(dtype)
    wavfile.write(tmp_path / "in.wav", 11025, data)
    rate, ref = wavfile.read(tmp_path / "in.wav")
    sig = read_wav(tmp_path / "in.wav")
    assert sig.fs == rate == 11025
    assert sig.samples.dtype == np.float64
    np.testing.assert_array_equal(sig.samples.view(np.uint64),
                                  scipy_formula(ref).view(np.uint64))


def test_hand_built_files(tmp_path):
    left = np.array([-2**23, -1, 0, 1, 2**23 - 1], dtype="<i4")
    right = np.arange(5, dtype="<i4") * 1000
    packed = interleave(*(v.view(np.uint8).reshape(-1, 4)[:, :3] for v in (left, right)))
    cases = {
        # 24-bit stereo behind a LIST chunk and an odd-sized unknown chunk
        "pcm24.wav": (riff(fmt(channels=2, bits=24), chunk(b"LIST", b"INFOISFT\4\0\0\0ab\0\0"),
                           chunk(b"junk", b"odd"), chunk(b"data", packed)),
                      left / 2.0**23),
        "ext16.wav": (riff(extensible(1, 2, 16),
                           chunk(b"data", interleave(np.int16([-32768, 5, 32767]),
                                                     np.int16([1, 2, 3])))),
                      np.array([-32768, 5, 32767]) / 2.0**15),
        "ext_float.wav": (riff(extensible(3, 1, 64), chunk(b"fact", struct.pack("<I", 2)),
                               chunk(b"data", np.array([0.25, -3.0]).tobytes())),
                          np.array([0.25, -3.0])),
        "u8.wav": (riff(fmt(bits=8, rate=22050), chunk(b"data", bytes([0, 128, 255]))),
                   np.array([-1.0, 0.0, 127 / 128])),
    }
    for name, (blob, expected) in cases.items():
        (tmp_path / name).write_bytes(blob)
        sig = read_wav(tmp_path / name)
        np.testing.assert_array_equal(sig.samples, expected, err_msg=name)
    assert read_wav(tmp_path / "u8.wav").fs == 22050.0
    # a trailing partial sample frame is dropped
    partial = riff(fmt(channels=2), chunk(b"data", interleave(np.int16([4]), np.int16([5])) + b"\1\2"))
    (tmp_path / "partial.wav").write_bytes(partial)
    np.testing.assert_array_equal(read_wav(tmp_path / "partial.wav").samples, [4 / 2.0**15])


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("encoding", ["float32", "pcm16", "pcm24"])
def test_written_files_read_back_under_scipy(tmp_path, wavfile, encoding, n):
    x = np.linspace(-1.25, 1.25, n)
    write_wav(tmp_path / "out.wav", Signal(samples=x, fs=44100.0), encoding)
    rate, data = wavfile.read(tmp_path / "out.wav")
    assert rate == 44100
    if encoding == "float32":
        expected = x.astype(np.float32)
    elif encoding == "pcm16":
        expected = np.round(np.clip(x, -1, 1) * 32767).astype(np.int16)
    else:  # scipy returns 24-bit samples in the top bytes of an int32
        expected = np.round(np.clip(x, -1, 1) * 8388607).astype(np.int32) * 256
    assert data.dtype == expected.dtype
    np.testing.assert_array_equal(data, expected)
    np.testing.assert_array_equal(read_wav(tmp_path / "out.wav").samples, scipy_formula(data))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("encoding", ["float32", "pcm16", "pcm24"])
def test_written_chunks_are_word_aligned(tmp_path, encoding, n):
    write_wav(tmp_path / "out.wav", Signal(samples=np.full(n, 0.5), fs=8000.0), encoding)
    blob = (tmp_path / "out.wav").read_bytes()
    assert len(blob) % 2 == 0
    assert struct.unpack("<I", blob[4:8])[0] == len(blob) - 8
    assert blob[36:40] == b"data"
    width = {"float32": 4, "pcm16": 2, "pcm24": 3}[encoding]
    assert struct.unpack("<I", blob[40:44])[0] == n * width
    assert len(blob) == 44 + n * width + (n * width) % 2


DATA = chunk(b"data", np.int16([1, 2]).tobytes())
# name -> (file, the reason the error names)
MALFORMED = {
    "no fmt chunk": (riff(DATA), "no fmt chunk"),
    "short fmt chunk": (riff(chunk(b"fmt ", struct.pack("<HHIIH", 1, 1, 8000, 16000, 2)), DATA),
                        "fmt chunk of 14 bytes"),
    "ADPCM": (riff(fmt(tag=2, bits=4, block_align=1), DATA), "format tag 0x2"),
    "12-bit samples": (riff(fmt(bits=12, block_align=2), DATA), "12-bit samples"),
    "zero channels": (riff(fmt(channels=0, block_align=0), DATA), "0 channels"),
    "block align": (riff(fmt(channels=2, bits=16, block_align=2), DATA), "block align 2"),
    "sample rate 0": (riff(fmt(rate=0), DATA), "sample rate 0"),
    "unknown subformat": (riff(extensible(1, 1, 16, guid_tail=bytes(14)), DATA),
                          "known subformat"),
    "chunk past the end": (riff(fmt(), chunk(b"LIST", b"INFO", size=400), DATA),
                           "'LIST' chunk runs past the end"),
    "data past the end": (riff(fmt(), chunk(b"data", np.int16([1, 2]).tobytes(), size=6)),
                          "'data' chunk runs past the end"),
    "no data chunk": (riff(fmt()), "no data chunk"),
    "RIFX": (b"RIFX" + riff(fmt(), DATA)[4:], "no RIFF/WAVE header"),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_wav_raises(tmp_path, name):
    blob, reason = MALFORMED[name]
    (tmp_path / "bad.wav").write_bytes(blob)
    with pytest.raises(InvalidParameter, match="not a readable WAV file") as info:
        read_wav(tmp_path / "bad.wav")
    assert reason in str(info.value)


def test_unsupported_wav_format_is_exit_2(tmp_path, capsys):
    spec = tmp_path / "bank.json"
    assert cli.main(["design", "--warp", "erb", "--L", "512", "--fs", "8000",
                     "--out", str(spec)]) == 0
    (tmp_path / "adpcm.wav").write_bytes(MALFORMED["ADPCM"][0])
    assert cli.main(["analyze", "--bank", str(spec), "--in", str(tmp_path / "adpcm.wav"),
                     "--out", str(tmp_path / "c.wfbc")]) == 2
    assert "format tag 0x2 with 4-bit samples is not supported" in capsys.readouterr().err
    assert not (tmp_path / "c.wfbc").exists()


def per_row_spectrogram(coeffs, bank):
    """The spectrogram renderer as it was before its one-pass rewrite,
    kept as the reference: levels per stored row, resampled by gather."""
    order = np.argsort([ch.center_hz for ch in bank.channels])
    n_cols = max(ch.n_frames for ch in bank.channels)
    # the row whose coefficients the buffer holds: an implicit mirror
    # row's are its partner's
    plan, size = bank.plan, len(coeffs.buffer)
    sources = [i if plan.coefs[i] < size else int(plan.partner[i])
               for i in range(len(bank.channels))]
    mags = {row: np.abs(coeffs.row(row)) for row in set(sources)}
    peak = max(float(m.max()) for m in mags.values())
    image = np.zeros((len(order), n_cols), dtype=np.uint8)
    if peak <= 0.0:
        return image
    columns = {n: (np.arange(n_cols) * n) // n_cols for n in {len(m) for m in mags.values()}}
    levels = {}
    for row, mag in mags.items():
        with np.errstate(divide="ignore"):
            db = np.maximum(20.0 * np.log10(mag / peak), SPECTROGRAM_FLOOR_DB)
        scaled = (db - SPECTROGRAM_FLOOR_DB) / (-SPECTROGRAM_FLOOR_DB)
        levels[row] = np.round(255.0 * scaled).astype(np.uint8)
    for row, i in enumerate(order):
        image[row] = levels[sources[i]][columns[bank.channels[i].n_frames]]
    return image


@pytest.mark.parametrize("family,kw,fs", [("erblike", {}, 44100.0),
                                          ("sympow", {"l": 0.5}, 8.0)])
@pytest.mark.parametrize("length", [360, 4096])
def test_spectrogram_matches_the_per_row_renderer(family, kw, fs, length):
    w = make_warping(family, **kw)
    tight = design_tight(w, GridSpec(length=length, fs=fs, domain=w.domain))
    rng = np.random.default_rng(31)
    x = rng.standard_normal(length) * np.exp(-np.arange(length) / (length / 5))
    gathered = 0
    for bank in (tight, with_scaled_factors(tight, 4)):
        n_cols = max(ch.n_frames for ch in bank.channels)
        gathered += any(n_cols % ch.n_frames for ch in bank.channels)
        for signal in (x, x + 1j * rng.standard_normal(length), np.zeros(length)):
            coeffs = analyze(signal, bank)
            image, centers = render_spectrogram(coeffs)
            want = per_row_spectrogram(coeffs, bank)
            assert image.dtype == np.uint8 and image.tobytes() == want.tobytes()
            assert centers == sorted(ch.center_hz for ch in bank.channels)
            assert image.max() == (255 if signal.any() else 0)
    # at L=360 some rows have an N that does not divide the column count
    assert gathered if length == 360 else not gathered


def test_spectrogram_has_its_own_banks_shape():
    # the set names its bank: channels x the longest N of that bank, not
    # of another bank of the same warping and grid
    w = make_warping("erblike")
    tight = design_tight(w, GridSpec(length=1024, fs=44100.0, domain=w.domain))
    x = np.random.default_rng(11).standard_normal(1024)
    shapes = []
    for bank in (tight, with_scaled_factors(tight, 2)):
        image, centers = render_spectrogram(analyze(x, bank))
        shapes.append(image.shape)
        assert image.shape == (len(bank.channels), max(ch.n_frames for ch in bank.channels))
        assert len(centers) == len(bank.channels)
    assert shapes[0] != shapes[1]


def test_pgm_holds_the_image_rows(tmp_path):
    image = np.arange(60, dtype=np.uint8).reshape(6, 10)[:, ::2]  # not contiguous
    write_pgm(tmp_path / "s.pgm", image)
    assert (tmp_path / "s.pgm").read_bytes() == b"P5\n5 6\n255\n" + image.tobytes()
    with pytest.raises(InvalidParameter, match="2-d"):
        write_pgm(tmp_path / "line.pgm", np.arange(5, dtype=np.uint8))
    assert not (tmp_path / "line.pgm").exists()


def test_unknown_wav_encoding_is_invalid(tmp_path):
    with pytest.raises(InvalidParameter, match="unknown WAV encoding 'pcm8'"):
        write_wav(tmp_path / "x.wav", Signal(samples=np.zeros(8), fs=8000.0), encoding="pcm8")
    assert not (tmp_path / "x.wav").exists()
