import struct
from pathlib import Path

import numpy as np
import pytest

from warpbank import (CoefficientSet, Domain, Explicit, FingerprintMismatch,
                      GridSpec, InvalidParameter, LengthMismatch, Natural, Painless,
                      Signal, analyze, apply_frame_operator, build_bank, design_tight,
                      load_bank_spec, load_coefficients, make_warping, named_window,
                      painless_dual, save_coefficients, synthesize, with_scaled_factors)
from warpbank import bank as bank_mod

HANN = named_window("hann", 3.0)

FAMILIES = [
    ("log", {}), ("sympow", {"l": 0.5}), ("erblike", {}), ("signedpow", {"l": 0.5}),
]


def tight_bank(family="erblike", kw=None, length=512, fs=2.0):
    w = make_warping(family, **(kw or {}))
    grid = GridSpec(length=length, fs=fs, domain=w.domain)
    return design_tight(w, grid, "hann", 3.0)


def random_signal(length, rng, real=False):
    x = rng.standard_normal(length)
    if not real:
        x = x + 1j * rng.standard_normal(length)
    return x


@pytest.mark.parametrize("family,kw", FAMILIES)
def test_painless_dual_reconstruction(family, kw):
    rng = np.random.default_rng(7)
    w = make_warping(family, **kw)
    grid = GridSpec(length=512, fs=2.0, domain=w.domain)
    bank = build_bank(w, HANN, grid, Painless())
    dual = painless_dual(bank)
    for _ in range(4):
        f = random_signal(512, rng)
        rec = synthesize(analyze(f, bank), dual).samples
        assert np.linalg.norm(rec - f) <= 1e-12 * np.linalg.norm(f)


def test_zero_signal_gives_zero_coefficients():
    bank = tight_bank()
    coeffs = analyze(np.zeros(512), bank)
    assert all(np.all(c == 0) for c in coeffs.channels)
    assert all(np.all(c == 0) for c in coeffs.residuals)
    assert coeffs.energy == 0.0
    rec = synthesize(coeffs, bank).samples
    assert np.all(rec == 0)


def test_single_atom_coefficient_is_its_energy():
    bank = tight_bank("log", length=256)
    length = 256
    for ch_i in (0, len(bank.channels) // 2, len(bank.channels) - 1):
        ch = bank.channels[ch_i]
        if not len(ch.response):
            continue
        spec = np.zeros(length, dtype=complex)
        idx = np.arange(ch.start_bin, ch.start_bin + len(ch.response)) % length
        spec[idx] = ch.response
        atom = np.sqrt(length) * np.fft.ifft(spec)
        coeffs = analyze(atom, bank)
        got = coeffs.channels[ch_i][0]
        expected = float(np.sum(ch.response**2))
        assert abs(got - expected) <= 1e-12


def test_analysis_is_linear():
    rng = np.random.default_rng(8)
    bank = tight_bank()
    f, g = random_signal(512, rng), random_signal(512, rng)
    ca = analyze(2.0 * f - 3.0j * g, bank)
    cf, cg = analyze(f, bank), analyze(g, bank)
    for a, b, c in zip(ca.channels, cf.channels, cg.channels):
        np.testing.assert_allclose(a, 2.0 * b - 3.0j * c, atol=1e-12)


def test_tight_parseval():
    rng = np.random.default_rng(9)
    for family, kw in FAMILIES:
        bank = tight_bank(family, kw)
        for _ in range(8):
            f = random_signal(512, rng)
            c = analyze(f, bank)
            energy = np.linalg.norm(f) ** 2
            assert abs(c.energy - energy) <= 1e-10 * energy


def test_frame_operator_is_diagonal_multiplication_when_painless():
    rng = np.random.default_rng(10)
    w = make_warping("erblike")
    grid = GridSpec(length=512, fs=2.0, domain=w.domain)
    bank = build_bank(w, HANN, grid, Painless())
    d = bank.diagonal()
    for _ in range(4):
        f = random_signal(512, rng)
        out = apply_frame_operator(f, bank).samples
        expected = np.fft.ifft(np.fft.fft(f) * d)
        assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(f)


def test_frame_operator_self_adjoint():
    rng = np.random.default_rng(11)
    bank = tight_bank("log", length=256)
    f, g = random_signal(256, rng), random_signal(256, rng)
    sf = apply_frame_operator(f, bank).samples
    sg = apply_frame_operator(g, bank).samples
    lhs = np.vdot(g, sf)
    rhs = np.vdot(sg, f)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_real_input_round_trip_is_real():
    rng = np.random.default_rng(12)
    bank = tight_bank("log")
    f = rng.standard_normal(512)
    coeffs = analyze(f, bank)
    assert coeffs.mirrors is None
    rec = synthesize(coeffs, bank).samples
    assert rec.dtype.kind == "f"
    assert np.linalg.norm(rec - f) <= 1e-12 * np.linalg.norm(f)
    # the complex path on the same real signal agrees and is nearly real
    cc = analyze(f.astype(complex), bank)
    rec2 = synthesize(cc, bank).samples
    assert np.linalg.norm(rec2.imag) <= 1e-10 * np.linalg.norm(f)
    np.testing.assert_allclose(rec2.real, rec, atol=1e-12)


def test_real_and_complex_energies_agree():
    rng = np.random.default_rng(13)
    bank = tight_bank("log")
    f = rng.standard_normal(512)
    e_real = analyze(f, bank).energy
    e_cplx = analyze(f.astype(complex), bank).energy
    assert abs(e_real - e_cplx) <= 1e-10 * e_cplx


def test_signal_wrapper_and_length_mismatch():
    bank = tight_bank()
    sig = Signal(samples=np.zeros(512), fs=2.0)
    assert len(sig) == 512
    out = synthesize(analyze(sig, bank), bank)
    assert isinstance(out, Signal) and out.fs == 2.0
    with pytest.raises(LengthMismatch):
        analyze(np.zeros(500), bank)
    with pytest.raises(LengthMismatch):
        analyze(np.zeros((2, 512)), bank)


def test_non_finite_or_foreign_rate_input_is_rejected():
    bank = tight_bank()
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        x = np.zeros(512, dtype=type(bad))
        x[7] = bad
        for op in (analyze, apply_frame_operator):
            with pytest.raises(InvalidParameter, match="non-finite"):
                op(x, bank)
    # the bank runs at 2 Hz; a Signal carries its own rate, a bare array none
    with pytest.raises(InvalidParameter, match="sample rate"):
        analyze(Signal(samples=np.zeros(512), fs=8000.0), bank)
    analyze(Signal(samples=np.zeros(512), fs=2.0 * (1.0 + 1e-7)), bank)


def test_non_numeric_input_is_rejected():
    bank = tight_bank()
    for bad in (np.array(["a"] * 512, dtype=object), np.array(["a"] * 512),
                np.zeros(512, dtype="datetime64[s]")):
        for op in (analyze, apply_frame_operator):
            with pytest.raises(InvalidParameter, match="numbers"):
                op(bad, bank)
    for good in (np.zeros(512, dtype=bool), np.arange(512, dtype=np.uint8),
                 np.zeros(512, dtype=np.float32)):
        assert analyze(good, bank).energy == pytest.approx(float(np.sum(good.astype(float) ** 2)))


@pytest.mark.parametrize("family,kw", [("sympow", {"l": 0.5}), ("erblike", {})])
def test_overflow_is_invalid_parameter(family, kw):
    # finite input whose transforms leave the float range fails typed
    # instead of returning non-finite values
    bank = tight_bank(family, kw, length=256)
    big = np.full(256, 1e308)
    for x in (big, big * (1 + 1j)):
        for op in (analyze, apply_frame_operator):
            with pytest.raises(InvalidParameter, match="float range"):
                op(x, bank)
    coeffs = analyze(np.ones(256), bank)
    coeffs.buffer[:] = 1e308
    with pytest.raises(InvalidParameter, match="float range"):
        synthesize(coeffs, bank)


@pytest.mark.parametrize("family,fs", [("erblike", 44100.0), ("log", 2.0)])
def test_non_finite_coefficients_are_invalid_parameter(family, fs):
    # NaN raises no floating-point error in the FFTs and sums, so the
    # samples are checked; inf trips the float-range guard on the way
    bank = tight_bank(family, length=512, fs=fs)
    for x in (np.ones(512), np.ones(512) * (1 + 1j)):
        for bad in (np.nan, np.inf):
            coeffs = analyze(x, bank)
            coeffs.buffer[0] = bad
            with pytest.raises(InvalidParameter):
                synthesize(coeffs, bank)


def test_synthesize_checks_fingerprint():
    rng = np.random.default_rng(14)
    bank = tight_bank()
    other = tight_bank("erblike", length=512, fs=4.0)
    coeffs = analyze(random_signal(512, rng), bank)
    with pytest.raises(FingerprintMismatch):
        synthesize(coeffs, other)


@pytest.mark.parametrize("edit,entries", [
    ("no residuals", "residual"), ("long residual", "residual"),
    ("short mirrors", "mirror"), ("short channel", "channel"),
    ("mirrors on the full line", "mirror"),
])
def test_coefficient_set_shape_is_checked(edit, entries, tmp_path):
    # a buffer edited as if the named entries were dropped, padded or cut
    rng = np.random.default_rng(19)
    bank = tight_bank("log", length=256)
    buffer = analyze(random_signal(256, rng), bank).buffer
    coefs, frames = bank.plan.coefs, bank.plan.frames
    n = len(bank.channels)
    if edit == "no residuals":
        buffer = np.delete(buffer, coefs[n:n + 2])
    elif edit == "long residual":
        buffer = np.insert(buffer, coefs[n] + 1, [0.0, 0.0])
    elif edit == "short mirrors":
        buffer = np.delete(buffer, np.arange(coefs[-1], coefs[-1] + frames[-1]))
    elif edit == "short channel":
        buffer = np.delete(buffer, coefs[2] + frames[2] - 1)
    else:
        bank = tight_bank("erblike", length=256)
        buffer = analyze(random_signal(256, rng), bank).buffer
        buffer = np.concatenate([buffer, buffer])
    coeffs = CoefficientSet(buffer, bank)
    with pytest.raises(FingerprintMismatch, match="coefficient buffer"):
        synthesize(coeffs, bank)
    with pytest.raises(FingerprintMismatch, match="coefficient buffer"):
        save_coefficients(coeffs, tmp_path / "c.wfbc")
    assert not (tmp_path / "c.wfbc").exists()


BUFFER_SETS = [("log", True), ("log", False), ("erblike", True), ("erblike", False)]
# erblike at 44.1 kHz pairs channel -m with m on the full line
BUFFER_RATES = {"log": 2.0, "erblike": 44100.0}


@pytest.mark.parametrize("family,real", BUFFER_SETS)
def test_rows_are_views_and_synthesis_leaves_the_buffer(family, real):
    rng = np.random.default_rng(21)
    bank = tight_bank(family, length=256, fs=BUFFER_RATES[family])
    plan = bank.plan
    coeffs = analyze(random_signal(256, rng, real=real), bank)
    implicit = (plan.partner >= 0) & (plan.coefs >= len(coeffs.buffer))
    assert implicit.any() == real
    assert len(coeffs.buffer) == plan.frames[~implicit].sum()
    assert [len(c) for c in coeffs.channels] == [ch.n_frames for ch in bank.channels]
    # direct rows view the buffer; an implicit row is its partner's conjugate
    rows = coeffs.channels + coeffs.residuals + (coeffs.mirrors or ())
    assert len(rows) == len(plan.frames) - np.count_nonzero(implicit[len(bank.channels):])
    for i, row in enumerate(rows):
        if implicit[i]:
            mate = rows[plan.partner[i]]
            assert not np.shares_memory(row, coeffs.buffer)
            assert row.tobytes() == np.conj(mate).tobytes()
        else:
            assert np.shares_memory(row, coeffs.buffer)
    before = coeffs.buffer.copy()
    first = synthesize(coeffs, bank).samples
    second = synthesize(coeffs, bank).samples
    assert first.tobytes() == second.tobytes()
    assert coeffs.buffer.tobytes() == before.tobytes()


def test_synthesis_never_writes_the_callers_buffer(plan_test_banks):
    # the row FFTs run out of place, from the caller's buffer into a fresh
    # one, so a read-only buffer synthesizes, to a writable copy's samples
    rng = np.random.default_rng(29)
    for args in (("log", {}, 2.0), ("erblike", {}, 44100.0)):
        for bank in plan_test_banks(*args).values():
            for real in (True, False):
                coeffs = analyze(random_signal(bank.grid.length, rng, real=real), bank)
                want = synthesize(CoefficientSet(coeffs.buffer.copy(), bank), bank).samples
                coeffs.buffer.flags.writeable = False
                assert synthesize(coeffs, bank).samples.tobytes() == want.tobytes()


def test_length_one_ffts_return_their_input():
    # why _row_ffts skips the groups of one-coefficient rows
    x = np.array([1.5 - 2j, -0.0 + 0j, complex(0.0, -0.0), 1e-310 + 3e300j, -7.25 - 1e-300j])
    rows = x.reshape(-1, 1)
    for got in (np.fft.fft(rows), np.fft.ifft(rows, norm="forward")):
        assert got.tobytes() == rows.tobytes()


@pytest.mark.parametrize("family,real", BUFFER_SETS)
def test_energy_is_the_sum_over_rows(family, real):
    rng = np.random.default_rng(22)
    bank = tight_bank(family, length=256, fs=BUFFER_RATES[family])
    coeffs = analyze(random_signal(256, rng, real=real), bank)

    def rows_energy(rows):
        return sum(float(np.sum(np.abs(c) ** 2)) for c in rows)

    # channels hold the implicit full-line mirror rows as conjugates; the
    # implicit mirror branches of a real half-line set count as the channels
    want = rows_energy(coeffs.channels) + rows_energy(coeffs.residuals)
    if coeffs.mirrors is not None:
        want += rows_energy(coeffs.mirrors)
    elif bank.residuals:
        want += rows_energy(coeffs.channels)
    assert abs(coeffs.energy - want) <= 1e-13 * want


def test_coefficient_file_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    for family, kw, real in [("log", {}, True), ("log", {}, False),
                             ("erblike", {}, False)]:
        bank = tight_bank(family, kw)
        f = random_signal(512, rng, real=real)
        coeffs = analyze(f, bank)
        path = tmp_path / f"{family}_{real}.wfbc"
        save_coefficients(coeffs, path)
        back = load_coefficients(path, bank)
        for a, b in zip(coeffs.channels, back.channels):
            np.testing.assert_array_equal(a, b)
        if coeffs.mirrors is None:
            assert back.mirrors is None
        else:
            for a, b in zip(coeffs.mirrors, back.mirrors):
                np.testing.assert_array_equal(a, b)
        for a, b in zip(coeffs.residuals, back.residuals):
            np.testing.assert_array_equal(a, b)
        rec = synthesize(back, bank).samples
        assert np.linalg.norm(rec - f) <= 1e-12 * np.linalg.norm(f)


@pytest.mark.parametrize("family,real", [("log", False), ("log", True), ("erblike", False)])
def test_coefficient_file_byte_layout(family, real, tmp_path):
    # parse the file by hand: header, then (i32 tag, u32 count, count c16)
    rng = np.random.default_rng(20)
    bank = tight_bank(family, length=256)
    coeffs = analyze(random_signal(256, rng, real=real), bank)
    path = tmp_path / "c.wfbc"
    save_coefficients(coeffs, path)
    blob = path.read_bytes()
    assert blob[:4] == b"WFBC"
    version, count = struct.unpack_from("<II", blob, 4)
    pos, entries = 12, []
    for _ in range(count):
        tag, n = struct.unpack_from("<iI", blob, pos)
        data = np.frombuffer(blob, dtype="<c16", count=n, offset=pos + 8)
        entries.append((tag, n, data))
        pos += 8 + 16 * n
    assert version == 1 and pos == len(blob)

    tags = [ch.m for ch in bank.channels]
    want = list(zip(tags, coeffs.channels))
    if bank.grid.domain is Domain.POSITIVE_HALF_LINE:
        dc, nyquist = coeffs.residuals
        want = [(tags[0] - 1, dc)] + want + [(tags[-1] + 1, nyquist)]
        if not real:
            want += list(zip(tags, coeffs.mirrors))
    else:
        assert not coeffs.residuals and coeffs.mirrors is None
    assert [(tag, n) for tag, n, _ in entries] == [(tag, len(c)) for tag, c in want]
    for (_, _, data), (_, c) in zip(entries, want):
        np.testing.assert_array_equal(data, c)


def read_entries(path):
    """(tag, coefficients) per entry of a WFBC file, and each entry's data offset."""
    blob = path.read_bytes()
    pos, entries = 12, []
    for _ in range(struct.unpack_from("<II", blob, 4)[1]):
        tag, n = struct.unpack_from("<iI", blob, pos)
        entries.append((tag, np.frombuffer(blob, dtype="<c16", count=n, offset=pos + 8),
                        pos + 8))
        pos += 8 + 16 * n
    assert pos == len(blob)
    return entries


def test_real_full_line_file_keeps_its_layout_and_loads_as_the_prefix(tmp_path):
    rng = np.random.default_rng(25)
    bank = tight_bank("erblike", length=512, fs=44100.0)
    plan = bank.plan
    x = rng.standard_normal(512)
    real = analyze(x, bank)
    assert len(real.buffer) < plan.frames.sum()
    path = tmp_path / "real.wfbc"
    save_coefficients(real, path)
    save_coefficients(analyze(random_signal(512, rng), bank), tmp_path / "complex.wfbc")
    # every channel in order, the implicit ones as their partners' conjugates
    size = 12 + sum(8 + 16 * ch.n_frames for ch in bank.channels)
    assert path.stat().st_size == (tmp_path / "complex.wfbc").stat().st_size == size
    entries = read_entries(path)
    assert [tag for tag, _, _ in entries] == [ch.m for ch in bank.channels]
    for (_, data, _), row in zip(entries, real.channels):
        assert data.tobytes() == row.tobytes()
    back = load_coefficients(path, bank)
    assert back.buffer.tobytes() == real.buffer.tobytes()
    # a complex analysis's mirror rows are not its partners' conjugates
    assert len(load_coefficients(tmp_path / "complex.wfbc", bank).buffer) == plan.frames.sum()

    # one coefficient of an implicit row nudged by one ulp: the file loads whole
    i = int(np.flatnonzero(plan.partner >= 0)[0])
    blob = bytearray(path.read_bytes())
    offset = entries[i][2]
    value = np.frombuffer(bytes(blob[offset:offset + 8]), dtype="<f8")[0]
    blob[offset:offset + 8] = np.array([np.nextafter(value, np.inf)], dtype="<f8").tobytes()
    nudged = tmp_path / "nudged.wfbc"
    nudged.write_bytes(bytes(blob))
    whole = load_coefficients(nudged, bank)
    assert len(whole.buffer) == plan.frames.sum()
    full = np.empty(plan.frames.sum(), dtype=complex)
    for row in range(len(plan.frames)):
        full[plan.coefs[row]:plan.coefs[row] + plan.frames[row]] = real.row(row)
    want = synthesize(CoefficientSet(full, bank), bank).samples
    for got in (synthesize(whole, bank).samples, synthesize(real, bank).samples):
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_coefficient_file_rejects_corruption(tmp_path):
    rng = np.random.default_rng(16)
    bank = tight_bank("log")
    coeffs = analyze(random_signal(512, rng), bank)
    path = tmp_path / "c.wfbc"
    save_coefficients(coeffs, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.wfbc"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FingerprintMismatch):
        load_coefficients(bad_magic, bank)

    version = tmp_path / "version.wfbc"
    version.write_bytes(blob[:4] + struct.pack("<I", 2) + blob[8:])
    with pytest.raises(FingerprintMismatch, match="version 2"):
        load_coefficients(version, bank)

    truncated = tmp_path / "trunc.wfbc"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FingerprintMismatch):
        load_coefficients(truncated, bank)
    truncated.write_bytes(blob[:16])  # inside the first entry's header
    with pytest.raises(FingerprintMismatch, match="truncated"):
        load_coefficients(truncated, bank)

    trailing = tmp_path / "trail.wfbc"
    trailing.write_bytes(blob + b"\0" * 8)
    with pytest.raises(FingerprintMismatch):
        load_coefficients(trailing, bank)

    other = tight_bank("erblike")
    with pytest.raises(FingerprintMismatch):
        load_coefficients(path, other)


@pytest.mark.parametrize("family,kw,fs", [
    ("log", {}, 2.0), ("sympow", {"l": 1.0}, 8.0), ("erblike", {}, 44100.0),
])
def test_plan_has_a_row_per_generator(family, kw, fs, plan_test_banks):
    for bank in plan_test_banks(family, kw, fs).values():
        length = bank.grid.length
        plan = bank.plan
        half = bank.grid.domain is Domain.POSITIVE_HALF_LINE
        chans, res = bank.channels, bank.residuals
        assert len(plan.offsets) == len(chans) + len(res) + (len(chans) if half else 0)
        frames = [ch.n_frames for ch in chans]
        assert plan.frames.dtype == np.int64
        assert plan.frames.tolist() == frames + [1] * len(res) + (frames if half else [])
        is_mirror = plan.partner >= 0
        if half:  # the mirror rows are the branches, one per channel
            np.testing.assert_array_equal(plan.partner, [-1] * (len(chans) + len(res))
                                          + list(range(len(chans))))
        else:  # the mirror rows are channels -m, their partners channels m
            tags = [ch.m for ch in chans]
            for i, p in enumerate(plan.partner):
                assert p < 0 or tags[i] == -tags[p] < 0

        # rows: the channels, the residuals, then a mirror per half-line channel
        sizes = [len(ch.response) for ch in chans]
        sizes += [1] * len(res) + (sizes if half else [])

        def row(i):
            span = slice(plan.offsets[i], plan.offsets[i] + sizes[i])
            np.testing.assert_array_equal(
                plan.slots[span], plan.coefs[i] + plan.bins[span] % plan.frames[i])
            return plan.bins[span], plan.response[span]

        for i, ch in enumerate(chans):
            if is_mirror[i]:  # channel m's response reversed, a view of it
                mate = chans[plan.partner[i]].response
                assert np.shares_memory(ch.response, mate)
                assert ch.response.tobytes() == mate[::-1].tobytes()
                continue
            bins, resp = row(i)
            signed = ch.start_bin + np.arange(len(ch.response))
            np.testing.assert_array_equal(bins, signed % length)
            np.testing.assert_array_equal(resp, ch.response)
        for k, r in enumerate(res):
            bins, resp = row(len(chans) + k)
            assert bins.tolist() == [r.bin_index] and resp.tolist() == [1.0]

        # no entry belongs to a mirror row: the direct rows' spans tile them
        direct = np.flatnonzero(~is_mirror)
        assert len(plan.bins) == len(plan.response) == len(plan.slots)
        cover = np.zeros(len(plan.bins), dtype=int)
        for i in direct:
            cover[plan.offsets[i]:plan.offsets[i] + sizes[i]] += 1
        assert (cover == 1).all()
        if half:
            assert plan.bins.min() >= 0 and plan.bins.max() <= length // 2

        # the direct rows' coefficient blocks tile the direct prefix group
        # after group, the paired ones first; each mirror row's block lies
        # past it, where its partner's lies in the paired prefix
        ends = [0] + [block.stop for _, block in plan.groups]
        assert [block.start for _, block in plan.groups] == ends[:-1]
        order = direct[np.argsort(plan.coefs[direct])]
        np.testing.assert_array_equal(
            plan.coefs[order], np.cumsum(plan.frames[order]) - plan.frames[order])
        for n, block in plan.groups:
            members = (plan.coefs >= block.start) & (plan.coefs < block.stop)
            assert set(plan.frames[members].tolist()) == {n}
            assert np.count_nonzero(members) * n == block.stop - block.start
        is_paired = np.isin(np.arange(len(plan.frames)), plan.partner)
        # the paired rows' entries lead the entry arrays
        assert plan.paired_entries == sum(sizes[i] for i in np.flatnonzero(is_paired))
        assert (plan.offsets[is_paired] + np.array(sizes)[is_paired]).max(
            initial=0) <= plan.paired_entries
        pstop, cstop = ends[plan.paired], ends[-1]
        assert (plan.coefs[is_paired] + plan.frames[is_paired]).max(initial=0) <= pstop
        assert (plan.coefs[~is_paired & ~is_mirror] >= pstop).all()
        np.testing.assert_array_equal(plan.coefs[is_mirror],
                                      cstop + plan.coefs[plan.partner[is_mirror]])
        assert plan.frames[is_mirror].sum() == pstop
        assert plan.frames.sum() == cstop + pstop

        # a real-input analysis fills only the direct prefix of the buffer
        coeffs = analyze(np.random.default_rng(5).standard_normal(length), bank)
        rows = [row for i, row in enumerate(coeffs.channels) if not is_mirror[i]]
        rows += coeffs.residuals
        buffer = rows[0].base
        assert all(c.base is buffer for c in rows)
        assert buffer.size == cstop


def flat_coefficients(coeffs):
    parts = list(coeffs.channels)
    if coeffs.mirrors is not None:
        parts += coeffs.mirrors
    return np.concatenate(parts + list(coeffs.residuals))


def gapped_doubled_erb():
    """The ERB Painless design at L=128, fs=8000 with a Hann window of
    stretch 4, its hops doubled and its middle channel removed: not
    painless, with a diagonal that is not symmetric on the bins of three
    of its 24 reflected pairs."""
    w = make_warping("erblike")
    grid = GridSpec(length=128, fs=8000.0, domain=w.domain)
    doubled = with_scaled_factors(build_bank(w, named_window("hann", 4.0), grid, Painless()), 2)
    middle = doubled.channels[len(doubled.channels) // 2].m
    factors = {ch.m: ch.a for ch in doubled.channels if ch.m != middle}
    return build_bank(w, doubled.window, grid, Explicit(factors))


@pytest.mark.parametrize("family,kw,fs", [
    ("log", {}, 2.0), ("sympow", {"l": 1.0}, 8.0), ("erblike", {}, 44100.0),
    ("signedpow", {"l": 0.5, "c": 1.0, "d": 1.0}, 256.0),
])
def test_plan_matches_dense_atoms(family, kw, fs, dense_atoms, plan_test_banks):
    rng = np.random.default_rng(18)
    banks = plan_test_banks(family, kw, fs)
    if family == "erblike":
        banks["gapped"] = gapped_doubled_erb()
    for name, bank in banks.items():
        length = bank.grid.length
        atoms = dense_atoms(bank)
        empty = [i for i, ch in enumerate(bank.channels) if not ch.response.any()]
        if name == "explicit":
            assert len(empty) >= 4
        # responses live once, in the plan
        plan = bank.plan
        assert all(np.shares_memory(ch.response, plan.response)
                   for ch in bank.channels if len(ch.response))
        f = random_signal(length, rng)
        coeffs = analyze(f, bank)
        np.testing.assert_allclose(flat_coefficients(coeffs), atoms.conj() @ f,
                                   rtol=0, atol=1e-12 * np.linalg.norm(f))
        for i in empty:
            c = coeffs.channels[i]
            assert len(c) == bank.channels[i].n_frames and not c.any()

        # real input: the direct branches and residuals, same atoms
        x = rng.standard_normal(length)
        real = analyze(x, bank)
        n_direct = sum(len(c) for c in real.channels)
        want = atoms.conj() @ x
        got = np.concatenate(list(real.channels) + list(real.residuals))
        want = np.concatenate([want[:n_direct], want[len(want) - len(real.residuals):]])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.linalg.norm(x))
        # its synthesis adds the implicit mirror branches as conjugates
        mirrors = [np.conj(c) for c in real.channels] if real.half_line else []
        c_full = np.concatenate(list(real.channels) + mirrors + list(real.residuals))
        np.testing.assert_allclose(synthesize(real, bank).samples, atoms.T @ c_full,
                                   rtol=0, atol=1e-12 * np.linalg.norm(x))

        # synthesis is the adjoint of analysis
        c = coeffs
        c.buffer[:] = random_signal(len(c.buffer), rng)
        out = synthesize(c, bank).samples
        np.testing.assert_allclose(out, atoms.T @ flat_coefficients(c), rtol=0,
                                   atol=1e-12 * np.linalg.norm(flat_coefficients(c)))
        lhs = np.vdot(flat_coefficients(analyze(f, bank)), flat_coefficients(c))
        assert abs(lhs - np.vdot(f, out)) <= 1e-12 * abs(lhs)

        # the frame operator, atoms^H atoms; it maps real input to real
        # output on half-line grids only, where mirror branches pair the bins
        gram = atoms.T @ atoms.conj()
        np.testing.assert_allclose(apply_frame_operator(f, bank).samples, gram @ f,
                                   rtol=0, atol=1e-12 * np.linalg.norm(f))
        sx = apply_frame_operator(x, bank).samples
        if bank.grid.domain is Domain.POSITIVE_HALF_LINE:
            assert sx.dtype == np.float64
        np.testing.assert_allclose(sx, gram @ x, rtol=0,
                                   atol=1e-12 * np.linalg.norm(x))


@pytest.mark.parametrize("family,kw,fs", [
    ("log", {}, 2.0), ("sympow", {"l": 1.0}, 8.0), ("erblike", {}, 44100.0),
    ("signedpow", {"l": 0.5, "c": 1.0, "d": 1.0}, 256.0),
])
def test_diagonal_is_the_dense_frame_operator_diagonal(family, kw, fs, dense_atoms,
                                                       plan_test_banks):
    # the diagonal of U S U^H, S = atoms^T conj(atoms) and U the unitary
    # DFT, on tight, hop-scaled and explicit banks, paired rows included
    for bank in plan_test_banks(family, kw, fs).values():
        length = bank.grid.length
        atoms = dense_atoms(bank)
        dft = np.fft.fft(np.eye(length)) / np.sqrt(length)
        want = np.diag(dft @ (atoms.T @ atoms.conj()) @ dft.conj().T)
        diag = bank.diagonal()
        assert diag.shape == (length,) and diag.dtype == np.float64
        np.testing.assert_allclose(diag, want.real, rtol=0, atol=1e-12 * diag.max())
        assert np.abs(want.imag).max() <= 1e-12 * diag.max()


def implied_buffer(buffer, plan):
    """The full buffer that ``buffer`` stands for: a direct prefix (real
    input) implies mirror rows that conjugate their partners."""
    if len(buffer) == plan.direct_size:
        return np.concatenate((buffer, np.conj(buffer[:plan.paired_size])))
    return buffer


@pytest.mark.parametrize("family,kw,fs", [
    ("log", {}, 2.0), ("sympow", {"l": 1.0}, 8.0), ("erblike", {}, 44100.0),
    ("signedpow", {"l": 0.5, "c": 1.0, "d": 1.0}, 256.0),
])
def test_fold_and_spread_are_adjoints(family, kw, fs, plan_test_banks):
    # <fold(x), y> = <x, spread(y)> for real and complex data, onto the
    # full buffer and onto the direct prefix.  The prefix stands for real
    # input: x is then the spectrum of a real signal, x[-k] = conj(x[k]),
    # and y the full buffer its mirror rows imply.  Real data stays real
    rng = np.random.default_rng(31)
    for name, bank in plan_test_banks(family, kw, fs).items():
        plan, length = bank.plan, bank.grid.length
        response = rng.standard_normal(len(plan.response))
        for real in (True, False):
            for size in (plan.direct_size, plan.direct_size + plan.paired_size):
                x, y = random_signal(length, rng, real), random_signal(size, rng, real)
                if size == plan.direct_size:
                    x = (x + np.conj(x[-np.arange(length)])) / 2
                folded, spread = plan.fold(x, response, size), plan.spread(y, response, length)
                assert folded.dtype == spread.dtype == x.dtype, name
                lhs = np.vdot(implied_buffer(folded, plan), implied_buffer(y, plan))
                rhs = np.vdot(x, spread)
                scale = np.linalg.norm(x) * np.linalg.norm(y) * np.abs(response).max()
                assert abs(lhs - rhs) <= 1e-12 * scale, (name, real, size)


def reflected_pairs(bank):
    """{row of channel -m: row of channel m} wherever channel -m has m's
    hop, m's bins negated and m's response reversed, bit for bit."""
    length = bank.grid.length
    rows = {ch.m: i for i, ch in enumerate(bank.channels)}
    pairs = {}
    for m, i in rows.items():
        if m <= 0 or -m not in rows:
            continue
        ch, other = bank.channels[i], bank.channels[rows[-m]]
        bins = (ch.start_bin + np.arange(len(ch.response))) % length
        others = (other.start_bin + np.arange(len(other.response))) % length
        if (other.a == ch.a and np.array_equal(others, -bins[::-1] % length)
                and other.response.tobytes() == ch.response[::-1].tobytes()):
            pairs[rows[-m]] = i
    return pairs


def count_plans(monkeypatch):
    """The plans ``_build_plan`` returns from here on, in call order."""
    plans, build_plan = [], bank_mod._build_plan

    def counted(*args):
        plans.append(build_plan(*args))
        return plans[-1]

    monkeypatch.setattr(bank_mod, "_build_plan", counted)
    return plans


def assert_pairs_and_dual(bank, rng):
    """``bank`` pairs every reflected channel pair, and a painless one's
    dual, its weight 1 / diagonal on the shared plan, inverts ``analyze``
    on real and complex input."""
    pairs = reflected_pairs(bank)
    np.testing.assert_array_equal(bank.plan.partner,
                                  [pairs.get(i, -1) for i in range(len(bank.channels))])
    if not bank.painless:
        return
    dual = painless_dual(bank)
    assert dual.plan is bank.plan and dual.channels is bank.channels
    np.testing.assert_allclose(dual.weight * bank.diagonal(), 1.0, rtol=0, atol=2e-16)
    length = bank.grid.length
    for x in (rng.standard_normal(length), random_signal(length, rng)):
        rec = synthesize(analyze(x, bank), dual).samples
        assert np.linalg.norm(rec - x) <= 1e-12 * np.linalg.norm(x)
        rec = synthesize(analyze(x, dual), bank).samples
        assert np.linalg.norm(rec - x) <= 1e-12 * np.linalg.norm(x)


PAIR_WINDOWS = [("hann", 3.0), ("hamming", 3.0), ("blackman", 5.0), ("boxcar", 3.0)]


@pytest.mark.parametrize("window,stretch", PAIR_WINDOWS)
@pytest.mark.parametrize("family,kw", [("erblike", {}), ("signedpow", {"l": 0.5})])
def test_full_line_mirror_pairs(family, kw, window, stretch, monkeypatch):
    rng = np.random.default_rng(23)
    w = make_warping(family, **kw)
    plans = count_plans(monkeypatch)
    for length in (360, 500, 512, 4096):
        grid = GridSpec(length=length, fs=44100.0, domain=w.domain)
        tight = design_tight(w, grid, window, stretch)
        painless = build_bank(w, named_window(window, stretch), grid, Painless())
        banks = [tight, painless, with_scaled_factors(tight, 2)]
        if window == "hann":
            banks.append(build_bank(w, named_window("bspline3", 3.0), grid, Natural()))
        assert [id(plan) for plan in plans[-len(banks):]] == [id(b.plan) for b in banks]
        for bank in banks:
            plan = bank.plan
            assert_pairs_and_dual(bank, rng)
            assert (plan.partner >= 0).any()
            # the rows at the Nyquist bin have no mirror and stay direct
            for i, ch in enumerate(bank.channels):
                if ch.start_bin + len(ch.response) > length // 2:
                    assert plan.partner[i] < 0 and i not in plan.partner
            # real input: the direct rows only, equal to the complex analysis
            x = rng.standard_normal(length)
            real, cplx = analyze(x, bank), analyze(x.astype(complex), bank)
            assert len(real.buffer) == plan.frames[plan.partner < 0].sum()
            for a, b in zip(real.channels, cplx.channels):  # rfft against fft rounding
                assert np.linalg.norm(a - b) <= 1e-15 * np.linalg.norm(cplx.buffer)
            full = np.concatenate(cplx.channels)
            assert (np.linalg.norm(np.concatenate(real.channels) - full)
                    <= 1e-15 * np.linalg.norm(full))


ORACLE_WINDOWS = PAIR_WINDOWS + [("bspline2", 3.0), ("bspline3", 3.0)]


@pytest.mark.parametrize("window,stretch", ORACLE_WINDOWS)
@pytest.mark.parametrize("family,kw", [("erblike", {}), ("signedpow", {"l": 0.5})])
def test_reflected_channels_match_their_own_sampling(family, kw, window, stretch):
    # channel -m of a pair is built as channel m reversed; F is odd bit for
    # bit on the grid, so that is exactly what sampling -m itself gives
    w = make_warping(family, **kw)
    for length in (360, 500, 512, 4096):
        grid = GridSpec(length=length, fs=44100.0, domain=w.domain)
        t = np.arange(1, length // 2) * grid.bin_hz  # the bins with a negative twin
        assert w.f(-t).tobytes() == np.negative(w.f(t)).tobytes()
        proto = named_window(window, stretch)
        banks = [build_bank(w, proto, grid, Painless())]
        if not window.startswith("bspline"):
            banks.append(design_tight(w, grid, window, stretch))
        for bank in banks:
            reflected = reflected_pairs(bank)
            assert reflected
            for j in reflected:
                ch = bank.channels[j]
                bins = ch.start_bin + np.arange(len(ch.response))
                want = np.asarray(bank.window(w.f(bins * grid.bin_hz) - ch.m), dtype=float)
                want *= np.sqrt(ch.a / length)
                assert ch.response.tobytes() == want.tobytes()


def test_reflection_leaves_out_probes_on_the_support_edge():
    # fs puts F of bin 1 one ulp below 1/2, so channel 1's probe at bin -1
    # rounds onto -R/2, inside the half-open support, and channel -1's at
    # bin 1 onto R/2, outside: the bins negate, the responses do not
    w = make_warping("erblike", c=1.0, d=1.0)
    length, target = 64, np.nextafter(0.5, 0.0)
    t = np.expm1(target)
    fs = next(length * u for u in t + np.arange(-50, 50) * np.spacing(t)
              if w.f(np.array([u]))[0] == target)
    grid = GridSpec(length=length, fs=fs, domain=w.domain)
    bank = build_bank(w, named_window("hamming", 3.0), grid, Painless())
    rows = {ch.m: ch for ch in bank.channels}
    one, minus = rows[1], rows[-1]
    assert minus.start_bin + len(minus.response) == 2 and one.start_bin == -1
    assert minus.response[-1] == 0.0 < one.response[0]
    bins = minus.start_bin + np.arange(len(minus.response))
    want = bank.window(w.f(bins * grid.bin_hz) + 1) * np.sqrt(minus.a / length)
    assert minus.response.tobytes() == want.tobytes()


@pytest.mark.parametrize("window,stretch", PAIR_WINDOWS + [("hann", 4.0), ("bspline3", 3.0)])
def test_edge_aligned_grids_pair_where_theta_vanishes_there(window, stretch):
    # at fs = 256 the square-root scale puts F of bins exactly on support
    # edges; where theta vanishes at its edges the support is open, so no
    # probe sits on one, and the channels pair.  Hamming and boxcar do not
    # vanish at -R/2: a probe on that closed edge is an asymmetry
    w = make_warping("signedpow", l=0.5)
    grid = GridSpec(length=4096, fs=256.0, domain=w.domain)
    proto = named_window(window, stretch)
    bank = build_bank(w, proto, grid, Painless())
    plan, n = bank.plan, len(bank.channels)
    lo_s = proto.support[0]
    on_edge = [w.f(np.array([ch.start_bin * grid.bin_hz]))[0] - ch.m == lo_s
               for ch in bank.channels]
    if window in ("hamming", "boxcar"):
        assert any(on_edge) and not (plan.partner >= 0).any()
        return
    assert not any(on_edge)
    assert len(reflected_pairs(bank)) >= 7
    assert_pairs_and_dual(bank, np.random.default_rng(25))


def test_edge_aligned_spec_bank_pairs():
    bank = load_bank_spec(Path(__file__).parent.parent / "banks" / "sqrtpow_r3.json")
    assert bank.grid.length == 2048 and len(bank.channels) == 23
    assert np.count_nonzero(bank.plan.partner >= 0) == 8


@pytest.mark.parametrize("family,kw", [("log", {}), ("sympow", {"l": 0.5})])
def test_half_line_plans_pair_only_the_mirror_branches(family, kw):
    w = make_warping(family, **kw)
    for length in (360, 512):
        grid = GridSpec(length=length, fs=8.0, domain=w.domain)
        tight = design_tight(w, grid, "hann", 3.0)
        for bank in (tight, with_scaled_factors(tight, 2), painless_dual(tight)):
            plan, n = bank.plan, len(bank.channels)
            np.testing.assert_array_equal(plan.partner, [-1] * (n + 2) + list(range(n)))
            assert bank.kind != "dual" or plan is tight.plan
            # channels, then the residuals, then the mirror branches
            sizes = [block.stop - block.start for _, block in plan.groups]
            assert sum(sizes[:plan.paired]) == plan.frames[:n].sum()
            assert sizes[plan.paired:] == [2]


def gapped_erb(length=512):
    """The ERB tight design at fs = 44.1 kHz without channel -10: painless
    and not tight, its diagonal not symmetric on the bins of the pairs
    around channel 10."""
    w = make_warping("erblike")
    grid = GridSpec(length=length, fs=44100.0, domain=w.domain)
    factors = {ch.m: ch.a for ch in design_tight(w, grid).channels if ch.m != -10}
    return build_bank(w, HANN, grid, Explicit(factors))


def test_every_reflected_pair_is_a_mirror_pair(monkeypatch):
    # the dual divides spectra, not entries, so a diagonal that is not
    # symmetric on a pair's bins leaves the pair standing: the gapped ERB
    # bank pairs channels 8..12 too, from one plan; as does the Hamming
    # bank whose probes on the closed support edge leave it no pairs, and
    # the hop-doubled gapped bank, which is not painless
    plans = count_plans(monkeypatch)
    gapped = gapped_erb()  # plans[0] is the tight design it takes its hops from
    edge = GridSpec(length=4096, fs=256.0, domain=Domain.FULL_LINE)
    hamming = build_bank(make_warping("signedpow", l=0.5), named_window("hamming", 3.0),
                         edge, Painless())
    assert [id(plan) for plan in plans[1:]] == [id(gapped.plan), id(hamming.plan)]
    diag = gapped.diagonal()
    assert not np.array_equal(diag[1:], diag[:0:-1])
    tags = [ch.m for ch in gapped.channels]
    paired = {tags[j] for j in np.flatnonzero(gapped.plan.partner >= 0)}
    assert {-1, -2, -8, -9, -11, -12, -40} <= paired
    assert not (hamming.plan.partner >= 0).any()
    rng = np.random.default_rng(24)
    for bank in (gapped, hamming):
        assert bank.painless and bank.kind == "analysis"
        assert_pairs_and_dual(bank, rng)
    doubled = gapped_doubled_erb()
    assert not doubled.painless and len(reflected_pairs(doubled)) == 24
    assert_pairs_and_dual(doubled, rng)


def log_bank_128():
    w = make_warping("log")
    return build_bank(w, HANN, GridSpec(length=128, fs=2.0, domain=w.domain), Painless())


@pytest.mark.parametrize("make", [lambda: gapped_erb(128), log_bank_128])
def test_dual_matches_the_inverse_frame_operator(make, dense_atoms):
    # the dual's atoms are S^{-1} g for the dense frame operator S of the
    # analysis atoms g: its analysis, synthesis and frame operator agree
    # with those built from them, on real and complex input
    bank = make()
    dual = painless_dual(bank)
    length = bank.grid.length
    diag = bank.diagonal()
    assert bank.painless and bank.kind == "analysis"
    assert (bank.grid.domain is Domain.POSITIVE_HALF_LINE
            or not np.array_equal(diag[1:], diag[:0:-1]))
    atoms = dense_atoms(bank)
    gram = atoms.T @ atoms.conj()
    duals = np.linalg.solve(gram, atoms.T).T
    rng = np.random.default_rng(26)
    for x in (rng.standard_normal(length), random_signal(length, rng)):
        tol = 1e-12 * np.linalg.norm(x)
        want = duals.conj() @ x
        coeffs = analyze(x, dual)
        if coeffs.half_line and len(coeffs.buffer) == dual.plan.direct_size:
            n_direct = sum(len(c) for c in coeffs.channels)
            got = np.concatenate(list(coeffs.channels) + list(coeffs.residuals))
            want = np.concatenate([want[:n_direct], want[len(want) - 2:]])
        else:
            got = flat_coefficients(coeffs)
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        np.testing.assert_allclose(apply_frame_operator(x, dual).samples,
                                   np.linalg.solve(gram, x), rtol=0, atol=tol)
        # synthesis from coefficients written in atom order through the rows
        coeffs = analyze(x.astype(complex), dual)
        c = random_signal(len(coeffs.buffer), rng)
        start = 0
        for row in list(coeffs.channels) + list(coeffs.mirrors or ()) + list(coeffs.residuals):
            row[:] = c[start:start + len(row)]
            start += len(row)
        np.testing.assert_allclose(synthesize(coeffs, dual).samples, duals.T @ c,
                                   rtol=0, atol=1e-12 * np.linalg.norm(c))
        # the dual of the dual is the analysis bank again
        rec = synthesize(analyze(x, dual), painless_dual(dual)).samples
        assert np.linalg.norm(rec - x) <= 1e-12 * np.linalg.norm(x)
