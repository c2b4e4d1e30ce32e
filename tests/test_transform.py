import struct

import numpy as np
import pytest

from warpbank import (CoefficientSet, Domain, FingerprintMismatch, GridSpec,
                      InvalidParameter, LengthMismatch, Painless, Signal, analyze,
                      apply_frame_operator, build_bank, design_tight,
                      load_coefficients, make_warping, named_window, painless_dual,
                      save_coefficients, synthesize)

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
        save_coefficients(coeffs, bank, tmp_path / "c.wfbc")
    assert not (tmp_path / "c.wfbc").exists()


BUFFER_SETS = [("log", True), ("log", False), ("erblike", True), ("erblike", False)]


@pytest.mark.parametrize("family,real", BUFFER_SETS)
def test_rows_are_views_and_synthesis_leaves_the_buffer(family, real):
    rng = np.random.default_rng(21)
    bank = tight_bank(family, length=256)
    coeffs = analyze(random_signal(256, rng, real=real), bank)
    rows = coeffs.channels + coeffs.residuals + (coeffs.mirrors or ())
    implicit = real and coeffs.half_line
    assert len(rows) == len(bank.plan.frames) - (len(bank.channels) if implicit else 0)
    assert [len(c) for c in coeffs.channels] == [ch.n_frames for ch in bank.channels]
    assert all(np.shares_memory(row, coeffs.buffer) for row in rows)
    before = coeffs.buffer.copy()
    first = synthesize(coeffs, bank).samples
    second = synthesize(coeffs, bank).samples
    assert first.tobytes() == second.tobytes()
    assert coeffs.buffer.tobytes() == before.tobytes()


@pytest.mark.parametrize("family,real", BUFFER_SETS)
def test_energy_is_the_sum_over_rows(family, real):
    rng = np.random.default_rng(22)
    bank = tight_bank(family, length=256)
    coeffs = analyze(random_signal(256, rng, real=real), bank)

    def rows_energy(rows):
        return sum(float(np.sum(np.abs(c) ** 2)) for c in rows)

    # implicit mirror branches of a real half-line set count as the channels
    want = rows_energy(coeffs.channels) + rows_energy(coeffs.residuals)
    if coeffs.mirrors is not None:
        want += rows_energy(coeffs.mirrors)
    elif coeffs.half_line:
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
        save_coefficients(coeffs, bank, path)
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
    save_coefficients(coeffs, bank, path)
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


def test_coefficient_file_rejects_corruption(tmp_path):
    rng = np.random.default_rng(16)
    bank = tight_bank("log")
    coeffs = analyze(random_signal(512, rng), bank)
    path = tmp_path / "c.wfbc"
    save_coefficients(coeffs, bank, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.wfbc"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FingerprintMismatch):
        load_coefficients(bad_magic, bank)

    truncated = tmp_path / "trunc.wfbc"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FingerprintMismatch):
        load_coefficients(truncated, bank)

    trailing = tmp_path / "trail.wfbc"
    trailing.write_bytes(blob + b"\0" * 8)
    with pytest.raises(FingerprintMismatch):
        load_coefficients(trailing, bank)

    other = tight_bank("erblike")
    with pytest.raises(FingerprintMismatch):
        load_coefficients(path, other)

    with pytest.raises(FingerprintMismatch):
        save_coefficients(coeffs, other, tmp_path / "never.wfbc")


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

        # rows: the channels, the residuals, then a mirror per channel
        sizes = [len(ch.response) for ch in chans]
        sizes += [1] * len(res) + (sizes if half else [])

        def row(i):
            span = slice(plan.offsets[i], plan.offsets[i] + sizes[i])
            np.testing.assert_array_equal(
                plan.slots[span], plan.coefs[i] + plan.bins[span] % plan.frames[i])
            return plan.bins[span], plan.response[span]

        for i, ch in enumerate(chans):
            bins, resp = row(i)
            signed = ch.start_bin + np.arange(len(ch.response))
            np.testing.assert_array_equal(bins, signed % length)
            np.testing.assert_array_equal(resp, ch.response)
            if half:
                bins, resp = row(len(chans) + len(res) + i)
                np.testing.assert_array_equal(bins, length - signed)
                np.testing.assert_array_equal(resp, ch.response)
        for k, r in enumerate(res):
            bins, resp = row(len(chans) + k)
            assert bins.tolist() == [r.bin_index] and resp.tolist() == [1.0]

        direct = np.concatenate([plan.bins[span] for _, _, span in plan.groups[:plan.direct]])
        mirror = np.concatenate([plan.bins[span] for _, _, span in plan.groups[plan.direct:]]
                                or [np.zeros(0, dtype=int)])
        if half:
            assert direct.min() >= 0 and direct.max() <= length // 2
            assert mirror.min() > length // 2 and mirror.max() <= length - 1
        else:
            assert plan.direct == len(plan.groups) and not len(mirror)

        # the rows' coefficient blocks tile one buffer group after group,
        # the direct groups (channels and residuals) first
        ends = [0] + [block.stop for _, block, _ in plan.groups]
        assert [block.start for _, block, _ in plan.groups] == ends[:-1]
        assert ends[-1] == plan.frames.sum()
        order = np.argsort(plan.coefs)
        np.testing.assert_array_equal(
            plan.coefs[order], np.cumsum(plan.frames[order]) - plan.frames[order])
        for n, block, span in plan.groups:
            members = (plan.coefs >= block.start) & (plan.coefs < block.stop)
            assert set(plan.frames[members].tolist()) == {n}
            assert np.count_nonzero(members) * n == block.stop - block.start
            assert sum(sizes[i] for i in np.flatnonzero(members)) == span.stop - span.start
        n_direct = len(chans) + len(res)
        cstop = plan.groups[plan.direct - 1][1].stop
        assert (plan.coefs[:n_direct] + plan.frames[:n_direct]).max() <= cstop
        assert (plan.coefs[n_direct:] >= cstop).all()

        # a real-input analysis fills only the direct prefix of the buffer
        coeffs = analyze(np.random.default_rng(5).standard_normal(length), bank)
        rows = coeffs.channels + coeffs.residuals
        buffer = rows[0].base
        assert all(c.base is buffer for c in rows)
        assert buffer.size == (cstop if half else ends[-1])


def flat_coefficients(coeffs):
    parts = list(coeffs.channels)
    if coeffs.mirrors is not None:
        parts += coeffs.mirrors
    return np.concatenate(parts + list(coeffs.residuals))


@pytest.mark.parametrize("family,kw,fs", [
    ("log", {}, 2.0), ("sympow", {"l": 1.0}, 8.0), ("erblike", {}, 44100.0),
    ("signedpow", {"l": 0.5, "c": 1.0, "d": 1.0}, 256.0),
])
def test_plan_matches_dense_atoms(family, kw, fs, dense_atoms, plan_test_banks):
    rng = np.random.default_rng(18)
    for name, bank in plan_test_banks(family, kw, fs).items():
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
