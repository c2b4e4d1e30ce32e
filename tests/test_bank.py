import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from warpbank import (CoverageError, Domain, EmptyBank, Explicit, GridSpec,
                      InvalidParameter, Natural, NotPainless, Painless, analyze,
                      build_bank, channel_response_continuous,
                      design_tight, load_bank_spec, make_cosine_window, make_warping,
                      named_window, natural_factors, painless_dual,
                      painless_factors, round_factors_to_grid,
                      save_bank_spec, synthesize, with_scaled_factors)
from warpbank import specfile

HANN = named_window("hann", 3.0)


def erb_grid(length=1024, fs=44100.0):
    w = make_warping("erb")
    return w, GridSpec(length=length, fs=fs, domain=w.domain)


def log_grid(length=1024, fs=2.0):
    w = make_warping("log")
    return w, GridSpec(length=length, fs=fs, domain=w.domain)


def test_grid_spec_validation():
    w, _ = erb_grid()
    with pytest.raises(InvalidParameter):
        GridSpec(length=1023, fs=44100.0, domain=w.domain)
    with pytest.raises(InvalidParameter):
        GridSpec(length=0, fs=44100.0, domain=w.domain)
    with pytest.raises(InvalidParameter):
        GridSpec(length=1024, fs=0.0, domain=w.domain)
    with pytest.raises(InvalidParameter):
        GridSpec(length=1024, fs=2.0, domain="full_line")
    grid = GridSpec(length=1024, fs=2.0, domain=Domain.FULL_LINE)
    assert grid.bin_hz == 2.0 / 1024
    assert grid.signed_bin_range() == (-511, 512)
    half = GridSpec(length=1024, fs=2.0, domain=Domain.POSITIVE_HALF_LINE)
    assert half.signed_bin_range() == (1, 511)


@pytest.mark.parametrize("window", ["hann", "hamming", "boxcar"])
@pytest.mark.parametrize("family,kw,length,fs", [
    ("log", {}, 256, 2.0),
    ("sympow", {"l": 1.0}, 2048, 64.0),  # sparse high bins: gaps in m
    ("erblike", {}, 256, 44100.0),
    ("signedpow", {"l": 0.5, "c": 1.0, "d": 1.0}, 256, 256.0),
])
def test_channel_set_is_every_translate_holding_a_bin(family, kw, length, fs, window):
    w = make_warping(family, **kw)
    grid = GridSpec(length=length, fs=fs, domain=w.domain)
    proto = named_window(window, 3.0)
    lo_s, hi_s = proto.support
    lo_bin, hi_bin = grid.signed_bin_range()
    warped = w.f(np.arange(lo_bin, hi_bin + 1) * grid.bin_hz)
    # brute force over a window of m far wider than the warped bins; Hann
    # vanishes at -R/2, so its support is open there
    wide = range(int(np.floor(warped[0])) - 20, int(np.ceil(warped[-1])) + 21)
    inside = np.greater if window == "hann" else np.greater_equal
    held = {m: np.nonzero(inside(warped, lo_s + m) & (warped < hi_s + m))[0] for m in wide}
    expected = [m for m in wide if len(held[m])]
    for policy in (Painless(), Natural()):
        bank = build_bank(w, proto, grid, policy, check_coverage=False)
        assert [ch.m for ch in bank.channels] == expected
        for ch in bank.channels:
            j = held[ch.m]
            assert ch.support_bins == (lo_bin + j[0], lo_bin + j[-1] + 1)
            np.testing.assert_array_equal(
                ch.response, np.sqrt(ch.a / length) * proto(warped[j] - ch.m))


def test_hostile_warpings_build_quickly():
    # before the channel set was read off the bins, these gave 12.7M and
    # 97,201 channels; now each bin admits at most three translates
    for family, kw, fs, most in [("sympow", {"c": 1e6, "d": 1.0, "l": 0.5}, 8.0, 1533),
                                 ("erblike", {"c": 1e4, "d": 1.0}, 256.0, 3072)]:
        w = make_warping(family, **kw)
        grid = GridSpec(length=1024, fs=fs, domain=w.domain)
        start = time.perf_counter()
        bank = design_tight(w, grid, "hann", 3.0)
        assert time.perf_counter() - start < 1.0
        assert len(bank.channels) <= most


def test_grid_without_warped_bins_is_an_empty_bank():
    w = make_warping("log")
    grid = GridSpec(length=2, fs=2.0, domain=w.domain)
    for policy in (Painless(), Natural()):
        with pytest.raises(EmptyBank):
            build_bank(w, HANN, grid, policy)


def test_channel_indices_must_fit_the_coefficient_tags():
    _, grid = log_grid(length=256)
    with pytest.raises(InvalidParameter, match="32-bit"):
        build_bank(make_warping("log", c=1e12), HANN, grid, Painless())
    # half-line residual tags sit one past the outermost channels
    w = make_warping("sympow", l=1.0)
    with pytest.raises(InvalidParameter, match="32-bit"):
        build_bank(w, HANN, grid, Explicit({2**31 - 1: 1}), check_coverage=False)
    with pytest.raises(InvalidParameter, match="32-bit"):
        build_bank(w, HANN, grid, Explicit({-2**31: 1}), check_coverage=False)
    build_bank(w, HANN, grid, Explicit({2**31 - 2: 1}), check_coverage=False)
    full = GridSpec(length=256, fs=2.0, domain=Domain.FULL_LINE)
    build_bank(make_warping("signedpow", l=1.0), HANN, full,
               Explicit({2**31 - 1: 1}), check_coverage=False)


def test_channel_center_must_be_finite():
    w, grid = erb_grid(length=256)
    with pytest.raises(InvalidParameter, match="finite center"):
        build_bank(w, HANN, grid, Explicit({0: 1, 1_000_000: 1}), check_coverage=False)


@pytest.mark.parametrize("policy", ["painless", "tight", "natural"])
def test_inverse_warping_past_float_range_gives_unit_hops(policy):
    # log c=0.003: F^{-1}(d + 1) = exp(2.5 / 0.003) overflows inside channel
    # 1's support; its infinite width snaps to a one-sample hop, no warning
    w = make_warping("log", c=0.003, d=1.0)
    grid = GridSpec(length=256, fs=2.0, domain=w.domain)
    if policy == "tight":
        bank = design_tight(w, grid, "hann", 3.0)
    else:
        rule = Painless() if policy == "painless" else Natural()
        bank = build_bank(w, HANN, grid, rule)
    assert [ch.m for ch in bank.channels] == [-1, 0, 1]
    if policy != "natural":
        assert [ch.a for ch in bank.channels] == [1, 1, 1]


def test_round_factors_to_grid():
    grid = GridSpec(length=1024, fs=1.0, domain=Domain.FULL_LINE)
    got = round_factors_to_grid([100.0, 1024.0, 0.5, 3.9], grid)
    np.testing.assert_array_equal(got, [64, 1024, 1, 2])


def test_factor_formulas_validation():
    w, _ = log_grid()
    with pytest.raises(InvalidParameter):
        natural_factors(w, 0.0, [0, 1])
    with pytest.raises(InvalidParameter):
        painless_factors(w, (1.5, 1.5), [0])


def test_natural_default_respects_painless_bound():
    # default a_tilde = painless bound at m = 0, which by moderateness
    # keeps every channel painless
    w, grid = log_grid()
    bank = build_bank(w, HANN, grid, Natural())
    assert bank.painless
    assert bank.policy_record["policy"] == "natural"
    lo_s, hi_s = HANN.support
    ms = [ch.m for ch in bank.channels]
    nat = natural_factors(w, bank.policy_record["a_tilde"], ms)
    cap = painless_factors(w, (lo_s, hi_s), ms)
    assert np.all(nat <= cap * (1.0 + 1e-12))


def test_natural_oversized_step_loses_painlessness():
    w, grid = log_grid()
    base = float(painless_factors(w, HANN.support, [0])[0])
    bank = build_bank(w, HANN, grid, Natural(a_tilde=20.0 * base))
    assert not bank.painless
    with pytest.raises(NotPainless):
        painless_dual(bank)


def test_build_bank_rejects_domain_mismatch():
    w = make_warping("log")
    grid = GridSpec(length=256, fs=2.0, domain=Domain.FULL_LINE)
    with pytest.raises(InvalidParameter):
        build_bank(w, HANN, grid, Painless())


def test_build_bank_zero_window_has_no_coverage():
    w, grid = erb_grid(length=256)
    silent = make_cosine_window((0.0, 0.0), 3.0)
    with pytest.raises(CoverageError):
        build_bank(w, silent, grid, Painless())


def test_explicit_policy_validation():
    w, grid = erb_grid(length=256)
    with pytest.raises(EmptyBank):
        build_bank(w, HANN, grid, Explicit({}))
    with pytest.raises(InvalidParameter):
        build_bank(w, HANN, grid, Explicit({0: 3}))  # 3 does not divide 256
    with pytest.raises(InvalidParameter):
        build_bank(w, HANN, grid, Explicit({0: 0}))


def test_painless_policy_flags_every_channel():
    for family, kw in [("log", {}), ("sympow", {"l": 0.5}),
                       ("erblike", {}), ("signedpow", {"l": 0.5})]:
        w = make_warping(family, **kw)
        grid = GridSpec(length=512, fs=2.0, domain=w.domain)
        bank = build_bank(w, HANN, grid, Painless())
        assert all(ch.painless for ch in bank.channels)
        for ch in bank.channels:
            assert np.count_nonzero(ch.response) <= ch.n_frames
            assert grid.length % ch.a == 0
            assert ch.n_frames == grid.length // ch.a


def test_channel_centers_increase():
    w, grid = erb_grid()
    bank = build_bank(w, HANN, grid, Painless())
    centers = [ch.center_hz for ch in bank.channels]
    assert np.all(np.diff(centers) > 0)
    mid = bank.channels[len(bank.channels) // 2]
    assert mid.m == 0 and abs(mid.center_hz) < 1e-12


def test_diagonal_constant_unnormalized_hann():
    w, grid = erb_grid(length=512)
    bank = build_bank(w, HANN, grid, Painless())
    d = bank.diagonal()
    np.testing.assert_allclose(d, 9.0 / 8.0, atol=1e-12)


def test_diagonal_half_line_residual_bins():
    w, grid = log_grid(length=512)
    bank = build_bank(w, HANN, grid, Painless())
    d = bank.diagonal()
    # warped bins carry the translate sum, the self-conjugate bins carry
    # exactly the residual channels
    assert d[0] == 1.0
    assert d[256] == 1.0
    np.testing.assert_allclose(d[1:256], 9.0 / 8.0, atol=1e-12)
    np.testing.assert_allclose(d[257:], 9.0 / 8.0, atol=1e-12)


def test_single_channel_diagonal():
    w, grid = erb_grid(length=256)
    bank = build_bank(w, HANN, grid, Explicit({0: 1}), check_coverage=False)
    d = bank.diagonal()
    xi = np.arange(-127, 129) * grid.bin_hz
    expected = channel_response_continuous(w, HANN, 0, xi) ** 2
    np.testing.assert_allclose(np.roll(d, 127), expected, atol=1e-14)


def test_painless_dual_identity():
    w, grid = erb_grid(length=512)
    bank = build_bank(w, HANN, grid, Painless())
    dual = painless_dual(bank)
    assert dual.kind == "dual"
    assert dual.fingerprint == bank.fingerprint
    length = grid.length
    acc = np.zeros(length)
    for ch, dch in zip(bank.channels, dual.channels):
        idx = np.arange(ch.start_bin, ch.start_bin + len(ch.response)) % length
        acc[idx] += (length / ch.a) * ch.response * dch.response
    np.testing.assert_allclose(acc, 1.0, atol=1e-12)


def test_painless_dual_requires_painless():
    w, grid = erb_grid(length=512)
    bank = build_bank(w, HANN, grid, Painless())
    with pytest.raises(NotPainless):
        painless_dual(with_scaled_factors(bank, 4))


def test_painless_dual_requires_coverage():
    w, grid = erb_grid(length=512)
    bank = build_bank(w, HANN, grid, Painless())
    factors = {ch.m: ch.a for ch in bank.channels if abs(ch.m) > 2}
    gapped = build_bank(w, HANN, grid, Explicit(factors), check_coverage=False)
    assert np.min(gapped.diagonal()) == 0.0
    with pytest.raises(CoverageError):
        painless_dual(gapped)


@pytest.mark.parametrize("family,kw", [
    ("log", {}), ("sympow", {"l": 0.5}), ("erblike", {}), ("signedpow", {"l": 0.5}),
])
def test_design_tight_diagonal_is_one(family, kw):
    w = make_warping(family, **kw)
    grid = GridSpec(length=1024, fs=2.0, domain=w.domain)
    bank = design_tight(w, grid, "hann", 3.0)
    assert bank.kind == "tight"
    assert bank.painless
    np.testing.assert_allclose(bank.diagonal(), 1.0, atol=1e-10)


def test_design_tight_accepts_raw_coefficients():
    w, grid = erb_grid(length=512)
    bank = design_tight(w, grid, window=(0.5, 0.5), stretch=3.0)
    np.testing.assert_allclose(bank.diagonal(), 1.0, atol=1e-12)


def test_design_tight_accepts_a_window_instance():
    w, grid = erb_grid(length=512)
    named = design_tight(w, grid, "hamming", 3.0)
    given = design_tight(w, grid, window=named_window("hamming", 3.0), stretch=9.0)
    assert given.window == named.window and given.fingerprint == named.fingerprint
    assert given.plan.response.tobytes() == named.plan.response.tobytes()


def test_design_tight_rejects_bspline():
    w, grid = erb_grid(length=512)
    with pytest.raises(InvalidParameter):
        design_tight(w, grid, window="bspline2", stretch=3.0)


def test_log_channels_are_dilates():
    # in log coordinates, shifting the window is dilating the response
    w = make_warping("log", c=1.0, d=1.0)
    t = np.geomspace(0.02, 50.0, 500)
    for m in (-2, 1, 3):
        shifted = channel_response_continuous(w, HANN, m, t)
        dilated = channel_response_continuous(w, HANN, 0, t * np.exp(-float(m)))
        np.testing.assert_allclose(shifted, dilated, atol=1e-12)


def test_with_scaled_factors():
    w, grid = erb_grid(length=512)
    bank = build_bank(w, HANN, grid, Painless())
    doubled = with_scaled_factors(bank, 2)
    for ch, dch in zip(bank.channels, doubled.channels):
        assert dch.a == min(2 * ch.a, 512)
    # responses rescale with sqrt(a) but the diagonal is a-independent
    np.testing.assert_allclose(doubled.diagonal(), bank.diagonal(), atol=1e-13)
    with pytest.raises(InvalidParameter):
        with_scaled_factors(bank, 0)
    with pytest.raises(InvalidParameter):
        with_scaled_factors(bank, 1.5)
    # a dual's responses do not come from its window: scale the analysis bank
    with pytest.raises(InvalidParameter, match="dual"):
        with_scaled_factors(painless_dual(bank), 1)


def test_a_tight_bank_past_the_painless_bound_is_recorded_as_analysis():
    # N r^2 = theta^2 keeps the diagonal at 1 for any hops, but only a
    # painless bank's frame operator is that diagonal
    w = make_warping("erblike", c=1.0, d=1.0)
    grid = GridSpec(length=128, fs=256.0, domain=w.domain)
    tight = design_tight(w, grid, "hann", 3.0)
    doubled = with_scaled_factors(tight, 2)
    assert doubled.kind == "analysis" and not doubled.painless
    np.testing.assert_allclose(doubled.diagonal(), 1.0, atol=1e-12)
    x = np.random.default_rng(4).standard_normal(128)
    rec = synthesize(analyze(x, doubled), doubled).samples
    assert np.linalg.norm(rec - x) > 1e-2 * np.linalg.norm(x)
    # unit hops are painless: the bank stays tight and self-inverting
    unit = build_bank(w, tight.window, grid, Explicit({ch.m: 1 for ch in tight.channels}),
                      kind="tight")
    assert unit.kind == "tight" and unit.painless
    rec = synthesize(analyze(x, unit), unit).samples
    assert np.linalg.norm(rec - x) <= 1e-12 * np.linalg.norm(x)


def test_channel_responses_view_the_plan_from_construction():
    w, grid = erb_grid(length=512)
    scaled = with_scaled_factors(build_bank(w, HANN, grid, Painless()), 2)
    loaded = load_bank_spec(Path(__file__).resolve().parents[1] / "banks" / "erblet_r3.json")
    for bank in (scaled, loaded):
        taken = [ch.response for ch in bank.channels]  # before any plan read
        for ch, response in zip(bank.channels, taken):
            assert response is ch.response
            assert np.shares_memory(response, bank.plan.response)


GEOMETRY = ("bins", "slots", "offsets", "coefs", "frames", "partner")


def test_painless_dual_rows_view_its_plan(tmp_path, monkeypatch):
    hamming = named_window("hamming", 3.0)
    for w, grid in (erb_grid(length=512), log_grid(length=256)):
        bank = build_bank(w, hamming, grid, Painless())
        before = [ch.response.tobytes() for ch in bank.channels]
        dual = painless_dual(bank)
        for ch in dual.channels:
            assert np.shares_memory(ch.response, dual.plan.response)
        # the dual shares its analysis bank's geometry and leaves its
        # responses alone
        for name in GEOMETRY:
            assert getattr(dual.plan, name) is getattr(bank.plan, name)
        assert [ch.response.tobytes() for ch in bank.channels] == before
        assert all(np.shares_memory(ch.response, bank.plan.response) for ch in bank.channels)
        # the dual divides the direct rows' entries, and its mirror rows
        # reflect their partners' quotients; that is their own quotient to
        # rounding, since the diagonal is symmetric on their bins
        plan, diag = bank.plan, bank.diagonal()
        want = plan.response / diag[plan.bins]
        np.testing.assert_array_equal(dual.plan.partner, plan.partner)
        assert dual.plan.response.tobytes() == want.tobytes()
        for ch, dch, p in zip(bank.channels, dual.channels, plan.partner):
            if p >= 0:
                mate = dual.channels[p].response
                assert dch.response.tobytes() == mate[::-1].tobytes()
            bins = ch.start_bin + np.arange(len(ch.response))
            np.testing.assert_allclose(dch.response, ch.response / diag[bins],
                                       rtol=1e-15, atol=0)
        assert (plan.partner >= 0).any()
        # a dual survives its spec file bit for bit, and one loaded from it
        # shares the geometry of the analysis bank the loader built
        save_bank_spec(dual, tmp_path / "dual.json")
        analysis = []
        monkeypatch.setattr(specfile, "painless_dual",
                            lambda b: analysis.append(b) or painless_dual(b))
        loaded = load_bank_spec(tmp_path / "dual.json")
        monkeypatch.undo()
        assert loaded.kind == "dual" and loaded.fingerprint == dual.fingerprint
        assert loaded.plan.response.tobytes() == want.tobytes()
        for ch, dch in zip(loaded.channels, dual.channels):
            assert ch.response.tobytes() == dch.response.tobytes()
        for name in GEOMETRY:
            assert getattr(loaded.plan, name) is getattr(analysis[0].plan, name)
            np.testing.assert_array_equal(getattr(loaded.plan, name), getattr(bank.plan, name))


def test_bspline_bank_spec_round_trip(tmp_path):
    w, grid = erb_grid(length=512)
    bank = build_bank(w, named_window("bspline3", 3.0), grid, Painless())
    save_bank_spec(bank, tmp_path / "b.json")
    loaded = load_bank_spec(tmp_path / "b.json")
    assert loaded.window == bank.window and loaded.fingerprint == bank.fingerprint
    assert loaded.plan.response.tobytes() == bank.plan.response.tobytes()
    save_bank_spec(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_spec_length_with_a_zero_fraction_loads_as_an_integer(tmp_path):
    w, grid = erb_grid(length=512)
    record = specfile.bank_spec_record(build_bank(w, HANN, grid, Painless()))
    record["grid"]["L"] = 512.0
    (tmp_path / "b.json").write_text(json.dumps(record))
    loaded = load_bank_spec(tmp_path / "b.json")
    assert type(loaded.grid.length) is int and loaded.grid.length == 512


def test_fingerprint_tracks_geometry_not_kind():
    w, grid = erb_grid(length=512)
    bank = build_bank(w, HANN, grid, Painless())
    again = build_bank(w, HANN, grid, Painless())
    assert bank.fingerprint == again.fingerprint
    assert painless_dual(bank).fingerprint == bank.fingerprint
    other_warp = build_bank(make_warping("erb", c=9.3), HANN, grid, Painless())
    assert other_warp.fingerprint != bank.fingerprint
    other_factors = with_scaled_factors(bank, 2)
    assert other_factors.fingerprint != bank.fingerprint


def test_grid_too_large_for_memory_is_invalid_parameter():
    # the address-space limit makes the grid's first allocation fail at once
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    code = ("import warpbank as wb\n"
            "w = wb.make_warping('erb')\n"
            "grid = wb.GridSpec(length=2**40, fs=44100.0, domain=w.domain)\n"
            "try:\n"
            "    wb.design_tight(w, grid)\n"
            "except wb.InvalidParameter as exc:\n"
            "    print(isinstance(exc.__cause__, MemoryError), exc)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, preexec_fn=limit,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("True ") and "memory" in done.stdout
