import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from warpbank import (BSplineWindow, CosineSumWindow, CoverageError, Domain, EmptyBank,
                      Explicit, GridSpec, InvalidParameter, Natural, NotPainless, Painless, analyze,
                      build_bank, channel_response_continuous,
                      design_tight, load_bank_spec, make_warping,
                      named_window, natural_factors, normalize_for_tightness,
                      painless_dual, painless_factors, round_factors_to_grid,
                      save_bank_spec, synthesize, tightness_sweep, with_scaled_factors)
from warpbank import WarpedBank, cli, specfile
from warpbank import bank as bank_mod

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
    for length in (1024.0, np.float64(1024), np.int32(1024)):
        integral = GridSpec(length=length, fs=np.float32(2.0), domain=Domain.FULL_LINE)
        assert integral == grid and type(integral.length) is int


def erb_bank(policy):
    w, grid = erb_grid(length=256)
    return build_bank(w, HANN, grid, policy)


@pytest.mark.parametrize("make", [
    lambda: GridSpec(length="128", fs=44100.0, domain=Domain.FULL_LINE),
    lambda: GridSpec(length=True, fs=44100.0, domain=Domain.FULL_LINE),
    lambda: GridSpec(length=128.5, fs=44100.0, domain=Domain.FULL_LINE),
    lambda: GridSpec(length=128, fs="44100", domain=Domain.FULL_LINE),
    lambda: GridSpec(length=128, fs=10**400, domain=Domain.FULL_LINE),
    lambda: erb_bank(Explicit({0.5: 1})),
    lambda: erb_bank(Explicit({"3": 1})),
    lambda: erb_bank(Explicit({3: float("nan")})),
    lambda: erb_bank(Explicit({3: float("inf")})),
    lambda: erb_bank(Explicit({3: "2"})),
    lambda: erb_bank(Natural(a_tilde="x")),
    lambda: with_scaled_factors(erb_bank(Painless()), float("nan")),
    lambda: with_scaled_factors(erb_bank(Painless()), True),
], ids=["length str", "length bool", "length fraction", "fs str", "fs past float range",
        "channel fraction", "channel str", "factor nan", "factor inf", "factor str",
        "a_tilde str", "scale nan", "scale bool"])
def test_malformed_library_inputs_raise_invalid_parameter(make):
    with pytest.raises(InvalidParameter):
        make()


def cli_design(*argv):
    args = cli.build_parser().parse_args(["design", *argv, "--L", "64", "--fs", "8000"])
    return args.func(args)


@pytest.mark.parametrize("make,message", [
    pytest.param(lambda: make_warping(3), "unknown warping family", id="family int"),
    pytest.param(lambda: make_warping(None), "unknown warping family", id="family None"),
    pytest.param(lambda: make_warping("log", c="x"), "c must be a number", id="c str"),
    pytest.param(lambda: make_warping("log", c=[1]), "c must be a number", id="c list"),
    pytest.param(lambda: make_warping("sympow", l="a"), "l must be a number", id="l str"),
    pytest.param(lambda: named_window(3, 3.0), "unknown window", id="window name int"),
    pytest.param(lambda: named_window("hann", "x"), "stretch must be a number",
                 id="named stretch str"),
    pytest.param(lambda: CosineSumWindow(("a",), 3.0), "coefficient must be a number",
                 id="coefficient str"),
    pytest.param(lambda: CosineSumWindow((0.5, 0.5), "x"), "stretch must be a number",
                 id="cosine stretch str"),
    pytest.param(lambda: CosineSumWindow((0.5, 0.5), "3"), "stretch must be a number",
                 id="cosine stretch numeric str"),
    pytest.param(lambda: BSplineWindow(2, "x"), "stretch must be a number",
                 id="bspline stretch str"),
    pytest.param(lambda: CosineSumWindow(3, 3.0), "nonempty finite sequence",
                 id="coefficients int"),
    pytest.param(lambda: design_tight(*erb_grid(256), window=3), "nonempty finite sequence",
                 id="design window int"),
    pytest.param(lambda: design_tight(*erb_grid(256), stretch="x"), "stretch must be a number",
                 id="design stretch str"),
    pytest.param(lambda: erb_bank("painless"), "unknown factor policy", id="policy str"),
    pytest.param(lambda: erb_bank(Explicit([1, 2])), "must map channel indices",
                 id="explicit list"),
    pytest.param(lambda: erb_bank(Explicit(5)), "must map channel indices", id="explicit int"),
    pytest.param(lambda: erb_bank(Explicit({1, 2})), "must map channel indices",
                 id="explicit set"),
    *[pytest.param(lambda window=window: build_bank(*erb_grid(256), window, Painless()),
                   "window must be", id=f"window {name}")
      for name, window in [("None", None), ("name", "hann"), ("object", object()),
                           ("function", lambda t: np.cos(t) ** 2)]],
    pytest.param(lambda: build_bank(None, HANN, erb_grid(256)[1], Painless()),
                 "warping must be", id="warping None"),
    pytest.param(lambda: build_bank(erb_grid(256)[0], HANN, None, Painless()),
                 "grid must be", id="grid None"),
    *[pytest.param(lambda scales=scales: tightness_sweep(erb_bank(Painless()), scales),
                   "scale", id=f"sweep {name}")
      for name, scales in [("fraction", [2.5]), ("str", ["a"]), ("None", [None]), ("bare", 2)]],
    # the empty entry is skipped, so the error is the one about the exponent
    pytest.param(lambda: cli_design("--warp", "erb", "--warp-params", "c=9.265,,d=228.8,l=0.5"),
                 "does not take an exponent", id="warp-params empty entry"),
])
def test_malformed_constructor_inputs_raise_invalid_parameter(make, message):
    with pytest.raises(InvalidParameter, match=message):
        make()


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
        bank = build_bank(w, proto, grid, policy)
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
        build_bank(w, HANN, grid, Explicit({2**31 - 1: 1}))
    with pytest.raises(InvalidParameter, match="32-bit"):
        build_bank(w, HANN, grid, Explicit({-2**31: 1}))
    build_bank(w, HANN, grid, Explicit({2**31 - 2: 1}))
    full = GridSpec(length=256, fs=2.0, domain=Domain.FULL_LINE)
    build_bank(make_warping("signedpow", l=1.0), HANN, full, Explicit({2**31 - 1: 1}))


def test_channel_center_must_be_finite():
    w, grid = erb_grid(length=256)
    with pytest.raises(InvalidParameter, match="finite center"):
        build_bank(w, HANN, grid, Explicit({0: 1, 1_000_000: 1}))


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


@pytest.mark.parametrize("family,kw", [
    ("log", {}), ("sympow", {"l": 1.0}), ("sympow", {"l": 0.5}), ("erblike", {}),
    ("signedpow", {"l": 0.5}), ("signedpow", {"l": 1.0}),
    ("sympow", {"c": 0.1, "l": 0.25}), ("sympow", {"c": 1.0, "l": 0.1}),
    ("sympow", {"c": 0.5, "l": 0.3}),
])
def test_natural_default_respects_painless_bound(family, kw):
    # default a_tilde = painless bound at m = 0, which by moderateness
    # (w(m + x) <= v(m) w(x), see warping) keeps every channel painless
    w = make_warping(family, **kw)
    fs = 44100.0 if family == "erblike" else 2.0
    bank = build_bank(w, HANN, GridSpec(length=1024, fs=fs, domain=w.domain), Natural())
    assert bank.painless
    assert bank.policy_record["policy"] == "natural"
    ms = np.arange(-300, 301)
    with np.errstate(over="ignore"):
        finite = np.isfinite(w.f_inv(ms + HANN.support[0])) & np.isfinite(
            w.f_inv(ms + HANN.support[1]))
    nat = natural_factors(w, bank.policy_record["a_tilde"], ms[finite])
    cap = painless_factors(w, HANN.support, ms[finite])
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
    silent = CosineSumWindow((0.0, 0.0), 3.0)
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
    bank = build_bank(w, HANN, grid, Explicit({0: 1}))
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
    # sum_m N_m g_m conj(dual g_m) = 1 per bin, the dual's spectra being
    # the sampled ones times its weight
    length = grid.length
    acc = np.zeros(length)
    for ch in bank.channels:
        idx = np.arange(ch.start_bin, ch.start_bin + len(ch.response)) % length
        acc[idx] += (length / ch.a) * ch.response * ch.response * dual.weight[idx]
    np.testing.assert_allclose(acc, 1.0, atol=1e-12)
    np.testing.assert_allclose(dual.diagonal() * bank.diagonal(), 1.0, rtol=0, atol=1e-15)
    assert bank.weight is None
    np.testing.assert_allclose(painless_dual(dual).weight, 1.0, rtol=0, atol=1e-15)


def test_painless_dual_requires_painless():
    w, grid = erb_grid(length=512)
    bank = build_bank(w, HANN, grid, Painless())
    with pytest.raises(NotPainless):
        painless_dual(with_scaled_factors(bank, 4))


def test_painless_dual_requires_coverage():
    w, grid = erb_grid(length=512)
    bank = build_bank(w, HANN, grid, Painless())
    factors = {ch.m: ch.a for ch in bank.channels if abs(ch.m) > 2}
    gapped = build_bank(w, HANN, grid, Explicit(factors))
    assert np.min(gapped.diagonal()) == 0.0
    with pytest.raises(CoverageError):
        painless_dual(gapped)


@pytest.mark.parametrize("family,kw", [
    ("log", {}), ("sympow", {"l": 0.5}), ("erblike", {}), ("signedpow", {"l": 0.5}),
])
def test_design_tight_diagonal_is_one(family, kw, monkeypatch):
    w = make_warping(family, **kw)
    grid = GridSpec(length=1024, fs=2.0, domain=w.domain)
    with monkeypatch.context() as patch:  # tightness is derived, not checked on S
        patch.setattr(WarpedBank, "diagonal", lambda self: pytest.fail("diagonal computed"))
        bank = design_tight(w, grid, "hann", 3.0)
    assert bank.kind == "tight"
    assert bank.painless
    np.testing.assert_allclose(bank.diagonal(), 1.0, atol=1e-10)


TIGHTNESS_WINDOWS = {
    "hann": named_window("hann", 3.0),
    "blackman": named_window("blackman", 5.0),
    "boxcar R=1": named_window("boxcar", 1.0),  # unit sum though not normalized
    "hann R=2.5": named_window("hann", 2.5),
    "bspline2": named_window("bspline2", 2.0),
    "bspline3": named_window("bspline3", 3.0),
    **{f"normalized {name}": normalize_for_tightness(named_window(name, r))
       for name, r in (("hann", 3.0), ("hamming", 3.0), ("blackman", 5.0), ("boxcar", 2.0))},
}


@pytest.mark.parametrize("window", TIGHTNESS_WINDOWS.values(), ids=TIGHTNESS_WINDOWS.keys())
@pytest.mark.parametrize("family,kw,fs", [
    ("log", {}, 2.0), ("sympow", {"l": 0.5}, 2.0), ("erblike", {}, 44100.0),
    ("signedpow", {"l": 0.5}, 256.0),
])
def test_kind_is_tight_exactly_when_painless_with_unit_diagonal(family, kw, fs, window):
    w = make_warping(family, **kw)
    grid = GridSpec(length=360, fs=fs, domain=w.domain)
    base = build_bank(w, window, grid, Painless())
    factors = {ch.m: ch.a for ch in base.channels}
    ms = sorted(factors)
    tables = [{m: 1 for m in ms}, {**factors, ms[0] - 30: 1, ms[-1] + 30: 1}]
    tables += [{m: a for m, a in factors.items() if m != drop}
               for drop in (ms[0], ms[len(ms) // 2], ms[-1])]
    banks = [base, with_scaled_factors(base, 2)]
    banks += [build_bank(w, window, grid, Explicit(t)) for t in tables]
    for bank in banks:
        unit = np.max(np.abs(bank.diagonal() - 1.0)) <= 1e-8
        assert (bank.kind == "tight") == (bank.painless and unit)
    # both answers occur: a unit-sum window's painless design is tight
    unit_sum = window.constant_overlap and window.sum_of_squares_constant == pytest.approx(1.0)
    assert (base.kind == "tight") == unit_sum


def test_explicit_tables_are_taken_as_given(tmp_path, monkeypatch):
    # the erb c=d=1, L=512, fs=8000 tight design without its middle three
    # channels leaves bins uncovered; an explicit table is built, rescaled
    # and loaded as it is, with no diagonal computed
    w = make_warping("erb", c=1.0, d=1.0)
    grid = GridSpec(length=512, fs=8000.0, domain=w.domain)
    tight = design_tight(w, grid)
    mid = len(tight.channels) // 2
    table = {ch.m: ch.a for i, ch in enumerate(tight.channels) if abs(i - mid) > 1}
    spec = tmp_path / "gapped.json"
    with monkeypatch.context() as patch:
        patch.setattr(WarpedBank, "diagonal", lambda self: pytest.fail("diagonal computed"))
        gapped = build_bank(w, tight.window, grid, Explicit(table))
        scaled = with_scaled_factors(gapped, 2)
        save_bank_spec(gapped, spec)
        loaded = load_bank_spec(spec)
    assert gapped.diagonal().min() == 0.0 and scaled.diagonal().min() == 0.0
    assert loaded.fingerprint == gapped.fingerprint


def test_bins_warped_past_float_range_keep_a_bank_from_tight():
    # F overflows on every bin but DC: channels -1..1 hold DC, and no
    # channel's support holds an infinite warped bin
    w = make_warping("erblike", c=1e307, d=1e-300)
    grid = GridSpec(length=16, fs=16.0, domain=w.domain)
    unit = normalize_for_tightness(HANN)
    bank = build_bank(w, unit, grid, Explicit({-1: 1, 0: 1, 1: 1}))
    assert bank.painless and bank.diagonal().min() == 0.0
    assert bank.kind == "analysis"


def warped_bins(warping, grid):
    """F on the grid's active bins, evaluated as build_bank does: on the
    full line at the non-negative bins only, negated for the negative ones."""
    lo, hi = grid.signed_bin_range()
    if grid.domain is Domain.POSITIVE_HALF_LINE:
        return warping.f(np.arange(lo, hi + 1) * grid.bin_hz)
    warped = warping.f(np.arange(hi + 1) * grid.bin_hz)
    return np.concatenate((np.negative(warped[-2:0:-1]), warped))


@pytest.mark.parametrize("family,kw,fs", [
    ("log", {}, 2.0), ("sympow", {"l": 0.5}, 64.0), ("erblike", {}, 44100.0),
    ("erblike", {"c": 1.0, "d": 1.0}, 8000.0), ("signedpow", {"l": 0.5}, 256.0),
])
def test_channel_set_matches_a_brute_force_search(family, kw, fs):
    # every m whose support [c+m, d+m), open at c+m where theta vanishes
    # there, holds a warped bin, searched one m at a time
    w = make_warping(family, **kw)
    for length in (128, 360, 512):
        grid = GridSpec(length=length, fs=fs, domain=w.domain)
        warped = warped_bins(w, grid)
        for name, stretch in (("hann", 3.0), ("hann", 2.5), ("hamming", 3.0), ("boxcar", 2.0),
                              ("blackman", 5.0), ("bspline2", 1.5), ("bspline3", 3.0)):
            window = named_window(name, stretch)
            lo_s, hi_s = window.support
            above = np.greater if window.vanishes_at_edges else np.greater_equal
            candidates = range(int(np.floor(warped[0] - hi_s)) - 2,
                               int(np.floor(warped[-1] - lo_s)) + 3)
            want = [m for m in candidates
                    if np.any(above(warped, lo_s + m) & (warped < hi_s + m))]
            half = grid.domain is Domain.POSITIVE_HALF_LINE
            assert bank_mod._touching_channels(warped, window, half) == want, (length, name)


def test_each_channel_views_its_sampled_response_in_the_plan(plan_test_banks):
    # each response is a view of plan.response holding
    # theta(F(bins) - m) sqrt(a_m / L) bit for bit: on tight, scaled and
    # explicit banks, on a painless bank that is not tight, and on the
    # gapped bank, whose diagonal is not symmetric on its pairs' bins
    banks = []
    for args in (("log", {}, 2.0), ("sympow", {"l": 0.5}, 64.0), ("erblike", {}, 44100.0),
                 ("signedpow", {"l": 0.5, "c": 1.0, "d": 1.0}, 256.0)):
        banks += plan_test_banks(*args).values()
    w = make_warping("erblike")
    grid = GridSpec(length=512, fs=44100.0, domain=w.domain)
    factors = {ch.m: ch.a for ch in design_tight(w, grid).channels if ch.m != -10}
    gapped = build_bank(w, HANN, grid, Explicit(factors))
    edge = GridSpec(length=4096, fs=256.0, domain=Domain.FULL_LINE)
    banks += [gapped, build_bank(make_warping("signedpow", l=0.5), named_window("hamming", 3.0),
                                 edge, Painless())]
    for bank in banks:
        plan, length = bank.plan, bank.grid.length
        warped, (lo, _) = warped_bins(bank.warping, bank.grid), bank.grid.signed_bin_range()
        for ch, start, mate in zip(bank.channels, plan.offsets.tolist(), plan.partner.tolist()):
            size = len(ch.response)
            want = bank.window(warped[ch.start_bin - lo:ch.start_bin - lo + size] - ch.m)
            want *= np.sqrt(ch.a / length)
            view = plan.response[start:start + size]
            assert (view[::-1] if mate >= 0 else view).tobytes() == want.tobytes()
            assert ch.response.tobytes() == want.tobytes()
            assert size == 0 or np.shares_memory(ch.response, plan.response)
        n = len(bank.channels)
        assert np.all(plan.response[plan.offsets[n:n + len(bank.residuals)]] == 1.0)


def test_design_tight_accepts_raw_coefficients():
    w, grid = erb_grid(length=512)
    bank = design_tight(w, grid, window=(0.5, 0.5), stretch=3.0)
    np.testing.assert_allclose(bank.diagonal(), 1.0, atol=1e-12)


@pytest.mark.parametrize("window", [named_window("hamming", 3.0), named_window("bspline2", 3.0)],
                         ids=["cosine-sum", "bspline"])
def test_design_tight_refuses_a_window_instance(window):
    # a name or coefficients, stretched by ``stretch``; an instance carries
    # its own stretch, which the call's would contradict
    w, grid = erb_grid(length=512)
    with pytest.raises(InvalidParameter, match="nonempty finite sequence"):
        design_tight(w, grid, window=window, stretch=3.0)


def test_a_bank_is_known_by_its_geometry():
    # boxcar R=1 already has a unit squared-translate sum, so the tight
    # design and the painless build of the catalog window are one bank
    w, grid = erb_grid(length=512)
    designed = design_tight(w, grid, "boxcar", 1.0)
    built = build_bank(w, named_window("boxcar", 1.0), grid, Painless())
    assert designed.window == built.window and designed.kind == built.kind == "tight"
    assert designed.plan.response.tobytes() == built.plan.response.tobytes()
    assert designed.fingerprint == built.fingerprint
    f = np.random.default_rng(5).standard_normal(512)
    for one, other in ((designed, built), (built, designed)):
        rec = synthesize(analyze(f, one), other).samples
        assert np.linalg.norm(rec - f) <= 1e-10 * np.linalg.norm(f)


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
    # a dual's weight comes from its analysis bank's hops: scale that bank
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
    unit = build_bank(w, tight.window, grid, Explicit({ch.m: 1 for ch in tight.channels}))
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
        # the dual shares its analysis bank's plan and channels, and leaves
        # their responses alone; its weight is 1 / diagonal
        assert dual.plan is bank.plan and dual.channels is bank.channels
        assert [ch.response.tobytes() for ch in bank.channels] == before
        assert all(np.shares_memory(ch.response, bank.plan.response) for ch in bank.channels)
        assert dual.weight.tobytes() == (1.0 / bank.diagonal()).tobytes()
        assert (bank.plan.partner >= 0).any()
        # a dual survives its spec file bit for bit, and one loaded from it
        # shares the geometry of the analysis bank the loader built
        save_bank_spec(dual, tmp_path / "dual.json")
        analysis = []
        monkeypatch.setattr(specfile, "painless_dual",
                            lambda b: analysis.append(b) or painless_dual(b))
        loaded = load_bank_spec(tmp_path / "dual.json")
        monkeypatch.undo()
        assert loaded.kind == "dual" and loaded.fingerprint == dual.fingerprint
        assert loaded.weight.tobytes() == dual.weight.tobytes()
        for ch, dch in zip(loaded.channels, dual.channels):
            assert ch.response.tobytes() == dch.response.tobytes()
        assert loaded.plan is analysis[0].plan
        for name in GEOMETRY + ("response",):
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


@pytest.mark.parametrize("name", ["erblet_r3", "sqrtpow_r3", "sympow_r4_l05", "sympow_r4_l1"])
def test_bundled_spec_loads_alike_with_an_old_normalized_field(tmp_path, name):
    # the bundled specs are what save_bank_spec writes today; older files
    # also carry a prototype "normalized" flag, which loading ignores
    path = Path(__file__).resolve().parents[1] / "banks" / f"{name}.json"
    bank = load_bank_spec(path)
    save_bank_spec(bank, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    record = json.loads(path.read_text())
    for flag in (True, False):
        record["prototype"]["normalized"] = flag
        (tmp_path / "old.json").write_text(json.dumps(record, indent=2))
        old = load_bank_spec(tmp_path / "old.json")
        assert old.window == bank.window and old.fingerprint == bank.fingerprint
        assert old.kind == bank.kind
        assert old.plan.response.tobytes() == bank.plan.response.tobytes()


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
