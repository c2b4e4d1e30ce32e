import math
from pathlib import Path

import numpy as np
import pytest

from warpbank import (Explicit, GridSpec, Natural, Painless, build_bank,
                      design_tight, diagnostics, diagonal_bounds,
                      empirical_bounds, format_report, frame_report,
                      load_bank_spec, make_warping, named_window,
                      sufficient_bounds, tightness_sweep, with_scaled_factors)

HANN = named_window("hann", 3.0)


@pytest.fixture(scope="module")
def erb_tight():
    w = make_warping("erblike")
    grid = GridSpec(length=1024, fs=44100.0, domain=w.domain)
    return design_tight(w, grid, "hann", 3.0)


@pytest.fixture(scope="module")
def erb_doubled(erb_tight):
    return with_scaled_factors(erb_tight, 2)


@pytest.fixture(scope="module")
def gapped_bank():
    w = make_warping("erblike")
    grid = GridSpec(length=1024, fs=44100.0, domain=w.domain)
    base = build_bank(w, HANN, grid, Painless())
    factors = {ch.m: ch.a for ch in base.channels if abs(ch.m) > 2}
    return build_bank(w, HANN, grid, Explicit(factors), check_coverage=False)


def test_diagonal_bounds_tight(erb_tight):
    lo, hi = diagonal_bounds(erb_tight)
    assert abs(lo - 1.0) <= 1e-12 and abs(hi - 1.0) <= 1e-12


def test_diagonal_bounds_unnormalized_full_line():
    w = make_warping("erblike")
    grid = GridSpec(length=1024, fs=44100.0, domain=w.domain)
    bank = build_bank(w, HANN, grid, Painless())
    lo, hi = diagonal_bounds(bank)
    assert hi - lo <= 1e-12
    assert abs(lo - 9.0 / 8.0) <= 1e-12


def test_diagonal_bounds_half_line_residuals_pin_one():
    w = make_warping("log")
    grid = GridSpec(length=1024, fs=2.0, domain=w.domain)
    bank = build_bank(w, HANN, grid, Painless())
    lo, hi = diagonal_bounds(bank)
    assert lo == 1.0  # residual bins contribute exactly one
    assert abs(hi - 9.0 / 8.0) <= 1e-12


def test_sufficient_bounds_collapse_to_diagonal_when_painless(erb_tight):
    a_suff, b_suff = sufficient_bounds(erb_tight)
    lo, hi = diagonal_bounds(erb_tight)
    assert abs(a_suff - lo) <= 1e-10
    assert abs(b_suff - hi) <= 1e-10


def test_sufficient_bounds_sandwich_empirical(erb_doubled):
    assert not erb_doubled.painless
    a_suff, b_suff = sufficient_bounds(erb_doubled)
    a_emp, b_emp = empirical_bounds(erb_doubled)
    assert 0.0 < a_suff <= a_emp + 1e-12
    assert a_emp <= b_emp
    assert b_emp <= b_suff + 1e-12
    assert a_emp < 1.0 - 1e-3 < 1.0 + 1e-3 < b_emp


def test_sufficient_bounds_stop_at_the_grid_edge():
    # channels +-4 and +-5 of this bank have a_m = 1 and supports wider
    # than fs; their shifted copies fall outside the grid and overlap
    # nothing, so the bounds collapse onto the diagonal
    bank = load_bank_spec(Path(__file__).resolve().parents[1] / "banks" / "erblet_r3.json")
    a_suff, b_suff = sufficient_bounds(bank)
    lo, hi = diagonal_bounds(bank)
    assert abs(a_suff - lo) <= 1e-10
    assert abs(b_suff - hi) <= 1e-10


def test_sufficient_bounds_finish_for_channels_far_beyond_the_grid():
    # warped supports of e^40 Hz and more: the shift loop stops at the band
    w = make_warping("log")
    grid = GridSpec(length=64, fs=2.0, domain=w.domain)
    bank = build_bank(w, HANN, grid, Explicit({40: 4, 41: 1}), check_coverage=False)
    assert sufficient_bounds(bank) == (0.0, 1.0)


FAMILIES = [
    ("log", {}, 2.0), ("sympow", {"l": 1.0}, 8.0), ("erblike", {}, 44100.0),
    ("signedpow", {"l": 0.5, "c": 1.0, "d": 1.0}, 256.0),
]


def test_sufficient_bounds_enclose_dense_spectrum(dense_atoms, plan_test_banks):
    banks = []
    for family, kw, fs in FAMILIES:
        banks += plan_test_banks(family, kw, fs).values()
        w = make_warping(family, **kw)
        grid = GridSpec(length=128, fs=fs, domain=w.domain)
        banks.append(build_bank(w, HANN, grid, Natural(), check_coverage=False))
    w = make_warping("erblike", c=1.0, d=1.0)
    tight = design_tight(w, GridSpec(length=128, fs=256.0, domain=w.domain),
                         "hann", 3.0)
    doubled, quadrupled = (with_scaled_factors(tight, s) for s in (2, 4))
    for bank in banks + [doubled, quadrupled]:
        atoms = dense_atoms(bank)
        spectrum = np.linalg.eigvalsh(atoms.T @ atoms.conj())
        a_suff, b_suff = sufficient_bounds(bank)
        slack = 1e-12 * b_suff
        assert a_suff - slack <= spectrum[0] <= spectrum[-1] <= b_suff + slack
        if bank.painless:
            np.testing.assert_allclose((a_suff, b_suff), diagonal_bounds(bank),
                                       rtol=1e-14, atol=0)
    for bank in (doubled, quadrupled):
        assert not bank.painless
        assert 0.0 < sufficient_bounds(bank)[0]


def test_sufficient_bounds_need_no_continuous_evaluator(erb_tight, monkeypatch):
    want = sufficient_bounds(with_scaled_factors(erb_tight, 2))
    bank = with_scaled_factors(erb_tight, 2)

    def broken(*args):
        raise AssertionError("continuous evaluator called")

    monkeypatch.setattr(type(bank.window), "__call__", broken)
    for name in ("f", "f_inv"):
        monkeypatch.setattr(type(bank.warping), name, broken)
    assert sufficient_bounds(bank) == want


def test_empirical_bounds_painless_fast_path(erb_tight):
    assert empirical_bounds(erb_tight) == diagonal_bounds(erb_tight)


@pytest.mark.parametrize("family,kw,fs", FAMILIES)
def test_empirical_bounds_match_dense_spectrum(family, kw, fs, dense_atoms,
                                               plan_test_banks):
    for name, bank in plan_test_banks(family, kw, fs).items():
        atoms = dense_atoms(bank)
        spectrum = np.linalg.eigvalsh(atoms.T @ atoms.conj())
        a_emp, b_emp = empirical_bounds(bank)
        if bank.painless:
            assert (a_emp, b_emp) == diagonal_bounds(bank)
        scale = 1e-12 * spectrum[-1]
        assert abs(a_emp - spectrum[0]) <= scale, name
        assert abs(b_emp - spectrum[-1]) <= scale, name


def test_frame_report_tight(erb_tight):
    rep = frame_report(erb_tight)
    assert rep.painless and all(rep.channel_painless)
    assert rep.conclusive
    assert rep.bounds_method == "diagonal (painless, exact)"
    assert rep.warnings == []
    assert abs(rep.a_emp - 1.0) <= 1e-8 and abs(rep.b_emp - 1.0) <= 1e-8
    assert abs(rep.tightness_ratio - 1.0) <= 1e-8
    assert abs(rep.a_suff - 1.0) <= 1e-10


def test_frame_report_flags_coverage_hole(gapped_bank):
    rep = frame_report(gapped_bank)
    assert rep.diag_inf == 0.0
    assert not rep.conclusive
    assert rep.tightness_ratio == math.inf
    assert any("coverage" in w for w in rep.warnings)
    assert any("inconclusive" in w for w in rep.warnings)


def test_frame_report_collects_convergence_and_painless_notes(erb_doubled,
                                                             monkeypatch):
    monkeypatch.setattr(diagnostics, "LANCZOS_MAX_STEPS", 8)
    rep = frame_report(erb_doubled)
    assert not rep.painless
    assert rep.bounds_method == "lanczos (residual bound 1e-13 of B_emp)"
    assert f"bounds_method: {rep.bounds_method}\n" in format_report(rep)
    assert any("did not converge within 8 steps" in w for w in rep.warnings)
    assert any("non-painless" in w for w in rep.warnings)


def test_tightness_sweep_degrades_monotonically(erb_tight):
    rows = tightness_sweep(erb_tight, scales=(1, 2, 4))
    assert [s for s, _ in rows] == [1, 2, 4]
    ratios = [r for _, r in rows]
    assert abs(ratios[0] - 1.0) <= 1e-8
    assert ratios[0] <= ratios[1] <= ratios[2]
    assert ratios[1] > 1.0 + 1e-3


def test_format_report_round_trip(erb_tight, gapped_bank):
    text = format_report(frame_report(erb_tight))
    assert "painless: true" in text
    assert "warnings: none" in text
    assert "tightness_ratio: 1" in text
    assert "bounds_method: diagonal (painless, exact)\n" in text

    text = format_report(frame_report(gapped_bank))
    assert "(inconclusive)" in text
    assert "warnings:\n" in text
    assert "  - " in text
