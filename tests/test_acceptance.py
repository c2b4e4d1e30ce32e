"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion.  Stated runtime budgets are asserted alongside the
numerical tolerances.
"""

import math
from time import perf_counter

import numpy as np
import pytest

from warpbank import (Domain, GridSpec, Natural, Painless, analyze,
                      build_bank, check_moderate_inequality, design_tight,
                      diagonal_bounds, empirical_bounds, make_warping,
                      named_window, natural_factors, painless_dual,
                      painless_factors, sufficient_bounds, synthesize,
                      tightness_sweep, with_scaled_factors)
from warpbank.prototypes import sum_of_squares

HANN = named_window("hann", 3.0)

# representative parameters and grids per family, reused across criteria
SETUPS = [
    ("log", {}, 2.0),
    ("sympow", {"l": 1.0}, 8.0),
    ("erblike", {}, 44100.0),
    ("signedpow", {"l": 0.5, "c": 1.0, "d": 1.0}, 256.0),
]


def random_complex(length, rng):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


def test_criterion_1_cosine_sum_constancy():
    start = perf_counter()
    t = np.linspace(-8.0, 8.0, 10_000)

    hann = named_window("hann", 3.0)
    vals = sum_of_squares(hann, t)
    assert vals.max() - vals.min() <= 1e-12
    assert abs(vals.max() - 9.0 / 8.0) <= 1e-12
    assert abs(hann.sum_of_squares_constant - 9.0 / 8.0) <= 1e-12

    blackman = named_window("blackman", 5.0)
    assert tuple(blackman.coeffs) == (0.42, 0.5, 0.08)
    vals = sum_of_squares(blackman, t)
    assert vals.max() - vals.min() <= 1e-12
    assert abs(vals.max() - 1.523) <= 1e-12
    assert abs(blackman.sum_of_squares_constant - 1.523) <= 1e-12

    assert perf_counter() - start < 1.0


def test_criterion_2_painless_factor_tables():
    support = HANN.support  # (-3/2, 3/2)

    erb = make_warping("erblike", c=1.0, d=1.0)
    ms = np.arange(-10, 11)
    got = painless_factors(erb, support, ms)
    a0 = 1.0 / (2.0 * math.exp(1.5) - 2.0)
    assert abs(got[10] - a0) <= 1e-12 * a0
    for i, m in enumerate(ms):
        if abs(m) >= 2:
            want = math.exp(-abs(m)) / (math.exp(1.5) - math.exp(-1.5))
            assert abs(got[i] - want) <= 1e-12 * want

    spw = make_warping("signedpow", l=0.5, c=1.0, d=1.0)
    got = painless_factors(spw, support, ms)
    assert abs(got[10] - 2.0 / 21.0) <= 1e-12 * (2.0 / 21.0)
    for i, m in enumerate(ms):
        if abs(m) >= 2:
            want = 1.0 / (6.0 + 6.0 * abs(m))
            assert abs(got[i] - want) <= 1e-12 * want

    log = make_warping("log")
    ms = np.arange(-8, 9)
    for a_tilde in (0.25, 1.0, 3.5):
        got = natural_factors(log, a_tilde, ms)
        want = a_tilde * np.exp(-ms.astype(float))
        assert np.max(np.abs(got - want) / want) <= 1e-12


def test_criterion_3_perfect_reconstruction():
    start = perf_counter()
    rng = np.random.default_rng(42)
    for family, kw, fs in SETUPS:
        warping = make_warping(family, **kw)
        for length in (256, 1024, 4096):
            grid = GridSpec(length=length, fs=fs, domain=warping.domain)
            bank = build_bank(warping, HANN, grid, Painless())
            dual = painless_dual(bank)
            for _ in range(32):
                f = random_complex(length, rng)
                rec = synthesize(analyze(f, bank), dual).samples
                err = np.linalg.norm(rec - f) / np.linalg.norm(f)
                assert err <= 1e-10, (family, length, err)
    assert perf_counter() - start < 10.0


def test_criterion_4_tight_design():
    rng = np.random.default_rng(43)
    for family, kw, fs in SETUPS:
        warping = make_warping(family, **kw)
        grid = GridSpec(length=1024, fs=fs, domain=warping.domain)
        bank = design_tight(warping, grid, "hann", 3.0)
        a_emp, b_emp = empirical_bounds(bank)
        assert 1.0 - 1e-8 <= a_emp <= b_emp <= 1.0 + 1e-8
        signals = [random_complex(1024, rng) for _ in range(4)]
        signals.append(rng.standard_normal(1024))
        for f in signals:
            energy = float(np.linalg.norm(f) ** 2)
            assert abs(analyze(f, bank).energy - energy) <= 1e-9 * energy


def test_criterion_5_bound_sandwich():
    # doubled hops break painlessness; the cheap bounds must bracket the
    # empirical ones
    warping = make_warping("erblike")
    grid = GridSpec(length=1024, fs=44100.0, domain=warping.domain)
    tight = design_tight(warping, grid, "hann", 3.0)
    doubled = with_scaled_factors(tight, 2)
    assert not doubled.painless
    a_suff, b_suff = sufficient_bounds(doubled)
    a_emp, b_emp = empirical_bounds(doubled)
    assert a_suff > 0.0
    assert a_suff <= a_emp + 1e-7
    assert a_emp <= b_emp
    assert b_emp <= b_suff + 1e-7

    # with hops at or below the painless limit the overlap sums collapse
    # onto the diagonal extremes
    painless_setups = [
        ("erblike", {}, 1024, 44100.0),
        ("sympow", {"l": 1.0}, 1024, 8.0),
        ("signedpow", {"l": 0.5, "c": 1.0, "d": 1.0}, 2048, 256.0),
    ]
    for family, kw, length, fs in painless_setups:
        w = make_warping(family, **kw)
        bank = design_tight(w, GridSpec(length=length, fs=fs, domain=w.domain),
                            "hann", 3.0)
        assert bank.painless
        a_suff, b_suff = sufficient_bounds(bank)
        diag_inf, diag_sup = diagonal_bounds(bank)
        assert abs(a_suff - diag_inf) <= 1e-10
        assert abs(b_suff - diag_sup) <= 1e-10


def _dense_atom_spectra(bank):
    """Frequency-domain rows of every analysis atom, in coefficient order:
    channels, then mirror branches (half-line banks), then residuals."""
    length = bank.grid.length
    specs = []

    def add(indices, values, n_frames):
        for n in range(n_frames):
            spec = np.zeros(length, dtype=complex)
            np.add.at(spec, indices,
                      values * np.exp(-2j * np.pi * indices * n / n_frames))
            specs.append(spec)

    for ch in bank.channels:
        idx = (ch.start_bin + np.arange(len(ch.response))) % length
        add(idx, ch.response, ch.n_frames)
    if bank.grid.domain is Domain.POSITIVE_HALF_LINE:
        for ch in bank.channels:
            idx = (length - (ch.start_bin + np.arange(len(ch.response)))) % length
            add(idx, ch.response, ch.n_frames)
    for res in bank.residuals:
        add(np.array([res.bin_index]), np.array([1.0]), 1)
    return np.array(specs)


def test_criterion_6_dense_oracle():
    start = perf_counter()
    rng = np.random.default_rng(44)
    length = 128
    for family, kw, fs in [("log", {}, 2.0), ("erblike", {}, 44100.0)]:
        warping = make_warping(family, **kw)
        grid = GridSpec(length=length, fs=fs, domain=warping.domain)
        bank = build_bank(warping, HANN, grid, Painless())
        atoms = _dense_atom_spectra(bank)

        for _ in range(4):
            f = random_complex(length, rng)
            f /= np.linalg.norm(f)
            fhat = np.fft.fft(f) / math.sqrt(length)
            oracle = atoms.conj() @ fhat
            coeffs = analyze(f, bank)
            flat = [c for frames in coeffs.channels for c in frames]
            if coeffs.mirrors is not None:
                flat += [c for frames in coeffs.mirrors for c in frames]
            flat += [frames[0] for frames in coeffs.residuals]
            assert np.max(np.abs(np.asarray(flat) - oracle)) <= 1e-11

        doubled = with_scaled_factors(bank, 2)
        assert not doubled.painless
        spectrum = np.linalg.eigvalsh(
            _dense_atom_spectra(doubled).T @ _dense_atom_spectra(doubled).conj())
        a_emp, b_emp = empirical_bounds(doubled)
        assert abs(a_emp - spectrum[0]) <= 1e-7
        assert abs(b_emp - spectrum[-1]) <= 1e-7
    assert perf_counter() - start < 30.0


def test_criterion_7_property_sweeps():
    start = perf_counter()
    for family, kw, fs in SETUPS:
        warping = make_warping(family, **kw)
        if warping.domain is Domain.POSITIVE_HALF_LINE:
            freqs = np.geomspace(fs / 4096, fs / 2, 200)
        else:
            freqs = np.linspace(-fs / 2, fs / 2, 201)
            np.testing.assert_allclose(warping.f(-freqs), -warping.f(freqs),
                                       atol=1e-12)
        # round trip and monotonicity
        warped = warping.f(freqs)
        assert np.all(np.diff(warped) > 0)
        np.testing.assert_allclose(warping.f_inv(warped), freqs,
                                   rtol=1e-9, atol=1e-12 * fs)
        # the derivative weight really inverts the slope
        np.testing.assert_allclose(
            warping.weight(warped) * warping.f_deriv(freqs), 1.0, rtol=1e-9)

        # moderateness inequality sweep
        xs = np.linspace(0.0, 30.0, 41)[:, None]
        ys = freqs[None, ::10]
        assert check_moderate_inequality(warping, xs, ys)

        # natural factors with the default step never exceed the painless
        # limit
        ms = np.arange(-40, 41)
        limit = painless_factors(warping, HANN.support, ms)
        nat = natural_factors(warping, float(limit[40]), ms)
        assert np.all(nat <= limit * (1.0 + 1e-12))

    # tightness only degrades as hops grow
    w = make_warping("erblike")
    bank = design_tight(w, GridSpec(length=256, fs=44100.0, domain=w.domain),
                        "hann", 3.0)
    rows = tightness_sweep(bank, scales=(1, 2, 4))
    ratios = [r for _, r in rows]
    assert abs(ratios[0] - 1.0) <= 1e-8
    assert ratios[0] <= ratios[1] <= ratios[2]
    assert perf_counter() - start < 60.0


def test_criterion_8_excluded_asymptotics():
    pytest.skip(
        "asymptotic existence results (frames for all sufficiently small "
        "natural steps on the whole real line) and the continuous-domain "
        "integrability statements have no finite-grid oracle; the finite "
        "sweeps of criterion 7 and the dense oracle of criterion 6 stand in "
        "for them"
    )
