import itertools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from warpbank import (Explicit, GridSpec, Natural, NoConvergence, Painless, WarpedBank,
                      build_bank, cli, design_tight, diagnostics, diagonal_bounds,
                      empirical_bounds, format_report, frame_report,
                      load_bank_spec, make_warping, named_window,
                      painless_dual, save_bank_spec, sufficient_bounds,
                      tightness_sweep, transform, with_scaled_factors)

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
def erb_quadrupled(erb_tight):
    # one component of the aliasing graph holds all 1024 bins: Lanczos
    return with_scaled_factors(erb_tight, 4)


@pytest.fixture(scope="module")
def gapped_bank():
    w = make_warping("erblike")
    grid = GridSpec(length=1024, fs=44100.0, domain=w.domain)
    base = build_bank(w, HANN, grid, Painless())
    factors = {ch.m: ch.a for ch in base.channels if abs(ch.m) > 2}
    return build_bank(w, HANN, grid, Explicit(factors))


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
    # warped supports of e^40 Hz and more: neither channel holds a bin
    w = make_warping("log")
    grid = GridSpec(length=64, fs=2.0, domain=w.domain)
    bank = build_bank(w, HANN, grid, Explicit({40: 4, 41: 1}))
    assert sufficient_bounds(bank) == (0.0, 1.0)


def test_sufficient_bounds_of_painless_banks_are_the_diagonal_without_a_pass(
        erb_tight, monkeypatch):
    w = make_warping("erblike")
    grid = GridSpec(length=1024, fs=44100.0, domain=w.domain)
    untight = build_bank(w, HANN, grid, Painless())
    w = make_warping("log")
    far = build_bank(w, HANN, GridSpec(length=64, fs=2.0, domain=w.domain),
                     Explicit({40: 4, 41: 1}))

    def broken(*args):
        raise AssertionError("Walnut pass run on a painless bank")

    monkeypatch.setattr(WarpedBank, "walnut", broken)
    for bank in (erb_tight, painless_dual(erb_tight), untight, far):
        assert bank.painless
        assert sufficient_bounds(bank) == diagonal_bounds(bank)
    assert diagonal_bounds(untight)[0] > 1.0 + 1e-3  # not tight
    assert sufficient_bounds(far) == (0.0, 1.0)


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
        banks.append(build_bank(w, HANN, grid, Natural()))
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


def test_empirical_bounds_painless_fast_path(erb_tight, gapped_bank, monkeypatch):
    # a painless bank's components are its bins: no label pass runs
    def broken(*args):
        raise AssertionError("label pass run on a painless bank")

    monkeypatch.setattr(WarpedBank, "components", broken)
    for bank in (erb_tight, painless_dual(erb_tight), gapped_bank):
        assert bank.painless
        assert empirical_bounds(bank) == diagonal_bounds(bank)
        assert frame_report(bank).bounds_method == "diagonal (painless, exact)"


@pytest.mark.parametrize("family,kw,fs", FAMILIES)
def test_empirical_bounds_match_dense_spectrum(family, kw, fs, dense_atoms,
                                               plan_test_banks):
    for name, bank in plan_test_banks(family, kw, fs).items():
        atoms = dense_atoms(bank)
        spectrum = np.linalg.eigvalsh(atoms.T @ atoms.conj())
        a_emp, b_emp = empirical_bounds(bank)
        if bank.painless:
            assert (a_emp, b_emp) == diagonal_bounds(bank)
        scale = 1e-13 * spectrum[-1]
        assert abs(a_emp - spectrum[0]) <= scale, name
        assert abs(b_emp - spectrum[-1]) <= scale, name


# two rates per family: erblike at 44.1 kHz pairs channel -m with m on the full line
PROPERTY_DESIGNS = [
    ("log", {}, 2.0), ("log", {}, 8.0), ("erblike", {}, 44100.0),
    ("erblike", {"c": 1.0, "d": 1.0}, 256.0), ("sympow", {"l": 0.5}, 64.0),
    ("sympow", {"l": 1.0}, 8.0), ("signedpow", {"l": 0.5, "c": 1.0, "d": 1.0}, 256.0),
    ("signedpow", {"l": 0.5}, 16.0),
]


@settings(derandomize=True, database=None, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(design=st.sampled_from(PROPERTY_DESIGNS), half_length=st.integers(2, 128),
       scale=st.sampled_from([1, 2, 4, 8]))
def test_block_bounds_are_the_dense_spectrum(design, half_length, scale, dense_atoms):
    # exact blocks, counting and Lanczos on what is left against eigvalsh
    # of the dense atoms; a component with fewer slots than bins is
    # singular, and so is the whole frame operator then
    family, kw, fs = design
    w = make_warping(family, **kw)
    tight = design_tight(w, GridSpec(length=2 * half_length, fs=fs, domain=w.domain),
                         "hann", 3.0)
    bank = with_scaled_factors(tight, scale)
    atoms = dense_atoms(bank)
    spectrum = np.linalg.eigvalsh(atoms.T @ atoms.conj())
    a_emp, b_emp = empirical_bounds(bank)
    slack = 1e-12 * spectrum[-1]
    assert abs(a_emp - spectrum[0]) <= slack and abs(b_emp - spectrum[-1]) <= slack
    if not bank.painless:
        labels, slots = bank.components()
        if np.any(slots < np.bincount(labels)):
            assert a_emp == 0.0 and spectrum[0] <= 1e-13 * spectrum[-1]


def test_lanczos_runs_without_the_time_domain_frame_operator(erb_tight, dense_atoms,
                                                            monkeypatch):
    def broken(*args):
        raise AssertionError("apply_frame_operator called")

    monkeypatch.setattr(transform, "apply_frame_operator", broken)
    # also where a name imported into diagnostics would be looked up
    monkeypatch.setattr(diagnostics, "apply_frame_operator", broken, raising=False)
    for scale in (2, 4):
        bank = with_scaled_factors(erb_tight, scale)
        atoms = dense_atoms(bank)
        lo, hi = np.linalg.eigvalsh(atoms.T @ atoms.conj())[[0, -1]]
        slack = 1e-12 * hi
        a_emp, b_emp = empirical_bounds(bank)
        assert abs(a_emp - lo) <= slack and abs(b_emp - hi) <= slack
        # the ratio that bounds within the slack of both ends allow
        [(swept, ratio)] = tightness_sweep(erb_tight, scales=(scale,))
        assert swept == scale
        assert abs(ratio - hi / lo) <= slack * (lo + hi) / (lo * (lo - slack))


def walnut_operator(bank):
    return lambda v: bank.walnut(v, bank.plan.response)


def test_lanczos_kernel_tridiagonalizes_the_frame_operator(erb_quadrupled, dense_atoms):
    # 12 of the 144 steps this connected bank takes to converge, against
    # the dense frame operator in the unitary-DFT domain, which is real:
    # the run starts from a real vector and stays real
    bank = erb_quadrupled
    atoms, length = dense_atoms(bank), bank.grid.length
    dft = np.fft.fft(np.eye(length)) / np.sqrt(length)
    frame_op = dft @ (atoms.T @ atoms.conj()) @ dft.conj().T
    upper = np.linalg.eigvalsh(frame_op)[-1]
    assert np.abs(frame_op.imag).max() <= 1e-13 * upper
    start = np.random.default_rng(24).standard_normal(length)
    steps = itertools.islice(
        diagnostics._lanczos(walnut_operator(bank), start / np.linalg.norm(start)), 12)
    alphas, betas, vectors = (np.array(column) for column in zip(*steps))
    basis = vectors.T
    assert basis.shape == (length, 12) and basis.dtype == np.float64
    assert np.all(betas > 0.0)
    np.testing.assert_allclose(basis.T @ basis, np.eye(12), rtol=0, atol=1e-12)
    tridiagonal = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
    np.testing.assert_allclose(basis.T @ frame_op.real @ basis, tridiagonal,
                               rtol=0, atol=1e-12 * upper)


def test_diagnostics_run_the_walnut_form_on_real_vectors(erb_doubled, erb_quadrupled,
                                                        monkeypatch):
    # S is real on the DFT grid, so the Gershgorin pass and every Lanczos
    # step apply it to float64 vectors and get float64 vectors back; the
    # dense blocks of the hop-doubled bank take no apply at all
    walnut, dtypes = WarpedBank.walnut, []

    def recording(bank, fhat, response):
        out = walnut(bank, fhat, response)
        dtypes.extend((fhat.dtype, out.dtype))
        return out

    monkeypatch.setattr(WarpedBank, "walnut", recording)
    for bounds, bank in ((sufficient_bounds, erb_doubled), (sufficient_bounds, erb_quadrupled),
                         (empirical_bounds, erb_quadrupled)):
        dtypes.clear()
        bounds(bank)
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}, bounds.__name__
    dtypes.clear()
    empirical_bounds(erb_doubled)
    assert dtypes == []


def test_lanczos_kernel_stops_on_an_eigenvector():
    # a painless S is diagonal on the DFT bins, so one bin's unit vector
    # spans an invariant Krylov space: one step, beta_1 = 0, then the end
    w = make_warping("erblike")
    bank = build_bank(w, HANN, GridSpec(length=1024, fs=44100.0, domain=w.domain), Painless())
    assert bank.painless
    for bin_index in (0, 5, 512, 1000):
        unit = np.zeros(1024)
        unit[bin_index] = 1.0
        [(alpha, beta, q)] = diagnostics._lanczos(walnut_operator(bank), unit)
        assert beta == 0.0 and q is unit
        assert abs(alpha - bank.diagonal()[bin_index]) <= 1e-14


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


def test_frame_report_collects_convergence_and_painless_notes(erb_tight, erb_quadrupled,
                                                             tmp_path, capsys, monkeypatch):
    # the connected bank takes 144 Lanczos steps; a cap of 8 stops it
    tight, quadrupled = erb_tight, erb_quadrupled
    split = "blocks (components 1, largest 1024 bins, lanczos bins 1024): "
    monkeypatch.setattr(diagnostics, "LANCZOS_MAX_STEPS", 8)
    with pytest.warns(NoConvergence, match=r"within 8 steps; residual bound \d\.\d{3}e-\d\d$"):
        empirical_bounds(quadrupled)
    rep = frame_report(quadrupled)
    assert not rep.painless
    assert rep.bounds_method == split + "lanczos stopped at its cap of 8 steps"
    assert f"bounds_method: {rep.bounds_method}\n" in format_report(rep)
    [note] = [w for w in rep.warnings if "did not converge within 8 steps" in w]
    assert any("non-painless" in w for w in rep.warnings)
    # a swept row whose run hit the cap carries the note; nothing reaches stderr
    spec = tmp_path / "tight.json"
    save_bank_spec(tight, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NoConvergence)  # an escaping warning fails the run
        assert cli.main(["diagnose", "--bank", str(spec), "--sweep-a", "1,4"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = out.split("sweep:\n")[1].splitlines()
    assert rows[0] == "  a_m x1: tightness_ratio 1"
    assert rows[1].startswith("  a_m x4: tightness_ratio ") and rows[1].endswith(f"  ({note})")
    monkeypatch.undo()
    rep = frame_report(quadrupled)
    assert rep.bounds_method == split + "lanczos residual bound 1e-13 of B_emp"
    assert not any("converge" in w for w in rep.warnings)


def test_sweep_reads_its_unit_row_off_the_report(erb_quadrupled, tmp_path, capsys,
                                                 monkeypatch):
    # the x1 row is the report's own Lanczos run, step-cap note included:
    # the bank's Lanczos runs once for the report and once per other scale
    # (x2 of this bank is hops x8, also one component)
    spec = tmp_path / "quadrupled.json"
    save_bank_spec(erb_quadrupled, spec)
    calls, bounds = [], diagnostics.empirical_bounds

    def counted(bank):
        calls.append(bank.fingerprint)
        return bounds(bank)

    monkeypatch.setattr(diagnostics, "empirical_bounds", counted)
    assert cli.main(["diagnose", "--bank", str(spec), "--sweep-a", "1"]) == 0
    out = capsys.readouterr().out
    ratio = re.search(r"\ntightness_ratio: (\S+)\n", out).group(1)
    assert out.endswith(f"sweep:\n  a_m x1: tightness_ratio {ratio}\n") and len(calls) == 1
    monkeypatch.setattr(diagnostics, "LANCZOS_MAX_STEPS", 8)
    calls.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error", NoConvergence)  # an escaping warning fails the run
        assert cli.main(["diagnose", "--bank", str(spec), "--sweep-a", "1,2"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and len(calls) == len(set(calls)) == 2  # the bank, then its x2
    [note] = [line[4:] for line in out.splitlines()
              if line.startswith("  - ") and "did not converge within 8 steps" in line]
    rows = out.split("sweep:\n")[1].splitlines()
    ratio = re.search(r"\ntightness_ratio: (\S+)\n", out).group(1)
    assert rows[0] == f"  a_m x1: tightness_ratio {ratio}  ({note})"
    assert rows[1].startswith("  a_m x2: tightness_ratio ") and "did not converge" in rows[1]


@pytest.mark.parametrize("family,kw,fs", [
    ("log", {}, 2.0), ("erblike", {}, 44100.0), ("sympow", {"l": 0.5}, 64.0),
    ("erblike", {"c": 1.0, "d": 1.0}, 256.0),
])
def test_singular_bank_is_not_called_a_frame(family, kw, fs, dense_atoms, tmp_path, capsys,
                                             monkeypatch):
    # every hop x8: some component of the aliasing graph has fewer slots
    # than bins, so counting alone gives A_emp = 0, with no Lanczos step
    def broken(*args):
        raise AssertionError("Lanczos run on a bank whose blocks are all dense")

    monkeypatch.setattr(diagnostics, "_lanczos", broken)
    w = make_warping(family, **kw)
    tight = design_tight(w, GridSpec(length=128, fs=fs, domain=w.domain), "hann", 3.0)
    bank = with_scaled_factors(tight, 8)
    labels, slots = bank.components()
    assert np.any(slots < np.bincount(labels))
    atoms = dense_atoms(bank)
    spectrum = np.linalg.eigvalsh(atoms.T @ atoms.conj())
    assert spectrum[0] <= 1e-13 * spectrum[-1]
    a_raw, b_raw = empirical_bounds(bank)
    assert a_raw == 0.0 and abs(b_raw - spectrum[-1]) <= 1e-13 * spectrum[-1]
    rep = frame_report(bank)
    assert (rep.a_emp, rep.b_emp, rep.tightness_ratio) == (0.0, b_raw, math.inf)
    assert rep.bounds_method.endswith("lanczos bins 0): exact")
    assert "not a frame to working precision" in rep.warnings
    assert any(w.startswith("singular by counting: ") for w in rep.warnings)
    assert "\nA_emp: 0  (not a frame to working precision)\n" in format_report(rep)
    assert tightness_sweep(tight, scales=(1, 8))[1] == (8, math.inf)
    spec = tmp_path / "tight.json"
    save_bank_spec(tight, spec)
    assert cli.main(["diagnose", "--bank", str(spec), "--sweep-a", "1,8"]) == 0
    assert "  a_m x8: tightness_ratio inf\n" in capsys.readouterr().out


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
