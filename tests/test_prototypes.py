import numpy as np
import pytest

from warpbank import (BSplineWindow, CosineSumWindow, DegenerateWindow, GridSpec,
                      InvalidParameter, Painless, build_bank, design_tight,
                      make_cosine_window, make_warping, named_window,
                      normalize_for_tightness, sum_of_squares)
from warpbank.prototypes import WINDOW_COEFFS


def test_catalog_coefficients():
    assert named_window("hann", 3.0).coeffs == (0.5, 0.5)
    assert named_window("hamming", 3.0).coeffs == (0.54, 0.46)
    assert named_window("blackman", 5.0).coeffs == (0.42, 0.5, 0.08)
    assert named_window("boxcar", 1.0).coeffs == (1.0,)
    assert isinstance(named_window("bspline2", 3.0), BSplineWindow)
    assert named_window("bspline3", 4.0).order == 3
    with pytest.raises(InvalidParameter):
        named_window("kaiser", 3.0)


@pytest.mark.parametrize("name,stretch,expected", [
    ("hann", 3.0, 9.0 / 8.0),
    ("hann", 4.0, 3.0 / 2.0),
    ("hamming", 3.0, 3.0 * (0.54**2 + 0.5 * 0.46**2)),
    ("blackman", 5.0, 5.0 * (0.42**2 + 0.5 * (0.5**2 + 0.08**2))),
    ("boxcar", 1.0, 1.0),
])
def test_squared_translates_sum_to_constant(name, stretch, expected):
    win = named_window(name, stretch)
    t = np.linspace(-4.0, 4.0, 10_001)
    total = sum_of_squares(win, t)
    assert win.constant_overlap
    assert abs(win.sum_of_squares_constant - expected) <= 1e-14
    assert np.max(np.abs(total - expected)) <= 1e-12


def test_constancy_fails_for_fractional_stretch():
    # the closed-form constant only describes integer stretches; at
    # R = 2.5 the translated sum genuinely oscillates
    win = make_cosine_window((0.5, 0.5), 2.5)
    assert not win.constant_overlap
    t = np.linspace(-3.0, 3.0, 4001)
    total = sum_of_squares(win, t)
    assert np.max(total) - np.min(total) > 0.05
    with pytest.raises(InvalidParameter):
        normalize_for_tightness(win)


def test_stretch_must_clear_twice_the_order():
    with pytest.raises(InvalidParameter):
        make_cosine_window((0.5, 0.5), 2.0)  # K=1 needs R > 2
    with pytest.raises(InvalidParameter):
        make_cosine_window((0.42, 0.5, 0.08), 4.0)  # K=2 needs R > 4
    make_cosine_window((0.42, 0.5, 0.08), 4.5)  # fractional but admissible


def test_cosine_window_support_and_edges():
    win = named_window("hann", 3.0)
    assert win.support == (-1.5, 1.5)
    assert win(-1.5) == 0.0
    assert win(1.5) == 0.0  # outside the half-open support
    assert win(1.5 - 1e-9) < 1e-8
    assert abs(win(0.0) - 1.0) < 1e-15
    vals = win(np.array([-2.0, 2.0, 100.0]))
    assert np.all(vals == 0.0)


def masked_reference(win, t):
    """The cosine sum evaluated on the probe points inside the support
    only, and 0 elsewhere."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    half = win.stretch / 2.0
    inside = (t >= -half) & (t < half)
    ts = t[inside]
    acc = np.full_like(ts, win.coeffs[0])
    for k, b in enumerate(win.coeffs[1:], start=1):
        acc += b * np.cos((2.0 * np.pi * k / win.stretch) * ts)
    out[inside] = acc
    return out


def window_probes(half, rng):
    inside = np.sort(rng.uniform(-half, half, 997))
    edges = np.linspace(-half, half, 1001)  # -R/2 included, R/2 excluded
    low = np.linspace(-half - 0.3, half - 0.1, 999)
    high = np.linspace(-half + 0.1, half + 0.3, 999)
    wide = np.linspace(-3.0 * half, 3.0 * half, 1000)
    return {
        "sorted inside": inside,
        "touching both edges": edges,
        "crossing the lower edge": low,
        "crossing the upper edge": high,
        "crossing both edges": wide,
        "unsorted": rng.permutation(wide),
        "ends inside, middle outside": np.array([0.1, 5.0 * half, -half, -4.0 * half, 0.2]),
        "non-finite": np.array([0.0, np.nan, np.inf, -np.inf, 0.3]),
        "0-d inside": np.float64(0.3),
        "0-d at -R/2": np.float64(-half),
        "0-d at R/2": np.float64(half),
        "0-d outside": 3.0 * half,
        "2-D": rng.permutation(wide).reshape(20, 50),
        "empty": np.zeros(0),
    }


@pytest.mark.parametrize("name", sorted(WINDOW_COEFFS))
@pytest.mark.parametrize("normalized", [False, True])
def test_cosine_window_matches_the_masked_sum_bit_for_bit(name, normalized):
    # the window sums over the whole probe and masks only when a point
    # lies outside; it must agree with the masked sum to the last bit
    rng = np.random.default_rng(31)
    base = 2 * len(WINDOW_COEFFS[name]) - 1  # the smallest integer R > 2K
    for stretch in (float(base), base + 0.7, base + 2.0):
        win = named_window(name, stretch)
        if normalized:
            if not win.constant_overlap:
                continue
            win = normalize_for_tightness(win)
        for label, t in window_probes(stretch / 2.0, rng).items():
            got, want = win(t), masked_reference(win, t)
            assert isinstance(got, np.ndarray) and got.dtype == np.float64, label
            assert got.shape == np.shape(t) and got.tobytes() == want.tobytes(), label


def bspline_reference(win, t):
    """The centered B-spline written out piece by piece, 0 off its support."""
    u = np.abs(np.asarray(t, dtype=float)) * (win.order / win.stretch)
    if win.order == 2:
        return np.maximum(1.0 - u, 0.0)
    return np.where(u <= 0.5, 0.75 - u ** 2, np.where(u <= 1.5, 0.5 * (1.5 - u) ** 2, 0.0))


@pytest.mark.parametrize("window", [
    CosineSumWindow((1.0,), 2.0), CosineSumWindow((0.5, 0.5), 3.0),
    CosineSumWindow((0.42, 0.5, 0.08), 5.0), CosineSumWindow((0.3, 0.3, 0.2, 0.2), 7.5),
    BSplineWindow(2, 3.0), BSplineWindow(3, 2.5),
], ids=["K0", "K1", "K2", "K3", "bspline2", "bspline3"])
def test_window_writes_into_out_bit_for_bit(window):
    # out= gives the allocating call's values, into another array or into
    # the probe itself, inside and outside the support and on empty probes
    rng = np.random.default_rng(47)
    for label, t in window_probes(window.stretch / 2.0, rng).items():
        want = window(t)
        reference = (masked_reference if isinstance(window, CosineSumWindow)
                     else bspline_reference)
        assert want.tobytes() == reference(window, t).tobytes(), label
        spare = np.full(np.shape(t), np.nan)
        assert window(t, out=spare) is spare and spare.tobytes() == want.tobytes(), label
        probe = np.array(t, dtype=float)
        assert window(probe, out=probe) is probe and probe.tobytes() == want.tobytes(), label


@pytest.mark.parametrize("family,kw,length,fs,window,policy", [
    ("erblike", {}, 4096, 44100.0, "hann", None),
    ("sympow", {"l": 0.5}, 1024, 64.0, "hann", None),
    ("log", {}, 512, 2.0, "blackman", Painless()),
    ("signedpow", {"l": 0.5}, 500, 256.0, "hamming", Painless()),
])
def test_bank_samples_each_response_point_once(monkeypatch, family, kw, length, fs,
                                               window, policy):
    # one window call per channel on exactly its sampled bins, except for a
    # full-line channel -m built as channel m reflected, so a count of the
    # points through the window is a count of the direct rows' entries
    calls, sample = [], CosineSumWindow.__call__

    def counting(self, t, out=None):
        calls.append(np.size(t))
        return sample(self, t, out=out)

    monkeypatch.setattr(CosineSumWindow, "__call__", counting)
    w = make_warping(family, **kw)
    grid = GridSpec(length=length, fs=fs, domain=w.domain)
    stretch = 5.0 if window == "blackman" else 3.0
    if policy is None:
        bank = design_tight(w, grid, window, stretch)
    else:
        bank = build_bank(w, named_window(window, stretch), grid, policy)
    plan = bank.plan
    direct = [len(ch.response) for ch, p in zip(bank.channels, plan.partner) if p < 0]
    assert calls == direct and sum(calls) > 0
    # the plan holds these entries and the half-line residuals' only
    assert sum(calls) + len(bank.residuals) == len(plan.bins)
    if not bank.residuals:
        assert len(calls) < len(bank.channels)


def test_cosine_window_rejects_bad_coefficients():
    with pytest.raises(InvalidParameter):
        make_cosine_window((), 3.0)
    with pytest.raises(InvalidParameter):
        make_cosine_window((0.5, np.nan), 3.0)
    with pytest.raises(InvalidParameter):
        make_cosine_window((1.0,), -1.0)


def test_bspline_windows():
    hat = BSplineWindow(order=2, stretch=3.0)
    assert hat(0.0) == 1.0
    assert hat(1.5) == 0.0
    np.testing.assert_allclose(hat(0.75), 0.5)
    quad = BSplineWindow(order=3, stretch=3.0)
    assert quad(0.0) == 0.75
    assert quad(1.5) == 0.0
    assert quad.sum_of_squares_constant is None
    assert not quad.constant_overlap
    with pytest.raises(InvalidParameter):
        BSplineWindow(order=4, stretch=3.0)
    with pytest.raises(InvalidParameter):
        BSplineWindow(order=2, stretch=0.0)
    with pytest.raises(InvalidParameter):
        normalize_for_tightness(quad)


def test_normalize_for_tightness():
    win = named_window("hann", 3.0)
    unit = normalize_for_tightness(win)
    assert unit.normalized
    np.testing.assert_allclose(unit.sum_of_squares_constant, 1.0, rtol=1e-15)
    t = np.linspace(-2.0, 2.0, 2001)
    np.testing.assert_allclose(sum_of_squares(unit, t), 1.0, atol=1e-13)
    # normalizing twice is the identity
    again = normalize_for_tightness(unit)
    np.testing.assert_allclose(again.coeffs, unit.coeffs, rtol=1e-15)
    with pytest.raises(DegenerateWindow):
        normalize_for_tightness(make_cosine_window((0.0, 0.0), 3.0))


def test_window_records():
    win = named_window("hann", 3.0)
    assert win.record == {"kind": "cosine_sum", "coeffs": [0.5, 0.5],
                          "stretch": 3.0, "normalized": False}
    rec = BSplineWindow(order=2, stretch=3.0).record
    assert rec["kind"] == "bspline" and rec["order"] == 2
