import numpy as np
import pytest

from warpbank import (BSplineWindow, CosineSumWindow, DegenerateWindow,
                      InvalidParameter, make_cosine_window, named_window,
                      normalize_for_tightness, sum_of_squares)


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
