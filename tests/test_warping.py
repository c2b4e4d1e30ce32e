import math

import numpy as np
import pytest

from warpbank import (Domain, DomainError, InvalidParameter,
                      check_moderate_inequality, make_warping)
from warpbank.warping import ERB_BREAK_HZ, ERB_SLOPE

ALL_FAMILIES = [
    ("log", {}),
    ("sympow", {"l": 1.0}),
    ("sympow", {"l": 0.5}),
    ("erblike", {}),
    ("signedpow", {"l": 0.5}),
    ("signedpow", {"l": 1.0}),
]


def probe_frequencies(warping, n=400):
    if warping.domain is Domain.POSITIVE_HALF_LINE:
        return np.geomspace(1e-4, 1e4, n) * warping.d
    half = np.geomspace(1e-4, 1e4, n // 2) * warping.d
    return np.concatenate([-half[::-1], [0.0], half])


@pytest.mark.parametrize("family,kw", ALL_FAMILIES)
def test_round_trip(family, kw):
    w = make_warping(family, **kw)
    t = probe_frequencies(w)
    np.testing.assert_allclose(w.f_inv(w.f(t)), t, rtol=1e-10, atol=1e-12)
    x = np.linspace(-30.0, 30.0, 501)
    np.testing.assert_allclose(w.f(w.f_inv(x)), x, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("family,kw", ALL_FAMILIES)
def test_strictly_increasing(family, kw):
    w = make_warping(family, **kw)
    t = probe_frequencies(w)
    assert np.all(np.diff(w.f(t)) > 0)
    x = np.linspace(-30.0, 30.0, 301)
    assert np.all(np.diff(w.f_inv(x)) > 0)


@pytest.mark.parametrize("family,kw", [("erblike", {}), ("signedpow", {"l": 0.5})])
def test_full_line_maps_are_odd(family, kw):
    w = make_warping(family, **kw)
    t = np.linspace(0.0, 5e3, 200)
    np.testing.assert_allclose(w.f(-t), -w.f(t), rtol=0, atol=0)
    x = np.linspace(0.0, 20.0, 200)
    np.testing.assert_allclose(w.f_inv(-x), -w.f_inv(x), rtol=0, atol=0)
    assert w.f(0.0) == 0.0


@pytest.mark.parametrize("family,kw", ALL_FAMILIES)
def test_derivative_matches_difference_quotient(family, kw):
    w = make_warping(family, **kw)
    t = probe_frequencies(w, n=60)
    t = t[np.abs(t) > 1e-3 * w.d]  # keep away from the |t| kink
    h = 1e-6 * np.maximum(np.abs(t), w.d)
    numeric = (w.f(t + h) - w.f(t - h)) / (2.0 * h)
    np.testing.assert_allclose(w.f_deriv(t), numeric, rtol=1e-5)


@pytest.mark.parametrize("family,kw", ALL_FAMILIES)
def test_weight_is_inverse_map_derivative(family, kw):
    w = make_warping(family, **kw)
    x = np.linspace(-25.0, 25.0, 301)
    h = 1e-6
    numeric = (w.f_inv(x + h) - w.f_inv(x - h)) / (2.0 * h)
    np.testing.assert_allclose(w.weight(x), numeric, rtol=1e-5)
    # ... equivalently 1 / F'(F^{-1}(x)), which uses the analytic forms only
    np.testing.assert_allclose(w.weight(x) * w.f_deriv(w.f_inv(x)), 1.0, rtol=1e-9)


@pytest.mark.parametrize("family,kw", ALL_FAMILIES)
def test_aux_weight_submultiplicative(family, kw):
    w = make_warping(family, **kw)
    g = np.linspace(-20.0, 20.0, 81)
    x, y = np.meshgrid(g, g)
    v = w.aux_weight
    assert np.all(v(x + y) <= v(x) * v(y) * (1.0 + 1e-12))


@pytest.mark.parametrize("family,kw", ALL_FAMILIES)
def test_weight_moderate(family, kw):
    w = make_warping(family, **kw)
    g = np.linspace(-20.0, 20.0, 81)
    x, y = np.meshgrid(g, g)
    lhs = w.weight(x + y)
    rhs = w.aux_weight(x) * w.weight(y)
    assert np.all(lhs <= rhs * (1.0 + 1e-12))


@pytest.mark.parametrize("family,kw", ALL_FAMILIES)
def test_translation_inequality_sweep(family, kw):
    w = make_warping(family, **kw)
    x = np.linspace(0.0, 8.0, 33)
    y = probe_frequencies(w, n=120)
    assert check_moderate_inequality(w, x[:, None], y[None, :])


def test_translation_inequality_is_equality_for_log():
    w = make_warping("log", c=1.0, d=1.0)
    x = np.linspace(0.0, 5.0, 41)
    y = np.geomspace(0.01, 100.0, 41)
    fy = w.f(y[None, :])
    lhs = fy + w.f(x[:, None] + w.f_inv(0.0))
    rhs = w.f(y[None, :] + w.aux_weight(fy) * x[:, None])
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_translation_inequality_rejects_negative_x():
    w = make_warping("log")
    with pytest.raises(InvalidParameter):
        check_moderate_inequality(w, -0.5, 1.0)


def sympow_log_weight(w, x):
    """log w(x) for sympow from the asinh form, finite where w overflows:
    w(x) = d/(2cl) e^{asinh(h)/l} / sqrt(1 + h^2) with h = x/(2c)."""
    h = x / (2.0 * w.c)
    return (np.log(w.d / (2.0 * w.c * w.l)) + np.arcsinh(h) / w.l
            - 0.5 * np.log1p(h * h))


@pytest.mark.parametrize("l", [0.1, 0.25, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("c", [0.1, 1.0, 9.0])
def test_sympow_weight_moderate_far_out(c, l):
    """w(x + y) <= v(x) w(y) on every real x, y, not just near zero: a
    signed log-spaced grid out to |x|, |y| = 1e4, compared in logs."""
    w = make_warping("sympow", c=c, l=l)
    near = np.linspace(-20.0, 20.0, 81)
    np.testing.assert_allclose(sympow_log_weight(w, near), np.log(w.weight(near)),
                               rtol=1e-12, atol=1e-12)
    g = np.geomspace(1e-3, 1e4, 160)
    g = np.concatenate([-g[::-1], [0.0], g])
    x, y = np.meshgrid(g, g)
    lhs = sympow_log_weight(w, x + y)
    rhs = np.log(w.aux_weight(x)) + sympow_log_weight(w, y)
    assert np.all(lhs <= rhs + 1e-12)


@pytest.mark.parametrize("l", [0.1, 0.25, 1.0])
@pytest.mark.parametrize("c", [0.1, 1.0])
def test_sympow_inverse_keeps_its_digits_far_below_zero(c, l):
    """h + sqrt(h^2 + 1) cancels for h = x/(2c) << 0; in logs, against
    math.asinh, log F^{-1}(x) = log d + asinh(h)/l and log w(x) is
    ``sympow_log_weight``, down to x = -1e5."""
    w = make_warping("sympow", c=c, d=2.0, l=l)
    x = -np.geomspace(1e-3, 1e5, 161)
    asinh = np.array([math.asinh(v) for v in x / (2.0 * c)])
    np.testing.assert_allclose(np.log(w.f_inv(x)), np.log(w.d) + asinh / l,
                               rtol=0, atol=1e-13)
    log_weight = (np.log(w.d / (2.0 * c * l)) + asinh / l
                  - 0.5 * np.log1p((x / (2.0 * c)) ** 2))
    np.testing.assert_allclose(np.log(w.weight(x)), log_weight, rtol=0, atol=1e-13)


def test_half_line_domain_errors():
    for family, kw in [("log", {}), ("sympow", {"l": 0.5})]:
        w = make_warping(family, **kw)
        with pytest.raises(DomainError):
            w.f(0.0)
        with pytest.raises(DomainError):
            w.f(np.array([1.0, -2.0]))
        with pytest.raises(DomainError):
            w.f_deriv(-1.0)


def test_erb_defaults():
    w = make_warping("erblike")
    assert (w.c, w.d) == (ERB_SLOPE, ERB_BREAK_HZ)
    assert make_warping("erb").params == w.params
    # one ERB-ish sanity point: 1 kHz sits a bit above 15 on the scale
    assert 15.0 < float(w.f(1000.0)) < 16.0


def test_make_warping_validation():
    with pytest.raises(InvalidParameter):
        make_warping("mel")
    with pytest.raises(InvalidParameter):
        make_warping("sympow")  # l required
    with pytest.raises(InvalidParameter):
        make_warping("log", l=0.5)  # l rejected
    with pytest.raises(InvalidParameter):
        make_warping("signedpow", l=1.5)
    with pytest.raises(InvalidParameter):
        make_warping("signedpow", l=0.0)
    with pytest.raises(InvalidParameter):
        make_warping("log", c=-1.0)
    with pytest.raises(InvalidParameter):
        make_warping("log", d=0.0)


def test_params_record():
    w = make_warping("sympow", c=2.0, d=3.0, l=0.25)
    assert w.params == {"family": "sympow", "c": 2.0, "d": 3.0, "l": 0.25}
    assert make_warping("log").params["l"] is None
