"""Frame bounds and related health checks for warped banks.

Three layers, from cheap to expensive:

* diagonal extremes, exact for painless banks where the frame operator is
  the diagonal itself;
* sufficient bounds from the overlap sums

      A(t) = sum_m theta_m(t)^2 - sum_m sum_{k != 0} |theta_m(t) theta_m(t - k/a_m)|
      B(t) = sum_m sum_k |theta_m(t) theta_m(t - k/a_m)|

  evaluated with the continuous closed forms on a grid denser than the
  bins.  The windows have compact support, so channel m's terms vanish
  outside its warped support [F^{-1}(c+m), F^{-1}(d+m)]: each channel is
  evaluated on its own support's grid points, and each cross term where
  the support overlaps its shifted copy, which costs about as much as the
  supports rather than the grid times the channel count.  A_suff = min A,
  B_suff = max B sandwich the true bounds; A_suff <= 0 proves nothing and
  is reported as inconclusive;
* empirical bounds: for non-painless banks one Lanczos run on the frame
  operator gives both A_emp and B_emp, as the extreme Ritz values, once
  their residual bounds reach 1e-13 B_emp; no solver for S^{-1} and no
  second pass are needed.  ``FrameReport.bounds_method`` says which of
  the diagonal (exact) and Lanczos gave them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bank import WarpedBank, with_scaled_factors
from .errors import InvalidParameter, NoConvergence
from .transform import apply_frame_operator

# Lanczos steps after which empirical_bounds stops with a NoConvergence warning
LANCZOS_MAX_STEPS = 2048
# both extreme Ritz values must lie this close to S's spectrum, relative to B_emp
_RESIDUAL_TOL = 1e-13


@dataclass
class FrameReport:
    """Everything diagnose prints: diagonal extremes, sufficient and
    empirical bounds with the method behind the latter, tightness,
    painless flags and collected warnings."""

    diag_inf: float
    diag_sup: float
    a_suff: float
    b_suff: float
    a_emp: float
    b_emp: float
    bounds_method: str
    tightness_ratio: float
    painless: bool
    channel_painless: list[bool]
    warnings: list[str] = field(default_factory=list)

    @property
    def conclusive(self) -> bool:
        """Whether the sufficient condition certifies a frame at all."""
        return self.a_suff > 0.0


def diagonal_bounds(bank: WarpedBank) -> tuple[float, float]:
    """Extremes of the frame-operator diagonal over the whole grid."""
    diag = bank.diagonal()
    return (float(diag.min()), float(diag.max()))


def _dense_grid(bank: WarpedBank, oversample: int) -> np.ndarray:
    """Evaluation frequencies: ``oversample`` points per bin across the
    warped channels' active range, bin centers included."""
    lo_bin, hi_bin = bank.grid.signed_bin_range()
    step = bank.grid.bin_hz / oversample
    return np.arange(lo_bin * oversample, hi_bin * oversample + 1) * step


def sufficient_bounds(bank: WarpedBank, oversample_grid_factor: int = 8):
    """(A_suff, B_suff) from the overlap sums on a dense grid.

    Uses the continuous evaluators, not the sampled responses, so the
    result reflects the mathematical condition at the chosen density
    rather than grid artifacts.  Like the sampled channels, the evaluators
    vanish outside the grid's active band, so a shift that leaves the band
    overlaps nothing.  Each channel is evaluated on the grid points of its
    own warped support only, and each cross term where the support meets
    its shifted copy; everywhere else the terms are exact zeros.  Residual
    channels contribute their exact unit eigenvalue as separate candidates.
    """
    oversample = int(oversample_grid_factor)
    if oversample < 1:
        raise InvalidParameter(
            f"grid oversampling factor must be at least 1, "
            f"got {oversample_grid_factor!r}"
        )
    t = _dense_grid(bank, oversample)
    # channels are truncated to the grid's active band: no overlaps beyond it
    band_lo, band_hi = np.array(bank.grid.signed_bin_range()) * bank.grid.bin_hz
    warping = bank.warping
    window = bank.window
    lo_s, hi_s = window.support
    lower = np.zeros_like(t)
    upper = np.zeros_like(t)

    def theta_m(freqs, m):
        out = np.zeros_like(freqs)
        ok = (freqs >= band_lo) & (freqs <= band_hi)
        if np.any(ok):
            out[ok] = window(warping.f(freqs[ok]) - m)
        return out

    def around(lo_hz, hi_hz):
        """Grid indices [start, stop) of the points in [lo_hz, hi_hz],
        one point wider on each side so rounding in F and its inverse
        loses nothing."""
        start = np.maximum(np.searchsorted(t, lo_hz, "left") - 1, 0)
        return start, np.minimum(np.searchsorted(t, hi_hz, "right") + 1, len(t))

    ms = np.array([ch.m for ch in bank.channels], dtype=float)
    sup_lo = warping.f_inv(lo_s + ms)
    sup_hi = warping.f_inv(hi_s + ms)
    starts, stops = around(sup_lo, sup_hi)
    for ch, lo_hz, hi_hz, start, stop in zip(bank.channels, sup_lo.tolist(),
                                             sup_hi.tolist(), starts.tolist(),
                                             stops.tolist()):
        if start >= stop:
            continue
        shift_hz = bank.grid.fs / ch.a
        # a shift past the band's width leaves the band from every point
        k_max = math.ceil(min(hi_hz - lo_hz, band_hi - band_lo) / shift_hz)
        # the support, then where each shifted copy overlaps it:
        # theta_m(t - shift) vanishes unless t - shift is in the support
        spans = [(start, stop, 0.0)]
        for k in range(1, k_max + 1):
            for sign in (1.0, -1.0):
                shift = sign * k * shift_hz
                lo, hi = around(lo_hz + shift, hi_hz + shift)
                lo, hi = max(int(lo), start), min(int(hi), stop)
                if lo < hi:
                    spans.append((lo, hi, shift))
        # one window evaluation per channel; the first span is the support
        # itself, whose term |theta_m(t)|^2 adds to both sums
        freqs = np.concatenate([t[lo:hi] - shift for lo, hi, shift in spans])
        values = np.abs(theta_m(freqs, ch.m))
        base = values[: stop - start]
        done = 0
        for lo, hi, shift in spans:
            term = base[lo - start:hi - start] * values[done:done + hi - lo]
            done += hi - lo
            lower[lo:hi] += -term if shift else term
            upper[lo:hi] += term
    a_cands = [float(lower.min())]
    b_cands = [float(upper.max())]
    for _res in bank.residuals:
        a_cands.append(1.0)
        b_cands.append(1.0)
    return (min(a_cands), max(b_cands))


def empirical_bounds(bank: WarpedBank) -> tuple[float, float]:
    """(A_emp, B_emp): extreme eigenvalues of the frame operator.

    Painless banks short-circuit to the diagonal extremes, the exact
    spectrum.  Otherwise one Lanczos run on S (fixed random start, plain
    three-term recurrence, so three length-L vectors) gives both ends.
    Every max(8, k // 8) steps the Ritz values theta_i of the tridiagonal
    T_k and the last components s_i of its eigenvectors bound the
    spectrum: S has an eigenvalue within beta_k |s_i| of each theta_i.
    The run stops when, at both ends,
    min_i (beta_k |s_i| + |theta_i - theta_end|) <= 1e-13 theta_max, or
    when beta_k = 0.  The minimum runs over all Ritz values because,
    without reorthogonalization, a converged extreme returns as a "ghost"
    copy that can carry the small residual while the extreme's own bound
    jumps back up; the bounds stay valid (Paige 1980).  After
    ``LANCZOS_MAX_STEPS`` steps a NoConvergence warning names the step
    count and the residual bound.
    """
    if bank.painless:
        return diagonal_bounds(bank)
    length = bank.grid.length
    rng = np.random.default_rng(0)
    q = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    q /= np.linalg.norm(q)
    q_prev = np.zeros_like(q)
    alphas, betas = [], []
    beta = 0.0
    check = 8
    while True:
        w = apply_frame_operator(q, bank).samples - beta * q_prev
        alpha = float(np.vdot(q, w).real)
        w -= alpha * q
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        k = len(alphas)
        if beta == 0.0 or k in (check, LANCZOS_MAX_STEPS):
            off = betas[:-1]
            theta, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(off, 1)
                                         + np.diag(off, -1))
            spread = beta * np.abs(vecs[-1])
            residual = max(float(np.min(spread + np.abs(theta - end)))
                           for end in (theta[0], theta[-1]))
            if residual <= _RESIDUAL_TOL * theta[-1]:
                break
            if k == LANCZOS_MAX_STEPS:
                warnings.warn(f"Lanczos did not converge within {k} steps; "
                              f"residual bound {residual:.3e}", NoConvergence)
                break
            check = k + max(8, k // 8)
        q_prev, q = q, w / beta
    return (float(theta[0]), float(theta[-1]))


def frame_report(bank: WarpedBank, oversample_grid_factor: int = 8) -> FrameReport:
    """Run the full battery against one bank."""
    notes: list[str] = []
    diag_inf, diag_sup = diagonal_bounds(bank)
    if diag_inf <= 0.0:
        holes = int(np.count_nonzero(bank.diagonal() <= 0.0))
        notes.append(
            f"coverage hole: diagonal vanishes on {holes} of {bank.grid.length} bins"
        )
    a_suff, b_suff = sufficient_bounds(bank, oversample_grid_factor)
    if a_suff <= 0.0:
        notes.append("sufficient lower bound inconclusive (A_suff <= 0)")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NoConvergence)
        a_emp, b_emp = empirical_bounds(bank)
    for w in caught:
        notes.append(str(w.message))
    method = ("diagonal (painless, exact)" if bank.painless
              else f"lanczos (residual bound {_RESIDUAL_TOL:g} of B_emp)")
    ratio = b_emp / a_emp if a_emp > 0.0 else float("inf")
    flags = [ch.painless for ch in bank.channels]
    if not all(flags):
        bad = [ch.m for ch in bank.channels if not ch.painless]
        notes.append(f"non-painless channels: {bad}")
    return FrameReport(
        diag_inf=diag_inf, diag_sup=diag_sup,
        a_suff=a_suff, b_suff=b_suff,
        a_emp=a_emp, b_emp=b_emp,
        bounds_method=method,
        tightness_ratio=ratio,
        painless=bank.painless,
        channel_painless=flags,
        warnings=notes,
    )


def tightness_sweep(bank: WarpedBank, scales=(1, 2, 4)) -> list[tuple[int, float]]:
    """Tightness ratio as every hop is scaled up by each factor; leaving
    the painless regime degrades it monotonically."""
    rows = []
    for scale in scales:
        scaled = bank if scale == 1 else with_scaled_factors(bank, int(scale))
        a_emp, b_emp = empirical_bounds(scaled)
        ratio = b_emp / a_emp if a_emp > 0.0 else float("inf")
        rows.append((int(scale), ratio))
    return rows


def format_report(report: FrameReport) -> str:
    """Plain-text rendering consumed by the diagnose command."""
    lines = [
        f"painless: {'true' if report.painless else 'false'}",
        f"channels_painless: {sum(report.channel_painless)}/{len(report.channel_painless)}",
        f"diag_inf: {report.diag_inf:.12g}",
        f"diag_sup: {report.diag_sup:.12g}",
        f"A_suff: {report.a_suff:.12g}" + ("" if report.conclusive else "  (inconclusive)"),
        f"B_suff: {report.b_suff:.12g}",
        f"A_emp: {report.a_emp:.12g}",
        f"B_emp: {report.b_emp:.12g}",
        f"bounds_method: {report.bounds_method}",
        f"tightness_ratio: {report.tightness_ratio:.12g}",
    ]
    if report.warnings:
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in report.warnings)
    else:
        lines.append("warnings: none")
    return "\n".join(lines) + "\n"
