"""Frame bounds and related health checks for warped banks.

Three layers, from cheap to expensive:

* diagonal extremes, exact for painless banks where the frame operator is
  the diagonal itself;
* sufficient bounds from the overlap sums

      A(t) = sum_m theta_m(t)^2 - sum_m sum_{k != 0} |theta_m(t) theta_m(t - k/a_m)|
      B(t) = sum_m sum_k |theta_m(t) theta_m(t - k/a_m)|

  evaluated with the continuous closed forms on a grid denser than the
  bins (the k-sums are finite because the windows have compact support).
  A_suff = min A, B_suff = max B sandwich the true bounds; A_suff <= 0
  proves nothing and is reported as inconclusive;
* empirical bounds: power iteration on the frame operator for B_emp, then
  on the shifted operator B_emp I - S for A_emp, so no solver for S^{-1}
  is needed.

``decay_check`` probes the two decay hypotheses behind stable
non-compact designs; every catalog window passes trivially by compact
support, so the measured-exponent path only matters for callable probes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bank import WarpedBank, with_scaled_factors
from .errors import NoConvergence
from .transform import apply_frame_operator


@dataclass
class FrameReport:
    """Everything diagnose prints: diagonal extremes, sufficient and
    empirical bounds, tightness, painless flags and collected warnings."""

    diag_inf: float
    diag_sup: float
    a_suff: float
    b_suff: float
    a_emp: float
    b_emp: float
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
    overlaps nothing.  Residual channels contribute their exact unit
    eigenvalue as separate candidates.
    """
    oversample = int(oversample_grid_factor)
    if oversample < 1:
        oversample = 1
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

    for ch in bank.channels:
        base = theta_m(t, ch.m)
        sq = base**2
        lower += sq
        upper += sq
        shift_hz = bank.grid.fs / ch.a
        width_hz = float(warping.f_inv(hi_s + ch.m) - warping.f_inv(lo_s + ch.m))
        # a shift past the band's width leaves the band from every point
        k_max = math.ceil(min(width_hz, band_hi - band_lo) / shift_hz)
        absbase = np.abs(base)
        for k in range(1, k_max + 1):
            for sign in (1.0, -1.0):
                cross = absbase * np.abs(theta_m(t - sign * k * shift_hz, ch.m))
                lower -= cross
                upper += cross
    a_cands = [float(lower.min())]
    b_cands = [float(upper.max())]
    for _res in bank.residuals:
        a_cands.append(1.0)
        b_cands.append(1.0)
    return (min(a_cands), max(b_cands))


def power_iteration(operator, length: int, tol: float = 1e-8,
                    max_iter: int = 10000, seed: int = 0):
    """Dominant eigenvalue of a self-adjoint PSD operator on C^length.

    Returns (eigenvalue, eigenvector, converged); convergence means the
    Rayleigh quotient stagnated to relative ``tol`` on three consecutive
    iterations.  On non-convergence a NoConvergence warning is issued and
    the last iterate returned.
    """
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    vec /= np.linalg.norm(vec)
    lam_prev = None
    hits = 0
    lam = 0.0
    for _ in range(max_iter):
        out = operator(vec)
        lam = float(np.real(np.vdot(vec, out)))
        nrm = float(np.linalg.norm(out))
        if nrm == 0.0:
            return 0.0, vec, True
        vec = out / nrm
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            hits += 1
            if hits >= 3:
                return lam, vec, True
        else:
            hits = 0
        lam_prev = lam
    warnings.warn(
        f"power iteration did not stagnate within {max_iter} iterations; "
        f"last eigenvalue estimate {lam:.6e}",
        NoConvergence,
    )
    return lam, vec, False


def empirical_bounds(bank: WarpedBank, tol: float = 1e-8, max_iter: int = 10000):
    """(A_emp, B_emp): extreme eigenvalues of the frame operator.

    Painless banks short-circuit to the diagonal extremes, which are the
    exact spectrum.  Otherwise B_emp comes from power iteration on S and
    A_emp from power iteration on B_emp I - S.
    """
    if bank.painless:
        return diagonal_bounds(bank)
    length = bank.grid.length

    def apply_s(v):
        return apply_frame_operator(v, bank).samples

    b_emp, _, _ = power_iteration(apply_s, length, tol=tol, max_iter=max_iter,
                                  seed=0)

    def apply_shifted(v):
        return b_emp * v - apply_s(v)

    shift, _, _ = power_iteration(apply_shifted, length, tol=tol,
                                  max_iter=max_iter, seed=1)
    return (b_emp - shift, b_emp)


def decay_check(window, warping=None, eps: float = 0.5, t_max: float = 1e4,
                n_points: int = 400) -> dict:
    """Advisory check of the decay hypotheses for non-compact prototypes:
    |theta(t)| should fall off at least like (1 + |t|)^{-1-eps}, and the
    same through the inverse warping.

    Compactly supported windows satisfy both trivially.  For a bare
    callable the exponent is measured as a log-log slope over a log-spaced
    grid; the warped-coordinate exponent is reported alongside but the
    verdict follows the plain one.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    support = getattr(window, "support", None)
    if support is not None and np.all(np.isfinite(support)):
        return {
            "verdict": "satisfied",
            "reason": "compact support",
            "eps": float(eps),
            "exponent": float("inf"),
            "exponent_warped": float("inf"),
        }
    t = np.geomspace(1.0, t_max, n_points)
    vals = np.maximum(np.abs(np.asarray(window(t), dtype=float)),
                      np.abs(np.asarray(window(-t), dtype=float)))
    ok = vals > 0.0
    if np.count_nonzero(ok) < 2:
        return {
            "verdict": "satisfied",
            "reason": "window vanishes on the probe grid",
            "eps": float(eps),
            "exponent": float("inf"),
            "exponent_warped": float("inf"),
        }
    slope = np.polyfit(np.log1p(t[ok]), np.log(vals[ok]), 1)[0]
    exponent = -float(slope)
    exponent_warped = float("nan")
    if warping is not None:
        with np.errstate(over="ignore"):
            pullback = np.abs(np.asarray(warping.f_inv(t), dtype=float))
        wok = ok & np.isfinite(pullback)
        if np.count_nonzero(wok) >= 2:
            wslope = np.polyfit(np.log1p(pullback[wok]), np.log(vals[wok]), 1)[0]
            exponent_warped = -float(wslope)
    satisfied = exponent >= 1.0 + eps - 1e-9
    return {
        "verdict": "satisfied" if satisfied else "violated",
        "reason": f"measured decay exponent {exponent:.3f} vs required {1.0 + eps:.3f}",
        "eps": float(eps),
        "exponent": exponent,
        "exponent_warped": exponent_warped,
    }


def frame_report(bank: WarpedBank, oversample_grid_factor: int = 8,
                 tol: float = 1e-8, max_iter: int = 10000) -> FrameReport:
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
        a_emp, b_emp = empirical_bounds(bank, tol=tol, max_iter=max_iter)
    for w in caught:
        notes.append(str(w.message))
    ratio = b_emp / a_emp if a_emp > 0.0 else float("inf")
    flags = [ch.painless for ch in bank.channels]
    if not all(flags):
        bad = [ch.m for ch in bank.channels if not ch.painless]
        notes.append(f"non-painless channels: {bad}")
    return FrameReport(
        diag_inf=diag_inf, diag_sup=diag_sup,
        a_suff=a_suff, b_suff=b_suff,
        a_emp=a_emp, b_emp=b_emp,
        tightness_ratio=ratio,
        painless=bank.painless,
        channel_painless=flags,
        warnings=notes,
    )


def tightness_sweep(bank: WarpedBank, scales=(1, 2, 4), tol: float = 1e-8,
                    max_iter: int = 10000) -> list[tuple[int, float]]:
    """Tightness ratio as every hop is scaled up by each factor; leaving
    the painless regime degrades it monotonically."""
    rows = []
    for scale in scales:
        scaled = bank if scale == 1 else with_scaled_factors(bank, int(scale))
        a_emp, b_emp = empirical_bounds(scaled, tol=tol, max_iter=max_iter)
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
        f"tightness_ratio: {report.tightness_ratio:.12g}",
    ]
    if report.warnings:
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in report.warnings)
    else:
        lines.append("warnings: none")
    return "\n".join(lines) + "\n"
