"""Frame bounds and related health checks for warped banks.

Three layers, from cheap to expensive:

* diagonal extremes, exact for painless banks where the frame operator is
  the diagonal itself;
* sufficient bounds: a Gershgorin test on the sampled frame operator,
  read off the bank's plan.  In the DFT domain S is the Walnut form
  S[j, j'] = sum_m N_m g_m[j] g_m[j'] (j = j' mod N_m), so with R_j an
  upper bound on the absolute row sums, A_suff = min_j (2 S[j, j] - R_j)
  and B_suff = max_j R_j sandwich the true bounds.  R_j comes from the
  frame operator's own fold and gather with |g_m| on the all-ones
  spectrum; taking |g_m| per channel can only overestimate the row sums,
  and painless banks, whose slots hold one nonzero bin each, get the
  diagonal extremes.  A_suff <= 0 proves nothing and is reported as
  inconclusive;
* empirical bounds: for non-painless banks one Lanczos run on the frame
  operator gives both A_emp and B_emp, as the extreme Ritz values, once
  their residual bounds reach 1e-13 B_emp; no solver for S^{-1} and no
  second pass are needed.  ``FrameReport.bounds_method`` says which of
  the diagonal (exact) and Lanczos gave them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bank import WarpedBank, with_scaled_factors
from .errors import NoConvergence
from .transform import _walnut, apply_frame_operator

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


def sufficient_bounds(bank: WarpedBank) -> tuple[float, float]:
    """(A_suff, B_suff): Gershgorin bounds of the sampled frame operator.

    In the DFT domain S[j, j'] = sum_m N_m g_m[j] g_m[j'] over the plan's
    rows, a mirror row as its partner reflected (see ``_walnut``), with
    j = j' (mod N_m), so every eigenvalue lies within R_j - S[j, j] of
    some diagonal entry S[j, j], R_j being the absolute row sum.  S's own
    fold and gather run on the all-ones spectrum with |g_m| in place of
    g_m give sum_m N_m |g_m[j]| sum_j' |g_m[j']| >= R_j: the triangle
    inequality per channel only adds, so A_suff = min_j (2 S[j, j] - R_j)
    and B_suff = max_j R_j stay valid.  A painless channel puts each
    nonzero bin alone in its slot, so on a painless bank R_j = S[j, j] and
    the bounds are the diagonal's extremes.
    """
    plan = bank.plan
    ones = np.ones(bank.grid.length, dtype=complex)
    rows = _walnut(ones, np.abs(plan.response), bank).real
    return (float(np.min(2.0 * bank.diagonal() - rows)), float(rows.max()))


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


def frame_report(bank: WarpedBank) -> FrameReport:
    """Run the full battery against one bank."""
    notes: list[str] = []
    diag_inf, diag_sup = diagonal_bounds(bank)
    if diag_inf <= 0.0:
        holes = int(np.count_nonzero(bank.diagonal() <= 0.0))
        notes.append(
            f"coverage hole: diagonal vanishes on {holes} of {bank.grid.length} bins"
        )
    a_suff, b_suff = sufficient_bounds(bank)
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
