"""Frame bounds and related health checks for warped banks.

Three layers, from cheap to expensive:

* diagonal extremes, exact for painless banks where the frame operator is
  the diagonal itself;
* sufficient bounds: a Gershgorin test on the sampled frame operator,
  read off the bank's plan (see ``sufficient_bounds``).  A_suff <= 0
  proves nothing and is reported as inconclusive;
* empirical bounds: S is block diagonal on the connected components of
  its aliasing graph (``WarpedBank.components``).  A painless bank's
  components are single bins, so its diagonal extremes are exact, read
  without the label pass.  Otherwise the blocks of the components of at
  most ``DENSE_BLOCK_MAX`` bins are summed from the bank's ``couplings``
  and decomposed densely, exact to rounding, and a component with fewer
  coefficient slots than bins makes S singular by counting: A_emp is 0
  exactly.  Only the bins of larger components go to one Lanczos run
  (``_lanczos``) on the Walnut form of the frame operator, a real
  symmetric matrix on the DFT grid, in real arithmetic, whose extreme
  Ritz values count once their residual bounds reach 1e-13 B_emp.  When
  Lanczos ran, an A_emp within that bound of 0 may be a singular S, so
  the report gives A_emp 0 and calls the bank not a frame to working
  precision.  ``FrameReport.bounds_method`` names the split: how many
  components, the largest, and how many bins went to Lanczos.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bank import WarpedBank, with_scaled_factors
from .errors import InvalidParameter, NoConvergence, as_integer

# Lanczos steps after which empirical_bounds stops with a NoConvergence warning
LANCZOS_MAX_STEPS = 2048
# components of at most this many bins get their block of S decomposed
# densely; the blocks then take at most 8 L DENSE_BLOCK_MAX bytes
DENSE_BLOCK_MAX = 128
# both extreme Ritz values must lie this close to S's spectrum, relative to B_emp
_RESIDUAL_TOL = 1e-13


@dataclass
class FrameReport:
    """Everything diagnose prints: diagonal extremes, sufficient and
    empirical bounds with the method behind the latter, tightness,
    painless flags and collected warnings.  ``bounds_warnings`` are those
    of the empirical-bounds run (its step cap), also among ``warnings``."""

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
    bounds_warnings: list[str] = field(default_factory=list)

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
    rows, a mirror row as its partner reflected, with j = j' (mod N_m), so
    every eigenvalue lies within R_j - S[j, j] of some diagonal entry
    S[j, j], R_j being the absolute row sum.  S's Walnut form
    (``WarpedBank.walnut``) run on the all-ones vector with |g_m| in place
    of g_m gives sum_m N_m |g_m[j]| sum_j' |g_m[j']| >= R_j: the triangle
    inequality per channel only adds, so A_suff = min_j (2 S[j, j] - R_j)
    and B_suff = max_j R_j stay valid.  A painless channel puts each
    nonzero bin alone in its slot, so on a painless bank R_j = S[j, j] and
    the bounds are the diagonal's extremes, returned without the pass.
    """
    if bank.painless:
        return diagonal_bounds(bank)
    rows = bank.walnut(np.ones(bank.grid.length), np.abs(bank.plan.response))
    return (float(np.min(2.0 * bank.diagonal() - rows)), float(rows.max()))


def _lanczos(apply, q):
    """Plain three-term Lanczos on the real symmetric ``apply`` from the
    real unit vector ``q``, without reorthogonalization: step k yields
    (alpha_k, beta_k, q_k), where
    beta_k q_{k+1} = S q_k - alpha_k q_k - beta_{k-1} q_{k-1}.
    It stops after a step whose beta_k is 0 (an invariant Krylov space)."""
    q_prev, beta = np.zeros_like(q), 0.0
    while True:
        w = apply(q) - beta * q_prev
        alpha = float(q @ w)
        w -= alpha * q
        beta = float(np.linalg.norm(w))
        yield alpha, beta, q
        if beta == 0.0:
            return
        q_prev, q = q, w / beta


def _block_extremes(bank: WarpedBank, labels: np.ndarray, sizes: np.ndarray,
                    chosen: np.ndarray) -> tuple[float, float]:
    """The lowest and the highest eigenvalue of S's blocks on the
    ``chosen`` components: the blocks, laid out by size in one buffer,
    take the diagonal and sum the ``couplings``, then one batched
    ``eigvalsh`` runs per block size."""
    order = np.argsort(labels, kind="stable")
    position = np.empty_like(labels)  # of each bin in its component
    position[order] = np.arange(len(labels)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    picked = np.flatnonzero(chosen)
    picked = picked[np.argsort(sizes[picked], kind="stable")]
    areas = sizes[picked] ** 2
    base = np.zeros_like(sizes)
    base[picked] = np.cumsum(areas) - areas
    # S[j, k] of a chosen block adds onto its base + position[j] * size +
    # position[k]: the diagonal, then the couplings
    inside = chosen[labels]
    bins = np.flatnonzero(inside)
    rows, cols, values = bank.couplings()
    inside = inside[rows]
    rows, cols = np.concatenate((bins, rows[inside])), np.concatenate((bins, cols[inside]))
    values = np.concatenate((bank.diagonal()[bins], values[inside]))
    owner = labels[rows]
    blocks = np.zeros(int(areas.sum()))
    np.add.at(blocks, base[owner] + position[rows] * sizes[owner] + position[cols], values)
    lows, highs, start = [], [], 0
    counts = np.bincount(sizes[picked])
    for s in np.flatnonzero(counts).tolist():
        stop = start + int(counts[s]) * s * s
        spectra = np.linalg.eigvalsh(blocks[start:stop].reshape(-1, s, s))
        lows.append(spectra[:, 0].min())
        highs.append(spectra[:, -1].max())
        start = stop
    return float(min(lows)), float(max(highs))


def _lanczos_extremes(bank: WarpedBank, q: np.ndarray) -> tuple[float, float]:
    """The extreme Ritz values of one ``_lanczos`` run on S from the unit
    vector ``q``, by the stopping rule of ``empirical_bounds``."""
    response = bank.plan.response
    alphas, betas = [], []
    check = 8
    for alpha, beta, _ in _lanczos(lambda v: bank.walnut(v, response), q):
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
    return (float(theta[0]), float(theta[-1]))


def empirical_bounds(bank: WarpedBank) -> tuple[float, float]:
    """(A_emp, B_emp): extreme eigenvalues of the frame operator.

    S is block diagonal on the components of its aliasing graph
    (``WarpedBank.components``), so A and B are the extremes over its
    blocks.  A painless bank's components are single bins and its blocks
    its diagonal, whose extremes it returns without the label pass.
    Otherwise a bin alone in its component gives its diagonal entry, the
    blocks of components of at most ``DENSE_BLOCK_MAX`` bins are
    decomposed densely (``_block_extremes``), and one ``_lanczos`` run
    gives the extremes on the bins of the rest.  A component with fewer
    slots than bins has a singular block, so then A is 0 exactly.

    The run works on unitary-DFT spectra, where S is the Walnut form
    (``WarpedBank.walnut``), a real symmetric matrix: one real fold and one
    real spread per step, no FFT.  The start vector is a fixed real
    Gaussian draw (``default_rng(0)``) on the DFT bins with the dense
    components' bins set to 0, normalized; S keeps it on the bins of the
    large components.  When every bin is in one, the Ritz values are those
    of the time-domain run from its inverse DFT.
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
    labels, slots = bank.components()
    sizes = np.bincount(labels)
    small = sizes <= DENSE_BLOCK_MAX
    alone = bank.diagonal()[(sizes == 1)[labels]]
    extremes = [(alone.min(initial=np.inf), alone.max(initial=-np.inf))]
    if np.any(small & (sizes > 1)):
        extremes.append(_block_extremes(bank, labels, sizes, small & (sizes > 1)))
    if not small.all():
        q = np.random.default_rng(0).standard_normal(bank.grid.length)
        q[small[labels]] = 0.0
        q /= np.linalg.norm(q)
        extremes.append(_lanczos_extremes(bank, q))
    lows, highs = zip(*extremes)
    return (0.0 if np.any(slots < sizes) else float(min(lows))), float(max(highs))


def _lanczos_bins(bank: WarpedBank) -> int:
    """How many bins ``empirical_bounds`` hands to Lanczos."""
    if bank.painless:
        return 0
    sizes = np.bincount(bank.components()[0])
    return int(sizes[sizes > DENSE_BLOCK_MAX].sum())


def _verdict(bank: WarpedBank, a_emp: float, b_emp: float) -> tuple[float, float]:
    """(A_emp, B_emp / A_emp) as reported.  When some bins went to
    Lanczos, an A_emp of at most ``_RESIDUAL_TOL`` B_emp lies within the
    run's residual bound of 0, so S may be singular: it is reported as 0
    and the ratio as inf.  The diagonal and dense blocks are exact: only
    an A_emp of 0 or below (a singular block) is reported so."""
    if a_emp <= (_RESIDUAL_TOL * b_emp if _lanczos_bins(bank) else 0.0):
        a_emp = 0.0
    return a_emp, (b_emp / a_emp if a_emp > 0.0 else float("inf"))


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
    run_notes = [str(w.message) for w in caught]
    notes += run_notes
    if bank.painless:
        method = "diagonal (painless, exact)"
    else:
        labels, slots = bank.components()
        sizes = np.bincount(labels)
        short = int(np.count_nonzero(slots < sizes))
        if short:
            notes.append("singular by counting: fewer coefficient slots than bins "
                         f"in {short} of {len(sizes)} components")
        lanczos = _lanczos_bins(bank)
        method = (f"blocks (components {len(sizes)}, largest {sizes.max()} bins, "
                  f"lanczos bins {lanczos}): ")
        if not lanczos:
            method += "exact"
        elif any(issubclass(w.category, NoConvergence) for w in caught):
            method += f"lanczos stopped at its cap of {LANCZOS_MAX_STEPS} steps"
        else:
            method += f"lanczos residual bound {_RESIDUAL_TOL:g} of B_emp"
    a_emp, ratio = _verdict(bank, a_emp, b_emp)
    if a_emp <= 0.0:
        notes.append("not a frame to working precision")
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
        bounds_warnings=run_notes,
    )


def tightness_sweep(bank: WarpedBank, scales=(1, 2, 4)) -> list[tuple[int, float]]:
    """Tightness ratio as every hop is scaled up by each factor; leaving
    the painless regime degrades it monotonically.  Each scale must be a
    positive integer (InvalidParameter otherwise)."""
    if not np.iterable(scales):
        raise InvalidParameter(f"scales must be a sequence of integers, got {scales!r}")
    rows = []
    for scale in [as_integer(s, "scale") for s in scales]:
        scaled = bank if scale == 1 else with_scaled_factors(bank, scale)
        rows.append((scale, _verdict(scaled, *empirical_bounds(scaled))[1]))
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
        f"A_emp: {report.a_emp:.12g}"
        + ("" if report.a_emp > 0.0 else "  (not a frame to working precision)"),
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
