import numpy as np
import pytest

from warpbank import (Domain, Explicit, GridSpec, build_bank, design_tight,
                      make_warping, named_window, with_scaled_factors)


def atom_matrix(bank):
    """Every atom of ``bank`` as a time-domain row, in coefficient order:
    channels, then mirror branches (half-line banks), then residuals.

    Built from the definition, without the transform's plan: atom n of a
    channel with hop a is the n a samples translate of
    L^{-1/2} sum_j response[j] exp(2 pi i xi_j t / L) over its signed bins
    xi_j; a mirror branch negates the bins.
    """
    length = bank.grid.length
    t = np.arange(length)
    rows = []

    def add(bins, values, hop, n_frames):
        base = np.exp(2j * np.pi * np.outer(t, bins) / length) @ values
        rows.extend(np.roll(base, n * hop) / np.sqrt(length) for n in range(n_frames))

    for sign in (1, -1) if bank.grid.domain is Domain.POSITIVE_HALF_LINE else (1,):
        for ch in bank.channels:
            bins = ch.start_bin + np.arange(len(ch.response))
            add(sign * bins, ch.response, ch.a, ch.n_frames)
    for res in bank.residuals:
        add(np.array([res.bin_index]), np.array([1.0]), length, 1)
    return np.array(rows)


@pytest.fixture
def dense_atoms():
    return atom_matrix


def scaled_and_explicit_banks(family, kw, fs, length=128):
    """A tight bank, the same with doubled and with quadrupled hops, and an
    explicit-hop bank with extra channels beyond the grid, whose responses
    are empty."""
    w = make_warping(family, **kw)
    grid = GridSpec(length=length, fs=fs, domain=w.domain)
    tight = design_tight(w, grid, "hann", 3.0)
    factors = {ch.m: ch.a for ch in tight.channels}
    lo, hi = min(factors), max(factors)
    factors.update({lo - 3: 4, lo - 2: length, hi + 2: 8, hi + 3: 1})
    explicit = build_bank(w, named_window("hann", 3.0), grid, Explicit(factors))
    return {"tight": tight, "doubled": with_scaled_factors(tight, 2),
            "quadrupled": with_scaled_factors(tight, 4), "explicit": explicit}


@pytest.fixture
def plan_test_banks():
    return scaled_and_explicit_banks

