import numpy as np
import pytest

from warpbank import Domain


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
        add(np.array([res.bin_index]), np.array([res.response_value]), length, 1)
    return np.array(rows)


@pytest.fixture
def dense_atoms():
    return atom_matrix
