"""Reference computations for the benchmark's correctness checks.

Nothing here imports warpbank.  The checks read the program's outputs
(coefficient arrays, WFBC files, raw signals, PGM images, diagnose
reports) and the bank-spec JSON, and compare them with quantities rebuilt
from the spec alone:

* coefficient counts and the WFBC entry layout from the channel table:
  channel m has N_m = L / a_m coefficients, half-line grids add a mirror
  branch per channel and two residuals;
* the frame operator of a full-line ERB-like bank, from the closed forms
  F(t) = sgn(t) c log(1 + |t|/d) and theta(x) = sum_k b_k cos(2 pi k x / R)
  on [-R/2, R/2).  In the unitary-DFT domain
  S[j, j'] = sum_m N_m r_m[j] r_m[j'] over j = j' (mod N_m), with
  r_m[j] = sqrt(a_m / L) theta(F(xi_j) - m); it is assembled densely and
  diagonalised with eigvalsh.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

WFBC_HEADER = 12  # magic, version, entry count
WFBC_ENTRY_HEADER = 8  # channel tag, coefficient count


def load_spec(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def half_line(spec: dict) -> bool:
    return spec["grid"]["domain"] == "positive_half_line"


def frame_lengths(spec: dict) -> list[int]:
    """N_m = L / a_m per channel, in table order."""
    length = int(spec["grid"]["L"])
    out = []
    for ch in spec["channels"]:
        a = int(ch["a_m_samples"])
        if a < 1 or length % a:
            raise ValueError(f"channel {ch['m']}: hop {a} does not divide L={length}")
        out.append(length // a)
    return out


def atom_count(spec: dict) -> int:
    """Complex coefficients of the full atom set: warped channels, their
    mirror branches on half-line grids, and the two residuals there."""
    total = sum(frame_lengths(spec))
    if half_line(spec):
        total = 2 * total + 2
    return total


def wfbc_layout(spec: dict) -> list[tuple[int, int]]:
    """(tag, count) per WFBC entry in file order for a full-line bank: one
    entry per channel, tagged with its index m."""
    if half_line(spec):
        raise ValueError("half-line layouts (residual and mirror entries) are not modelled")
    return [(int(ch["m"]), n) for ch, n in zip(spec["channels"], frame_lengths(spec))]


def wfbc_size(layout) -> int:
    return WFBC_HEADER + sum(WFBC_ENTRY_HEADER + 16 * n for _, n in layout)


def wfbc_energy(path, layout) -> float:
    """Sum of |c|^2 over a WFBC file's entries, checked against the
    expected layout.  Reads one entry at a time and makes no complex copy,
    so the check adds little to the process's peak memory."""
    size = Path(path).stat().st_size
    if size != wfbc_size(layout):
        raise ValueError(f"WFBC size {size} bytes, channel table implies {wfbc_size(layout)}")
    total = 0.0
    with open(path, "rb") as fh:
        magic, _, count = struct.unpack("<4sII", fh.read(WFBC_HEADER))
        if magic != b"WFBC":
            raise ValueError("WFBC magic missing")
        if count != len(layout):
            raise ValueError(f"WFBC has {count} entries, channel table implies {len(layout)}")
        for tag, n in layout:
            got = struct.unpack("<iI", fh.read(WFBC_ENTRY_HEADER))
            if got != (tag, n):
                raise ValueError(f"WFBC entry {got}, expected ({tag}, {n})")
            flat = np.frombuffer(fh.read(16 * n), dtype="<f8")
            total += float(flat @ flat)
    return total


def energy(entries) -> float:
    return float(sum(np.vdot(c, c).real for c in entries))


def relative_error(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return float("inf")
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def read_pgm_shape(path) -> tuple[int, int]:
    """(rows, cols) of an 8-bit binary PGM whose pixel count matches."""
    with open(path, "rb") as fh:
        head = fh.read(64)
    magic, dims, maxval, _ = head.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError("not an 8-bit binary PGM")
    cols, rows = (int(v) for v in dims.split())
    pixels = Path(path).stat().st_size - (len(magic) + len(dims) + len(maxval) + 3)
    if pixels != rows * cols:
        raise ValueError(f"PGM holds {pixels} pixels for {rows}x{cols}")
    return rows, cols


def parse_report(text: str) -> dict:
    """Numeric fields of a diagnose report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep and key in ("A_suff", "B_suff", "A_emp", "B_emp"):
            out[key] = float(value.split()[0])
    return out


# ---------------------------------------------------------------------------
# closed forms

def erb_warp(t, c: float, d: float):
    t = np.asarray(t, dtype=float)
    return np.sign(t) * c * np.log1p(np.abs(t) / d)


def cosine_window(x, coeffs, stretch: float):
    x = np.asarray(x, dtype=float)
    inside = (x >= -stretch / 2.0) & (x < stretch / 2.0)
    acc = np.zeros_like(x)
    for k, b in enumerate(coeffs):
        acc += b * np.cos(2.0 * np.pi * k * x / stretch)
    return np.where(inside, acc, 0.0)


def scale_hops(spec: dict, scale: int) -> dict:
    """Copy of a spec with every hop multiplied by ``scale``, snapped down
    to a divisor of L and capped at L."""
    length = int(spec["grid"]["L"])
    divisors = [k for k in range(1, length + 1) if length % k == 0]
    out = json.loads(json.dumps(spec))
    out["kind"] = "analysis"
    out["factor_policy"] = {"policy": "explicit"}
    for ch in out["channels"]:
        target = min(int(ch["a_m_samples"]) * scale, length)
        ch["a_m_samples"] = max(k for k in divisors if k <= target)
    return out


def dense_frame_bounds(spec: dict) -> tuple[float, float]:
    """Extreme eigenvalues of the dense frame operator of a full-line
    ERB-like bank with a cosine-sum prototype."""
    warp = spec["warping"]
    proto = spec["prototype"]
    if warp["family"] != "erblike" or proto["kind"] != "cosine_sum" or half_line(spec):
        raise ValueError("dense reference covers full-line erblike banks with cosine-sum windows")
    length = int(spec["grid"]["L"])
    fs = float(spec["grid"]["fs"])
    signed = np.arange(-length // 2 + 1, length // 2 + 1)
    warped = erb_warp(signed * fs / length, float(warp["c"]), float(warp["d"]))
    op = np.zeros((length, length))
    for ch, n in zip(spec["channels"], frame_lengths(spec)):
        a = int(ch["a_m_samples"])
        resp = np.sqrt(a / length) * cosine_window(
            warped - int(ch["m"]), proto["coeffs"], float(proto["stretch"]))
        nz = np.nonzero(resp)[0]
        if not len(nz):
            continue
        bins = signed[nz]
        alias = (bins[:, None] - bins[None, :]) % n == 0
        idx = bins % length
        op[np.ix_(idx, idx)] += n * np.outer(resp[nz], resp[nz]) * alias
    eig = np.linalg.eigvalsh(op)
    return float(eig[0]), float(eig[-1])
