"""Bank-spec files: a versioned JSON description of a bank's geometry.

Responses are never stored.  The file records the warping, the prototype,
the grid and the per-channel factor table; loading regenerates every
response from the closed-form evaluators, which is bit-exact because the
evaluation path is deterministic.  The channel table is authoritative on
load (the policy record is kept for provenance only), so hand-edited
files with holes in the channel set load fine and can be handed to
diagnose, which will flag the holes.
"""

from __future__ import annotations

import json
from collections import Counter

from .bank import Explicit, GridSpec, WarpedBank, build_bank
from .errors import InvalidParameter
from .prototypes import BSplineWindow, CosineSumWindow
from .warping import Domain, make_warping

FORMAT_VERSION = 1


def bank_spec_record(bank: WarpedBank) -> dict:
    """The JSON-ready dict for a bank."""
    warp = dict(bank.warping.params)
    warp["C"] = bank.warping.moderate_constant
    return {
        "format_version": FORMAT_VERSION,
        "kind": bank.kind,
        "warping": warp,
        "prototype": dict(bank.window.record),
        "grid": {
            "L": bank.grid.length,
            "fs": bank.grid.fs,
            "domain": bank.grid.domain.value,
        },
        "factor_policy": dict(bank.policy_record),
        "channels": [
            {
                "m": ch.m,
                "center_hz": ch.center_hz,
                "a_m_samples": ch.a,
                "support_bins": list(ch.support_bins),
            }
            for ch in bank.channels
        ],
    }


def save_bank_spec(bank: WarpedBank, path) -> None:
    with open(path, "w") as fh:
        json.dump(bank_spec_record(bank), fh, indent=2)
        fh.write("\n")


def _window_from_record(record: dict):
    kind = record.get("kind")
    if kind == "cosine_sum":
        return CosineSumWindow(
            tuple(record["coeffs"]),
            float(record["stretch"]),
            normalized=bool(record.get("normalized", False)),
        )
    if kind == "bspline":
        return BSplineWindow(order=int(record["order"]),
                             stretch=float(record["stretch"]))
    raise InvalidParameter(f"unknown prototype kind {kind!r}")


def _integer(value, what: str) -> int:
    """``value`` if it is an integer (a float with no fractional part
    counts); anything else, 2.7 or "512" or true, raises."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise InvalidParameter(f"bank spec {what} must be an integer, got {value!r}")
    return value


def load_bank_spec(path) -> WarpedBank:
    """Rebuild a bank from a spec file.

    Coverage is not enforced here; a gapped channel table loads and is
    reported by diagnostics instead.
    """
    try:
        with open(path) as fh:
            record = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"bank spec is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise InvalidParameter("bank spec must be a JSON object")
    version = record.get("format_version")
    if version != FORMAT_VERSION:
        raise InvalidParameter(
            f"unsupported bank-spec format_version {version!r}"
        )
    try:
        warp_rec = record["warping"]
        warping = make_warping(
            warp_rec["family"],
            c=warp_rec.get("c"),
            d=warp_rec.get("d"),
            l=warp_rec.get("l"),
        )
        window = _window_from_record(record["prototype"])
        grid_rec = record["grid"]
        grid = GridSpec(
            length=_integer(grid_rec["L"], "grid.L"),
            fs=float(grid_rec["fs"]),
            domain=Domain(grid_rec["domain"]),
        )
        table = [(_integer(ch["m"], "channel m"),
                  _integer(ch["a_m_samples"], "channel a_m_samples"))
                 for ch in record["channels"]]
        kind = record.get("kind", "analysis")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"malformed bank spec: {exc!r}") from exc
    factors = dict(table)
    if len(factors) != len(table):
        twice = sorted(m for m, k in Counter(m for m, _ in table).items() if k > 1)
        raise InvalidParameter(f"bank spec lists channels {twice} more than once")
    bank = build_bank(warping, window, grid, Explicit(factors), kind=kind,
                      check_coverage=False)
    policy = record.get("factor_policy")
    if isinstance(policy, dict):
        bank.policy_record = dict(policy)
    return bank
