"""Bank-spec files: a versioned JSON description of a bank's geometry.

Responses are never stored.  The file records the warping, the prototype,
the grid and the per-channel factor table; loading regenerates every
response from the closed-form evaluators, which is bit-exact because the
evaluation path is deterministic.  The channel table is authoritative on
load (the policy record is kept for provenance only), so hand-edited
files with holes in the channel set load fine and can be handed to
diagnose, which will flag the holes.  A spec's ``kind`` is checked
against ``KINDS`` but read only to recognise ``dual``: such a spec
records the geometry of its analysis bank and loads as that bank's
painless dual.  Tightness is worked out from the geometry, never taken
from the label, so a hand-edited ``tight`` spec that lost a channel or
was given longer hops loads as ``analysis`` (see ``build_bank``).
"""

from __future__ import annotations

import json
from collections import Counter

from .bank import Explicit, GridSpec, WarpedBank, build_bank, painless_dual
from .errors import InvalidParameter, as_integer, as_number
from .prototypes import BSplineWindow, CosineSumWindow
from .warping import Domain, make_warping

FORMAT_VERSION = 1
KINDS = ("analysis", "tight", "dual")


def bank_spec_record(bank: WarpedBank) -> dict:
    """The JSON-ready dict for a bank."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": bank.kind,
        "warping": dict(bank.warping.params),
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
    """Write ``bank``'s spec to ``path``; the record is built before the
    file is opened, so a save that fails leaves no file."""
    text = json.dumps(bank_spec_record(bank), indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _field(record, name: str):
    """The field at the end of the dotted ``name`` from its parent object
    ``record``; a missing field, or a parent that is not a JSON object,
    raises InvalidParameter naming it."""
    parent, _, key = name.rpartition(".")
    if not isinstance(record, dict):
        raise InvalidParameter(f"bank spec {parent} must be a JSON object, got {record!r}")
    if key not in record:
        raise InvalidParameter(f"bank spec has no {name}")
    return record[key]


def _channel_entry(ch, i: int) -> tuple[int, int]:
    """(m, a_m_samples) of channel entry ``i``; a missing field is named
    (the names are built only then: a spec holds many channels)."""
    if not (isinstance(ch, dict) and "m" in ch and "a_m_samples" in ch):
        for key in ("m", "a_m_samples"):
            _field(ch, f"channels[{i}].{key}")
    return (as_integer(ch["m"], "bank spec channel m"),
            as_integer(ch["a_m_samples"], "bank spec channel a_m_samples"))


def _window_from_record(record):
    kind = _field(record, "prototype.kind")
    if kind == "cosine_sum":
        coeffs = _field(record, "prototype.coeffs")
        if not isinstance(coeffs, list):
            raise InvalidParameter(f"bank spec prototype.coeffs must be a list, got {coeffs!r}")
        return CosineSumWindow(
            tuple(as_number(b, "bank spec prototype.coeffs entry") for b in coeffs),
            as_number(_field(record, "prototype.stretch"), "bank spec prototype.stretch"),
            normalized=_boolean(record.get("normalized", False), "prototype.normalized"),
        )
    if kind == "bspline":
        return BSplineWindow(
            order=as_integer(_field(record, "prototype.order"), "bank spec prototype.order"),
            stretch=as_number(_field(record, "prototype.stretch"), "bank spec prototype.stretch"))
    raise InvalidParameter(f"unknown prototype kind {kind!r}")


def _boolean(value, what: str) -> bool:
    """``value`` if it is a JSON boolean; "no", 0 or null raises."""
    if type(value) is not bool:
        raise InvalidParameter(f"bank spec {what} must be true or false, got {value!r}")
    return value


def load_bank_spec(path) -> WarpedBank:
    """Rebuild a bank from a spec file.

    Coverage is not enforced here; a gapped channel table loads and is
    reported by diagnostics instead.  A ``dual`` spec is the exception:
    its bank must be painless and cover the grid for the dual to exist.
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
        warp_rec = _field(record, "warping")
        family = _field(warp_rec, "warping.family")
        warping = make_warping(family, **{
            k: as_number(warp_rec[k], f"bank spec warping.{k}")
            for k in ("c", "d", "l") if warp_rec.get(k) is not None})
        window = _window_from_record(_field(record, "prototype"))
        grid_rec = _field(record, "grid")
        domain = _field(grid_rec, "grid.domain")
        if domain not in [d.value for d in Domain]:
            raise InvalidParameter(f"bank spec grid.domain must be one of "
                                   f"{', '.join(d.value for d in Domain)}, got {domain!r}")
        grid = GridSpec(
            length=as_integer(_field(grid_rec, "grid.L"), "bank spec grid.L"),
            fs=as_number(_field(grid_rec, "grid.fs"), "bank spec grid.fs"),
            domain=Domain(domain),
        )
        channels = _field(record, "channels")
        if not isinstance(channels, list):
            raise InvalidParameter(f"bank spec channels must be a list, got {channels!r}")
        table = [_channel_entry(ch, i) for i, ch in enumerate(channels)]
        kind = record.get("kind", "analysis")
        if kind not in KINDS:
            raise InvalidParameter(f"bank spec kind must be one of {', '.join(KINDS)}, "
                                   f"got {kind!r}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"malformed bank spec: {exc!r}") from exc
    factors = dict(table)
    if len(factors) != len(table):
        twice = sorted(m for m, k in Counter(m for m, _ in table).items() if k > 1)
        raise InvalidParameter(f"bank spec lists channels {twice} more than once")
    bank = build_bank(warping, window, grid, Explicit(factors))
    if kind == "dual":
        bank = painless_dual(bank)
    policy = record.get("factor_policy")
    if isinstance(policy, dict):
        bank.policy_record = dict(policy)
    return bank
