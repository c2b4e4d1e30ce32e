"""Command-line interface.

Subcommands: design (write a bank spec and print the channel table),
analyze (signal -> WFBC coefficients, optional PGM spectrogram),
synthesize (coefficients -> signal, painless dual by default unless the
bank is tight or already a dual) and diagnose (frame report, optional
hop-scaling sweep).

Exit codes enumerate the distinct failure conditions so scripts can tell
them apart: 2 invalid parameters (an output path naming an input or
another output included), degenerate inputs or too little memory, 3 a
design that leaves a bin uncovered, or a painless dual where the
diagonal vanishes, 4 signal length mismatch, 5 coefficient container
mismatch or corruption, 6 painless-dual request on a non-painless bank.
Each error type carries its code (see errors).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import bank as bank_mod
from . import diagnostics, signal_io, specfile, transform
from .errors import InvalidParameter, LengthMismatch, NoConvergence, WarpBankError
from .prototypes import named_window
from .warping import make_warping


def _parse_warp_params(text: str | None) -> dict:
    params = {}
    if not text:
        return params
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InvalidParameter(
                f"bad --warp-params entry {item!r}; expected name=value"
            )
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in ("c", "d", "l"):
            raise InvalidParameter(f"unknown warping parameter {key!r}")
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise InvalidParameter(f"bad value for {key}: {value!r}") from exc
    return params


def cmd_design(args) -> int:
    params = _parse_warp_params(args.warp_params)
    warping = make_warping(args.warp, **params)
    grid = bank_mod.GridSpec(length=args.L, fs=args.fs, domain=warping.domain)
    policy_name = args.policy
    if policy_name == "tight":
        built = bank_mod.design_tight(warping, grid, window=args.window,
                                      stretch=args.R)
    else:
        window = named_window(args.window, args.R)
        if policy_name == "painless":
            policy = bank_mod.Painless()
        elif policy_name.startswith("natural"):
            a_tilde = None
            if ":" in policy_name:
                try:
                    a_tilde = float(policy_name.split(":", 1)[1])
                except ValueError as exc:
                    raise InvalidParameter(
                        f"bad --policy value {policy_name!r}"
                    ) from exc
            policy = bank_mod.Natural(a_tilde=a_tilde)
        else:
            raise InvalidParameter(
                f"unknown policy {policy_name!r}; expected tight, painless "
                "or natural[:a_tilde]"
            )
        built = bank_mod.build_bank(warping, window, grid, policy)
    if args.out:
        specfile.save_bank_spec(built, args.out)
    lo_s, hi_s = built.window.support
    print(f"# {built.kind} bank: {len(built.channels)} channels"
          f" + {len(built.residuals)} residual, L={grid.length}, fs={grid.fs:g} Hz,"
          f" fingerprint {built.fingerprint}")
    print(f"{'m':>5s} {'center_hz':>14s} {'a_m':>8s} {'bandwidth_hz':>14s} {'painless':>9s}")
    for ch in built.channels:
        with np.errstate(over="ignore"):  # F^{-1} may pass float range: inf
            bw = float(warping.f_inv(hi_s + ch.m) - warping.f_inv(lo_s + ch.m))
        print(f"{ch.m:>5d} {ch.center_hz:>14.4f} {ch.a:>8d} {bw:>14.4f} "
              f"{'yes' if ch.painless else 'no':>9s}")
    if args.out:
        print(f"# wrote {args.out}")
    return 0


def _read_input(path, built, pad: bool) -> transform.Signal:
    length = built.grid.length
    if str(path).lower().endswith(".wav"):
        sig = signal_io.read_wav(path)
    else:
        sig = signal_io.read_raw(path, built.grid.fs)
    if len(sig) < length and pad:
        padded = np.zeros(length, dtype=sig.samples.dtype)
        padded[: len(sig)] = sig.samples
        sig = transform.Signal(samples=padded, fs=sig.fs)
    if len(sig) != length:
        hint = "" if pad else " (use --pad to zero-pad shorter input)"
        raise LengthMismatch(
            f"input has {len(sig)} samples, bank expects {length}{hint}"
        )
    return sig


def _check_outputs(inputs: dict, outputs: dict) -> None:
    """Raise InvalidParameter when one of the named ``outputs`` is the same
    file as one of the named ``inputs`` or as another output: writing it
    would destroy what the command reads or writes.  Commands call this
    before they read anything."""
    claimed = {os.path.realpath(path): name for name, path in inputs.items()}
    for name, path in outputs.items():
        other = claimed.setdefault(os.path.realpath(path), name)
        if other != name:
            raise InvalidParameter(f"output paths collide: {name} {path} is also {other}")


def cmd_analyze(args) -> int:
    outputs = {"--out": args.out}
    if args.spectrogram:
        csv_path = os.path.splitext(args.spectrogram)[0] + ".csv"
        outputs.update({"--spectrogram": args.spectrogram, "the row-center CSV": csv_path})
    _check_outputs({"--bank": args.bank, "--in": args.input}, outputs)
    built = specfile.load_bank_spec(args.bank)
    sig = _read_input(args.input, built, args.pad)
    coeffs = transform.analyze(sig, built)
    transform.save_coefficients(coeffs, built, args.out)
    print(f"# wrote {args.out}")
    if args.spectrogram:
        image, centers = signal_io.render_spectrogram(coeffs, built)
        signal_io.write_pgm(args.spectrogram, image)
        signal_io.write_csv(csv_path, centers, header="row_center_hz")
        print(f"# wrote {args.spectrogram} ({image.shape[1]}x{image.shape[0]}) "
              f"and {csv_path}")
    return 0


def cmd_synthesize(args) -> int:
    _check_outputs({"--bank": args.bank, "--coeffs": args.coeffs}, {"--out": args.out})
    built = specfile.load_bank_spec(args.bank)
    coeffs = transform.load_coefficients(args.coeffs, built)
    use_dual = built.kind not in ("tight", "dual") if args.dual is None else args.dual
    synth_bank = bank_mod.painless_dual(built) if use_dual else built
    sig = transform.synthesize(coeffs, synth_bank)
    if str(args.out).lower().endswith(".wav"):
        signal_io.write_wav(args.out, sig, encoding=args.encoding)
    else:
        signal_io.write_raw(args.out, sig)
    print(f"# wrote {args.out}")
    return 0


def cmd_diagnose(args) -> int:
    _check_outputs({"--bank": args.bank}, {"--report": args.report} if args.report else {})
    if args.sweep_a is not None:
        try:
            scales = [int(s) for s in args.sweep_a.split(",") if s.strip()]
        except ValueError as exc:
            raise InvalidParameter(f"bad --sweep-a value {args.sweep_a!r}") from exc
        if not scales:
            raise InvalidParameter(f"--sweep-a {args.sweep_a!r} holds no scale")
    built = specfile.load_bank_spec(args.bank)
    report = diagnostics.frame_report(built)
    text = diagnostics.format_report(report)
    if args.sweep_a is not None:
        text += "sweep:\n"
        for scale in scales:
            if scale == 1:  # the report's own Lanczos run
                ratio, notes = report.tightness_ratio, report.bounds_warnings
            else:  # a Lanczos run that hit its step cap is noted on its row
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", NoConvergence)
                    [(_, ratio)] = diagnostics.tightness_sweep(built, [scale])
                notes = [str(w.message) for w in caught]
            text += (f"  a_m x{scale}: tightness_ratio {ratio:.12g}"
                     + "".join(f"  ({note})" for note in notes) + "\n")
    sys.stdout.write(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
        print(f"# wrote {args.report}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpbank",
        description="Warped time-frequency filter banks: design, analyze, "
                    "synthesize, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="design a bank and write its spec file")
    p.add_argument("--warp", required=True,
                   help="warping family: log, sympow, erb, signedpow")
    p.add_argument("--warp-params", default=None,
                   help="comma-separated name=value pairs, e.g. c=9.265,d=228.8,l=0.5")
    p.add_argument("--window", default="hann",
                   help="prototype window name (default hann)")
    p.add_argument("--R", type=float, default=3.0,
                   help="window stretch in warped units (default 3)")
    p.add_argument("--policy", default="tight",
                   help="tight (default), painless, or natural[:a_tilde]")
    p.add_argument("--L", type=int, required=True, help="signal length")
    p.add_argument("--fs", type=float, required=True, help="sample rate in Hz")
    p.add_argument("--out", default=None, help="bank-spec output path")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("analyze", help="analyze a signal into coefficients")
    p.add_argument("--bank", required=True, help="bank-spec file")
    p.add_argument("--in", dest="input", required=True,
                   help="input signal (.wav, or raw little-endian f64)")
    p.add_argument("--out", required=True, help="coefficient output (WFBC)")
    p.add_argument("--spectrogram", default=None,
                   help="also render a PGM spectrogram here (+ .csv of row centers)")
    p.add_argument("--pad", action="store_true",
                   help="zero-pad shorter input up to the bank length")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", help="synthesize a signal from coefficients")
    p.add_argument("--bank", required=True, help="bank-spec file")
    p.add_argument("--coeffs", required=True, help="coefficient file (WFBC)")
    p.add_argument("--out", required=True, help="output signal (.wav or raw f64)")
    p.add_argument("--dual", action=argparse.BooleanOptionalAction, default=None,
                   help="synthesize with the painless dual "
                        "(default: yes unless the bank is tight or a dual)")
    p.add_argument("--encoding", default="float32",
                   choices=("float32", "pcm16", "pcm24"),
                   help="WAV sample encoding (default float32)")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("diagnose", help="frame bounds and health report")
    p.add_argument("--bank", required=True, help="bank-spec file")
    p.add_argument("--sweep-a", default=None,
                   help="comma-separated hop scales to sweep, e.g. 1,2,4")
    p.add_argument("--report", default=None, help="also write the report here")
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WarpBankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, MemoryError) as exc:  # MemoryError: e.g. a grid far too long
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
