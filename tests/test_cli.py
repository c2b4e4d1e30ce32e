import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from warpbank import (GridSpec, InvalidParameter, Natural, Signal, analyze, build_bank, cli,
                      design_tight, errors, load_bank_spec, load_coefficients, make_warping,
                      named_window, painless_dual, save_bank_spec, specfile,
                      with_scaled_factors)
from warpbank.signal_io import (SPECTROGRAM_FLOOR_DB, read_raw, read_wav,
                                render_spectrogram, write_raw, write_wav)

BANKS = sorted((Path(__file__).resolve().parents[1] / "banks").glob("*.json"))


def run(args):
    return cli.main([str(a) for a in args])


def design_bank(tmp_path, name="bank.json", warp="erb", params="c=1,d=1",
                policy="tight", length=512, fs=8000.0, stretch=3.0):
    out = tmp_path / name
    argv = ["design", "--warp", warp, "--policy", policy,
            "--L", length, "--fs", fs, "--R", stretch, "--out", out]
    if params:
        argv += ["--warp-params", params]
    assert run(argv) == 0
    return out


def read_pgm(path):
    blob = Path(path).read_bytes()
    header, _, rest = blob.partition(b"255\n")
    magic, dims = header.split(b"\n")[:2]
    assert magic == b"P5"
    cols, rows = (int(v) for v in dims.split())
    return np.frombuffer(rest, dtype=np.uint8).reshape(rows, cols)


@pytest.mark.parametrize("spec", BANKS, ids=lambda p: p.stem)
def test_checked_in_banks_diagnose_clean(spec, capsys):
    assert run(["diagnose", "--bank", spec]) == 0
    out = capsys.readouterr().out
    assert "painless: true" in out
    ratio = float(re.search(r"tightness_ratio: (\S+)", out).group(1))
    assert abs(ratio - 1.0) <= 1e-8


@pytest.mark.parametrize("spec", BANKS, ids=lambda p: p.stem)
def test_checked_in_banks_regenerate_byte_identically(spec, tmp_path):
    bank = load_bank_spec(spec)
    assert all(len(ch.response) for ch in bank.channels)
    copy = tmp_path / "copy.json"
    save_bank_spec(bank, copy)
    assert copy.read_bytes() == Path(spec).read_bytes()


def test_spec_of_a_map_without_a_moderateness_constant_saves(tmp_path):
    """A tight design of a sympow map with a small exponent designs to a
    file; no spec records a moderateness constant."""
    out = design_bank(tmp_path, warp="sympow", params="c=0.1,l=0.25", fs=8.0)
    warping = make_warping("sympow", c=0.1, l=0.25)
    bank = design_tight(warping, GridSpec(length=512, fs=8.0, domain=warping.domain))
    assert load_bank_spec(out).fingerprint == bank.fingerprint


def test_natural_design_of_a_steep_sympow_map_saves(tmp_path):
    """Natural steps follow from the companion weight v alone, which every
    sympow map has, so a steep map's Natural design saves."""
    out = design_bank(tmp_path, warp="sympow", params="c=0.1,l=0.25", policy="natural", fs=8.0)
    warping = make_warping("sympow", c=0.1, l=0.25)
    grid = GridSpec(length=512, fs=8.0, domain=warping.domain)
    bank = build_bank(warping, named_window("hann", 3.0), grid, Natural())
    assert load_bank_spec(out).fingerprint == bank.fingerprint


def test_failed_spec_save_leaves_no_file(tmp_path, monkeypatch):
    def refuse(bank):
        raise InvalidParameter("no record")

    bank, path = load_bank_spec(BANKS[0]), tmp_path / "x.json"
    monkeypatch.setattr(specfile, "bank_spec_record", refuse)
    with pytest.raises(InvalidParameter):
        save_bank_spec(bank, path)
    assert not path.exists()


def test_spec_that_records_a_moderateness_constant_loads_alike(tmp_path):
    """Older specs wrote C into their warping; loading ignores it."""
    record = json.loads(BANKS[0].read_text())
    old = tmp_path / "old.json"
    old.write_text(json.dumps(dict(record, warping=dict(record["warping"], C=4.0))))
    bank, plain = load_bank_spec(old), load_bank_spec(BANKS[0])
    assert bank.fingerprint == plain.fingerprint
    for name in ("bins", "response", "slots", "offsets", "coefs", "frames", "partner"):
        assert getattr(bank.plan, name).tobytes() == getattr(plain.plan, name).tobytes()


def test_wav_round_trip(tmp_path):
    spec = design_bank(tmp_path)
    rng = np.random.default_rng(0)
    x = 0.5 * rng.standard_normal(512)
    write_wav(tmp_path / "in.wav", Signal(samples=x, fs=8000.0))
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.wav",
                "--out", tmp_path / "c.wfbc"]) == 0
    assert run(["synthesize", "--bank", spec, "--coeffs", tmp_path / "c.wfbc",
                "--out", tmp_path / "out.wav"]) == 0
    orig = read_wav(tmp_path / "in.wav").samples
    rec = read_wav(tmp_path / "out.wav").samples
    assert np.linalg.norm(rec - orig) <= 1e-5 * np.linalg.norm(orig)


def test_raw_round_trip_with_padding(tmp_path):
    spec = design_bank(tmp_path, policy="painless")
    rng = np.random.default_rng(1)
    x = rng.standard_normal(300)
    write_raw(tmp_path / "in.f64", Signal(samples=x, fs=8000.0))
    # too short without --pad
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc"]) == 4
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc", "--pad"]) == 0
    # painless (non-tight) bank synthesizes through the dual by default
    assert run(["synthesize", "--bank", spec, "--coeffs", tmp_path / "c.wfbc",
                "--out", tmp_path / "out.f64"]) == 0
    rec = read_raw(tmp_path / "out.f64", 8000.0).samples
    assert np.linalg.norm(rec[:300] - x) <= 1e-10 * np.linalg.norm(x)
    assert np.linalg.norm(rec[300:]) <= 1e-10 * np.linalg.norm(x)


def test_painless_erb_round_trip_through_the_dual(tmp_path):
    # ERB at 44.1 kHz pairs channel -m with m; the real-input file loads as
    # the direct prefix and synthesizes through the dual by default
    spec = design_bank(tmp_path, params=None, policy="painless", fs=44100.0)
    bank = load_bank_spec(spec)
    assert bank.kind != "tight" and (bank.plan.partner >= 0).any()
    x = np.random.default_rng(3).standard_normal(512)
    write_raw(tmp_path / "in.f64", Signal(samples=x, fs=44100.0))
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc"]) == 0
    assert len(load_coefficients(tmp_path / "c.wfbc", bank).buffer) < bank.plan.frames.sum()
    assert run(["synthesize", "--bank", spec, "--coeffs", tmp_path / "c.wfbc",
                "--out", tmp_path / "out.f64"]) == 0
    rec = read_raw(tmp_path / "out.f64", 44100.0).samples
    assert np.linalg.norm(rec - x) <= 1e-10 * np.linalg.norm(x)


def test_no_dual_flag_skips_dual_weighting(tmp_path):
    spec = design_bank(tmp_path, policy="painless")
    rng = np.random.default_rng(2)
    x = rng.standard_normal(512)
    write_raw(tmp_path / "in.f64", Signal(samples=x, fs=8000.0))
    run(["analyze", "--bank", spec, "--in", tmp_path / "in.f64",
         "--out", tmp_path / "c.wfbc"])
    assert run(["synthesize", "--bank", spec, "--coeffs", tmp_path / "c.wfbc",
                "--out", tmp_path / "out.f64", "--no-dual"]) == 0
    rec = read_raw(tmp_path / "out.f64", 8000.0).samples
    # plain synthesis applies the frame operator: diagonal 9/8 for Hann R=3
    assert np.linalg.norm(rec - 9.0 / 8.0 * x) <= 1e-9 * np.linalg.norm(x)


def test_dual_spec_inverts_its_analysis_spec(tmp_path):
    spec = design_bank(tmp_path, policy="painless", stretch=2.5)
    dual_spec = tmp_path / "dual.json"
    save_bank_spec(painless_dual(load_bank_spec(spec)), dual_spec)
    x = np.random.default_rng(4).standard_normal(512)
    write_raw(tmp_path / "in.f64", Signal(samples=x, fs=8000.0))
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc"]) == 0
    # a dual spec synthesizes as it stands, not through a dual of the dual
    assert run(["synthesize", "--bank", dual_spec, "--coeffs", tmp_path / "c.wfbc",
                "--out", tmp_path / "out.f64"]) == 0
    rec = read_raw(tmp_path / "out.f64", 8000.0).samples
    assert np.linalg.norm(rec - x) <= 1e-10 * np.linalg.norm(x)


def test_exit_code_2_on_bad_parameters(tmp_path, capsys):
    assert run(["design", "--warp", "nosuch", "--L", 512, "--fs", 2]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["design", "--warp", "sympow", "--L", 512, "--fs", 2]) == 2
    assert run(["design", "--warp", "log", "--warp-params", "q=1",
                "--L", 512, "--fs", 2]) == 2
    assert run(["design", "--warp", "log", "--policy", "bogus",
                "--L", 512, "--fs", 2]) == 2
    for option, value, message in (("--warp-params", "c", "expected name=value"),
                                   ("--warp-params", "c=x", "bad value for c"),
                                   ("--policy", "natural:x", "bad --policy value")):
        capsys.readouterr()
        assert run(["design", "--warp", "log", option, value, "--L", 512, "--fs", 2]) == 2
        assert message in capsys.readouterr().err

    # a half-line grid of two bins has no bin for warped channels
    assert run(["design", "--warp", "log", "--L", 2, "--fs", 2]) == 2
    assert "no channel" in capsys.readouterr().err
    # channel indices near -4.9e12 do not fit the coefficient file's tags
    assert run(["design", "--warp", "log", "--warp-params", "c=1e12,d=1",
                "--L", 256, "--fs", 2, "--out", tmp_path / "big.json"]) == 2
    assert "32-bit" in capsys.readouterr().err

    spec = design_bank(tmp_path)
    capsys.readouterr()
    assert run(["diagnose", "--bank", spec, "--sweep-a", "1,x"]) == 2
    assert "bad --sweep-a value" in capsys.readouterr().err
    for value in (",", " , ,", " ", ""):  # no scale to sweep: no empty sweep block
        assert run(["diagnose", "--bank", spec, "--sweep-a", value]) == 2
        captured = capsys.readouterr()
        assert "holds no scale" in captured.err and captured.out == ""
    write_wav(tmp_path / "in.wav", Signal(samples=np.zeros(512), fs=44100.0))
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.wav",
                "--out", tmp_path / "c.wfbc"]) == 2
    assert "sample rate" in capsys.readouterr().err
    # 511 whole samples and 3 stray bytes: a truncated file, not a short signal
    (tmp_path / "cut.f64").write_bytes(np.zeros(512).tobytes()[:4091])
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "cut.f64",
                "--out", tmp_path / "c.wfbc", "--pad"]) == 2
    assert "4091 bytes" in capsys.readouterr().err


@pytest.mark.parametrize("m,message", [(1_000_000, "finite center"), (2**31, "32-bit")])
def test_spec_file_with_unrepresentable_channel_is_exit_2(tmp_path, capsys, m, message):
    record = json.loads(BANKS[0].read_text())
    assert BANKS[0].stem == "erblet_r3"
    record["channels"].append(dict(record["channels"][-1], m=m))
    spec = tmp_path / "bank.json"
    spec.write_text(json.dumps(record))
    write_raw(tmp_path / "in.f64", Signal(samples=np.ones(1024), fs=128.0))
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc"]) == 2
    assert message in capsys.readouterr().err


def test_spec_file_with_rows_beyond_the_grid_loads(tmp_path):
    spec = design_bank(tmp_path)
    record = json.loads(spec.read_text())
    top = record["channels"][-1]
    record["channels"].append(dict(top, m=top["m"] + 5, a_m_samples=8))
    spec.write_text(json.dumps(record))
    x = np.random.default_rng(2).standard_normal(512)
    write_raw(tmp_path / "in.f64", Signal(samples=x, fs=8000.0))
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc"]) == 0
    assert run(["synthesize", "--bank", spec, "--coeffs", tmp_path / "c.wfbc",
                "--out", tmp_path / "out.f64"]) == 0
    rec = read_raw(tmp_path / "out.f64", 8000.0).samples
    assert np.linalg.norm(rec - x) <= 1e-10 * np.linalg.norm(x)


def test_exit_code_2_on_non_finite_input(tmp_path, capsys):
    spec = design_bank(tmp_path)
    x = np.zeros(512)
    x[100] = np.nan
    write_raw(tmp_path / "in.f64", Signal(samples=x, fs=8000.0))
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc"]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "c.wfbc").exists()


def test_exit_code_2_when_finite_input_overflows(tmp_path, capsys):
    # every sample is finite, but the spectrum is not
    spec = design_bank(tmp_path, warp="sympow", params="c=1,d=1,l=0.5", length=256, fs=64.0)
    write_raw(tmp_path / "in.f64", Signal(samples=np.full(256, 1e308), fs=64.0))
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc", "--spectrogram", tmp_path / "s.pgm"]) == 2
    assert "float range" in capsys.readouterr().err
    assert not (tmp_path / "c.wfbc").exists() and not (tmp_path / "s.pgm").exists()


def test_diagnose_leaves_scipy_eigensolvers_unimported(tmp_path):
    # their import alone would raise the peak RSS of diagnose by about a sixth
    spec = design_bank(tmp_path, length=128, fs=256.0)
    record = json.loads(spec.read_text())
    for ch in record["channels"]:
        ch["a_m_samples"] = min(ch["a_m_samples"] * 2, 128)
    spec.write_text(json.dumps(record, indent=2) + "\n")
    code = ("import sys\n"
            "from warpbank import cli\n"
            "status = cli.main(['diagnose', '--bank', sys.argv[1]])\n"
            "print([m for m in ('scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules])\n"
            "sys.exit(status)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code, str(spec)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "painless: false" in done.stdout
    # 85 components of at most 12 bins: every block is dense, no Lanczos step
    assert ("bounds_method: blocks (components 85, largest 12 bins, lanczos bins 0): exact\n"
            in done.stdout)
    assert done.stdout.splitlines()[-1] == "[]"


def test_cli_commands_import_no_scipy(tmp_path):
    spec = design_bank(tmp_path, length=256, fs=8000.0)
    x = np.random.default_rng(3).uniform(-0.5, 0.5, 256)
    write_wav(tmp_path / "x.wav", Signal(samples=x, fs=8000.0))
    code = ("import sys\n"
            "from warpbank import cli\n"
            "bank, wav, coeffs, out = sys.argv[1:]\n"
            "print([cli.main(['analyze', '--bank', bank, '--in', wav, '--out', coeffs]),\n"
            "       cli.main(['synthesize', '--bank', bank, '--coeffs', coeffs,\n"
            "                 '--out', out, '--encoding', 'pcm24']),\n"
            "       cli.main(['diagnose', '--bank', bank])])\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code, str(spec), str(tmp_path / "x.wav"),
                           str(tmp_path / "c.wfbc"), str(tmp_path / "y.wav")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[0, 0, 0]", "[]"]
    assert np.max(np.abs(read_wav(tmp_path / "y.wav").samples - x)) < 2.0**-22


def test_exit_code_3_on_coverage_hole(tmp_path):
    spec = design_bank(tmp_path, policy="painless")
    record = json.loads(spec.read_text())
    record["channels"] = [ch for ch in record["channels"]
                          if abs(ch["m"]) > 1]
    gapped = tmp_path / "gapped.json"
    gapped.write_text(json.dumps(record, indent=2) + "\n")
    write_raw(tmp_path / "in.f64", Signal(samples=np.ones(512), fs=8000.0))
    assert run(["analyze", "--bank", gapped, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc"]) == 0
    assert run(["synthesize", "--bank", gapped, "--coeffs", tmp_path / "c.wfbc",
                "--out", tmp_path / "out.f64", "--dual"]) == 3


@pytest.mark.parametrize("window,stretch,policy,holes", [
    ("bspline2", 0.5, "painless", 254), ("bspline3", 0.8, "natural", 102),
])
def test_design_that_leaves_a_bin_uncovered_is_exit_3(tmp_path, capsys, window, stretch,
                                                      policy, holes):
    out = tmp_path / "bank.json"
    assert run(["design", "--warp", "erb", "--window", window, "--R", stretch,
                "--policy", policy, "--L", 512, "--fs", 8000, "--out", out]) == 3
    assert (f"diagonal vanishes on {holes} of 512 bins; the channel set does not cover"
            in capsys.readouterr().err)
    assert not out.exists()


def test_exit_code_5_on_foreign_or_corrupt_coefficients(tmp_path):
    spec_a = design_bank(tmp_path, "a.json")
    spec_b = design_bank(tmp_path, "b.json", params="c=1,d=2")
    write_raw(tmp_path / "in.f64", Signal(samples=np.ones(512), fs=8000.0))
    run(["analyze", "--bank", spec_a, "--in", tmp_path / "in.f64",
         "--out", tmp_path / "c.wfbc"])
    assert run(["synthesize", "--bank", spec_b, "--coeffs", tmp_path / "c.wfbc",
                "--out", tmp_path / "out.f64"]) == 5
    blob = (tmp_path / "c.wfbc").read_bytes()
    (tmp_path / "trunc.wfbc").write_bytes(blob[:-16])
    assert run(["synthesize", "--bank", spec_a, "--coeffs", tmp_path / "trunc.wfbc",
                "--out", tmp_path / "out.f64"]) == 5


@pytest.mark.parametrize("out", ["out.f64", "out.wav"])
def test_exit_code_5_on_non_finite_coefficients(tmp_path, capsys, out):
    spec = design_bank(tmp_path)
    x = np.random.default_rng(23).standard_normal(512)
    write_raw(tmp_path / "in.f64", Signal(samples=x, fs=8000.0))
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc"]) == 0
    blob = bytearray((tmp_path / "c.wfbc").read_bytes())
    blob[20:28] = np.float64(np.nan).tobytes()  # the first entry's first real part
    (tmp_path / "nan.wfbc").write_bytes(bytes(blob))
    capsys.readouterr()
    assert run(["synthesize", "--bank", spec, "--coeffs", tmp_path / "nan.wfbc",
                "--out", tmp_path / out, "--encoding", "pcm16"]) == 5
    assert "corrupt" in capsys.readouterr().err
    assert not (tmp_path / out).exists()


def test_exit_code_2_when_out_of_memory():
    # the address-space limit makes the grid's first large allocation fail
    # at once, whatever the host's overcommit policy
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "warpbank.cli", "design", "--warp", "erb",
                           "--L", str(2**40), "--fs", "44100"], env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_exit_code_6_on_non_painless_dual(tmp_path):
    spec = design_bank(tmp_path, policy="painless")
    record = json.loads(spec.read_text())
    for ch in record["channels"]:
        ch["a_m_samples"] = min(ch["a_m_samples"] * 8, 512)
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(record, indent=2) + "\n")
    write_raw(tmp_path / "in.f64", Signal(samples=np.ones(512), fs=8000.0))
    assert run(["analyze", "--bank", scaled, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc"]) == 0
    assert run(["synthesize", "--bank", scaled, "--coeffs", tmp_path / "c.wfbc",
                "--out", tmp_path / "out.f64", "--dual"]) == 6


@pytest.mark.parametrize("by_hand", [False, True])
def test_tight_spec_past_the_painless_bound_synthesizes_through_the_dual(tmp_path, by_hand):
    # a tight design with every hop doubled is no longer painless, so it is
    # no longer tight: synthesize takes the dual by default, which exits 6
    spec = design_bank(tmp_path, length=128, fs=256.0)
    scaled = tmp_path / "scaled.json"
    if by_hand:  # a hand edit that keeps "kind": "tight"
        record = json.loads(spec.read_text())
        for ch in record["channels"]:
            ch["a_m_samples"] = min(ch["a_m_samples"] * 2, 128)
        scaled.write_text(json.dumps(record))
    else:
        save_bank_spec(with_scaled_factors(load_bank_spec(spec), 2), scaled)
        assert json.loads(scaled.read_text())["kind"] == "analysis"
    assert load_bank_spec(scaled).kind == "analysis"
    write_raw(tmp_path / "in.f64", Signal(samples=np.ones(128), fs=256.0))
    assert run(["analyze", "--bank", scaled, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc"]) == 0
    assert run(["synthesize", "--bank", scaled, "--coeffs", tmp_path / "c.wfbc",
                "--out", tmp_path / "out.f64"]) == 6


@pytest.mark.parametrize("dropped,code", [("middle", 0), ("top", 0), ("middle three", 3)])
def test_tight_spec_missing_channels_is_not_trusted(tmp_path, dropped, code):
    # the spec still says "kind": "tight", but a bin has lost a translate:
    # the bank loads as analysis and synthesize takes the dual, which is
    # exact while the diagonal stays positive and exits 3 where it is 0
    spec = design_bank(tmp_path)
    record = json.loads(spec.read_text())
    rows, mid = record["channels"], len(record["channels"]) // 2
    drop = {"middle": [mid], "top": [len(rows) - 1], "middle three": [mid - 1, mid, mid + 1]}
    record["channels"] = [ch for i, ch in enumerate(rows) if i not in drop[dropped]]
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(record))
    bank = load_bank_spec(edited)
    assert record["kind"] == "tight" and bank.kind == "analysis" and bank.painless
    assert (bank.diagonal().min() > 0) == (code == 0)
    x = np.random.default_rng(5).standard_normal(512)
    write_raw(tmp_path / "in.f64", Signal(samples=x, fs=8000.0))
    assert run(["analyze", "--bank", edited, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc"]) == 0
    assert run(["synthesize", "--bank", edited, "--coeffs", tmp_path / "c.wfbc",
                "--out", tmp_path / "out.f64"]) == code
    if code == 0:
        rec = read_raw(tmp_path / "out.f64", 8000.0).samples
        assert np.linalg.norm(rec - x) <= 1e-10 * np.linalg.norm(x)


def test_readme_exit_code_table_matches_the_cli():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    listed = {int(code) for code in re.findall(r"^\|\s*(\d+)\s*\|", table, re.M)}
    types = [t for t in vars(errors).values()
             if isinstance(t, type) and issubclass(t, errors.WarpBankError)]
    # the base class's code 1 is never raised
    assert listed == {0} | {t.exit_code for t in types if t is not errors.WarpBankError}


def test_design_prints_channel_table(tmp_path, capsys):
    design_bank(tmp_path, warp="signedpow", params="l=0.5,c=1,d=1",
                policy="painless", length=256, fs=64.0)
    out = capsys.readouterr().out
    assert "fingerprint" in out
    row = next(line for line in out.splitlines()
               if re.match(r"\s+0\s", line))
    # Hann R=3 at m=0 spans warped (-1.5, 1.5): width 2(1.5^2 + 2*1.5)
    assert "10.5000" in row


@pytest.mark.parametrize("policy", ["painless", "tight", "natural"])
def test_design_with_bandwidth_past_float_range_prints_inf(tmp_path, capsys, policy):
    # F^{-1} of log c=0.003 overflows inside channel 1's support
    design_bank(tmp_path, warp="log", params="c=0.003,d=1", policy=policy,
                length=256, fs=2.0)
    row = next(line for line in capsys.readouterr().out.splitlines()
               if re.match(r"\s+1\s", line))
    assert row.split()[2:4] == ["1", "inf"]


def test_malformed_wav_input_is_exit_2(tmp_path, capsys):
    spec = design_bank(tmp_path)
    write_wav(tmp_path / "in.wav", Signal(samples=np.zeros(512), fs=8000.0))
    (tmp_path / "text.wav").write_bytes(b"not a RIFF file, just some text\n")
    (tmp_path / "cut.wav").write_bytes((tmp_path / "in.wav").read_bytes()[:44])
    for bad in ("text.wav", "cut.wav"):
        assert run(["analyze", "--bank", spec, "--in", tmp_path / bad,
                    "--out", tmp_path / "c.wfbc"]) == 2
        assert "not a readable WAV file" in capsys.readouterr().err


@pytest.mark.parametrize("fs", [0.4, 44100.5])
def test_wav_output_needs_an_integer_sample_rate(tmp_path, capsys, fs):
    spec = design_bank(tmp_path, warp="log", params=None, policy="tight",
                       length=256, fs=fs)
    write_raw(tmp_path / "in.f64", Signal(samples=np.ones(256), fs=fs))
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc"]) == 0
    assert run(["synthesize", "--bank", spec, "--coeffs", tmp_path / "c.wfbc",
                "--out", tmp_path / "y.wav"]) == 2
    assert "sample rate" in capsys.readouterr().err
    assert not (tmp_path / "y.wav").exists()
    # the header's byte rate is a u32 as well
    with pytest.raises(InvalidParameter, match="sample rate"):
        write_wav(tmp_path / "z.wav", Signal(samples=np.ones(4), fs=2.0**30))
    assert not (tmp_path / "z.wav").exists()
    write_wav(tmp_path / "z.wav", Signal(samples=np.ones(4), fs=2.0**30), "pcm16")


def test_diagnose_report_file_and_sweep(tmp_path, capsys):
    spec = design_bank(tmp_path, length=256, fs=8000.0)
    report = tmp_path / "report.txt"
    assert run(["diagnose", "--bank", spec, "--sweep-a", "1,2",
                "--report", report]) == 0
    text = report.read_text()
    assert "painless: true" in text
    assert "sweep:" in text and "a_m x2: tightness_ratio" in text
    assert text in capsys.readouterr().out


def test_spectrogram_of_sinusoid_peaks_at_its_channel(tmp_path):
    spec = design_bank(tmp_path, length=1024, fs=128.0)
    bank = load_bank_spec(spec)
    target = bank.channels[len(bank.channels) * 3 // 4]
    t = np.arange(1024) / 128.0
    x = np.cos(2 * np.pi * target.center_hz * t)
    write_raw(tmp_path / "in.f64", Signal(samples=x, fs=128.0))
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc",
                "--spectrogram", tmp_path / "sgram.pgm"]) == 0
    image = read_pgm(tmp_path / "sgram.pgm")
    lines = (tmp_path / "sgram.csv").read_text().splitlines()
    assert lines[0] == "row_center_hz"
    centers = np.array([float(v) for v in lines[1:]])
    assert image.shape == (len(bank.channels), max(ch.n_frames for ch in bank.channels))
    assert np.all(np.diff(centers) > 0)
    peak_row = int(np.argmax(image.max(axis=1)))
    assert abs(centers[peak_row]) == pytest.approx(abs(target.center_hz))
    assert image[peak_row].max() == 255


def test_spectrogram_of_silence_is_black(tmp_path):
    spec = design_bank(tmp_path, length=256, fs=8000.0)
    write_raw(tmp_path / "in.f64", Signal(samples=np.zeros(256), fs=8000.0))
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.f64",
                "--out", tmp_path / "c.wfbc",
                "--spectrogram", tmp_path / "sgram.pgm"]) == 0
    assert not read_pgm(tmp_path / "sgram.pgm").any()


@pytest.mark.parametrize("out,spectrogram,clash", [
    ("c.wfbc", "img.csv", r"the row-center CSV \S+img\.csv is also --spectrogram"),
    ("x.pgm", "sub/../x.pgm", r"--spectrogram \S+x\.pgm is also --out"),
    ("k.csv", "k.pgm", r"the row-center CSV \S+k\.csv is also --out"),
], ids=["csv-is-spectrogram", "spectrogram-is-out", "csv-is-out"])
def test_analyze_refuses_colliding_output_paths(tmp_path, capsys, out, spectrogram, clash):
    spec = design_bank(tmp_path, length=256, fs=8000.0)
    write_raw(tmp_path / "in.f64", Signal(samples=np.zeros(256), fs=8000.0))
    (tmp_path / "sub").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert run(["analyze", "--bank", spec, "--in", tmp_path / "in.f64",
                "--out", tmp_path / out, "--spectrogram", tmp_path / spectrogram]) == 2
    assert sorted(tmp_path.rglob("*")) == before  # nothing written
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: output paths collide: {clash}\n", err)


@pytest.mark.parametrize("argv,clash", [
    (["analyze", "--bank", "bank.json", "--in", "in.csv", "--out", "sub/../bank.json"],
     r"--out \S+bank\.json is also --bank"),
    (["analyze", "--bank", "bank.json", "--in", "in.csv", "--out", "c.wfbc",
      "--spectrogram", "in.pgm"], r"the row-center CSV \S+in\.csv is also --in"),
    (["synthesize", "--bank", "bank.json", "--coeffs", "c.wfbc", "--out", "c.wfbc"],
     r"--out \S+c\.wfbc is also --coeffs"),
    (["synthesize", "--bank", "bank.json", "--coeffs", "c.wfbc", "--out", "bank.json"],
     r"--out \S+bank\.json is also --bank"),
    (["diagnose", "--bank", "bank.json", "--report", "bank.json"],
     r"--report \S+bank\.json is also --bank"),
], ids=["analyze-out-is-bank", "analyze-csv-is-in", "synthesize-out-is-coeffs",
        "synthesize-out-is-bank", "diagnose-report-is-bank"])
def test_outputs_never_overwrite_inputs(tmp_path, capsys, argv, clash):
    # each command exits 2 before it reads anything, every file untouched
    design_bank(tmp_path, length=256, fs=8000.0)
    write_raw(tmp_path / "in.csv", Signal(samples=np.ones(256), fs=8000.0))
    assert run(["analyze", "--bank", tmp_path / "bank.json", "--in", tmp_path / "in.csv",
                "--out", tmp_path / "c.wfbc"]) == 0
    (tmp_path / "sub").mkdir()
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    capsys.readouterr()
    assert run([arg if arg.startswith("-") or arg == argv[0] else tmp_path / arg
                for arg in argv]) == 2
    after = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert after == before
    assert re.fullmatch(f"error: output paths collide: {clash}\n", capsys.readouterr().err)


def reference_spectrogram(coeffs, bank):
    """Resample every row onto the longest raster first, then take dB and
    levels of the whole image."""
    order = np.argsort([ch.center_hz for ch in bank.channels])
    n_cols = max(ch.n_frames for ch in bank.channels)
    grid = np.array([np.abs(coeffs.channels[i])[(np.arange(n_cols) * bank.channels[i].n_frames)
                                                // n_cols] for i in order])
    if grid.max() <= 0.0:
        return np.zeros(grid.shape, dtype=np.uint8)
    with np.errstate(divide="ignore"):
        db = np.maximum(20.0 * np.log10(grid / grid.max()), SPECTROGRAM_FLOOR_DB)
    scaled = (db - SPECTROGRAM_FLOOR_DB) / -SPECTROGRAM_FLOOR_DB
    return np.round(255.0 * scaled).astype(np.uint8)


def test_spectrogram_matches_reference_renderer(tmp_path):
    bank = load_bank_spec(design_bank(tmp_path, length=1024, fs=128.0))
    assert len({ch.n_frames for ch in bank.channels}) > 2
    rng = np.random.default_rng(3)
    x = rng.standard_normal(1024) * np.exp(-np.arange(1024) / 200.0)
    coeffs = analyze(x, bank)
    image, centers = render_spectrogram(coeffs)
    want = reference_spectrogram(coeffs, bank)
    assert image.dtype == np.uint8 and image.shape == want.shape
    assert np.count_nonzero(image != want) == 0
    assert image.max() == 255 and image.min() < 128
    assert centers == sorted(centers)


def test_malformed_spec_file_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["diagnose", "--bank", bad]) == 2
    bad.write_text(json.dumps({"format_version": 99}))
    assert run(["diagnose", "--bank", bad]) == 2
    bad.write_text("[1]")
    assert run(["diagnose", "--bank", bad]) == 2
    record = json.loads(design_bank(tmp_path).read_text())
    for section, value in (("warping", {"family": 5}), ("prototype", [1]),
                           ("prototype", {"kind": "kaiser", "stretch": 3.0}),
                           ("kind", 5), ("kind", "synthesis")):
        bad.write_text(json.dumps(dict(record, **{section: value})))
        assert run(["diagnose", "--bank", bad]) == 2
    assert run(["diagnose", "--bank", tmp_path / "missing.json"]) == 2


@pytest.mark.parametrize("edit,message", [
    (lambda r: r.pop("warping"), "bank spec has no warping"),
    (lambda r: r["grid"].pop("L"), "bank spec has no grid.L"),
    (lambda r: r.update(channels=5), "bank spec channels must be a list, got 5"),
    (lambda r: r["channels"][3].pop("m"), "bank spec has no channels[3].m"),
], ids=["no-warping", "no-grid-L", "channels-not-a-list", "channel-without-m"])
def test_spec_file_errors_name_the_field(tmp_path, capsys, edit, message):
    spec = design_bank(tmp_path)
    record = json.loads(spec.read_text())
    edit(record)
    spec.write_text(json.dumps(record))
    assert run(["diagnose", "--bank", spec]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("where,value", [
    ("L", 512.9), ("L", "512"), ("m", 1.5), ("a_m_samples", 2.7),
    ("a_m_samples", True), ("order", 2.7), ("order", "3"),
])
def test_spec_file_with_non_integer_entry_is_exit_2(tmp_path, capsys, where, value):
    spec = design_bank(tmp_path)
    record = json.loads(spec.read_text())
    if where == "L":
        record["grid"]["L"] = value
    elif where == "order":
        record["prototype"] = {"kind": "bspline", "order": value, "stretch": 2.5}
    else:
        record["channels"][3][where] = value
    spec.write_text(json.dumps(record))
    assert run(["diagnose", "--bank", spec]) == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("grid", "fs", True), ("grid", "fs", "8000"), ("prototype", "stretch", True),
    ("prototype", "coeffs", [0.5, "0.5"]), ("warping", "c", "1"),
    ("warping", "d", True), ("warping", "l", "0.5"),
    pytest.param("grid", "fs", 10**400, id="grid-fs-past-float-range"),
])
def test_spec_file_with_non_numeric_entry_is_exit_2(tmp_path, capsys, section, key, value):
    spec = design_bank(tmp_path, warp="signedpow", params="c=1,d=1,l=0.5")
    record = json.loads(spec.read_text())
    record[section][key] = value
    spec.write_text(json.dumps(record))
    assert run(["diagnose", "--bank", spec]) == 2
    assert "must be a number" in capsys.readouterr().err


def test_spec_file_with_repeated_channel_is_exit_2(tmp_path, capsys):
    spec = design_bank(tmp_path)
    record = json.loads(spec.read_text())
    record["channels"].append(dict(record["channels"][2], a_m_samples=1))
    spec.write_text(json.dumps(record))
    assert run(["diagnose", "--bank", spec]) == 2
    assert "more than once" in capsys.readouterr().err
