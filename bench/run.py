#!/usr/bin/env python3
"""warpbank benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else.  Each op is timed with wall
clock and scaled by a fixed reference kernel timed next to it, which
takes the machine's speed drift out (see ``Reference``); its outputs are
checked against references built in
``bench/oracle.py``, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics (see README.md).  A run record with CPU time, steal
time and library versions goes to ``bench/_work/runs/``.

The workload names, the run length and the metric names and units are
read from ``BENCHMARK.json`` at the root of the checkout.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()  # the checkout under test
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_PROBES = 10  # extra fresh-process set-ups; with the run's own, 11 samples
TOL = 1e-10
KNOWN_MISS = 1e-5  # power iteration misses this bank's bounds by 1.37e-7 of B; far more is a new fault


class CheckFailure(Exception):
    """The program is missing, or a set-up step did not succeed."""


def load_benchmark() -> dict:
    try:
        return json.loads((HERE.parent / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailure(f"cannot read BENCHMARK.json: {exc}") from exc


def import_program(cli: bool):
    """Import warpbank from this checkout's src/ and nowhere else."""
    if not (SRC / "warpbank" / "__init__.py").is_file():
        raise CheckFailure(f"no warpbank sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import warpbank
    if cli:
        import warpbank.cli  # noqa: F401
    if Path(warpbank.__file__).resolve().parent != SRC / "warpbank":
        raise CheckFailure(f"warpbank imported from {warpbank.__file__}, not {SRC}")
    return warpbank


def run_cli(wb, argv) -> tuple[int, str]:
    """cli.main in-process; returns (exit code, captured stdout and stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wb.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def design_spec(wb, path, args) -> None:
    code, text = run_cli(wb, ["design", *args, "--policy", "tight",
                              "--window", "hann", "--out", str(path)])
    if code != 0:
        raise CheckFailure(f"design {args} exited {code}: {text[-300:]}")


# ---------------------------------------------------------------------------
# workloads
#
# setup() is the timed set-up (it runs after the import); prepare() makes
# the seeded inputs and the references, untimed; op() is one timed op;
# check() returns one (known faults, problems) pair per counted operation
# in an op.  A known fault is the named power-iteration miss (see
# CliDiagnoseTight); it fails its operation but leaves `correct` true.
# banks() gives the banks the per-layer counts describe.  reference names
# the Reference kernel; ref_passes is the number of its passes timed after
# each op.

class StreamShort:
    length = 4096
    warmup = 3
    reference, ref_passes = "interpreter", 1
    cli = False

    def setup(self, wb, work):
        warping = wb.make_warping("sympow", c=1.0, d=1.0, l=1.0)
        grid = wb.GridSpec(length=self.length, fs=8.0, domain=wb.Domain.POSITIVE_HALF_LINE)
        self.bank = wb.design_tight(warping, grid, window="hann", stretch=3.0)
        self.wb = wb

    def prepare(self, rng, oracle):
        import numpy as np
        t = np.arange(self.length)

        def part():  # noise, three tones, four clicks
            x = 0.3 * rng.standard_normal(self.length)
            for _ in range(3):
                freq = rng.uniform(0.01, 0.49)
                x += rng.uniform(0.2, 1.0) * np.cos(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
            x[rng.integers(0, self.length, 4)] += 3.0 * rng.standard_normal(4)
            return x

        # even entries real, odd entries complex: each op takes one of each
        self.pool = [part() if i % 2 == 0 else part() + 1j * part() for i in range(16)]
        self.table = bank_table(self.bank)
        self.n_real = sum(oracle.frame_lengths(self.table)) + len(self.bank.residuals)
        self.n_complex = oracle.atom_count(self.table)
        self.oracle = oracle
        self.tables = [self.table]

    def banks(self):
        return [self.bank]

    def op(self, i):
        wb, bank = self.wb, self.bank
        out = []
        for f in (self.pool[(2 * i) % 16], self.pool[(2 * i + 1) % 16]):
            coeffs = wb.analyze(f, bank)
            out.append((f, coeffs, wb.synthesize(coeffs, bank).samples))
        return out

    def check(self, result):
        import numpy as np
        oracle, problems = self.oracle, []
        for f, coeffs, rec in result:
            entries = list(coeffs.channels) + list(coeffs.residuals)
            if coeffs.mirrors is not None:
                entries += list(coeffs.mirrors)
            real = not np.iscomplexobj(f)
            want = self.n_real if real else self.n_complex
            got = sum(len(c) for c in entries)
            if got != want or [len(c) for c in coeffs.channels] != oracle.frame_lengths(self.table):
                problems.append(f"{got} coefficients, channel table implies {want}")
            e = oracle.energy(entries)
            if real:  # mirror branches stay implicit for real input
                e += oracle.energy(coeffs.channels)
            fe = float(np.vdot(f, f).real)
            if abs(e - fe) > TOL * fe:
                problems.append(f"Parseval off by {abs(e - fe) / fe:.2e}")
            err = oracle.relative_error(rec, f)
            if not err <= TOL:
                problems.append(f"round trip error {err:.2e}")
        return [([], problems)]


class CliLongAudio:
    length = 2**18
    fs = 44100
    warmup = 1
    reference, ref_passes = "memory", 8
    cli = True

    def setup(self, wb, work):
        self.wb, self.work = wb, work
        self.spec = work / "erb_long.json"
        design_spec(wb, self.spec, ["--warp", "erb", "--L", str(self.length),
                                    "--fs", str(self.fs), "--R", "3"])

    def prepare(self, rng, oracle):
        import numpy as np
        from scipy.io import wavfile
        t = np.arange(self.length) / self.fs
        x = 0.01 * rng.standard_normal(self.length)
        for _ in range(8):
            f0 = rng.uniform(80.0, 1000.0)
            onset = rng.uniform(0.0, t[-1])
            env = np.where(t >= onset, np.exp(-(t - onset) * rng.uniform(0.5, 4.0)), 0.0)
            for h in range(1, 7):
                if h * f0 < self.fs / 2:
                    x += env * np.sin(2 * np.pi * h * f0 * t + rng.uniform(0, 2 * np.pi)) / h
        x *= 0.8 / np.max(np.abs(x))
        self.wav = self.work / "input.wav"
        wavfile.write(self.wav, self.fs, x.astype(np.float32))
        self.signal = x.astype(np.float32).astype(np.float64)
        self.energy = float(self.signal @ self.signal)
        self.wfbc = self.work / "coeffs.wfbc"
        self.pgm = self.work / "sgram.pgm"
        self.raw = self.work / "rec.f64"
        self.table = oracle.load_spec(self.spec)
        self.layout = oracle.wfbc_layout(self.table)
        self.oracle = oracle
        self.tables = [self.table]

    def banks(self):
        return [self.wb.load_bank_spec(self.spec)]

    def op(self, i):
        a = run_cli(self.wb, ["analyze", "--bank", str(self.spec), "--in", str(self.wav),
                              "--out", str(self.wfbc), "--spectrogram", str(self.pgm)])
        s = run_cli(self.wb, ["synthesize", "--bank", str(self.spec),
                              "--coeffs", str(self.wfbc), "--out", str(self.raw)])
        return a, s

    def check(self, result):
        import numpy as np
        oracle, problems = self.oracle, []
        for code, text in result:
            if code != 0:
                return [([], [f"exit code {code}: {text[-200:]}"])]
        try:
            self.wfbc_bytes = self.wfbc.stat().st_size
            e = oracle.wfbc_energy(self.wfbc, self.layout)
            rows, cols = oracle.read_pgm_shape(self.pgm)
            rec = np.fromfile(self.raw, dtype="<f8")
        except (ValueError, OSError) as exc:
            return [([], [str(exc)])]
        finally:  # the next op must write its own outputs
            for path in (self.wfbc, self.pgm, self.raw):
                path.unlink(missing_ok=True)
        if abs(e - self.energy) > TOL * self.energy:
            problems.append(f"Parseval off by {abs(e - self.energy) / self.energy:.2e}")
        err = oracle.relative_error(rec, self.signal)
        if not err <= TOL:
            problems.append(f"round trip error {err:.2e}")
        if (rows, cols) != (len(self.layout), max(n for _, n in self.layout)):
            problems.append(f"spectrogram is {rows}x{cols}")
        return [([], problems)]


class CliDiagnoseTight:
    """Five painless tight banks, plus one non-painless bank whose frame
    bounds come from power iteration: an ERB-like tight design (c=d=1,
    fs=256, L=128) with every hop doubled.  Each of the six diagnose calls
    is one counted operation.  The hop-doubled call fails on every op
    today, because power iteration misses the dense eigenvalues by about
    1e-7 of B; that is the known fault, counted in `failed`."""

    warmup = 1
    reference, ref_passes = "interpreter", 8
    cli = True
    designs = {
        "erb_audio": ["--warp", "erb", "--L", "4096", "--fs", "44100", "--R", "3"],
        "erblet": ["--warp", "erb", "--warp-params", "c=1,d=1", "--L", "1024",
                   "--fs", "128", "--R", "3"],
        "sqrtpow": ["--warp", "signedpow", "--warp-params", "c=1,d=1,l=0.5",
                    "--L", "2048", "--fs", "256", "--R", "3"],
        "sympow": ["--warp", "sympow", "--warp-params", "c=1,d=1,l=0.5",
                   "--L", "2048", "--fs", "64", "--R", "4"],
        "log": ["--warp", "log", "--warp-params", "c=4,d=1", "--L", "2048",
                "--fs", "64", "--R", "3"],
    }
    hops_base = ["--warp", "erb", "--warp-params", "c=1,d=1", "--L", "128",
                 "--fs", "256", "--R", "3"]
    hop_scale = 2

    def setup(self, wb, work):
        self.wb, self.work = wb, work
        self.specs = []
        for name, args in self.designs.items():
            path = work / f"{name}.json"
            design_spec(wb, path, args)
            self.specs.append(path)
        self.hops_base_spec = work / "erblet_hops_base.json"
        design_spec(wb, self.hops_base_spec, self.hops_base)

    def prepare(self, rng, oracle):
        self.oracle = oracle
        table = oracle.scale_hops(oracle.load_spec(self.hops_base_spec), self.hop_scale)
        self.hops_spec = self.work / f"erblet_hops_x{self.hop_scale}.json"
        with open(self.hops_spec, "w") as fh:
            json.dump(table, fh, indent=2)
        self.hops_bounds = oracle.dense_frame_bounds(table)
        self.tables = [oracle.load_spec(p) for p in self.specs] + [table]

    def banks(self):
        return [self.wb.load_bank_spec(p) for p in self.specs + [self.hops_spec]]

    def op(self, i):
        return [run_cli(self.wb, ["diagnose", "--bank", str(p)])
                for p in self.specs + [self.hops_spec]]

    def check(self, result):
        outcomes = [([], self.check_tight(path, *res))
                    for path, res in zip(self.specs, result)]
        return outcomes + [self.check_hops(*result[-1])]

    def check_tight(self, path, code, text):
        rep = self.oracle.parse_report(text)
        if code != 0 or len(rep) != 4:
            return [f"{path.name}: exit code {code}: {text[-200:]}"]
        problems = []
        if abs(rep["A_emp"] - 1.0) > TOL or abs(rep["B_emp"] - 1.0) > TOL:
            problems.append(f"{path.name}: tight bank reports A_emp {rep['A_emp']!r}, "
                            f"B_emp {rep['B_emp']!r}")
        if not (rep["A_suff"] <= 1.0 + 1e-12 and rep["B_suff"] >= 1.0 - 1e-12):
            problems.append(f"{path.name}: sufficient bounds {rep['A_suff']!r}, "
                            f"{rep['B_suff']!r} do not enclose 1")
        return problems

    def check_hops(self, code, text):
        rep = self.oracle.parse_report(text)
        if code != 0 or len(rep) != 4:
            return [], [f"{self.hops_spec.name}: exit code {code}: {text[-200:]}"]
        lo, hi = self.hops_bounds
        slack = 1e-12 * hi
        problems = []
        if not (rep["A_suff"] <= lo + slack and hi <= rep["B_suff"] + slack):
            problems.append(f"{self.hops_spec.name}: A_suff {rep['A_suff']!r} <= A {lo!r} "
                            f"<= B {hi!r} <= B_suff {rep['B_suff']!r} does not hold")
        faults = []
        miss = max(abs(rep["A_emp"] - lo), abs(rep["B_emp"] - hi)) / hi
        note = (f"{self.hops_spec.name}: power iteration misses the dense "
                f"eigenvalues by {miss:.2e} of B")
        if miss > KNOWN_MISS:  # worse than the known fault: a new one
            problems.append(note)
        elif miss > TOL:
            faults.append(note)
        return faults, problems


WORKLOAD_CLASSES = {
    "stream_short": StreamShort,
    "cli_long_audio": CliLongAudio,
    "cli_diagnose_tight": CliDiagnoseTight,
}


def bank_table(bank) -> dict:
    """The spec-file view (grid, channel table) of an in-memory bank."""
    return {
        "grid": {"L": bank.grid.length, "domain": bank.grid.domain.value},
        "channels": [{"m": ch.m, "a_m_samples": ch.a} for ch in bank.channels],
    }


# ---------------------------------------------------------------------------
# measurement

def read_steal() -> float | None:
    """Machine-wide steal time in seconds, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


class Reference:
    """A fixed numpy kernel that no program change moves.  Timed next to
    every op, it gives the machine's speed at that moment; dividing by it
    takes out the machine's drift.  A reported time is the wall time
    scaled to a machine on which one pass of the kernel takes its nominal
    time.  Each workload names the kernel whose work is most like its own,
    because the machine's slow-downs hit cache-resident interpreter work
    and large-array work by different factors:

    * "interpreter": ten length-4096 FFT round trips and a loop of 150
      length-64 FFTs (per-channel loops of small transforms);
    * "memory": abs, log10 and a uint8 cast over an 89 x 8192 float64
      array, as in rendering a spectrogram.  It writes into buffers made
      once: a fresh allocation's cost depends on the allocator's state,
      which the program's own allocations set.
    """

    NOMINAL_MS = {"interpreter": 2.5, "memory": 3.0}

    def __init__(self, kind: str):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.nominal_s = self.NOMINAL_MS[kind] / 1e3
        self.kernel = getattr(self, "_" + kind)
        if kind == "interpreter":
            self.big = rng.standard_normal(4096)
            self.small = [rng.standard_normal(64) for _ in range(8)]
        else:  # 12 MB, a constant part of the workload's peak_rss_mb
            self.image = rng.standard_normal((89, 8192))
            self.db = np.empty_like(self.image)
            self.pixels = np.empty(self.image.shape, np.uint8)

    def _interpreter(self) -> None:
        np = self.np
        for _ in range(10):
            np.fft.ifft(np.fft.fft(self.big))
        for k in range(150):
            y = self.small[k % 8]
            np.fft.ifft(y * y)

    def _memory(self) -> None:
        np, db = self.np, self.db
        np.abs(self.image, out=db)
        np.add(db, 1e-3, out=db)
        np.log10(db, out=db)
        np.copyto(self.pixels, db, casting="unsafe")

    def seconds(self, passes: int = 1) -> float:
        """Mean wall time of one pass over `passes` consecutive passes."""
        t = time.perf_counter()
        for _ in range(passes):
            self.kernel()
        return (time.perf_counter() - t) / passes

    def scale(self, passes: int = 8) -> float:
        """Nominal over the median of a few passes now."""
        return self.nominal_s / statistics.median(self.seconds() for _ in range(passes))


def setup_probe_samples(args) -> list[dict]:
    """Set-up time of fresh processes, measured inside each: raw wall
    seconds and scaled by the reference kernel run right after."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise CheckFailure(f"set-up probe exited {proc.returncode}: {proc.stderr[-300:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def layer_metrics(names, tracer, op_roots, setup_root, op_counts, setup_counts,
                  wfbc_sizes, workload, untraced, traced, op_scales, setup_scale) -> dict:
    """Per-layer metrics: median per traced op; a layer that no op calls
    reports its set-up value instead.  Times are scaled like the ops."""
    op_self = [{k: v * f for k, v in tracer.self_times(r).items()}
               for r, f in zip(op_roots, op_scales)]
    setup_self = tracer.self_times(setup_root)
    banks = workload.banks()
    out = {}
    for name in names:
        if name.endswith("_ms"):
            span = "cli.main" if name == "cli.self_ms" else name[:-3]
            per_op = [s.get(span, 0.0) * 1e3 for s in op_self]
            value = (statistics.median(per_op) if any(per_op)
                     else setup_self.get(span, 0.0) * 1e3 * setup_scale)
        elif name in ("prototypes.window_points", "warping.map_points",
                      "diagnostics.frame_operator_applies"):
            per_op = [c.get(name, 0) for c in op_counts]
            value = statistics.median_low(per_op) if any(per_op) else setup_counts.get(name, 0)
        elif name == "transform.wfbc_mb":
            value = statistics.median(wfbc_sizes) / 1e6
        elif name == "bank.channels":
            value = sum(len(b.channels) for b in banks)
        elif name == "bank.empty_channels":
            value = sum(sum(1 for ch in b.channels if not ch.response.any())
                        for b in banks)
        elif name == "bank.frame_lengths":
            value = sum(len({ch.n_frames for ch in b.channels}) for b in banks)
        elif name == "trace.overhead_pct":
            base = statistics.median(untraced)
            value = 100.0 * (statistics.median(traced) - base) / base
        else:
            raise CheckFailure(f"BENCHMARK.json names per-layer metric {name}, "
                               "which run.py does not measure")
        out[name] = value
    return out


def run(args, doc) -> dict:
    os.environ.pop("WARPBANK_THREADS", None)
    workload = WORKLOAD_CLASSES[args.workload]()
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, doc, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, doc, workload, work) -> dict:
    wb = import_program(workload.cli)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        with tracer.region("setup") as setup_region:
            workload.setup(wb, work)
        setup_counts = dict(tracer.counts)
        tracer.uninstall()
    else:
        workload.setup(wb, work)
    setup_wall = time.perf_counter() - _T0
    ref = Reference(workload.reference)
    setup_own = {"raw_s": setup_wall, "scale": ref.scale()}
    if args.setup_probe:
        return setup_own

    import numpy as np
    import scipy
    import oracle
    workload.prepare(np.random.default_rng(args.seed), oracle)
    setup_samples = [setup_own] if args.trace else [setup_own] + setup_probe_samples(args)
    setup_scaled = [s["raw_s"] * s["scale"] for s in setup_samples]

    problems: list[str] = []  # the first few, for the run record
    known_fault: list[str] = []  # the first note of the known fault
    attempted = failed = bad_ops = 0

    def attempt(i: int, counted: bool = True, region=contextlib.nullcontext()) -> float:
        """Run, time and check one op; returns its wall time in seconds."""
        nonlocal attempted, failed, bad_ops
        t = time.perf_counter()
        try:
            with region:
                result = workload.op(i)
            elapsed = time.perf_counter() - t
            outcomes = workload.check(result)
        except Exception:  # a crash is a failed op, not a lost run
            elapsed = time.perf_counter() - t
            outcomes = [([], [f"op {i} raised {traceback.format_exc(limit=-3)}"])]
        for faults, probs in outcomes:
            problems.extend(probs[:max(0, 5 - len(problems))])
            known_fault.extend(faults[:max(0, 1 - len(known_fault))])
            bad_ops += bool(probs)
            if counted:
                attempted += 1
                failed += bool(faults or probs)
        return elapsed

    for i in range(workload.warmup):
        attempt(i, counted=False)

    # every op is followed by `ref_passes` reference passes (4-13% of the
    # op's time); an op's scale is the nominal pass time over the mean
    # pass time just before and just after it
    untraced, traced, op_roots, op_counts, wfbc_sizes = [], [], [], [], []
    raw_ms, ref_ms = [], [ref.seconds(workload.ref_passes) * 1e3]

    def timed(i, **kw) -> tuple[float, float]:
        """Wall seconds and scale of one op."""
        elapsed = attempt(i, **kw)
        ref_ms.append(ref.seconds(workload.ref_passes) * 1e3)
        return elapsed, 2e3 * ref.nominal_s / (ref_ms[-2] + ref_ms[-1])

    steal0, cpu0, start = read_steal(), time.process_time(), time.perf_counter()
    i = workload.warmup
    op_scales = []
    while True:
        elapsed, scale = timed(i)
        raw_ms.append(elapsed * 1e3)
        untraced.append(elapsed * scale)
        i += 1
        if tracer is not None:
            before = dict(tracer.counts)
            tracer.install()
            region = tracer.region("op")
            elapsed, scale = timed(i, region=region)
            traced.append(elapsed * scale)
            op_scales.append(scale)
            tracer.uninstall()
            op_roots.append(region.sid)
            op_counts.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
            wfbc_sizes.append(getattr(workload, "wfbc_bytes", 0))
            i += 1
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    steal1 = read_steal()

    if tracer is None:
        declared = doc["end_to_end"]
        values = {
            "op_scaled_ms_p50": statistics.median(untraced) * 1e3,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "coeffs_per_sample": sum(oracle.atom_count(t) for t in workload.tables)
            / sum(int(t["grid"]["L"]) for t in workload.tables),
        }
        if {m["name"] for m in declared} != set(values):
            raise CheckFailure("BENCHMARK.json end_to_end names differ from "
                               f"the metrics run.py measures: {sorted(values)}")
    else:
        declared = doc["per_layer"]
        values = layer_metrics([m["name"] for m in declared], tracer, op_roots,
                               setup_region.sid, op_counts, setup_counts,
                               wfbc_sizes, workload, untraced, traced,
                               op_scales, setup_own["scale"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    if tracer is not None:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{args.workload}-seed{args.seed}-{os.getpid()}.json")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "correct": bad_ops == 0, "problems": problems, "known_fault": known_fault,
        "metrics": metrics, "setup_samples": setup_samples,
        "op_scaled_ms": [t * 1e3 for t in untraced],
        "traced_op_scaled_ms": [t * 1e3 for t in traced],
        "op_wall_ms": raw_ms, "reference": workload.reference,
        "reference_ms": ref_ms, "reference_nominal_ms": ref.nominal_s * 1e3,
        "wall_s": wall, "cpu_s": cpu,
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "warpbank_threads": os.environ.get("WARPBANK_THREADS"),
    }
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    with open(runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    try:
        doc = load_benchmark()
    except CheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in doc["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=doc["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if set(names) != set(WORKLOAD_CLASSES):
            raise CheckFailure(f"BENCHMARK.json workloads {names} differ from "
                               f"run.py's {sorted(WORKLOAD_CLASSES)}")
        record = run(args, doc)
    except CheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(record))
        return 0
    for name, m in record["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"ops: {record['attempted']} attempted, {record['failed']} failed; "
          f"cpu {record['cpu_s']:.2f} s over {record['wall_s']:.2f} s wall")
    print(f"unscaled: op wall median {statistics.median(record['op_wall_ms']):.6g} ms, "
          f"set-up median {statistics.median(s['raw_s'] for s in record['setup_samples']):.6g} s, "
          f"{record['reference']} reference pass median "
          f"{statistics.median(record['reference_ms']):.4g} ms "
          f"(nominal {record['reference_nominal_ms']:g} ms)")
    for note in record["known_fault"] + record["problems"]:
        print(f"note: {note}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
