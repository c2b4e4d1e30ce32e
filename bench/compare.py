#!/usr/bin/env python3
"""Repeat benchmark runs over seeds, and compare sets of runs.

    python3 bench/compare.py run --workload W --seeds 1-10 --out a.jsonl [--root DIR] [--alternate DIR]
    python3 bench/compare.py spread a.jsonl
    python3 bench/compare.py diff parent.jsonl change.jsonl

``run`` calls ``bench/run.py`` of this directory once per seed, one run at
a time and for BENCHMARK.json's ``run_seconds``, from ``--root`` (a source
checkout; default: this one) and appends one JSON line per run.
``--alternate DIR`` runs each seed in ``--root`` and then in ``DIR`` (the
order flips every seed) and writes the two sides to ``<out>.a`` and
``<out>.b``.  ``spread`` prints, per workload and
metric, the median, the quartiles and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json.  ``diff`` prints
both medians, the change, the pairs won by the second set and a verdict
against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"workload": workload, "seed": seed, "root": str(root), **result}


def cmd_run(args) -> None:
    seconds = load_benchmark()["run_seconds"]
    sides = [(Path(args.root).resolve(), Path(args.out))]
    if args.alternate:
        sides = [(sides[0][0], Path(args.out + ".a")),
                 (Path(args.alternate).resolve(), Path(args.out + ".b"))]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = sides if i % 2 == 0 else sides[::-1]
        for root, out in order:
            rec = one_run(root, args.workload, seed, seconds)
            with open(out, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
            metrics = ", ".join(f"{k}={v['value']:.6g}" for k, v in rec["metrics"].items())
            print(f"{out.name} {args.workload} seed {seed}: {rec['failed']}/{rec['attempted']} "
                  f"failed, correct={rec['correct']}; {metrics}", flush=True)


def load(path) -> dict:
    """(workload, metric) -> list of (seed, value); plus failed shares."""
    values = defaultdict(list)
    shares = defaultdict(set)
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            shares[rec["workload"]].add((rec["failed"] / rec["attempted"], rec["correct"]))
            for name, m in rec["metrics"].items():
                values[(rec["workload"], name)].append((rec["seed"], m["value"]))
    return {"values": values, "shares": shares}


def load_benchmark() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bounds() -> dict:
    return {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def cmd_spread(args) -> None:
    data = load(args.file)
    bnd = bounds()
    for (workload, name), pairs in sorted(data["values"].items()):
        vals = [v for _, v in pairs]
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else 0.0
        bound = bnd.get(name)
        flag = "" if bound is None else ("ok" if spread <= bound / 3 else
                                         "WITHIN BOUND" if spread <= bound else "TOO WIDE")
        print(f"{workload:20s} {name:36s} n={len(vals):2d} median {med:12.6g} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%} bound {bound} {flag}")
    for workload, shares in sorted(data["shares"].items()):
        print(f"{workload:20s} failed share / correct: {sorted(shares)}")


def cmd_diff(args) -> None:
    a, b = load(args.parent), load(args.change)
    bnd = bounds()
    for key in sorted(set(a["values"]) & set(b["values"])):
        workload, name = key
        if name not in bnd:
            continue
        va, vb = dict(a["values"][key]), dict(b["values"][key])
        med_a = statistics.median(va.values())
        med_b = statistics.median(vb.values())
        change = (med_b - med_a) / med_a if med_a else 0.0
        common = sorted(set(va) & set(vb))
        wins = sum(vb[s] < va[s] for s in common)  # every end-to-end metric is lower-better
        verdict = "worse than bound" if change > bnd[name] else "within bound"
        print(f"{workload:20s} {name:20s} parent {med_a:12.6g} change {med_b:12.6g} "
              f"{change:+8.2%} wins {wins}/{len(common)} {verdict}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--root", default=str(HERE.parent))
    p.add_argument("--alternate", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("spread")
    p.add_argument("file")
    p.set_defaults(func=cmd_spread)
    p = sub.add_parser("diff")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(func=cmd_diff)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
