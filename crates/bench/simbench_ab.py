#!/usr/bin/env python3
"""Interleaved A/B throughput gate for two builds of simbench.

Usage: python3 crates/bench/simbench_ab.py BASE_BIN HEAD_BIN

Runs K pairs of `simbench --out` at MORRIGAN_INSTR=60000 on this host,
alternating which binary goes first, and takes each gated quantity's
head/base ratio per pair. Exits 1 when the median ratio of any gated
quantity is above THRESHOLD, or when either binary exits non-zero (a
failed every-run gate).

Gated, each in seconds: the simulate phase, its single-core and
multi-core subsets (so a machine-figure speedup cannot hide a per-core
regression), and the wall time (which includes workload generation). A
quantity that either side's document lacks is skipped, so a schema
change on one side cannot break the gate. Per-figure ratios are printed,
not gated: at this scale a figure runs for a fraction of a second.

K and THRESHOLD are set from base-vs-base runs of one binary against
itself on a 2-vCPU host; EXPERIMENTS.md gives the measured spread.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

K = 11
THRESHOLD = 1.12
INSTRUCTIONS = "60000"


def quantities(doc):
    """The gated quantities one simbench document carries, by name."""
    total, figures = doc["total"], doc["figures"]
    found = {}
    if "simulate_seconds" in total:
        found["simulate"] = total["simulate_seconds"]
    if all("cores" in f and "simulate_seconds" in f for f in figures):
        found["single-core simulate"] = sum(f["simulate_seconds"] for f in figures if f["cores"] == 1)
        found["multi-core simulate"] = sum(f["simulate_seconds"] for f in figures if f["cores"] > 1)
    if "seconds" in total:
        found["wall"] = total["seconds"]
    return found


def figure_seconds(doc):
    """Each figure's simulate seconds, by figure name."""
    return {f["figure"]: f["simulate_seconds"] for f in doc["figures"] if "simulate_seconds" in f}


def run(binary, out):
    """Runs one simbench and returns its document; exits on failure."""
    env = dict(os.environ, MORRIGAN_INSTR=INSTRUCTIONS)
    result = subprocess.run(
        [binary, "--out", out], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        sys.exit(f"simbench_ab: FAIL: {binary} exited with status {result.returncode}")
    with open(out) as f:
        return json.load(f)


def paired_ratios(base, head):
    """head/base for every name both sides carry."""
    return {name: head[name] / value for name, value in base.items() if name in head and value > 0}


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: simbench_ab.py BASE_BIN HEAD_BIN")
    binaries = {"base": sys.argv[1], "head": sys.argv[2]}
    ratios, figure_ratios = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(K):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            docs = {side: run(binaries[side], os.path.join(tmp, f"{side}.json")) for side in order}
            pair_ratios = paired_ratios(quantities(docs["base"]), quantities(docs["head"]))
            for name, ratio in pair_ratios.items():
                ratios.setdefault(name, []).append(ratio)
            for name, ratio in paired_ratios(figure_seconds(docs["base"]), figure_seconds(docs["head"])).items():
                figure_ratios.setdefault(name, []).append(ratio)
            shown = ", ".join(f"{name} {ratio:.3f}" for name, ratio in pair_ratios.items())
            print(f"pair {pair + 1}/{K} ({order[0]} first): head/base {shown}", flush=True)

    for name, values in figure_ratios.items():
        print(f"  figure {name:<32} median {statistics.median(values):.3f} (not gated)")
    failed = False
    for name, values in ratios.items():
        median = statistics.median(values)
        verdict = "ok" if median <= THRESHOLD else "FAIL"
        failed |= median > THRESHOLD
        print(
            f"{verdict}: {name} seconds, head/base median {median:.3f} over {len(values)} pairs "
            f"(range {min(values):.3f}-{max(values):.3f}, threshold {THRESHOLD})"
        )
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
