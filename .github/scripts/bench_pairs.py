#!/usr/bin/env python3
"""Compares the bench-smoke wall time of two `repro` builds.

    bench_pairs.py BASE_REPRO CHANGE_REPRO

Runs `repro --summary --table1 --scale 0.25 --jobs 2 --bench-json` under
each binary PAIRS times, interleaved and alternating which side runs
first, so both see the same machine load. Prints every reading, then
fails (exit 1) when the change's fastest `sim.run_ms` is more than
MAX_RUN_MS_RATIO x the base's. The minimum, not the mean: on a shared
runner the noise only ever adds time, so the best run of each side is the
one closest to what the code costs.

`sim.events_per_sec` is printed but not gated: the exact-counter check
before this one pins `sim.events`, so it is `events / run_ms` and its
ratio is the reciprocal of the `run_ms` one.
"""

import json
import os
import subprocess
import sys
import tempfile

ARGS = ["--summary", "--table1", "--scale", "0.25", "--jobs", "2"]
PAIRS = 30
MAX_RUN_MS_RATIO = 1.10


def bench(repro, out_dir, name):
    """One bench-smoke run of `repro`; returns its `sim` block."""
    path = os.path.join(out_dir, name)
    subprocess.run(
        [repro, *ARGS, "--bench-json", path],
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    with open(path) as f:
        return json.load(f)["sim"]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = {"base": sys.argv[1], "change": sys.argv[2]}
    readings = {"base": [], "change": []}
    with tempfile.TemporaryDirectory() as out_dir:
        for pair in range(PAIRS):
            order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            for side in order:
                sim = bench(sides[side], out_dir, f"{side}-{pair}.json")
                readings[side].append(sim)
                print(
                    f"pair {pair} {side:<6} run_ms {sim['run_ms']:9.3f}  "
                    f"events_per_sec {sim['events_per_sec']:10.0f}"
                )
    best_ms = {side: min(r["run_ms"] for r in runs) for side, runs in readings.items()}
    best_eps = {side: max(r["events_per_sec"] for r in runs) for side, runs in readings.items()}
    ms_ratio = best_ms["change"] / best_ms["base"]
    regressed = ms_ratio > MAX_RUN_MS_RATIO
    print(
        f"{'REGRESSION' if regressed else 'ok'}: min run_ms {best_ms['change']:.3f} "
        f"vs base {best_ms['base']:.3f} (x{ms_ratio:.3f}, limit x{MAX_RUN_MS_RATIO})"
    )
    print(
        f"info: max events_per_sec {best_eps['change']:.0f} vs base {best_eps['base']:.0f} "
        f"(x{best_eps['change'] / best_eps['base']:.3f})"
    )
    if regressed:
        sys.exit("bench smoke regressed against the base commit")


if __name__ == "__main__":
    main()
