#!/usr/bin/env python3
"""The deterministic benches reproduce their committed baselines byte for byte.

Runs bench_switch_scale, bench_crossbar_compare, example_scenario_matrix
and bench_timing_sweep at full length (--jobs 2) and compares each
--json artifact with the committed bench/baselines/BENCH_switch.json,
BENCH_crossbar.json, BENCH_scenario_matrix.json and BENCH_timing.json.
These baselines carry no timing fields, so any difference is a change
in simulated behaviour or in the emitted records.  On a mismatch the
first differing line is printed.

usage: baseline_bytes.py BUILD_DIR BASELINE_DIR
"""

import subprocess
import sys
import tempfile
from pathlib import Path

# (bench binary, committed baseline)
CASES = [
    ("bench_switch_scale", "BENCH_switch.json"),
    ("bench_crossbar_compare", "BENCH_crossbar.json"),
    ("example_scenario_matrix", "BENCH_scenario_matrix.json"),
    ("bench_timing_sweep", "BENCH_timing.json"),
]


def first_difference(got, want):
    """1-based line number and the two lines where the texts differ."""
    got_lines = got.splitlines()
    want_lines = want.splitlines()
    for i in range(max(len(got_lines), len(want_lines))):
        g = got_lines[i] if i < len(got_lines) else "<end of file>"
        w = want_lines[i] if i < len(want_lines) else "<end of file>"
        if g != w:
            return i + 1, g, w
    return None


def check(build, baselines, binary, baseline, tmp):
    out = Path(tmp) / baseline
    proc = subprocess.run(
        [str(build / binary), "--jobs", "2", "--json", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=300)
    if proc.returncode != 0:
        return (f"{binary}: exit {proc.returncode}: "
                f"{proc.stderr.strip()!r}")
    got = out.read_bytes()
    want = (baselines / baseline).read_bytes()
    if got == want:
        return None
    diff = first_difference(got.decode(errors="replace"),
                            want.decode(errors="replace"))
    if diff is None:
        return f"{binary}: bytes differ from {baseline} (line endings?)"
    line, g, w = diff
    return (f"{binary}: first difference from {baseline} at line "
            f"{line}:\n  got:  {g}\n  want: {w}")


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    build = Path(sys.argv[1]).resolve()
    baselines = Path(sys.argv[2]).resolve()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for binary, baseline in CASES:
            failure = check(build, baselines, binary, baseline, tmp)
            if failure:
                failures.append(failure)
            else:
                print(f"{binary}: byte-identical to {baseline}")
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
