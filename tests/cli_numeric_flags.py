#!/usr/bin/env python3
"""Every bad numeric command-line value ends in a clean exit.

Runs the example and bench binaries with malformed, signed,
out-of-range and impossible numeric values.  Each must exit with
status 2 (never a signal) and name the offending flag or field on
stderr.  Well-formed values must still run.

usage: cli_numeric_flags.py BUILD_DIR
"""

import subprocess
import sys
from pathlib import Path

# (binary, arguments, text stderr must contain)
REJECTED = [
    ("example_crossbar_sim", ["--ports", "-1"], "--ports"),
    ("example_crossbar_sim", ["--ports", "0"], "--ports"),
    ("example_crossbar_sim", ["--ports", "99999999999999999999"],
     "--ports"),
    ("example_crossbar_sim", ["--iters", "4x"], "--iters"),
    ("example_crossbar_sim", ["--window", ""], "--window"),
    ("example_crossbar_sim", ["--load", "1.5"], "--load"),
    ("example_crossbar_sim", ["--load", "nan"], "--load"),
    ("example_crossbar_sim", ["--slots", "+5"], "--slots"),
    ("example_crossbar_sim", ["--seed", " 7"], "--seed"),
    ("example_crossbar_sim", ["--hot-outputs", "-2"], "--hot-outputs"),
    ("example_crossbar_sim", ["--hot-fraction", "2"], "--hot-fraction"),
    ("example_crossbar_sim", ["--victim", "abc"], "--victim"),
    ("example_crossbar_sim", ["--burst", "0"], "--burst"),
    ("example_crossbar_sim", ["--pattern", "incast", "--victim", "9"],
     "victim"),
    ("example_switch_sim", ["--ports", "abc"], "--ports"),
    ("example_switch_sim", ["--ports", "-1"], "--ports"),
    ("example_switch_sim", ["--queues", "0"], "--queues"),
    ("example_switch_sim", ["--load", "1.5"], "--load"),
    ("example_switch_sim", ["--load", "-0.1"], "--load"),
    ("example_switch_sim", ["--load", "0"], "load"),
    ("example_switch_sim", ["--slots", "1e6"], "--slots"),
    ("example_switch_sim", ["--seed", "-1"], "--seed"),
    ("example_switch_sim", ["--hot-ports", "x"], "--hot-ports"),
    ("example_switch_sim", ["--hot-fraction", "0.5.5"],
     "--hot-fraction"),
    ("example_switch_sim", ["--victim", "-1"], "--victim"),
    ("example_switch_sim", ["--burst", "-64"], "--burst"),
    ("example_switch_sim", ["--jobs", "-3"], "--jobs"),
    ("example_scenario_matrix", ["--seed", "0x"], "--seed"),
    ("example_scenario_matrix", ["--seed-exact", "-5"], "--seed-exact"),
    ("example_scenario_matrix", ["--slots", "0"], "--slots"),
    ("example_scenario_matrix", ["--jobs", "four"], "--jobs"),
    ("example_dimensioning_explorer", ["--sweep", "--jobs", "-1"],
     "--jobs"),
    ("example_dimensioning_explorer", ["oc3072", "-512"], "queues"),
    ("example_dimensioning_explorer", ["oc3072", "512", "0"], "b"),
    ("example_dimensioning_explorer", ["oc3072", "512", "4", "x"], "M"),
    ("example_dimensioning_explorer", ["oc3072", "512", "3", "256"],
     "granularity"),
    ("bench_validation", ["--jobs", "1e3"], "--jobs"),
]

# Well-formed values still run (cheap modes only).
ACCEPTED = [
    ("example_crossbar_sim", ["--ports", "0x4", "--load", "0.9",
                              "--list"]),
    ("example_switch_sim", ["--ports", "4", "--load", ".45",
                            "--list"]),
    ("example_scenario_matrix", ["--smoke", "--slots", "2000",
                                 "--list"]),
    ("example_dimensioning_explorer", ["oc3072", "512", "4", "256"]),
]


def run(build, binary, args):
    return subprocess.run([str(build / binary)] + args,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=60)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    build = Path(sys.argv[1]).resolve()
    failures = []
    for binary, args, needle in REJECTED:
        proc = run(build, binary, args)
        line = f"{binary} {' '.join(repr(a) for a in args)}"
        if proc.returncode < 0:
            failures.append(f"{line}: killed by signal {-proc.returncode}")
        elif proc.returncode != 2:
            failures.append(f"{line}: exit {proc.returncode}, wanted 2")
        elif needle not in proc.stderr:
            failures.append(f"{line}: stderr does not name {needle!r}: "
                            f"{proc.stderr.strip()!r}")
    for binary, args in ACCEPTED:
        proc = run(build, binary, args)
        if proc.returncode != 0:
            failures.append(f"{binary} {' '.join(args)}: exit "
                            f"{proc.returncode}: {proc.stderr.strip()!r}")
    for f in failures:
        print("FAIL:", f)
    print(f"{len(REJECTED) + len(ACCEPTED) - len(failures)} of "
          f"{len(REJECTED) + len(ACCEPTED)} cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
