#!/usr/bin/env python3
"""Self-test of the benchmark's own gates.

    python3 perfbench/selftest.py

Run from the repository root.  It shows two things:

1. The correctness check catches a changed output: a run of
   paper_sparse on the default seed passes against the committed
   expected values, and fails (non-zero exit, "correct": false, the
   field named) when one expected value is perturbed.
2. The layer table attributes a slowdown to the right layer: traced
   runs of paper_saturated with every HybridBuffer::step span
   stretched by 20% (run.py --inject buffer.step:0.2) show the rise
   in buffer.step_ns_per_slot relative to sim.workload_ns_per_slot,
   which the injection does not touch.  Both come from the same reps,
   so host-speed drift cancels in their ratio.

Exits 0 when both hold.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark driver, for its paths)

INJECTED = 0.2
# The injected row, relative to an untouched one, must rise by at
# least half the injection and by at most twice it.
MIN_RISE = INJECTED / 2
MAX_RISE = INJECTED * 2


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, \
        proc.stderr


def check_expected():
    base = ["--workload", "paper_sparse", "--seed", str(run.DEFAULT_SEED),
            "--seconds", "1", "--trace", "0"]
    code, doc, err = bench(*base)
    if code != 0 or not doc["correct"]:
        print("FAIL: unperturbed run did not pass\n" + err)
        return False
    expected = json.loads(run.EXPECTED.read_text())
    expected["paper_sparse"]["granted"] += 1
    perturbed = run.build_dir() / "selftest-expected.json"
    perturbed.write_text(json.dumps(expected))
    code, doc, err = bench(*base, "--expected", str(perturbed))
    perturbed.unlink()
    caught = code != 0 and doc is not None and not doc["correct"] \
        and "output granted" in err
    print(f"{'ok' if caught else 'FAIL'}: perturbed expected 'granted' "
          f"-> exit {code}, correct={doc and doc['correct']}")
    return caught


def traced_metrics(inject):
    args = ["--workload", "paper_saturated", "--seed", "7",
            "--seconds", "4", "--trace", "1"]
    if inject:
        args += ["--inject", f"buffer.step:{INJECTED}"]
    code, doc, err = bench(*args)
    if code != 0:
        raise SystemExit("FAIL: traced run failed\n" + err)
    return {k: v["value"] for k, v in doc["metrics"].items()}


def check_injection():
    # Alternate plain and injected runs so host drift hits both sides.
    runs = {False: [], True: []}
    for _ in range(3):
        for inject in (False, True):
            runs[inject].append(traced_metrics(inject))

    def rise(num, den=None):
        def value(m):
            return m[num] / m[den] if den else m[num]
        plain = statistics.median(value(m) for m in runs[False])
        slow = statistics.median(value(m) for m in runs[True])
        return slow / plain - 1.0

    step, other = "buffer.step_ns_per_slot", "sim.workload_ns_per_slot"
    relative = rise(step, other)
    ok = MIN_RISE <= relative <= MAX_RISE
    print(f"{'ok' if ok else 'FAIL'}: injected {INJECTED:.0%} into "
          f"buffer.step -> {step} / {other} {relative:+.1%} "
          f"({step} {rise(step):+.1%}, {other} {rise(other):+.1%})")
    return ok


def main():
    ok = check_expected()
    ok = check_injection() and ok
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
