#!/usr/bin/env python3
"""Repository benchmark: build the pktbuf benchmark binary, run one
workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every workload

Run from the repository root.  The binary is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) under the root.
Metric names, units and directions come from BENCHMARK.json.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is the run manifest.  A human
summary goes to stderr.  The exit code is 0 only when every check
passed.

Checks, all of which must pass:
  - every leg (one buffer run to completion) passes the golden FIFO
    checker, delivers every admitted cell and raises no panic;
  - every rep of one seed produces identical outputs, and the
    crossbar and matrix reps equal one run through the library's own
    entry point (runCrossbarCheckpointed, makeScenarioTasks);
  - for the default seed, the deterministic outputs equal the values
    committed in perfbench/expected.json;
  - with --trace 1, every traced rep reproduces the untraced outputs
    exactly, the iSLIP replay reproduces every matching, and the
    layer rows account for the traced wall time to within
    UNATTRIBUTED_MAX.

Extra options (not used by the benchmark contract):
  --expected PATH      compare against another expected-values file
  --update-expected    rewrite this workload's expected values (default
                       seed only); for a PR that changes modelled
                       behaviour on purpose and says so
  --inject ROW:FRAC    stretch one layer row's spans (gate self-test)
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
EXPECTED = HERE / "expected.json"
# Largest share of the traced wall time the layer rows may leave
# unattributed.
UNATTRIBUTED_MAX = 0.02
# Host times are reported in reference-host seconds: measured seconds
# scaled by CAL_REF_S / (median time of the binary's calibration
# kernel, which runs before every untraced rep).  A shared 4-vCPU KVM
# guest drifts by up to 40% in speed over seconds; the kernel drifts
# with the simulator, so the scaling removes most of that drift from
# run-to-run comparisons.  CAL_REF_S is the kernel's typical time
# there.
CAL_REF_S = 0.025
BINARY_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure and build incrementally; None on failure."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(out), "-j", jobs]):
        proc = subprocess.run(cmd, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed:", " ".join(cmd))
            return None
    binary = out / "perfbench"
    return binary if binary.is_file() else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def median(values):
    return statistics.median(values) if values else 0.0


def host_speed(doc):
    """Calibration time relative to the reference host (>1: slower)."""
    return median([r["calibration_s"] for r in doc["reps"]]) / CAL_REF_S


def end_to_end(doc, speed):
    """End-to-end metrics; host times divided by `speed`."""
    reps = doc["reps"]
    out = doc["outputs"]
    offered = out["arrivals"] + out["drops"]
    attempted = doc["legs_attempted"]
    return {
        "slot_rate": median([r["buffer_slots"] / r["simulate_thread_s"]
                             / 1e6 for r in reps]) * speed,
        "wall_s": median([r["wall_s"] for r in reps]) / speed,
        "setup_s": median([r["setup_s"] for r in reps]) / speed,
        "peak_rss_mb": doc["peak_rss_mb"],
        "pass_frac": (attempted - doc["legs_failed"]) / attempted,
        "admit_frac": out["arrivals"] / offered if offered else 0.0,
    }


def per_layer(doc):
    traced = doc["traced"]
    values = {k: median([t["metrics"][k] for t in traced])
              for k in traced[0]["metrics"]}
    values["trace.overhead_frac"] = (
        median([t["wall_s"] for t in traced])
        / median([r["wall_s"] for r in doc["reps"]]) - 1.0)
    # Modelled-design outputs in simulated slots: exact per seed, but
    # too seed-dependent to gate across seeds (see README.md).
    values["model.delay_slots_mean"] = doc["outputs"]["delay_slots_mean"]
    values["model.delay_slots_max"] = doc["outputs"]["delay_slots_max"]
    return values


def layer_table(doc):
    """Median share of the traced thread time per layer row."""
    traced = doc["traced"]
    return {row: median([t["layers"][row] / t["thread_s"]
                         for t in traced])
            for row in traced[0]["layers"]}


def compare_expected(workload, outputs, path):
    try:
        expected = json.loads(Path(path).read_text())[workload]
    except (OSError, ValueError, KeyError) as e:
        return [f"no expected values for {workload} in {path}: {e}"]
    errors = []
    for key in sorted(set(expected) | set(outputs)):
        if expected.get(key) != outputs.get(key):
            errors.append(f"output {key}: expected {expected.get(key)!r}"
                          f", got {outputs.get(key)!r}")
    return errors


def update_expected(workload, outputs):
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    data[workload] = outputs
    EXPECTED.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    log(f"perfbench: wrote expected values of {workload} to {EXPECTED}")


def run_workload(args, spec, binary, workload):
    """Run one workload; (result line, manifest), or None when the
    binary itself failed."""
    cmd = [str(binary), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: benchmark binary timed out")
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"perfbench: benchmark binary failed ({proc.returncode})")
        return None
    doc = json.loads(proc.stdout.strip().splitlines()[-1])

    errors = list(doc["errors"])
    if args.update_expected:
        if errors or doc["legs_failed"]:
            log("perfbench: not updating expected values of a failing "
                "run")
        else:
            update_expected(workload, doc["outputs"])
    if args.seed == DEFAULT_SEED:
        errors += compare_expected(workload, doc["outputs"],
                                   args.expected)

    if args.trace:
        values = per_layer(doc)
        table = layer_table(doc)
        if abs(table["unattributed"]) > UNATTRIBUTED_MAX:
            errors.append(f"layer rows leave {table['unattributed']:.3f}"
                          f" of the traced time unattributed (max "
                          f"{UNATTRIBUTED_MAX})")
        wanted = spec["per_layer"]
    else:
        values = end_to_end(doc, host_speed(doc))
        table = None
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]],
                              "unit": m["unit"]}

    manifest = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "build_type": doc["build_type"],
        "compiler": doc["compiler"],
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "workers": doc["workers"],
        "calibration_ms": host_speed(doc) * CAL_REF_S * 1e3,
        "untraced_reps": len(doc["reps"]),
        "traced_reps": len(doc["traced"]),
    }

    log(f"perfbench {workload} seed={args.seed} "
        f"trace={args.trace}: {len(doc['reps'])} untraced, "
        f"{len(doc['traced'])} traced reps")
    for k, v in manifest.items():
        log(f"  manifest {k:14s} {v}")
    for name, m in metrics.items():
        log(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        log("  unscaled host times (measured seconds):")
        for name, v in end_to_end(doc, 1.0).items():
            if name in ("slot_rate", "wall_s", "setup_s"):
                log(f"    {name:28s} {v:14.6g}")
    if table:
        log("  layer table (median share of traced thread time):")
        for row, share in table.items():
            log(f"    {row:24s} {share:8.4f}")
    for e in errors:
        log("  CHECK FAILED:", e)

    result = {"correct": not errors and doc["legs_failed"] == 0,
              "attempted": doc["legs_attempted"],
              "failed": doc["legs_failed"],
              "metrics": metrics}
    return result, manifest


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", default=str(EXPECTED))
    ap.add_argument("--update-expected", action="store_true")
    ap.add_argument("--inject")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.update_expected and args.seed != DEFAULT_SEED:
        ap.error("--update-expected needs the default seed")

    binary = build()
    if binary is None:
        return 2

    # 'all' prints each workload's manifest and result line, then one
    # combined line whose metric names are prefixed by the workload.
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    workloads = names if args.workload == "all" else [args.workload]
    for workload in workloads:
        ran = run_workload(args, spec, binary, workload)
        if ran is None:
            return 2
        result, manifest = ran
        print(json.dumps({"manifest": manifest}))
        if len(workloads) == 1:
            combined = result
            break
        print(json.dumps(result), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
