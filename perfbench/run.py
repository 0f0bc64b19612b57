#!/usr/bin/env python3
"""Host-performance benchmark of the Genomics-GPU simulator.

Usage:
    python3 perfbench/run.py --workload paper-tiny|engine-small
                             --seed N --seconds S --trace 0|1
                             [--update-golden]

Run from the repository root. Builds the simulator and the
measuring program (perfbench/perfbench.cc) from source into
.bench_build/, runs one workload in it, checks the digest of its simulated output
against perfbench/golden.json and prints, as the last stdout line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("paper-tiny", "engine-small")
# paper-tiny's inputs are fixed by the figure binaries' default seed.
FIXED_SEED_WORKLOADS = ("paper-tiny",)
TIMEOUT_S = 170


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the build up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr)


def golden_key(workload, seed):
    return "fixed" if workload in FIXED_SEED_WORKLOADS else str(seed)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's digest as the golden")
    args = parser.parse_args()

    for sub in ("src", "bench"):
        if not os.path.exists(os.path.join(ROOT, sub, "CMakeLists.txt")):
            log("simulator sources (%s/) not found next to perfbench/" % sub)
            return 2
    build()

    work = os.path.join(ROOT, ".bench_build", "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(BUILD, "ggpu_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bench-dir", os.path.join(BUILD, "ggpu_bench"),
           "--work-dir", work]
    # Own process group, so a timeout also stops the figure binary it runs.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("ggpu_perfbench timed out after %d s" % TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log("ggpu_perfbench exited with status", proc.returncode)
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    failures = list(result["failures"])
    failed = result["failed"]
    attempted = result["attempted"]
    key = golden_key(args.workload, args.seed)
    with open(GOLDEN) as f:
        golden = json.load(f)
    expected = golden.get(args.workload, {}).get(key)
    if args.update_golden:
        if failed:
            log("not recording a golden from a failing run")
            return 1
        golden.setdefault(args.workload, {})[key] = result["digest"]
        with open(GOLDEN, "w") as f:
            json.dump(golden, f, indent=2, sort_keys=True)
            f.write("\n")
    elif expected is not None:
        attempted += 1
        if expected != result["digest"]:
            failed += 1
            failures.append("simulated-output digest %s != golden %s"
                            % (result["digest"], expected))
    for failure in failures:
        log("FAILED:", failure)

    declared = declared_metrics(args.trace)
    metrics = result["metrics"]
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != declared:
        log("metrics differ from BENCHMARK.json:",
            sorted(set(got.items()) ^ set(declared.items())))
        return 1

    if args.workload in FIXED_SEED_WORKLOADS:
        print("%s: inputs fixed by the figure binaries' default seed; "
              "--seed %d not used" % (args.workload, args.seed))
    print("digest %s (golden %s)" % (result["digest"],
                                     expected or "none for this seed"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
