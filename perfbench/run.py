#!/usr/bin/env python3
"""Builds and runs the interface-synthesis benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload spec_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-manifest BENCHMARK.json

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
builds against the repository's crates. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root). The
last line of standard output is the run's JSON result; build output goes
to standard error. Traced runs write their spans under .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ["spec_sweep", "field_sim", "check_big", "check_catalog"]

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds the benchmark binary and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(PACKAGE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except FileNotFoundError:
        fail("cargo not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})")
    binary = target / "release" / "ifsyn-perfbench"
    if not binary.is_file():
        fail(f"built binary missing at {binary}")
    return binary


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True,
                             text=True, timeout=30, check=False)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_bench(binary, args, quiet=False):
    """Runs the binary; returns (exit code, stdout text)."""
    cmd = [str(binary), "--root", str(ROOT), "--out", str(OUT)] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              stderr=subprocess.DEVNULL if quiet else None,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}", 3)
    return done.returncode, done.stdout


def result_of(stdout):
    """The JSON result on the last line of a run's output."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest(binary, base_args):
    """Checks the benchmark itself; returns the number of problems."""
    problems = []
    manifest = OUT / "BENCHMARK.expected.json"
    OUT.mkdir(exist_ok=True)
    code, _ = run_bench(binary, ["--write-manifest", str(manifest)])
    committed = ROOT / "BENCHMARK.json"
    if code != 0 or manifest.read_text() != committed.read_text():
        problems.append("BENCHMARK.json differs from the manifest the binary writes")
    spec = json.loads(committed.read_text())
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio")]

    def traced(workload, seed):
        args = base_args + ["--workload", workload, "--seed", str(seed),
                            "--seconds", "2", "--trace", "1"]
        code, out = run_bench(binary, args, quiet=True)
        res = result_of(out) if code == 0 else None
        if res is None:
            problems.append(f"{workload} seed {seed}: run failed (exit {code})")
            return None, None
        if not res["correct"] or res["failed"] != 0:
            problems.append(f"{workload} seed {seed}: {res['failed']} of "
                            f"{res['attempted']} checks failed")
        doc = json.loads((OUT / f"trace-{workload}-{seed}.json").read_text())
        return res, doc["passes"][0]["inputs"]

    for workload in WORKLOADS:
        a1, digest_a1 = traced(workload, 1)
        a2, digest_a2 = traced(workload, 1)
        b, digest_b = traced(workload, 2)
        if a1 is None or a2 is None or b is None:
            continue
        for name in exact:
            v1, v2 = a1["metrics"][name]["value"], a2["metrics"][name]["value"]
            if v1 != v2:
                problems.append(f"{workload}: {name} differs between runs of one seed "
                                f"({v1} vs {v2})")
        if a1["metrics"]["trace.duplicate_inputs"]["value"] != 0:
            problems.append(f"{workload}: a run repeated an input")
        if digest_a1 != digest_a2:
            problems.append(f"{workload}: one seed gave different first-pass inputs")
        if digest_a1 == digest_b:
            problems.append(f"{workload}: seeds 1 and 2 gave identical inputs")
        print(f"selftest {workload}: counts repeat, seeds differ, "
              f"{a1['attempted'] + a2['attempted'] + b['attempted']} checks passed")
    for p in problems:
        print(f"selftest FAILED: {p}")
    return len(problems)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--commit", default=os.environ.get("BENCH_COMMIT", "unknown"),
                        help="commit id recorded in the result's provenance")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-manifest", metavar="FILE")
    opts = parser.parse_args()

    if not (ROOT / "crates").is_dir() or not (ROOT / "specs").is_dir():
        fail(f"{ROOT} is not a checkout of the repository (crates/ or specs/ missing)")
    binary = build()
    base = ["--commit", opts.commit, "--rustc", rustc_version()]
    if opts.write_manifest:
        code, _ = run_bench(binary, ["--write-manifest", opts.write_manifest])
        sys.exit(code)
    if opts.selftest:
        sys.exit(1 if selftest(binary, base) else 0)
    if opts.workload is None:
        parser.error("--workload is required")
    args = base + ["--workload", opts.workload, "--seed", str(opts.seed),
                   "--trace", opts.trace]
    if opts.seconds is not None:
        args += ["--seconds", str(opts.seconds)]
    code, out = run_bench(binary, args)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
