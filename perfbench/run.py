#!/usr/bin/env python3
"""Builds and runs the TIPPERS benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload req_dense --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload of BENCHMARK.json in turn;
`req_dense` and `req_sparse` run only when named.

`--trace 0` runs the untraced binary and reports the end-to-end metrics
of BENCHMARK.json; `--trace 1` runs the traced binary and reports the
per-layer metrics. A human-readable report (every metric with its unit
and sample count, the descriptors, and the correctness checks) precedes
the last line, a JSON object with `correct`, `attempted`, `failed` and
`metrics`. The full record, host descriptors included, is written to
perfbench/out/. Exits non-zero, without a result line, when the sources
are missing or do not build, and non-zero after the result line when a
correctness check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "Cargo.toml"
OUT = HERE / "out"
# Generous per-process limit; the whole run must end within 180 s.
RUN_TIMEOUT_S = 170
# Workloads the binaries run that BENCHMARK.json leaves out: at the run
# length its time budget allows they spread past their bounds on a 2-core
# host, so compare them by hand, from interleaved parent and change runs.
BY_HAND = ("req_dense", "req_sparse")


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds both binaries; returns their directory."""
    for crate in ("core", "bench", "policy", "sensors", "spatial", "ontology"):
        if not (ROOT / "crates" / crate / "Cargo.toml").is_file():
            fail(f"crates/{crate} is missing: run from a full checkout", 2)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--bins", "--manifest-path", str(MANIFEST)]
    if subprocess.run(cmd, env=env, stdout=sys.stderr, check=False).returncode != 0:
        fail("build failed", 3)
    return target / "release"


def run_json(cmd):
    """Runs a binary and returns the JSON object on its last stdout line."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} timed out", 4)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{cmd[0]} exited {proc.returncode} without a result", 5)
    return json.loads(lines[-1])


def host():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=False)
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    digest = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")) + sorted(HERE.glob("src/**/*.rs")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "machine": platform.machine(),
        "rustc": rustc.stdout.strip() or "unknown",
        "commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
        "source_sha256": digest.hexdigest(),
    }


def run_one(workload, args, spec, bins):
    """Runs one workload, prints its report and result line; returns
    whether its checks passed."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    common = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans = OUT / f"{stem}-spans.csv"
        result = run_json([str(bins / "perfbench-traced"), *common, "--spans", str(spans)])
    else:
        result = run_json([str(bins / "perfbench"), *common])

    result["host"] = host()
    result["seed"] = args.seed
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    metrics = result["metrics"]
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}")
    for section in ("host", "descriptors", "extra"):
        print(f"{section}: " + ", ".join(f"{k}={v}" for k, v in result.get(section, {}).items()))
    print("checks:")
    for line in result["checks"]:
        print(f"  {line}")
    print(f"{'metric':40} {'value':>16} {'unit':8} {'samples':>9}")
    for name, m in metrics.items():
        mark = "  exact" if m["exact"] else ""
        print(f"{name:40} {m['value']:16.6g} {m['unit']:8} {m['samples']:9}{mark}")

    out = {}
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} missing or not in {metric['unit']}", 6)
        out[metric["name"]] = {"value": got["value"], "unit": metric["unit"]}
    line = {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"], "metrics": out}
    print(json.dumps(line), flush=True)
    return result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names) | set(BY_HAND):
        fail(f"unknown workload {args.workload}", 2)
    bins = build()
    OUT.mkdir(exist_ok=True)
    passed = [run_one(w, args, spec, bins) for w in workloads]
    sys.exit(0 if all(passed) else 1)


if __name__ == "__main__":
    main()
