#!/usr/bin/env python3
"""End-to-end benchmark of the planner service and the scenario sweep.

Run from the root of the repository:

    python3 perfbench/run.py --workload serve_cold --seed 7 --seconds 10 --trace 0

The first run builds the library sources under src/ and the benchmark under
perfbench/src/ into .bench_build/perfbench (Release; CARGO_TARGET_DIR, when
set, names the build root instead). Later runs only rebuild what changed.

Standard output ends with two JSON lines: a report (provenance, thread and
connection counts, sample counts, any violations) and the result,
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, and the
benchmark's spans are written to .bench_build/perfbench/traces/.

Exit status: 0 when every checked output was correct, 1 when a check
failed, 2 when the benchmark could not build or run (no result printed).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("serve_cold", "serve_hot", "sweep")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = Path(base)
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die("build failed; see " + str(log))
    binary = out / "perfbench"
    if not binary.is_file():
        die("build produced no perfbench binary")
    return binary


def cmake_cache(out, key):
    try:
        for line in (out / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def provenance(out):
    sha = None
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        # Only this checkout's own repository counts, not one around it.
        if r.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    compiler = cmake_cache(out, "CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        try:
            r = subprocess.run([compiler, "--version"], capture_output=True,
                               text=True, timeout=10)
            version = r.stdout.splitlines()[0] if r.stdout else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "build_type": cmake_cache(out, "CMAKE_BUILD_TYPE"),
        "compiler": version or compiler,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode not in (0, 1) or len(lines) < 2:
        die(f"{args.workload} exited with status {r.returncode}")
    report = json.loads(lines[-2])
    result = json.loads(lines[-1])
    report["report"]["provenance"] = provenance(out)
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
