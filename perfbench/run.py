#!/usr/bin/env python3
"""Whole-chain benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds the benchmark (and the datc library
from src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs one workload. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
every metric with its unit and sample count, every failed check and the
run metadata. Each result is also saved under <build>/results/ for
perfbench/compare.py.

Exit status: the benchmark's own (0 = every check passed, 3 = output
mismatch), 2 when the checkout cannot be built, 1 on a timeout or crash.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("offline-16ch", "aer-gateway-64", "serve-open-256")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(bdir):
    if not (ROOT / "src").is_dir() or not (ROOT / "src" / "config").is_dir():
        log(f"no datc sources under {ROOT / 'src'}; run from a full checkout")
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("cmake not found")
        sys.exit(2)
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)


def git_commit():
    # Only the checkout itself counts, never a repository around it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds: identifies the code
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def parse_samples(lines):
    """Metric lines read `name value unit (n=count)`."""
    samples = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[3].startswith("(n="):
            samples[parts[0]] = int(parts[3][3:-1])
    return samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the tests of the benchmark's arithmetic")
    args = ap.parse_args()

    bdir = build_dir()
    build(bdir)
    if args.selftest:
        sys.exit(subprocess.run([str(bdir / "perfbench_selftest")]).returncode)
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")

    scratch = bdir / "scratch" / f"{args.workload}-{os.getpid()}"
    cmd = [str(bdir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"{args.workload} exited {proc.returncode} without a result")
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    meta = {}
    for line in lines[:-1]:
        if line.startswith("# meta "):
            meta = json.loads(line[len("# meta "):])
        else:
            print(line)
    meta["git_commit"] = git_commit()
    meta["source_sha256"] = source_digest()
    print("# meta " + json.dumps(meta, sort_keys=True))

    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    (results / name).write_text(json.dumps(
        {"meta": meta, "samples": parse_samples(lines), "result": result},
        indent=1, sort_keys=True) + "\n")

    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
